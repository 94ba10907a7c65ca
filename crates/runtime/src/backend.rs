//! The backend seam: the I/O half of one shard.
//!
//! The host loop ([`crate::shard`]) needs exactly four things from the
//! network: wait for frames addressed to its processes, send one encoded
//! payload to a receiver list, say what is still in flight, and name the
//! gauges it publishes. Two backends provide them:
//!
//! * [`Endpoint`] — one [`Transport`] endpoint per shard, hosting every
//!   process of the shard (a per-process mesh endpoint, a
//!   [`MemNetwork::grouped`](irs_net::MemNetwork::grouped) shard endpoint, a
//!   UDP socket, or any of them behind a
//!   [`FaultyLink`](irs_net::FaultyLink)). A poll is one blocking `recv`
//!   followed by a zero-timeout drain of up to [`RECV_BATCH`] frames, and
//!   frames are routed to processes by their `to` header.
//! * [`Sockets`] — a [`Reactor`] with one nonblocking UDP socket per hosted
//!   process: a frame is accepted only on the socket of the process it
//!   names, and sends queue on the reactor with encode-once fan-out.

use irs_net::reactor::RECV_BATCH;
use irs_net::{NetError, Reactor, Transport};
use irs_obs::names;
use irs_types::ProcessId;
use std::time::Duration;

/// What the host loop needs from a shard's I/O (see module docs).
pub(crate) trait Backend: Send {
    /// Waits up to `timeout` for input, then hands every frame that arrived
    /// to `on_frame(to, from, payload)` (the payload is borrowed for the
    /// call only). Returns the number of frames received.
    fn poll(
        &mut self,
        timeout: Duration,
        on_frame: impl FnMut(ProcessId, ProcessId, &[u8]),
    ) -> Result<usize, NetError>;

    /// Sends one encoded payload from hosted process `local` (`from`) to
    /// every target. Failures are link loss, which the protocols tolerate.
    fn send(&mut self, local: usize, from: ProcessId, targets: &[ProcessId], payload: &[u8]);

    /// Sends queued behind socket backpressure.
    fn queued(&self) -> usize {
        0
    }

    /// Frames held inside the backend for later delivery (a delaying link).
    fn held(&self) -> usize {
        0
    }

    /// Appends the backend's snapshot gauges for hosted process `local`.
    fn gauges(&self, local: usize, extra: &mut Vec<(&'static str, u64)>);
}

/// A shard over one [`Transport`] endpoint (see module docs).
#[derive(Debug)]
pub(crate) struct Endpoint<T>(pub(crate) T);

impl<T: Transport> Backend for Endpoint<T> {
    fn poll(
        &mut self,
        timeout: Duration,
        mut on_frame: impl FnMut(ProcessId, ProcessId, &[u8]),
    ) -> Result<usize, NetError> {
        let mut got = 0;
        let mut next = self.0.recv(timeout)?;
        while let Some(frame) = next {
            on_frame(frame.to, frame.from, &frame.payload);
            got += 1;
            if got == RECV_BATCH {
                break;
            }
            next = self.0.recv(Duration::ZERO)?;
        }
        Ok(got)
    }

    fn send(&mut self, _local: usize, from: ProcessId, targets: &[ProcessId], payload: &[u8]) {
        let _ = match targets {
            [to] => self.0.send(from, *to, payload),
            _ => self.0.send_many(from, targets, payload),
        };
    }

    fn held(&self) -> usize {
        self.0.pending_held()
    }

    fn gauges(&self, _local: usize, extra: &mut Vec<(&'static str, u64)>) {
        extra.push((names::MALFORMED_DROPPED, self.0.malformed_dropped()));
        extra.push((names::SENDS_BATCHED, self.0.sends_batched()));
    }
}

/// A shard over a [`Reactor`] whose endpoint `i` is the socket of the
/// shard's `i`-th process, `ids[i]` (see module docs).
#[derive(Debug)]
pub(crate) struct Sockets {
    pub(crate) reactor: Reactor,
    pub(crate) ids: Vec<ProcessId>,
}

impl Backend for Sockets {
    fn poll(
        &mut self,
        timeout: Duration,
        mut on_frame: impl FnMut(ProcessId, ProcessId, &[u8]),
    ) -> Result<usize, NetError> {
        let ids = &self.ids;
        self.reactor
            .poll_once(timeout, |ep, from, to, payload| {
                if ids.get(ep) == Some(&to) {
                    on_frame(to, from, payload);
                }
            })
            .map_err(NetError::Io)
    }

    fn send(&mut self, local: usize, from: ProcessId, targets: &[ProcessId], payload: &[u8]) {
        // Queue overflow sheds as link loss.
        let _ = self.reactor.queue_fanout(local, from, targets, payload);
    }

    fn queued(&self) -> usize {
        self.reactor.pending_sends()
    }

    /// The endpoint's own counters (`malformed_dropped`, `send_queue_depth`,
    /// `sends_shed`) plus the shard reactor's totals (`sends_batched`,
    /// `frames_rx`, `frames_tx`), shared by every socket it serves.
    fn gauges(&self, local: usize, extra: &mut Vec<(&'static str, u64)>) {
        let r = &self.reactor;
        extra.push((names::MALFORMED_DROPPED, r.malformed(local)));
        extra.push((names::SENDS_BATCHED, r.sends_batched()));
        extra.push((names::FRAMES_RX, r.frames_rx()));
        extra.push((names::FRAMES_TX, r.frames_tx()));
        extra.push((names::SEND_QUEUE_DEPTH, r.queue_depth(local) as u64));
        extra.push((names::SENDS_SHED, r.shed(local)));
    }
}
