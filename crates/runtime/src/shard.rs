//! The host loop: one shard's event loop over a [`Backend`].
//!
//! Every deployment shape runs this loop, on `W` shard threads or (for
//! [`run_node`](crate::run_node)) on the calling thread. One turn is
//!
//! 1. fire every due timer from the shard's **timer queue** (a binary heap
//!    keyed by the deadline in ticks since the shard started); re-arming a
//!    timer bumps its generation, and a popped fire with a stale generation
//!    is skipped, which implements "re-arming replaces the pending timer"
//!    without deleting queue entries. (A heap, not `irs-sim`'s timing
//!    wheel: a shard holds a few timers per process, and the wheel's
//!    7 × 1024 preallocated slots cost ~230 KB per shard, a quarter of a
//!    thread-per-node service's resident memory);
//! 2. publish the snapshots that changed since the last turn (once per turn,
//!    not once per event: at large `n`, cloning a snapshot per delivery
//!    would dwarf the protocol work);
//! 3. block in the backend until the next timer deadline, the next frame,
//!    or the poll budget, whichever comes first;
//! 4. **stage** what arrived: telemetry-plane scrape requests (answered
//!    after the poll, never shown to the protocol) and protocol frames the
//!    message type admits ([`Wire::admit`]). Frames for a crash-stopped
//!    process are dropped unread, scrapes included;
//! 5. answer the staged scrapes and deliver the staged frames. A process's
//!    sends are wire-encoded once and handed to the backend with the whole
//!    receiver list.
//!
//! On stop the shard **drains**: it keeps polling and delivering (with the
//! reactions discarded) until a full quiet window passes with nothing
//! arriving and nothing in flight inside the backend, so frames already on
//! the way when the stop landed are not dropped.
//!
//! With observability attached the loop counts polls, timer fires and
//! delivered frames on the registry, traces leader changes and the onset
//! of send backpressure to the flight recorder, feeds each process's
//! leader-reign SLO panel, and answers scrape requests.

use crate::backend::Backend;
use crate::NodeHandle;
use irs_net::wire::decode_payload;
use irs_net::wire_obs::{encode_scrape_reply, is_obs_payload, scrape_session_key};
use irs_net::{ObsMsg, Wire};
use irs_obs::{names, Counter, EventKind, Obs, ReignTracker, Responder, ScrapeFormat, Tracer};
use irs_types::{Actions, Destination, Introspect, ProcessId, Protocol, TimerId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest a shard blocks before re-checking its stop flag.
const POLL_BUDGET: Duration = Duration::from_millis(20);
/// Poll budget while sends are queued behind socket backpressure: short,
/// so the flush retry is not delayed by a full poll budget.
const BACKPRESSURE_BUDGET: Duration = Duration::from_millis(1);
/// Quiet window that ends the shutdown drain. Longer than [`POLL_BUDGET`],
/// so every peer shard has seen its stop flag and gone quiet by the time a
/// drain concludes.
const DRAIN_QUIET: Duration = Duration::from_millis(50);
/// Hard cap on the shutdown drain, so a link holding frames behind a
/// pathological delay cannot wedge shutdown.
const DRAIN_CAP: Duration = Duration::from_secs(10);

/// Check periods a reign must span to count as *stable* on the leader-reign
/// SLO panel: the prior threshold is `tick × STABLE_REIGN_TICKS` (≥ 1 ms),
/// ≈ 102 ms at the default 100 µs tick. Once a process has measured enough
/// real Ω check periods the bar re-derives itself from their p99 (see
/// [`ReignTracker::note_check_period_us`]) and this value only caps it.
const STABLE_REIGN_TICKS: u32 = 1024;

/// Timer slot of the Ω failure detector's round (check) timer, whose
/// measured period calibrates the stable-reign bar. Every hosted protocol
/// in this stack forwards the oracle's timers with their ids intact.
const CHECK_TIMER_SLOT: u16 = 1;

/// One process hosted by a shard.
struct Local<P> {
    proto: P,
    /// Published snapshot and crash flag (the stop flag is the shard's).
    handle: NodeHandle,
    /// Timer generations, densely indexed by the raw `TimerId`.
    timer_gen: Vec<u64>,
    frames_delivered: u64,
    /// Changed since the last publish.
    dirty: bool,
    obs: Option<LocalObs>,
}

impl<P> Local<P> {
    fn crashed(&self) -> bool {
        self.handle.crashed.load(Ordering::SeqCst)
    }

    fn bump_timer_gen(&mut self, id: TimerId) -> u64 {
        let i = usize::from(id.raw());
        if i >= self.timer_gen.len() {
            self.timer_gen.resize(i + 1, 0);
        }
        self.timer_gen[i] += 1;
        self.timer_gen[i]
    }
}

/// One process's flight-recorder handle and leader-reign SLO tracker.
struct LocalObs {
    tracer: Option<Tracer>,
    reign: ReignTracker,
    /// Leader in the last published snapshot.
    last_leader: ProcessId,
    /// When the Ω check timer last fired.
    last_check_fire: Option<Instant>,
}

/// A shard's registry handles and scrape responder.
struct ShardObs {
    obs: Arc<Obs>,
    polls: Counter,
    timers_fired: Counter,
    frames: Counter,
    /// Scrape sessions of every process on the shard (session keys mix in
    /// the scraped process's id, so one responder serves them all).
    responder: Responder,
    /// Registry cell the counters increment.
    cell: usize,
    /// Whether the previous turn saw queued sends (backpressure is traced
    /// on the off→on transition, not every turn).
    backpressured: bool,
}

/// One shard's event-loop state (see module docs).
pub(crate) struct Shard<P: Protocol, B> {
    backend: B,
    locals: Vec<Local<P>>,
    /// `local_of[p]` = local index of `ProcessId(p)`, `usize::MAX` if the
    /// shard does not host it.
    local_of: Vec<usize>,
    /// Armed timers, earliest deadline first: `(deadline tick, local,
    /// timer, generation)`.
    timers: BinaryHeap<Reverse<(u64, usize, TimerId, u64)>>,
    /// Frames admitted by the last poll: `(local, from, message)`.
    staged: Vec<(usize, ProcessId, P::Msg)>,
    /// Scrape requests staged by the last poll: `(local, asker, format,
    /// cursor)`.
    scrapes: Vec<(usize, ProcessId, ScrapeFormat, u32)>,
    stop: Arc<AtomicBool>,
    /// Size of the protocol group: the broadcast fan-out.
    n: usize,
    /// Endpoints a frame may come from (see [`crate::HostConfig::peers`]).
    peers: usize,
    tick: Duration,
    epoch: Instant,
    targets: Vec<ProcessId>,
    encoded: Vec<u8>,
    obs: Option<ShardObs>,
}

impl<P, B> Shard<P, B>
where
    P: Protocol + Introspect,
    P::Msg: Wire,
    B: Backend,
{
    /// A shard hosting `procs` over `backend` in an `n`-process group.
    /// `procs[i]` must be the process behind the backend's `i`-th socket.
    pub(crate) fn new(
        procs: Vec<(P, NodeHandle)>,
        backend: B,
        n: usize,
        config: &crate::HostConfig,
        stop: Arc<AtomicBool>,
    ) -> Self {
        let tick = config.tick.max(Duration::from_nanos(1));
        let threshold_ms = ((tick * STABLE_REIGN_TICKS).as_millis() as u64).max(1);
        let mut local_of = Vec::new();
        let locals: Vec<Local<P>> = procs
            .into_iter()
            .enumerate()
            .map(|(li, (proto, handle))| {
                let me = proto.id().index();
                if me >= local_of.len() {
                    local_of.resize(me + 1, usize::MAX);
                }
                local_of[me] = li;
                let obs = config.obs.as_ref().map(|o| {
                    let mut reign = ReignTracker::new(o, me, threshold_ms);
                    // The initial output is a reign too: a deployment whose
                    // first leader survives forever reads as maximally
                    // stable, not as having no reigns at all.
                    reign.on_leader_change(o.now_micros() / 1_000);
                    LocalObs {
                        tracer: o.tracer(me as u32),
                        reign,
                        last_leader: proto.leader(),
                        last_check_fire: None,
                    }
                });
                Local {
                    proto,
                    handle,
                    timer_gen: Vec::new(),
                    frames_delivered: 0,
                    dirty: true,
                    obs,
                }
            })
            .collect();
        let cell = locals.first().map_or(0, |l| l.proto.id().index());
        let obs = config.obs.as_ref().map(|o| ShardObs {
            obs: Arc::clone(o),
            polls: o.registry().counter(names::RUNTIME_POLLS),
            timers_fired: o.registry().counter(names::RUNTIME_TIMERS_FIRED),
            frames: o.registry().counter(names::RUNTIME_FRAMES_DELIVERED),
            responder: Responder::new(),
            cell,
            backpressured: false,
        });
        Shard {
            backend,
            locals,
            local_of,
            timers: BinaryHeap::new(),
            staged: Vec::new(),
            scrapes: Vec::new(),
            stop,
            n,
            peers: config.peers.max(n),
            tick,
            epoch: Instant::now(),
            targets: Vec::new(),
            encoded: Vec::new(),
            obs,
        }
    }

    fn now_tick(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() / self.tick.as_nanos()) as u64
    }

    /// Runs the loop until the stop flag is set (or the backend closes),
    /// drains, and returns the final protocol states in local order.
    pub(crate) fn run(mut self) -> Vec<P> {
        let mut out = Actions::new();
        for li in 0..self.locals.len() {
            self.locals[li].proto.on_start(&mut out);
            self.apply(li, &mut out);
        }
        loop {
            self.fire_due(&mut out);
            self.publish();
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let queued = self.backend.queued();
            self.note_poll(queued);
            let budget = if queued > 0 {
                BACKPRESSURE_BUDGET
            } else {
                POLL_BUDGET
            };
            let timeout = match self.timers.peek() {
                Some(&Reverse((at, ..))) => {
                    let target = self.tick.as_nanos().saturating_mul(u128::from(at));
                    let elapsed = self.epoch.elapsed().as_nanos();
                    let wait = target.saturating_sub(elapsed).min(budget.as_nanos());
                    Duration::from_nanos(wait as u64)
                }
                None => budget,
            };
            let open = self.poll(timeout).is_ok();
            self.answer_scrapes();
            self.deliver(&mut out, false);
            if !open {
                break; // every peer endpoint is gone
            }
        }
        self.drain()
    }

    /// Counts one poll and traces the onset of send backpressure (against
    /// the shard's first process, once per episode).
    fn note_poll(&mut self, queued: usize) {
        let Some(o) = &mut self.obs else {
            return;
        };
        o.polls.inc(o.cell);
        if queued > 0 && !o.backpressured {
            if let Some(t) = self.locals[0].obs.as_ref().and_then(|l| l.tracer.as_ref()) {
                t.emit_now(EventKind::Backpressure, o.cell as u64, queued as u64);
            }
        }
        o.backpressured = queued > 0;
        let now_ms = o.obs.now_micros() / 1_000;
        for local in &self.locals {
            if let Some(l) = &local.obs {
                l.reign.tick(now_ms);
            }
        }
    }

    /// One backend poll, staging scrape requests and admitted frames.
    fn poll(&mut self, timeout: Duration) -> Result<usize, irs_net::NetError> {
        let Shard {
            backend,
            locals,
            local_of,
            staged,
            scrapes,
            obs,
            n,
            peers,
            ..
        } = self;
        let (n, peers, scraping) = (*n, *peers, obs.is_some());
        backend.poll(timeout, |to, from, payload| {
            let Some(&li) = local_of.get(to.index()) else {
                return;
            };
            if li == usize::MAX || locals[li].crashed() {
                return;
            }
            if is_obs_payload(payload) {
                if let (true, Ok(ObsMsg::ScrapeRequest { format, cursor })) =
                    (scraping, decode_payload::<ObsMsg>(payload))
                {
                    scrapes.push((li, from, format, cursor));
                }
                return;
            }
            match decode_payload::<P::Msg>(payload) {
                Ok(msg) if msg.admit(from, n, peers) => staged.push((li, from, msg)),
                _ => {} // link noise
            }
        })
    }

    /// Answers the staged scrape requests through the backend. A lost
    /// reply is link loss: the scraper retries.
    fn answer_scrapes(&mut self) {
        let Some(o) = &self.obs else {
            return;
        };
        for (li, from, format, cursor) in self.scrapes.drain(..) {
            let me = self.locals[li].proto.id();
            self.encoded.clear();
            encode_scrape_reply(
                &o.responder,
                &o.obs,
                scrape_session_key(me, from),
                format,
                cursor,
                &mut self.encoded,
            );
            self.backend.send(li, me, &[from], &self.encoded);
        }
    }

    /// Hands the staged frames to their processes; `quiescing` discards
    /// the reactions (the shutdown drain).
    fn deliver(&mut self, out: &mut Actions<P::Msg>, quiescing: bool) {
        let mut staged = std::mem::take(&mut self.staged);
        for (li, from, msg) in staged.drain(..) {
            let local = &mut self.locals[li];
            if local.crashed() {
                continue; // crashed after the frame was staged
            }
            local.frames_delivered += 1;
            local.dirty = true;
            local.proto.on_message(from, &msg, out);
            if quiescing {
                out.clear();
            } else {
                self.apply(li, out);
            }
            if let Some(o) = &self.obs {
                o.frames.inc(o.cell);
            }
        }
        self.staged = staged;
    }

    /// Pops and runs every timer due at the current wall tick.
    fn fire_due(&mut self, out: &mut Actions<P::Msg>) {
        while let Some(&Reverse((at, li, timer, generation))) = self.timers.peek() {
            if at > self.now_tick() {
                break;
            }
            self.timers.pop();
            let local = &mut self.locals[li];
            let current = local.timer_gen.get(usize::from(timer.raw())).copied();
            if local.crashed() || current != Some(generation) {
                continue;
            }
            local.proto.on_timer(timer, out);
            local.dirty = true;
            if let Some(l) = &mut local.obs {
                // One measured Ω check period per consecutive pair of
                // check-timer fires, feeding the self-calibrating bar.
                if timer.raw() == CHECK_TIMER_SLOT {
                    let at = Instant::now();
                    if let Some(prev) = l.last_check_fire.replace(at) {
                        let us = at.duration_since(prev).as_micros();
                        l.reign
                            .note_check_period_us(us.min(u128::from(u64::MAX)) as u64);
                    }
                }
            }
            if let Some(o) = &self.obs {
                o.timers_fired.inc(o.cell);
            }
            self.apply(li, out);
        }
    }

    /// Executes the actions a process recorded: encodes each message once
    /// and sends it to its receiver list, and arms timers in the queue.
    fn apply(&mut self, li: usize, out: &mut Actions<P::Msg>) {
        if out.is_empty() {
            return;
        }
        let now = self.now_tick();
        let from = self.locals[li].proto.id();
        for outbound in out.drain_sends() {
            self.encoded.clear();
            outbound.msg.encode(&mut self.encoded);
            self.targets.clear();
            let group = (0..self.n as u32).map(ProcessId::new);
            match outbound.dest {
                Destination::To(q) => self.targets.push(q),
                Destination::AllOthers => self.targets.extend(group.filter(|&q| q != from)),
                Destination::All => self.targets.extend(group),
            }
            self.backend.send(li, from, &self.targets, &self.encoded);
        }
        for req in out.drain_timers() {
            let generation = self.locals[li].bump_timer_gen(req.id);
            self.timers
                .push(Reverse((now + req.after.ticks(), li, req.id, generation)));
        }
        for id in out.drain_cancels() {
            self.locals[li].bump_timer_gen(id);
        }
    }

    /// Publishes every changed snapshot with the host gauge
    /// `frames_delivered` (frames handed to the protocol, the drain
    /// included) and the backend's gauges, tracing leader changes.
    fn publish(&mut self) {
        let now_ms = self.obs.as_ref().map(|o| o.obs.now_micros() / 1_000);
        for (li, local) in self.locals.iter_mut().enumerate() {
            if !std::mem::take(&mut local.dirty) {
                continue;
            }
            let mut snap = local.proto.snapshot();
            snap.extra
                .push((names::FRAMES_DELIVERED, local.frames_delivered));
            self.backend.gauges(li, &mut snap.extra);
            if let (Some(l), Some(now_ms)) = (&mut local.obs, now_ms) {
                if snap.leader != l.last_leader {
                    if let Some(t) = &l.tracer {
                        t.emit_now(
                            EventKind::LeaderChange,
                            l.last_leader.index() as u64,
                            snap.leader.index() as u64,
                        );
                    }
                    l.reign.on_leader_change(now_ms);
                    l.last_leader = snap.leader;
                }
            }
            *local
                .handle
                .snapshot
                .lock()
                .expect("snapshot lock poisoned") = snap;
        }
    }

    /// The shutdown drain (see module docs). Timers are not fired: a timer
    /// is local state, not an in-flight message.
    fn drain(mut self) -> Vec<P> {
        let started = Instant::now();
        let mut sink = Actions::new();
        loop {
            let polled = self.poll(DRAIN_QUIET);
            // A scraper racing the shutdown still gets its chunk.
            self.answer_scrapes();
            self.deliver(&mut sink, true);
            let quiet =
                matches!(polled, Ok(0)) && self.backend.queued() == 0 && self.backend.held() == 0;
            if quiet || polled.is_err() || started.elapsed() >= DRAIN_CAP {
                break;
            }
        }
        self.publish();
        self.locals.into_iter().map(|l| l.proto).collect()
    }
}
