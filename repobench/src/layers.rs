//! Layer replays: the workload's own op stream fed through one crate's
//! public functions at a time, on the benchmark thread, after the traced
//! window. Each replay isolates one layer's cost from the threads,
//! sockets and disk contention of the live cluster.

use crate::spans::Spans;
use crate::svc::{value_bytes, OpRecord};
use irs_consensus::{Ballot, Batch};
use irs_net::wire::{decode_frame, decode_payload, encode_frame};
use irs_net::Wire;
use irs_svc::loadgen::key_for;
use irs_svc::{KvOp, KvStore, KvWrite, ReadTier, SvcConfig, SvcMsg, SvcReplica, SvcReply};
use irs_types::{Actions, Destination, ProcessId, Protocol};
use irs_wal::{FsyncPolicy, Wal, WalRecord};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Writes replayed through the WAL (each costs one fsync).
pub const WAL_REPLAY_WRITES: usize = 256;
/// Writes replayed through the in-process consensus group.
pub const INPROC_REPLAY_WRITES: usize = 20_000;

/// What the replays measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Replay {
    /// `KvStore::apply` ns per write.
    pub store_apply_ns: f64,
    /// `KvStore::get` ns per read.
    pub store_get_ns: f64,
    /// `KvStore::export` µs for the final store.
    pub store_export_us: f64,
    /// `Wal::append` + `commit` (fsync always) µs per write.
    pub wal_append_commit_us: f64,
    /// Median and 99th percentile of one write's `append` + `commit`, µs.
    pub wal_commit_us_p50: f64,
    /// See [`Replay::wal_commit_us_p50`].
    pub wal_commit_us_p99: f64,
    /// Payload + frame encode ns per frame.
    pub wire_encode_ns: f64,
    /// Frame + payload decode ns per frame.
    pub wire_decode_ns: f64,
    /// Request + reply frame bytes per op.
    pub wire_bytes_per_op: f64,
    /// In-process 5-replica protocol µs per write (no I/O).
    pub inproc_us_per_write: f64,
    /// Replica-to-replica messages per write in the in-process group.
    pub inproc_msgs_per_write: f64,
}

fn write_of(seed: u64, op: &OpRecord) -> KvWrite {
    KvWrite {
        client: op.client,
        seq: op.seq,
        op: KvOp::Put {
            key: key_for(op.client, u64::from(op.key)),
            value: value_bytes(seed, op.client, op.seq),
        },
    }
}

/// The request and reply messages of one op, as they cross the wire.
fn messages(seed: u64, op: &OpRecord) -> (SvcMsg, SvcMsg) {
    if op.read {
        let request = SvcMsg::Read {
            client: op.client,
            rid: op.seq,
            key: key_for(op.client, u64::from(op.key)),
            tier: ReadTier::Lease,
        };
        let reply = SvcMsg::Reply(SvcReply::Value {
            client: op.client,
            rid: op.seq,
            value: op.value_seq.map(|s| value_bytes(seed, op.client, s)),
            frontier: op.seq,
        });
        (request, reply)
    } else {
        let request = SvcMsg::Request {
            cmd: write_of(seed, op).encode(),
        };
        let reply = SvcMsg::Reply(SvcReply::Applied {
            client: op.client,
            seq: op.seq,
            slot: op.seq,
        });
        (request, reply)
    }
}

fn per(total_ns: u128, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_ns as f64 / count as f64
    }
}

/// One segment's ops (issue order) and the span ids of its sampled ops.
#[derive(Clone, Copy, Debug)]
pub struct SegmentOps<'a> {
    /// The segment's ops.
    pub ops: &'a [OpRecord],
    /// `(client, seq)` → span id of the op's client span, when sampled.
    pub op_spans: &'a BTreeMap<(u64, u64), u64>,
}

impl SegmentOps<'_> {
    fn done(&self) -> impl Iterator<Item = &OpRecord> {
        self.ops.iter().filter(|o| o.ok)
    }

    fn writes(&self) -> impl Iterator<Item = &OpRecord> {
        self.done().filter(|o| !o.read)
    }

    /// The span an op's replay spans hang under.
    fn parent_of(&self, id: (u64, u64), layer: u64) -> u64 {
        self.op_spans.get(&id).copied().unwrap_or(layer)
    }
}

/// Replays the completed ops of every segment through the store, the wire
/// codec, the WAL (in a scratch directory under `wal_dir`) and an
/// in-process consensus group. Each segment ran on a fresh cluster with
/// fresh clients, so the store and consensus replays start fresh per
/// segment too. Per-op spans for the WAL and consensus replays hang under
/// the op's client span when the op was sampled, else under the layer's
/// replay span.
///
/// # Errors
///
/// Returns a description of a replay whose output was wrong (a lost ack,
/// a store that skipped a write) or an I/O error.
pub fn replay(
    seed: u64,
    segments: &[SegmentOps<'_>],
    wal_dir: &Path,
    spans: &mut Spans,
    parent: u64,
) -> Result<Replay, String> {
    let mut r = Replay::default();

    // Store: apply every write, then answer every read, then export.
    let (mut apply_ns, mut get_ns, mut export_ns) = (0u128, 0u128, 0u128);
    let (mut writes_n, mut reads_n) = (0usize, 0usize);
    let span_start = Instant::now();
    for seg in segments {
        let writes: Vec<KvWrite> = seg.writes().map(|o| write_of(seed, o)).collect();
        let reads: Vec<Vec<u8>> = seg
            .done()
            .filter(|o| o.read)
            .map(|o| key_for(o.client, u64::from(o.key)))
            .collect();
        let t0 = Instant::now();
        let mut store = KvStore::new();
        for (slot, w) in writes.iter().enumerate() {
            black_box(store.apply(slot as u64, w));
        }
        let t1 = Instant::now();
        for key in &reads {
            black_box(store.get(key));
        }
        let t2 = Instant::now();
        black_box(store.export());
        let t3 = Instant::now();
        if store.applied() != writes.len() as u64 {
            return Err(format!(
                "store replay applied {} of {} writes",
                store.applied(),
                writes.len()
            ));
        }
        apply_ns += (t1 - t0).as_nanos();
        get_ns += (t2 - t1).as_nanos();
        export_ns += (t3 - t2).as_nanos();
        writes_n += writes.len();
        reads_n += reads.len();
    }
    r.store_apply_ns = per(apply_ns, writes_n);
    r.store_get_ns = per(get_ns, reads_n);
    r.store_export_us = per(export_ns, segments.len()) / 1e3;
    spans.push_between("replay.store", parent, span_start, Instant::now());

    // Wire: encode request and reply into frames, then decode them back.
    let msgs: Vec<(SvcMsg, SvcMsg)> = segments
        .iter()
        .flat_map(|s| s.done())
        .map(|o| messages(seed, o))
        .collect();
    let (a, b) = (ProcessId::new(5), ProcessId::new(0));
    let t0 = Instant::now();
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(msgs.len() * 2);
    let mut payload = Vec::new();
    for (req, rep) in &msgs {
        for m in [req, rep] {
            payload.clear();
            m.encode(&mut payload);
            let mut frame = Vec::with_capacity(payload.len() + 32);
            encode_frame(&mut frame, a, b, &payload);
            frames.push(frame);
        }
    }
    let t1 = Instant::now();
    for f in &frames {
        let (_, _, p) = decode_frame(f).map_err(|e| format!("decode_frame: {e:?}"))?;
        let m: SvcMsg = decode_payload(p).map_err(|e| format!("decode_payload: {e:?}"))?;
        black_box(m);
    }
    let t2 = Instant::now();
    r.wire_encode_ns = per((t1 - t0).as_nanos(), frames.len());
    r.wire_decode_ns = per((t2 - t1).as_nanos(), frames.len());
    r.wire_bytes_per_op = per(
        frames.iter().map(Vec::len).sum::<usize>() as u128,
        msgs.len(),
    );
    spans.push_between("replay.wire", parent, t0, t2);

    // WAL: accept + decide records per write, one commit (fsync) each.
    let wal_writes: Vec<(usize, &OpRecord)> = segments
        .iter()
        .enumerate()
        .flat_map(|(i, s)| s.writes().map(move |o| (i, o)))
        .take(WAL_REPLAY_WRITES)
        .collect();
    if !wal_writes.is_empty() {
        std::fs::create_dir_all(wal_dir).map_err(|e| format!("wal dir: {e}"))?;
        let path = wal_dir.join("replay.wal");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) =
            Wal::open(&path, FsyncPolicy::Always).map_err(|e| format!("Wal::open: {e}"))?;
        let span_start = Instant::now();
        let mut total = 0u128;
        let mut timed = Vec::with_capacity(wal_writes.len());
        for (slot, &(seg, o)) in wal_writes.iter().enumerate() {
            let mut batch = Vec::new();
            Batch::new(vec![write_of(seed, o).encode()]).encode(&mut batch);
            let slot = slot as u64;
            let t0 = Instant::now();
            wal.append(&WalRecord::Accept {
                slot,
                ballot: Ballot::new(1, ProcessId::new(0)),
                batch: batch.clone(),
            });
            wal.append(&WalRecord::Decide { slot, batch });
            wal.commit().map_err(|e| format!("Wal::commit: {e}"))?;
            let t1 = Instant::now();
            total += (t1 - t0).as_nanos();
            timed.push((seg, (o.client, o.seq), t0, t1));
        }
        let syncs = wal.syncs();
        drop(wal);
        let commit_us = crate::stats::sorted(
            &timed
                .iter()
                .map(|&(_, _, t0, t1)| (t1 - t0).as_secs_f64() * 1e6)
                .collect::<Vec<_>>(),
        );
        r.wal_commit_us_p50 = crate::stats::median(&commit_us).unwrap_or(0.0);
        r.wal_commit_us_p99 = crate::stats::percentile(&commit_us, 99.0).unwrap_or(0.0);
        let _ = std::fs::remove_file(&path);
        if syncs != wal_writes.len() as u64 {
            return Err(format!(
                "wal replay: {syncs} fsyncs for {} commits under FsyncPolicy::Always",
                wal_writes.len()
            ));
        }
        r.wal_append_commit_us = per(total, wal_writes.len()) / 1e3;
        let layer = spans.push_between("replay.wal", parent, span_start, Instant::now());
        for (seg, id, t0, t1) in timed {
            let (s, e) = (spans.ns(t0), spans.ns(t1));
            spans.push(
                "wal.append_commit",
                segments[seg].parent_of(id, layer),
                id,
                s,
                e,
            );
        }
    }

    // Consensus: 5 replicas per segment, messages routed in-process, no
    // timers, no I/O.
    let span_start = Instant::now();
    let (mut ns, mut delivered, mut count) = (0u128, 0u64, 0usize);
    let mut timed = Vec::new();
    for (i, seg) in segments.iter().enumerate() {
        let writes: Vec<&OpRecord> = seg.writes().take(INPROC_REPLAY_WRITES - count).collect();
        if writes.is_empty() {
            continue;
        }
        let (elapsed, msgs, seg_timed) = inproc_consensus(seed, &writes)?;
        ns += elapsed.as_nanos();
        delivered += msgs;
        count += writes.len();
        timed.extend(seg_timed.into_iter().map(|(id, a, b)| (i, id, a, b)));
    }
    if count > 0 {
        r.inproc_us_per_write = per(ns, count) / 1e3;
        r.inproc_msgs_per_write = delivered as f64 / count as f64;
        let layer = spans.push_between("replay.consensus", parent, span_start, Instant::now());
        for (seg, id, t0, t1) in timed {
            let (s, e) = (spans.ns(t0), spans.ns(t1));
            spans.push(
                "consensus.inproc",
                segments[seg].parent_of(id, layer),
                id,
                s,
                e,
            );
        }
    }
    Ok(r)
}

type Timed = Vec<((u64, u64), Instant, Instant)>;

/// Runs `writes` through five fresh `SvcReplica`s whose messages are
/// routed in-process (FIFO) until quiescence after each request, and
/// checks each write is acked. Returns the elapsed time, the
/// replica-to-replica messages delivered, and each write's timing.
fn inproc_consensus(
    seed: u64,
    writes: &[&OpRecord],
) -> Result<(std::time::Duration, u64, Timed), String> {
    const N: usize = 5;
    let config = SvcConfig::new(N, 2);
    let mut replicas: Vec<SvcReplica> = (0..N as u32)
        .map(|i| config.replica(ProcessId::new(i)))
        .collect();
    let leader = ProcessId::new(0);
    let mut queue: VecDeque<(ProcessId, ProcessId, SvcMsg)> = VecDeque::new();
    let mut out = Actions::new();
    let mut delivered = 0u64;
    let mut timed = Vec::with_capacity(writes.len());
    let started = Instant::now();
    for o in writes {
        let t0 = Instant::now();
        let client = ProcessId::new(o.client as u32);
        queue.push_back((
            client,
            leader,
            SvcMsg::Request {
                cmd: write_of(seed, o).encode(),
            },
        ));
        let mut acked = false;
        while let Some((from, to, msg)) = queue.pop_front() {
            if to.index() >= N {
                acked |= matches!(msg, SvcMsg::Reply(SvcReply::Applied { client, seq, .. })
                    if client == o.client && seq == o.seq);
                continue;
            }
            delivered += u64::from(from.index() < N);
            replicas[to.index()].on_message(from, &msg, &mut out);
            for send in out.drain_sends() {
                match send.dest {
                    Destination::To(q) => queue.push_back((to, q, send.msg)),
                    Destination::AllOthers => {
                        for q in (0..N).filter(|&q| q != to.index()) {
                            queue.push_back((to, ProcessId::new(q as u32), send.msg.clone()));
                        }
                    }
                    Destination::All => {
                        for q in 0..N {
                            queue.push_back((to, ProcessId::new(q as u32), send.msg.clone()));
                        }
                    }
                }
            }
            out.clear();
        }
        if !acked {
            return Err(format!(
                "in-process consensus never acked write ({}, {})",
                o.client, o.seq
            ));
        }
        timed.push(((o.client, o.seq), t0, Instant::now()));
    }
    let elapsed = started.elapsed();
    let digest = replicas[0].store().digest();
    if replicas.iter().any(|r| r.store().digest() != digest) {
        return Err("in-process consensus replicas diverged".into());
    }
    Ok((elapsed, delivered, timed))
}
