//! The three service workloads: closed-loop clients against a 5-replica
//! `SvcCluster`, timed per op by the benchmark itself.
//!
//! A run is a sequence of segments, each on a fresh cluster: spawn, wait
//! for an agreed leader, warm up every client (its warm-up ops go through
//! the same acked-floor / issued-ceiling bookkeeping as the measured ones),
//! then measure a window, stop, and check the cluster's final state.
//! `leader_failover` crash-stops the agreed leader inside every window.

use crate::layers::SegmentOps;
use crate::metrics::Outcome;
use crate::procfs;
use crate::spans::Spans;
use crate::stats::{self, Latency};
use crate::Workload;
use irs_net::Transport;
use irs_obs::{names, MetricValue, Obs};
use irs_sim::SimRng;
use irs_svc::loadgen::{
    await_survivor_convergence, check_consistency, check_read_linearizability, key_for,
    seq_of_value, AckedWrite, ClientAcks, ClientReads, ObservedRead,
};
use irs_svc::{ClientError, ClientStats, ReadTier, SvcClient, SvcCluster, SvcConfig, SvcReplica};
use irs_types::ProcessId;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Replicas per cluster.
pub const N: usize = 5;
/// Closed-loop client threads (the host has 2 cores).
pub const CLIENTS: usize = 2;
/// Keys each client writes and reads.
pub const KEYS_PER_CLIENT: u64 = 8;
/// Value length in bytes (the first 8 carry the write's seq).
pub const VALUE_LEN: usize = 16;
/// Ops each client completes before the window opens.
pub const WARMUP_OPS: u64 = 100;
/// Per-op deadline, retries included.
pub const OP_DEADLINE: Duration = Duration::from_secs(3);
/// Segments (fresh clusters) per phase on the steady-state workloads.
pub const SEGMENTS: u32 = 10;
/// Load kept running after the first post-crash ack in a failover cycle.
pub const POST_CRASH: Duration = Duration::from_millis(100);
/// Bound on waiting for an election, a recovery or convergence.
const PATIENCE: Duration = Duration::from_secs(10);
/// Latency samples reserved per class and phase (16 MiB of address space).
const LATENCY_RESERVE: usize = 1 << 21;
/// Op records reserved per client buffer (16 MiB of address space), more
/// than a client completes in one segment.
const OPS_RESERVE: usize = 1 << 18;
/// One op in this many gets a span in the traced run.
pub const SPAN_SAMPLE: u64 = 8;
/// The slices a measured window is cut into for the gated figures.
pub const SLICE: Duration = Duration::from_millis(100);
/// Primary ops a slice needs for its median latency to count.
pub const MIN_SLICE_OPS: usize = 20;
/// The quartile of the slices the gated figures take: the gated
/// throughput is the slices' 75th percentile, the gated median latency
/// and CPU per op their 25th. A slice that a neighbour on the host slowed
/// falls in the slower three quarters, so the figures move only when most
/// of the run was slowed, as a change to the program slows all of it.
pub const GATED_QUARTILE: f64 = 25.0;

/// The 16-byte value of write `seq` by `client`: the seq (little-endian,
/// as the consistency checkers read it) and 8 seeded bytes.
pub fn value_bytes(seed: u64, client: u64, seq: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_LEN);
    v.extend_from_slice(&seq.to_le_bytes());
    let mix = SimRng::from_seed(seed ^ (client << 48) ^ seq).next_u64();
    v.extend_from_slice(&mix.to_le_bytes());
    v
}

/// One op as its client saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpRecord {
    /// A read (else a write).
    pub read: bool,
    /// Logical client id.
    pub client: u64,
    /// The client's sequence number for the op.
    pub seq: u64,
    /// Key index within the client's key space.
    pub key: u8,
    /// For an answered read: the seq of the value it returned.
    pub value_seq: Option<u64>,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// Latency, ns.
    pub lat_ns: u64,
    /// Acked (write) or answered (read).
    pub ok: bool,
}

impl OpRecord {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.lat_ns
    }
}

/// Shared state of one segment's client threads.
struct Control {
    epoch: Instant,
    barrier: Barrier,
    stop: AtomicBool,
    /// ns since epoch of the crash, `u64::MAX` before it.
    crash_ns: AtomicU64,
    /// ns since epoch of the first ack completed after the crash.
    first_ack_ns: AtomicU64,
}

/// Reads a client buffers before checking them.
const READ_CHECK_BATCH: usize = 1024;

/// What one client thread returns (its measured ops go to the buffer the
/// caller lends it).
struct ClientRun {
    acks: ClientAcks,
    /// Reads not yet checked.
    reads: ClientReads,
    /// The first read-linearizability violation found while running.
    read_violation: Option<String>,
    stats: ClientStats,
}

impl ClientRun {
    /// Checks the buffered reads with `check_read_linearizability`, then
    /// keeps only each key's newest valued read: the checker carries a
    /// key's monotonicity floor from that read into the next batch, so
    /// checking in batches checks the whole history while the client's
    /// memory stays bounded (a read-heavy run would otherwise hold every
    /// read, and the allocator's per-thread arenas would keep that memory).
    fn check_reads(&mut self) {
        if let Err(e) = check_read_linearizability(std::slice::from_ref(&self.reads)) {
            self.read_violation.get_or_insert(e);
        }
        let mut newest: BTreeMap<Vec<u8>, ObservedRead> = BTreeMap::new();
        for r in self.reads.reads.drain(..).filter(|r| r.value_seq.is_some()) {
            newest.insert(r.key.clone(), r);
        }
        self.reads.reads.extend(newest.into_values());
    }
}

/// Drives one closed-loop client: warm-up, the barrier, then measured ops
/// into `ops` (cleared first) until the stop flag.
fn client_loop<T: Transport>(
    client: &mut SvcClient<T>,
    ops: &mut Vec<OpRecord>,
    seed: u64,
    read_pct: u64,
    ctl: &Control,
) -> ClientRun {
    ops.clear();
    let cid = client.client_id();
    let mut rng = SimRng::from_seed(seed ^ 0xC11E_0000 ^ cid);
    let mut run = ClientRun {
        acks: ClientAcks {
            client: cid,
            acked: Vec::new(),
        },
        reads: ClientReads {
            client: cid,
            tier: Some(ReadTier::Lease),
            reads: Vec::new(),
        },
        read_violation: None,
        stats: ClientStats::default(),
    };
    let mut acked_floor: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    let mut issued_ceiling: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    let mut before = client.stats;
    let mut measuring = false;
    let mut closed = false;
    for i in 0u64.. {
        if !measuring && (i == WARMUP_OPS || closed) {
            ctl.barrier.wait();
            measuring = true;
            before = client.stats;
        }
        if closed || (measuring && ctl.stop.load(Ordering::Relaxed)) {
            break;
        }
        let read = i % 100 < read_pct;
        let k = rng.index(KEYS_PER_CLIENT as usize) as u8;
        let key = key_for(cid, u64::from(k));
        let t0 = Instant::now();
        let (seq, ok, value_seq, err) = if read {
            let seq = client.next_seq();
            match client.get(&key, ReadTier::Lease, OP_DEADLINE) {
                Ok((value, frontier)) => {
                    let value_seq = value.as_deref().and_then(seq_of_value);
                    run.reads.reads.push(ObservedRead {
                        key: key.clone(),
                        value_seq,
                        frontier,
                        acked_floor: acked_floor.get(&key).copied(),
                        issued_ceiling: issued_ceiling.get(&key).copied(),
                    });
                    if run.reads.reads.len() >= READ_CHECK_BATCH {
                        run.check_reads();
                    }
                    (seq, true, value_seq, None)
                }
                Err(e) => (seq, false, None, Some(e)),
            }
        } else {
            let seq = client.next_seq();
            issued_ceiling.insert(key.clone(), seq);
            match client.put(&key, &value_bytes(seed, cid, seq), OP_DEADLINE) {
                Ok(slot) => {
                    acked_floor.insert(key.clone(), seq);
                    run.acks.acked.push(AckedWrite { seq, key, slot });
                    (seq, true, None, None)
                }
                Err(e) => (seq, false, None, Some(e)),
            }
        };
        let t1 = Instant::now();
        closed = err == Some(ClientError::Closed);
        if !measuring {
            continue;
        }
        let start_ns = t0.duration_since(ctl.epoch).as_nanos() as u64;
        let end_ns = t1.duration_since(ctl.epoch).as_nanos() as u64;
        if ok && end_ns > ctl.crash_ns.load(Ordering::SeqCst) {
            ctl.first_ack_ns.fetch_min(end_ns, Ordering::SeqCst);
        }
        ops.push(OpRecord {
            read,
            client: cid,
            seq,
            key: k,
            value_seq,
            start_ns,
            lat_ns: end_ns - start_ns,
            ok,
        });
    }
    let s = client.stats;
    run.stats = ClientStats {
        acked: s.acked - before.acked,
        redirects: s.redirects - before.redirects,
        retries: s.retries - before.retries,
        failures: s.failures - before.failures,
    };
    run
}

/// Registry and replica-gauge readings at one instant of a traced segment.
#[derive(Default)]
struct Reading {
    scalars: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, (Vec<u64>, u128)>,
}

/// Replica gauges the traced run reads (summed over replicas).
const GAUGES: &[&str] = &[
    names::REQUESTS,
    names::DUP_SKIPS,
    names::READS_LEASE,
    names::READS_READ_INDEX,
    names::READS_STALE,
    names::LEASE_EXPIRIES,
    names::SLOTS_DRIVEN,
    names::PHASE1_SKIPS,
    names::REIGN_PREPARES,
    names::CATCHUPS_SENT,
];

fn read_layers(cluster: &SvcCluster, obs: &Obs) -> Reading {
    let mut r = Reading::default();
    for (name, v) in obs.registry().scrape() {
        match v {
            MetricValue::Counter(c) | MetricValue::Gauge(c) => {
                r.scalars.insert(name, c);
            }
            MetricValue::Hist(h) => {
                r.hists.insert(name, (h.buckets().to_vec(), h.sum()));
            }
        }
    }
    for &g in GAUGES {
        let sum = (0..N as u32)
            .map(|p| cluster.snapshot(ProcessId::new(p)).gauge(g).unwrap_or(0))
            .sum();
        r.scalars.insert(g, sum);
    }
    r
}

/// Per-layer counter deltas accumulated over a run's traced segments.
#[derive(Default)]
struct LayerDeltas {
    scalars: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, (Vec<u64>, u128)>,
}

impl LayerDeltas {
    fn add(&mut self, before: &Reading, after: &Reading) {
        for (&k, &v) in &after.scalars {
            let b = before.scalars.get(k).copied().unwrap_or(0);
            *self.scalars.entry(k).or_default() += v.saturating_sub(b) as f64;
        }
        for (&k, (buckets, sum)) in &after.hists {
            let (bb, bs) = before.hists.get(k).cloned().unwrap_or_default();
            let e = self
                .hists
                .entry(k)
                .or_insert_with(|| (vec![0; buckets.len()], 0));
            for (i, c) in buckets.iter().enumerate() {
                e.0[i] += c - bb.get(i).copied().unwrap_or(0);
            }
            e.1 += sum - bs;
        }
    }

    fn get(&self, k: &str) -> f64 {
        self.scalars.get(k).copied().unwrap_or(0.0)
    }

    fn hist_pct(&self, k: &str, p: f64) -> f64 {
        self.hists
            .get(k)
            .and_then(|(b, _)| stats::bucket_percentile(b, p))
            .unwrap_or(0.0)
    }

    fn hist_mean(&self, k: &str) -> f64 {
        match self.hists.get(k) {
            Some((b, sum)) if b.iter().sum::<u64>() > 0 => {
                *sum as f64 / b.iter().sum::<u64>() as f64
            }
            _ => 0.0,
        }
    }
}

/// One segment's share of a phase. Only the traced phase keeps the ops
/// themselves (for spans and replays); the untraced phase keeps counts,
/// percentiles and latencies, a few bytes per op, so that the process's
/// peak RSS is the program's and not the benchmark's bookkeeping.
struct SegStats {
    /// Set-up start, window start, window stop.
    marks: (Instant, Instant, Instant),
    attempted: usize,
    failed: usize,
    writes_acked: usize,
    reads_answered: usize,
    ops: Vec<OpRecord>,
}

/// One [`SLICE`] of a measured window.
struct SliceStats {
    /// Primary ops completed in the slice, per second.
    rate: f64,
    /// Process CPU time in the slice per op completed in it, µs; `None`
    /// when none completed.
    cpu_us_per_op: Option<f64>,
    /// Median latency of the primary ops completed in the slice, µs;
    /// `None` under [`MIN_SLICE_OPS`] of them.
    p50_us: Option<f64>,
}

impl SegStats {
    fn primary(&self, w: Workload) -> usize {
        if w == Workload::LeaseReadUdp {
            self.reads_answered
        } else {
            self.writes_acked
        }
    }
}

/// Everything one phase (untraced or traced) of a service run measured.
#[derive(Default)]
struct Phase {
    segs: Vec<SegStats>,
    slices: Vec<SliceStats>,
    setups: Vec<f64>,
    window_s: f64,
    ctx: u64,
    /// Latencies of acked writes and answered reads, µs.
    write_us: Vec<f64>,
    read_us: Vec<f64>,
    unavailable_us: Vec<f64>,
    elect_ms: Vec<f64>,
    retries: u64,
    redirects: u64,
    deltas: LayerDeltas,
    /// The process's peak RSS within each segment, MiB (empty where the
    /// peak cannot be reset).
    segment_peaks_mb: Vec<f64>,
    /// The median of `segment_peaks_mb`; without them, the process's peak
    /// RSS when the last segment ended (before the report sorts copies of
    /// the latency samples).
    peak_rss_mb: f64,
    /// One op buffer per client, lent to the client threads and reused by
    /// every segment, so that each segment does not grow fresh buffers in
    /// fresh threads' allocator arenas.
    bufs: Vec<Vec<OpRecord>>,
}

impl Phase {
    fn attempted(&self) -> usize {
        self.segs.iter().map(|s| s.attempted).sum()
    }

    fn failed(&self) -> usize {
        self.segs.iter().map(|s| s.failed).sum()
    }

    fn writes_acked(&self) -> usize {
        self.segs.iter().map(|s| s.writes_acked).sum()
    }

    fn reads_answered(&self) -> usize {
        self.segs.iter().map(|s| s.reads_answered).sum()
    }

    fn completed(&self) -> usize {
        self.writes_acked() + self.reads_answered()
    }

    /// Whether `o` is the workload's primary op: an answered read on
    /// `lease_read_udp`, an acked write elsewhere.
    fn primary(w: Workload, o: &OpRecord) -> bool {
        o.ok && o.read == (w == Workload::LeaseReadUdp)
    }

    /// The primary op rate over the whole phase.
    fn primary_ops_per_s(&self, w: Workload) -> f64 {
        self.segs.iter().map(|s| s.primary(w)).sum::<usize>() as f64 / self.window_s
    }

    /// Folds the segment's ops, left in [`Phase::bufs`] by the client
    /// threads, into the phase; keeps a copy of them when `keep_ops`.
    fn add_segment(
        &mut self,
        w: Workload,
        keep_ops: bool,
        window_s: f64,
        marks: (Instant, Instant, Instant),
        samples: &[(u64, u64)],
    ) {
        self.add_slices(w, samples);
        let us = |o: &OpRecord| o.lat_ns as f64 / 1e3;
        let ops = || self.bufs.iter().flatten();
        let seg = SegStats {
            marks,
            attempted: ops().count(),
            failed: ops().filter(|o| !o.ok).count(),
            writes_acked: ops().filter(|o| o.ok && !o.read).count(),
            reads_answered: ops().filter(|o| o.ok && o.read).count(),
            ops: if keep_ops {
                ops().copied().collect()
            } else {
                Vec::new()
            },
        };
        for o in self.bufs.iter().flatten().filter(|o| o.ok) {
            let lat = if o.read {
                &mut self.read_us
            } else {
                &mut self.write_us
            };
            lat.push(us(o));
        }
        self.window_s += window_s;
        self.segs.push(seg);
    }

    /// Cuts the segment's window at the `(ns since epoch, process CPU ns)`
    /// samples taken every [`SLICE`] and folds each slice's rate, CPU per
    /// op and median latency into [`Phase::slices`].
    fn add_slices(&mut self, w: Workload, samples: &[(u64, u64)]) {
        let ops = || self.bufs.iter().flatten();
        for pair in samples.windows(2) {
            let ((a, cpu_a), (b, cpu_b)) = (pair[0], pair[1]);
            let inside = |o: &&OpRecord| o.ok && (a..b).contains(&o.end_ns());
            let done = ops().filter(inside).count();
            let lat = stats::sorted(
                &ops()
                    .filter(inside)
                    .filter(|o| Self::primary(w, o))
                    .map(|o| o.lat_ns as f64 / 1e3)
                    .collect::<Vec<_>>(),
            );
            let p50_us = (lat.len() >= MIN_SLICE_OPS)
                .then(|| stats::median(&lat))
                .flatten();
            self.slices.push(SliceStats {
                rate: lat.len() as f64 / ((b - a) as f64 / 1e9),
                cpu_us_per_op: (done > 0).then(|| (cpu_b - cpu_a) as f64 / 1e3 / done as f64),
                p50_us,
            });
        }
    }

    /// The `p`-th percentile over the phase's slices of `f(slice)`.
    fn slice_pct(&self, p: f64, f: impl Fn(&SliceStats) -> Option<f64>) -> Option<f64> {
        let per: Vec<f64> = self.slices.iter().filter_map(f).collect();
        stats::percentile(&stats::sorted(&per), p)
    }
}

/// Run-wide settings of a service workload.
pub struct SvcRun<'a> {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Seconds of measured window per phase.
    pub seconds: f64,
    /// Scratch directory for WAL data (removed afterwards).
    pub scratch: &'a Path,
    /// The run's clock epoch.
    pub epoch: Instant,
}

impl SvcRun<'_> {
    fn read_pct(&self) -> u64 {
        if self.workload == Workload::LeaseReadUdp {
            95
        } else {
            0
        }
    }

    /// Runs one phase: segments (or failover cycles) until the phase's
    /// measured windows add up to `seconds` (failover: until the cycles
    /// have taken `seconds` of wall time).
    fn phase(&self, traced: bool, out: &mut Outcome) -> Phase {
        // Reserve the pooled latency buffers up front: the reservation is
        // mapped but untouched, so only the pages samples land in count
        // towards RSS, and the buffers never grow by copying (which would
        // leave freed copies in the heap and make peak RSS jitter).
        let mut phase = Phase {
            write_us: Vec::with_capacity(LATENCY_RESERVE),
            read_us: Vec::with_capacity(LATENCY_RESERVE),
            ..Phase::default()
        };
        let mut rng = SimRng::from_seed(self.seed ^ u64::from(traced) << 40 ^ 0xFA11);
        let mut cycle = 0u32;
        let started = Instant::now();
        loop {
            let done = match self.workload {
                // A failover cycle spends about as long spawning, checking
                // and converging as in its window: count whole cycles.
                Workload::LeaderFailover => {
                    started.elapsed().as_secs_f64() >= self.seconds && cycle >= 3
                }
                _ => cycle == SEGMENTS,
            };
            if done || !out.correct() {
                break;
            }
            let crash_after = (self.workload == Workload::LeaderFailover)
                .then(|| Duration::from_millis(rng.range_u64(100..200)));
            let window = Duration::from_secs_f64(self.seconds / f64::from(SEGMENTS));
            procfs::release_free_memory();
            let reset = procfs::reset_peak_rss();
            self.segment(traced, window, crash_after, &mut phase, out);
            if reset {
                phase.segment_peaks_mb.push(procfs::peak_rss_mb());
            }
            cycle += 1;
        }
        phase.peak_rss_mb =
            stats::median_of(&phase.segment_peaks_mb).unwrap_or_else(procfs::peak_rss_mb);
        phase
    }

    #[allow(clippy::too_many_arguments)]
    fn segment(
        &self,
        traced: bool,
        window: Duration,
        crash_after: Option<Duration>,
        phase: &mut Phase,
        out: &mut Outcome,
    ) {
        let obs = traced.then(|| std::sync::Arc::new(Obs::new(N)));
        let mut config = SvcConfig::new(N, CLIENTS);
        if let Some(o) = &obs {
            config = config.with_obs(o.clone());
        }
        let setup_start = Instant::now();
        match self.workload {
            Workload::LeaderFailover => {
                let (cluster, clients) = SvcCluster::in_memory(N, CLIENTS, config);
                self.drive(
                    cluster,
                    clients,
                    setup_start,
                    window,
                    crash_after,
                    obs,
                    phase,
                    out,
                );
            }
            Workload::LeaseReadUdp => match SvcCluster::mux_udp(N, CLIENTS, 1, config) {
                Ok((cluster, clients)) => self.drive(
                    cluster,
                    clients,
                    setup_start,
                    window,
                    crash_after,
                    obs,
                    phase,
                    out,
                ),
                Err(e) => out.fail_check("cluster_spawn", e),
            },
            Workload::SimStar => unreachable!("sim_star is not a service workload"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn drive<T: Transport + Send>(
        &self,
        cluster: SvcCluster,
        mut clients: Vec<SvcClient<T>>,
        setup_start: Instant,
        window: Duration,
        crash_after: Option<Duration>,
        obs: Option<std::sync::Arc<Obs>>,
        phase: &mut Phase,
        out: &mut Outcome,
    ) {
        if wait_for(PATIENCE, || cluster.agreed_leader()).is_none() {
            out.fail_check("leader_elected", "no agreed leader within 10 s of spawn");
            cluster.shutdown();
            return;
        }
        let ctl = Control {
            epoch: self.epoch,
            barrier: Barrier::new(CLIENTS + 1),
            stop: AtomicBool::new(false),
            crash_ns: AtomicU64::new(u64::MAX),
            first_ack_ns: AtomicU64::new(u64::MAX),
        };
        let read_pct = self.read_pct();
        let seed = self.seed;
        let mut victim = None;
        let mut before = None;
        let mut after = None;
        let mut samples: Vec<(u64, u64)> = Vec::new();
        let mut bufs = std::mem::take(&mut phase.bufs);
        bufs.resize_with(CLIENTS, || Vec::with_capacity(OPS_RESERVE));
        let (runs, t0, t_stop, cpu_stop, ctx) = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(bufs.iter_mut())
                .map(|(c, ops)| {
                    let ctl = &ctl;
                    s.spawn(move || client_loop(c, ops, seed, read_pct, ctl))
                })
                .collect();
            ctl.barrier.wait();
            let t0 = Instant::now();
            phase.setups.push((t0 - setup_start).as_secs_f64());
            before = obs.as_ref().map(|o| read_layers(&cluster, o));
            let ctx0 = procfs::ctx_switches();
            let sampler = {
                let ctl = &ctl;
                s.spawn(move || {
                    let ns = || Instant::now().duration_since(ctl.epoch).as_nanos() as u64;
                    let mut samples = vec![(ns(), procfs::cpu_ns())];
                    while !ctl.stop.load(Ordering::SeqCst) {
                        std::thread::sleep(SLICE);
                        samples.push((ns(), procfs::cpu_ns()));
                    }
                    samples
                })
            };
            match crash_after {
                None => std::thread::sleep(window),
                Some(offset) => {
                    std::thread::sleep(offset);
                    victim = Some(self.crash_leader(&cluster, obs.is_some(), &ctl, phase, out));
                }
            }
            ctl.stop.store(true, Ordering::SeqCst);
            let (t_stop, cpu_stop) = (Instant::now(), procfs::cpu_ns());
            let ctx1 = procfs::ctx_switches();
            let runs: Vec<ClientRun> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            samples = sampler.join().expect("sampler thread panicked");
            after = obs.as_ref().map(|o| read_layers(&cluster, o));
            (runs, t0, t_stop, cpu_stop, ctx1.saturating_sub(ctx0))
        });
        let t0_ns = t0.duration_since(self.epoch).as_nanos() as u64;
        let last_end = bufs
            .iter()
            .flatten()
            .map(OpRecord::end_ns)
            .max()
            .unwrap_or(t0_ns);
        phase.bufs = bufs;
        let stop_ns = t_stop.duration_since(self.epoch).as_nanos() as u64;
        let window_s = (last_end.max(stop_ns) - t0_ns) as f64 / 1e9;
        // Only whole slices inside the window count: the last sample lands
        // after the stop, when the clients are already winding down. A
        // window shorter than a slice is one slice.
        samples.retain(|&(ns, _)| ns <= stop_ns);
        if samples.len() < 2 {
            samples.push((stop_ns, cpu_stop));
        }
        phase.ctx += ctx;
        if let (Some(b), Some(a)) = (&before, &after) {
            phase.deltas.add(b, a);
        }

        // Correctness: survivors converge (failover), then every replica
        // that is still up holds the same state, with every acked write.
        let mut acks = Vec::new();
        for mut r in runs {
            phase.retries += r.stats.retries;
            phase.redirects += r.stats.redirects;
            r.check_reads();
            if let Some(e) = r.read_violation {
                out.fail_check("check_read_linearizability", e);
            }
            acks.push(r.acks);
        }
        let traced = obs.is_some();
        phase.add_segment(
            self.workload,
            traced,
            window_s,
            (setup_start, t0, t_stop),
            &samples,
        );
        if let Some(v) = victim.flatten() {
            if !await_survivor_convergence(&cluster, v, PATIENCE) {
                out.fail_check(
                    "await_survivor_convergence",
                    format!("survivors of crashed {v} did not converge within 10 s"),
                );
            }
        }
        let crashed = victim.flatten();
        let finals = cluster.shutdown();
        let survivors: Vec<&SvcReplica> = finals
            .iter()
            .filter(|r| Some(irs_types::Protocol::id(*r)) != crashed)
            .collect();
        out.check("check_consistency", check_consistency(&survivors, &acks));
    }

    /// Crash-stops the agreed leader and waits for the first ack after the
    /// crash (plus [`POST_CRASH`] more load). Returns the victim, `None`
    /// when the run had to give up.
    fn crash_leader(
        &self,
        cluster: &SvcCluster,
        traced: bool,
        ctl: &Control,
        phase: &mut Phase,
        out: &mut Outcome,
    ) -> Option<ProcessId> {
        let Some(victim) = wait_for(PATIENCE, || cluster.agreed_leader()) else {
            out.fail_check("leader_agreed_before_crash", "no agreed leader to crash");
            return None;
        };
        cluster.crash(victim);
        let crashed_at = Instant::now();
        ctl.crash_ns.store(
            crashed_at.duration_since(ctl.epoch).as_nanos() as u64,
            Ordering::SeqCst,
        );
        if traced {
            match wait_for(PATIENCE, || {
                cluster.agreed_leader().filter(|&l| l != victim)
            }) {
                Some(_) => phase
                    .elect_ms
                    .push(crashed_at.elapsed().as_secs_f64() * 1e3),
                None => out.fail_check("leader_reelected", "no new agreed leader within 10 s"),
            }
        }
        let recovered = wait_for(PATIENCE, || {
            let ns = ctl.first_ack_ns.load(Ordering::SeqCst);
            (ns != u64::MAX).then_some(ns)
        });
        match recovered {
            Some(ns) => {
                let crash_ns = ctl.crash_ns.load(Ordering::SeqCst);
                phase.unavailable_us.push((ns - crash_ns) as f64 / 1e3);
                std::thread::sleep(POST_CRASH);
            }
            None => out.fail_check("failover_recovered", "no ack within 10 s of the crash"),
        }
        Some(victim)
    }
}

/// Polls `f` (every 200 µs) until it yields `Some` or `limit` passes.
fn wait_for<R>(limit: Duration, mut f: impl FnMut() -> Option<R>) -> Option<R> {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(r) = f() {
            return Some(r);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Runs a service workload; with `traced`, an untraced phase then a
/// traced phase plus the layer replays.
pub fn run(cfg: &SvcRun<'_>, traced: bool, out: &mut Outcome, spans: &mut Spans) {
    let plain = cfg.phase(false, out);
    if !out.correct() {
        return;
    }
    out.attempted = plain.attempted() as u64;
    out.failed = plain.failed() as u64;
    report_end_to_end(cfg, &plain, out);
    if !traced {
        return;
    }
    let t = cfg.phase(true, out);
    if !out.correct() {
        return;
    }
    out.attempted += t.attempted() as u64;
    out.failed += t.failed() as u64;
    report_layers(cfg, &plain, &t, out, spans);
}

fn report_end_to_end(cfg: &SvcRun<'_>, p: &Phase, out: &mut Outcome) {
    let w = cfg.workload;
    let writes = Latency::of(&p.write_us);
    let reads = Latency::of(&p.read_us);
    let failed = p.failed();
    out.note(format!(
        "{}: {} ops attempted, {} failed, {} acked writes, {} answered reads, {} segments, window {:.3} s",
        w.name(),
        p.attempted(),
        failed,
        p.writes_acked(),
        p.reads_answered(),
        p.segs.len(),
        p.window_s
    ));
    let mut latency =
        |class: &str, l: &Option<Latency>| {
            let Some(l) = l else { return };
            out.named(&format!("{class}_p50_us"), l.p50, "us", l.count);
            out.named(&format!("{class}_p90_us"), l.p90, "us", l.count);
            out.named(&format!("{class}_p99_us"), l.p99, "us", l.count);
            match l.max_supported {
                Some((pc, v)) => out.note(format!(
                "    highest percentile with ten {class} samples beyond it: p{pc:.3} = {v:.1} us{}",
                if l.p99_supported() { "" } else { " (p99 is not supported)" }
            )),
                None => out.note(format!(
                    "    ten or fewer {class} samples: no percentile supported"
                )),
            }
        };
    latency("write", &writes);
    if w == Workload::LeaseReadUdp {
        latency("read", &reads);
        out.named(
            "read_ops_per_s",
            p.reads_answered() as f64 / p.window_s,
            "1/s",
            p.reads_answered(),
        );
    }
    out.named(
        "write_ops_per_s",
        p.writes_acked() as f64 / p.window_s,
        "1/s",
        p.writes_acked(),
    );
    out.named(
        "failed_op_ratio",
        failed as f64 / p.attempted().max(1) as f64,
        "ratio",
        p.attempted(),
    );
    // The gated figures are quartiles over the phase's slices (see
    // GATED_QUARTILE), so a disturbed stretch of the run cannot move them.
    let n = p.completed();
    let q = GATED_QUARTILE;
    let rate = p.slice_pct(100.0 - q, |s| Some(s.rate));
    let cpu = p.slice_pct(q, |s| s.cpu_us_per_op);
    let (Some(rate), Some(cpu)) = (rate, cpu) else {
        out.fail_check("ops_completed", "no op completed in the window");
        return;
    };
    out.set("ops_per_s", rate, n);
    out.set("cpu_us_per_op", cpu, n);
    out.set(
        "peak_rss_mb",
        p.peak_rss_mb,
        p.segment_peaks_mb.len().max(1),
    );
    out.set(
        "setup_s",
        stats::median_of(&p.setups).unwrap_or(0.0),
        p.setups.len(),
    );
    if w == Workload::LeaderFailover {
        let Some(u) = Latency::of(&p.unavailable_us) else {
            out.fail_check("failover_recovered", "no crash was measured");
            return;
        };
        out.named("unavailable_ms", u.p50 / 1e3, "ms", u.count);
        out.set("p50_us", u.p50, u.count);
        return;
    }
    let primary = p.segs.iter().map(|s| s.primary(w)).sum();
    let p50 = p.slice_pct(q, |s| s.p50_us);
    out.set("p50_us", p50.unwrap_or(f64::NAN), primary);
    out.note(format!(
        "  gated: quartiles over {} slices of {} ms of ops_per_s, p50_us, cpu_us_per_op",
        p.slices.len(),
        SLICE.as_millis()
    ));
}

fn report_layers(cfg: &SvcRun<'_>, plain: &Phase, t: &Phase, out: &mut Outcome, spans: &mut Spans) {
    let w = cfg.workload;
    let d = &t.deltas;
    let writes = t.writes_acked() as f64;
    let ops = t.completed() as f64;
    let attempted = t.attempted() as f64;
    let n = t.completed();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.set(
        "client.retries_per_op",
        ratio(t.retries as f64, attempted),
        t.attempted(),
    );
    out.set(
        "client.redirects_per_op",
        ratio(t.redirects as f64, attempted),
        t.attempted(),
    );
    out.set(
        "replica.requests_per_write",
        ratio(d.get(names::REQUESTS), writes),
        n,
    );
    out.set("replica.dup_skips", d.get(names::DUP_SKIPS), n);
    let all_reads =
        d.get(names::READS_LEASE) + d.get(names::READS_READ_INDEX) + d.get(names::READS_STALE);
    out.set(
        "replica.lease_read_share",
        ratio(d.get(names::READS_LEASE), all_reads),
        all_reads as usize,
    );
    out.set("replica.lease_expiries", d.get(names::LEASE_EXPIRIES), n);
    let apply_n = d
        .hists
        .get(names::SVC_APPLY_MICROS)
        .map_or(0, |h| h.0.iter().sum::<u64>() as usize);
    out.set(
        "replica.apply_us_p50",
        d.hist_pct(names::SVC_APPLY_MICROS, 50.0),
        apply_n,
    );
    out.set(
        "replica.apply_us_p99",
        d.hist_pct(names::SVC_APPLY_MICROS, 99.0),
        apply_n,
    );
    out.set(
        "replica.apply_us_mean",
        d.hist_mean(names::SVC_APPLY_MICROS),
        apply_n,
    );
    out.set(
        "replica.batch_commands_mean",
        d.hist_mean(names::SVC_BATCH_COMMANDS),
        apply_n,
    );
    out.set(
        "consensus.slots_per_write",
        ratio(d.get(names::SLOTS_DRIVEN), writes),
        n,
    );
    out.set(
        "consensus.phase1_skip_ratio",
        ratio(d.get(names::PHASE1_SKIPS), d.get(names::SLOTS_DRIVEN)),
        d.get(names::SLOTS_DRIVEN) as usize,
    );
    out.set("consensus.reign_prepares", d.get(names::REIGN_PREPARES), n);
    out.set("consensus.catchups_sent", d.get(names::CATCHUPS_SENT), n);
    out.set(
        "reactor.frames_rx_per_op",
        ratio(d.get(names::NET_FRAMES_RX), ops),
        n,
    );
    out.set(
        "reactor.frames_tx_per_op",
        ratio(d.get(names::NET_FRAMES_TX), ops),
        n,
    );
    out.set(
        "reactor.sends_batched_share",
        ratio(d.get(names::NET_SENDS_BATCHED), d.get(names::NET_FRAMES_TX)),
        d.get(names::NET_FRAMES_TX) as usize,
    );
    out.set("reactor.sends_shed", d.get(names::NET_SENDS_SHED), n);
    out.set(
        "runtime.polls_per_op",
        ratio(d.get(names::RUNTIME_POLLS), ops),
        n,
    );
    out.set(
        "runtime.timers_fired_per_s",
        ratio(d.get(names::RUNTIME_TIMERS_FIRED), t.window_s),
        n,
    );
    out.set("process.ctx_switches_per_op", ratio(t.ctx as f64, ops), n);
    let elect = stats::median_of(&t.elect_ms).unwrap_or(0.0);
    let resume: Vec<f64> = t
        .unavailable_us
        .iter()
        .zip(&t.elect_ms)
        .map(|(u, e)| u / 1e3 - e)
        .collect();
    out.set("omega.elect_ms", elect, t.elect_ms.len());
    out.set(
        "omega.resume_ms",
        stats::median_of(&resume).unwrap_or(0.0),
        resume.len(),
    );
    out.set("omega.reigns", d.get(names::OMEGA_REIGNS_TOTAL), n);
    let (u, tr) = (plain.primary_ops_per_s(w), t.primary_ops_per_s(w));
    out.set("trace.overhead_pct", (u - tr) / u * 100.0, 2);
    out.note(format!(
        "  trace: primary ops/s untraced {u:.1}, traced {tr:.1}"
    ));

    // Spans: the run, each traced window, and 1 in SPAN_SAMPLE ops.
    let root = spans.push_between("run", 0, cfg.epoch, Instant::now());
    let mut op_spans = Vec::with_capacity(t.segs.len());
    for seg in &t.segs {
        let (setup, a, b) = seg.marks;
        spans.push_between("setup", root, setup, a);
        let win = spans.push_between("window", root, a, b);
        let mut ids = BTreeMap::new();
        for o in seg.ops.iter().filter(|o| o.seq % SPAN_SAMPLE == 0) {
            let name = if o.read { "client.get" } else { "client.put" };
            let id = spans.push(name, win, (o.client, o.seq), o.start_ns, o.end_ns());
            ids.insert((o.client, o.seq), id);
        }
        op_spans.push(ids);
    }
    let segments: Vec<SegmentOps<'_>> = t
        .segs
        .iter()
        .zip(&op_spans)
        .map(|(seg, ids)| SegmentOps {
            ops: &seg.ops,
            op_spans: ids,
        })
        .collect();
    let replay_start = Instant::now();
    let replay_root = spans.push_between("replay", root, replay_start, replay_start);
    let wal_dir: PathBuf = cfg.scratch.join(format!("replay-{}", std::process::id()));
    let replayed = crate::layers::replay(cfg.seed, &segments, &wal_dir, spans, replay_root);
    let end = spans.ns(Instant::now());
    spans.set_end(replay_root, end);
    spans.set_end(root, end);
    match replayed {
        Ok(r) => {
            out.set("store.apply_ns_per_op", r.store_apply_ns, n);
            out.set("store.get_ns_per_op", r.store_get_ns, n);
            out.set("store.export_us", r.store_export_us, 1);
            let wal_n = crate::layers::WAL_REPLAY_WRITES.min(t.writes_acked());
            out.set("wal.append_commit_us", r.wal_append_commit_us, wal_n);
            out.set("wal.commit_us_p50", r.wal_commit_us_p50, wal_n);
            out.set("wal.commit_us_p99", r.wal_commit_us_p99, wal_n);
            out.set("wire.encode_ns_per_frame", r.wire_encode_ns, 2 * n);
            out.set("wire.decode_ns_per_frame", r.wire_decode_ns, 2 * n);
            out.set("wire.bytes_per_op", r.wire_bytes_per_op, n);
            out.set(
                "consensus.inproc_us_per_write",
                r.inproc_us_per_write,
                crate::layers::INPROC_REPLAY_WRITES.min(t.writes_acked()),
            );
            out.set(
                "consensus.msgs_per_write",
                r.inproc_msgs_per_write,
                crate::layers::INPROC_REPLAY_WRITES.min(t.writes_acked()),
            );
        }
        Err(e) => out.fail_check("layer_replay", e),
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
}
