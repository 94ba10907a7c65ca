//! The deployment shape of a service node ([`SvcConfig`]) and
//! [`run_svc_node`], which drives one [`SvcReplica`] over a [`Transport`]
//! endpoint with `irs-runtime`'s host loop.
//!
//! Nothing here is service-specific I/O: the host admits client frames from
//! endpoints beyond the replica group because [`SvcMsg`](crate::SvcMsg)'s
//! own admission rule ([`irs_net::Wire::admit`]) does, bounded by
//! [`SvcConfig::peers`].

use crate::replica::SvcReplica;
use irs_net::Transport;
use irs_obs::Obs;
use irs_runtime::{run_node, HostConfig, NodeHandle};
use irs_types::{ProcessId, SystemConfig};
use irs_wal::FsyncPolicy;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration as StdDuration;

/// Deployment shape of one service node.
#[derive(Clone, Debug)]
pub struct SvcConfig {
    /// Number of replicas (the consensus group; broadcast fan-out).
    pub n: usize,
    /// Total transport endpoints: replicas plus client endpoints. Frames
    /// from senders at or beyond this have no reply route and are dropped.
    pub peers: usize,
    /// The wall-clock length of one logical tick.
    pub tick: StdDuration,
    /// Most client commands the leader drains into one log slot's batch
    /// (1 = unbatched, the historical behaviour).
    pub batch_max: usize,
    /// Number of consecutive log slots the leader keeps in flight
    /// concurrently (1 = one-slot-at-a-time, the historical behaviour).
    pub pipeline_depth: u64,
    /// Apply-slot interval at which a replica exports its store and
    /// truncates the log's decided prefix behind the snapshot (0 disables
    /// compaction; the log then grows without bound, as before PR 5).
    pub snapshot_interval: u64,
    /// Base directory for durable state. When set, replica `i` keeps its
    /// WAL and snapshot under `<data_dir>/node-<i>/` and survives kill-9:
    /// a restart with the same directory recovers by replay. `None` (the
    /// default) runs replicas purely in memory, as before this PR.
    pub data_dir: Option<PathBuf>,
    /// When a replica syncs its WAL to disk (only meaningful with
    /// `data_dir` set). [`FsyncPolicy::Always`] is the crash-safe default.
    pub fsync: FsyncPolicy,
    /// Shared observability handle. When set, every replica this config
    /// builds records onto its registry (and flight recorder, if the
    /// handle carries one), and [`run_svc_node`] adds host-loop counters.
    /// `None` (the default) runs fully uninstrumented, as before PR 8.
    pub obs: Option<Arc<Obs>>,
    /// Whether replicas take the stable-reign fast path (one reign-scoped
    /// prepare per leadership, Accept-only slots thereafter). On by
    /// default; the E16 baseline turns it off to measure the saving.
    pub phase1_skip: bool,
}

impl SvcConfig {
    /// `n` replicas plus `clients` client endpoints, 100 µs tick, unbatched
    /// single-slot replication, compaction every 1024 applied slots.
    pub fn new(n: usize, clients: usize) -> Self {
        SvcConfig {
            n,
            peers: n + clients,
            tick: StdDuration::from_micros(100),
            batch_max: 1,
            pipeline_depth: 1,
            snapshot_interval: 1024,
            data_dir: None,
            fsync: FsyncPolicy::Always,
            obs: None,
            phase1_skip: true,
        }
    }

    /// Sets the tick length.
    #[must_use]
    pub fn with_tick(mut self, tick: StdDuration) -> Self {
        self.tick = tick.max(StdDuration::from_nanos(1));
        self
    }

    /// Sets the per-slot command batch bound and the in-flight slot window
    /// (both clamped to at least 1).
    #[must_use]
    pub fn with_batching(mut self, batch_max: usize, pipeline_depth: u64) -> Self {
        self.batch_max = batch_max.max(1);
        self.pipeline_depth = pipeline_depth.max(1);
        self
    }

    /// Sets the snapshot/compaction interval in applied slots (0 disables).
    #[must_use]
    pub fn with_snapshot_interval(mut self, interval: u64) -> Self {
        self.snapshot_interval = interval;
        self
    }

    /// Makes replicas durable: WAL + snapshot under `<base>/node-<i>/`.
    #[must_use]
    pub fn with_data_dir(mut self, base: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(base.into());
        self
    }

    /// Sets the WAL fsync policy (no effect without a data dir).
    #[must_use]
    pub fn with_fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Attaches a shared observability handle (see [`SvcConfig::obs`]).
    #[must_use]
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Enables or disables the stable-reign fast path (default on).
    #[must_use]
    pub fn with_phase1_skip(mut self, enabled: bool) -> Self {
        self.phase1_skip = enabled;
        self
    }

    /// The host settings of this deployment: its tick, its routing-table
    /// bound (`peers`), its observability handle, and `workers` shards.
    pub fn host(&self, workers: usize) -> HostConfig {
        HostConfig {
            tick: self.tick,
            workers,
            peers: self.peers,
            obs: self.obs.clone(),
        }
    }

    /// The data directory of replica `id` under this config, if durable.
    pub fn node_dir(&self, id: ProcessId) -> Option<PathBuf> {
        self.data_dir
            .as_ref()
            .map(|base| base.join(format!("node-{}", id.index())))
    }

    /// Builds the replica this config describes — the canonical way to
    /// construct the node passed to [`run_svc_node`]. The batching,
    /// pipelining and compaction knobs live on the config but act inside
    /// the replica; building the replica anywhere else risks the two
    /// silently disagreeing (a replica built with `SvcReplica::new` next
    /// to a `with_batching(…)` config runs unbatched). Resilience is the
    /// largest consensus-compatible `t = ⌊(n−1)/2⌋`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (no consensus-compatible resilience).
    pub fn replica(&self, id: ProcessId) -> SvcReplica {
        assert!(self.n >= 3, "a replicated service needs n >= 3");
        let system = SystemConfig::new(self.n, (self.n - 1) / 2).expect("valid replica system");
        let mut replica = match self.node_dir(id) {
            Some(dir) => SvcReplica::durable(
                id,
                system,
                self.batch_max,
                self.pipeline_depth,
                self.snapshot_interval,
                &dir,
                self.fsync,
            )
            .expect("open durable replica state"),
            None => SvcReplica::with_tuning(
                id,
                system,
                self.batch_max,
                self.pipeline_depth,
                self.snapshot_interval,
            ),
        };
        replica.set_phase1_skip(self.phase1_skip);
        if let Some(obs) = &self.obs {
            replica.attach_obs(obs);
        }
        replica
    }
}

/// Drives `replica` over `transport` on the calling thread until
/// [`NodeHandle::stop`] is set, then returns the final replica state (its
/// store included): [`irs_runtime::run_node`] with the host settings this
/// config carries.
pub fn run_svc_node<T: Transport>(
    replica: SvcReplica,
    transport: T,
    config: SvcConfig,
    handle: NodeHandle,
) -> SvcReplica {
    let n = config.n;
    run_node(replica, transport, n, config.host(1), handle)
}
