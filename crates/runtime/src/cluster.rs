//! The one host: [`Cluster`] (W shard threads) and [`run_node`] (one
//! process on the calling thread), both running the loop of
//! [`crate::shard`] over a [`crate::backend`].

use crate::backend::{Backend, Endpoint, Sockets};
use crate::shard::Shard;
use irs_net::{FaultyLink, LinkModel, MemNetwork, Reactor, Transport, Wire};
use irs_obs::Obs;
use irs_types::{Introspect, ProcessId, Protocol, Snapshot};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How a host maps ticks onto the wall clock, shards its processes, bounds
/// its inputs, and reports.
#[derive(Clone, Debug)]
pub struct HostConfig {
    /// The wall-clock length of one logical tick. Protocol durations (send
    /// periods, timeout units) are multiplied by it to obtain deadlines.
    pub tick: Duration,
    /// Shard threads for the shapes that choose their own sharding
    /// ([`Cluster::spawn`], [`Cluster::on_sockets`], [`Cluster::udp`]);
    /// `0` means the machine's available parallelism. Clamped to `1..=n`.
    pub workers: usize,
    /// Size of the deployment's routing table: the group's processes `0..n`
    /// plus any endpoints beyond them (clients, scrapers). A message type
    /// may admit non-member senders up to this bound ([`Wire::admit`]);
    /// values below `n` count as `n`.
    pub peers: usize,
    /// Observability: registry counters, flight-recorder traces, the
    /// leader-reign panel, and answers to scrape requests.
    pub obs: Option<Arc<Obs>>,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            tick: Duration::from_micros(100),
            workers: 0,
            peers: 0,
            obs: None,
        }
    }
}

/// The shared handles through which an embedder observes and stops one
/// hosted process.
#[derive(Clone, Debug, Default)]
pub struct NodeHandle {
    /// The process's latest published [`Snapshot`].
    pub snapshot: Arc<Mutex<Snapshot>>,
    /// Set to crash-stop the process: it stops reacting to messages and
    /// timers and answers no scrapes, while its host keeps running.
    pub crashed: Arc<AtomicBool>,
    /// Set to stop the host loop and return the protocol state.
    pub stop: Arc<AtomicBool>,
}

impl NodeHandle {
    /// Fresh handles (not crashed, not stopped).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Drives `proto`, one process of an `n`-process group, over `transport` on
/// the calling thread until [`NodeHandle::stop`] is set, then returns its
/// final state. This is the host loop with one shard and one process: the
/// deployment unit when every process is its own OS process (see
/// `examples/socket_cluster.rs`). `config.workers` is ignored.
///
/// On stop, frames already queued or held in the transport are still
/// delivered until a full quiet window passes; the sends and timers they
/// trigger are discarded.
pub fn run_node<P, T>(proto: P, transport: T, n: usize, config: HostConfig, handle: NodeHandle) -> P
where
    P: Protocol + Introspect,
    P::Msg: Wire,
    T: Transport,
{
    let stop = Arc::clone(&handle.stop);
    Shard::new(vec![(proto, handle)], Endpoint(transport), n, &config, stop)
        .run()
        .pop()
        .expect("the shard returns its process")
}

/// A running group of `n` protocol processes on `W` shard threads.
///
/// Shard `s` hosts every process `i` with `i % W == s`. The shapes differ
/// only in their backend (see the constructors). Dropping the cluster
/// without [`Cluster::shutdown`] still stops the shard threads, but does
/// not wait for them or recover the final states.
#[derive(Debug)]
pub struct Cluster<P: Protocol> {
    handles: Vec<NodeHandle>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<Vec<P>>>,
}

impl<P> Cluster<P>
where
    P: Protocol + Introspect + Send + 'static,
    P::Msg: Wire,
{
    /// The shared-memory scale shape: `config.workers` shards (default: one
    /// per core) over [`MemNetwork::grouped`], one in-memory endpoint per
    /// shard. A 256-process cluster runs on a handful of threads.
    ///
    /// # Panics
    ///
    /// Panics if `processes` is empty or the ids are not `0..n` in order.
    pub fn spawn(processes: Vec<P>, config: HostConfig) -> Self {
        let workers = resolve_workers(config.workers, processes.len());
        let shard_of: Vec<usize> = (0..processes.len()).map(|i| i % workers).collect();
        Self::on_transports(processes, MemNetwork::grouped(&shard_of), config)
    }

    /// One shard per transport endpoint: endpoint `s` must host every
    /// process `i` with `i % W == s`, where `W = transports.len()`. With one
    /// endpoint per process (a [`MemNetwork::mesh`], a UDP mesh) this is the
    /// thread-per-node shape. `config.workers` is ignored.
    ///
    /// # Panics
    ///
    /// Panics if the ids are not `0..n` in order, or there are no endpoints
    /// or more endpoints than processes.
    pub fn on_transports<T>(processes: Vec<P>, transports: Vec<T>, config: HostConfig) -> Self
    where
        T: Transport + 'static,
    {
        let backends = transports.into_iter().map(Endpoint).collect();
        Self::launch(processes, backends, &config)
    }

    /// Thread-per-node over the in-memory mesh with a fault-injecting link
    /// model per endpoint: `model(p)` shapes what process `p` receives.
    pub fn with_link_models(
        processes: Vec<P>,
        config: HostConfig,
        mut model: impl FnMut(ProcessId) -> LinkModel,
    ) -> Self {
        let links: Vec<_> = MemNetwork::mesh(processes.len())
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let mut link = FaultyLink::new(t, model(ProcessId::new(i as u32)));
                if let Some(obs) = &config.obs {
                    link.attach_obs(obs.registry());
                }
                link
            })
            .collect();
        Self::on_transports(processes, links, config)
    }

    /// The socket shape: `sockets[i]` is process `i`'s own UDP socket, and
    /// `config.workers` reactor shards serve them all. `peer_addrs[p]` is
    /// the address of `ProcessId(p)`; it may name endpoints beyond the
    /// group (clients), which is how replies reach them.
    ///
    /// # Errors
    ///
    /// Returns any error from switching a socket to nonblocking mode or
    /// registering it with the readiness backend.
    ///
    /// # Panics
    ///
    /// Panics if the ids are not `0..n` in order, or the socket count
    /// differs from the process count.
    pub fn on_sockets(
        processes: Vec<P>,
        sockets: Vec<UdpSocket>,
        peer_addrs: Vec<SocketAddr>,
        config: HostConfig,
    ) -> std::io::Result<Self> {
        assert_eq!(
            sockets.len(),
            processes.len(),
            "need one socket per process"
        );
        let workers = resolve_workers(config.workers, processes.len());
        let mut backends: Vec<Sockets> = (0..workers)
            .map(|_| Sockets {
                reactor: Reactor::new(),
                ids: Vec::new(),
            })
            .collect();
        for (i, socket) in sockets.into_iter().enumerate() {
            let shard = &mut backends[i % workers];
            shard.reactor.add_endpoint(socket, peer_addrs.clone())?;
            shard.ids.push(ProcessId::new(i as u32));
        }
        if let Some(obs) = &config.obs {
            for shard in &mut backends {
                shard.reactor.attach_obs(obs.registry());
            }
        }
        Ok(Self::launch(processes, backends, &config))
    }

    /// [`Cluster::on_sockets`] over one fresh localhost socket per process.
    ///
    /// # Errors
    ///
    /// Returns any socket-binding or readiness-registration error.
    pub fn udp(processes: Vec<P>, config: HostConfig) -> std::io::Result<Self> {
        let sockets: Vec<UdpSocket> = (0..processes.len())
            .map(|_| UdpSocket::bind(("127.0.0.1", 0)))
            .collect::<std::io::Result<_>>()?;
        let addrs = sockets
            .iter()
            .map(UdpSocket::local_addr)
            .collect::<std::io::Result<_>>()?;
        Self::on_sockets(processes, sockets, addrs, config)
    }

    fn launch<B: Backend + 'static>(
        processes: Vec<P>,
        backends: Vec<B>,
        config: &HostConfig,
    ) -> Self {
        for (i, p) in processes.iter().enumerate() {
            assert_eq!(
                p.id(),
                ProcessId::new(i as u32),
                "process at index {i} reports id {}",
                p.id()
            );
        }
        let n = processes.len();
        let workers = backends.len();
        assert!(
            workers >= 1 && workers <= n,
            "need 1..=n shard backends, got {workers} for n = {n}"
        );
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<NodeHandle> = processes
            .iter()
            .map(|p| NodeHandle {
                snapshot: Arc::new(Mutex::new(p.snapshot())),
                crashed: Arc::default(),
                stop: Arc::clone(&stop),
            })
            .collect();
        let mut per_shard: Vec<Vec<(P, NodeHandle)>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, p) in processes.into_iter().enumerate() {
            per_shard[i % workers].push((p, handles[i].clone()));
        }
        let threads = per_shard
            .into_iter()
            .zip(backends)
            .enumerate()
            .map(|(s, (procs, backend))| {
                let shard = Shard::new(procs, backend, n, config, Arc::clone(&stop));
                std::thread::Builder::new()
                    .name(format!("irs-shard-{s}"))
                    .spawn(move || shard.run())
                    .expect("spawn shard thread")
            })
            .collect();
        Cluster {
            handles,
            stop,
            threads,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.handles.len()
    }

    /// Number of shard threads the cluster runs on.
    pub fn worker_threads(&self) -> usize {
        self.threads.len()
    }

    /// The latest published snapshot of a process.
    pub fn snapshot(&self, pid: ProcessId) -> Snapshot {
        self.handles[pid.index()]
            .snapshot
            .lock()
            .expect("snapshot lock poisoned")
            .clone()
    }

    /// The current `leader()` output of a process.
    pub fn leader_of(&self, pid: ProcessId) -> ProcessId {
        self.snapshot(pid).leader
    }

    /// The current `leader()` output of every process, in id order.
    pub fn leaders(&self) -> Vec<ProcessId> {
        (0..self.n() as u32)
            .map(|i| self.leader_of(ProcessId::new(i)))
            .collect()
    }

    /// Returns `Some(p)` when every non-crashed process currently outputs
    /// the same leader `p` and `p` has not been crashed.
    pub fn agreed_leader(&self) -> Option<ProcessId> {
        let mut agreed: Option<ProcessId> = None;
        for i in 0..self.n() as u32 {
            let pid = ProcessId::new(i);
            if self.is_crashed(pid) {
                continue;
            }
            let leader = self.leader_of(pid);
            match agreed {
                None => agreed = Some(leader),
                Some(l) if l == leader => {}
                Some(_) => return None,
            }
        }
        agreed.filter(|&l| !self.is_crashed(l))
    }

    /// Crash-stops a process: it stops reacting to messages and timers and
    /// answers no scrapes; frames addressed to it are dropped.
    pub fn crash(&self, pid: ProcessId) {
        self.handles[pid.index()]
            .crashed
            .store(true, Ordering::SeqCst);
    }

    /// Returns `true` if the process has been crashed through
    /// [`Cluster::crash`].
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        self.handles[pid.index()].crashed.load(Ordering::SeqCst)
    }

    /// Stops every shard and returns the final protocol states (crashed
    /// processes included), in id order. Shutdown drains: frames already
    /// sent when the stop lands are still delivered, with the reactions
    /// they would trigger discarded.
    pub fn shutdown(mut self) -> Vec<P> {
        self.stop.store(true, Ordering::SeqCst);
        let mut slots: Vec<Option<P>> = (0..self.n()).map(|_| None).collect();
        for thread in self.threads.drain(..) {
            for proto in thread.join().expect("shard thread panicked") {
                let i = proto.id().index();
                slots[i] = Some(proto);
            }
        }
        slots
            .into_iter()
            .map(|p| p.expect("every process returned by its shard"))
            .collect()
    }
}

impl<P: Protocol> Drop for Cluster<P> {
    fn drop(&mut self) {
        // The shards observe the flag within one poll budget and drain.
        self.stop.store(true, Ordering::SeqCst);
    }
}

fn resolve_workers(workers: usize, n: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        workers
    }
    .clamp(1, n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_net::{MemNetwork, UdpTransport};
    use irs_omega::OmegaProcess;
    use irs_types::{Duration as Ticks, SystemConfig};
    use std::time::Instant;

    fn wait_for<F: Fn() -> bool>(limit: Duration, check: F) -> bool {
        let start = Instant::now();
        while start.elapsed() < limit {
            if check() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        check()
    }

    fn omega_processes(n: usize, t: usize) -> Vec<OmegaProcess> {
        let system = SystemConfig::new(n, t).unwrap();
        system
            .processes()
            .map(|id| OmegaProcess::fig3(id, system))
            .collect()
    }

    /// Figure 3 processes with a short send period, so real time moves
    /// through many rounds quickly.
    fn fast_omega(n: usize, t: usize) -> Vec<OmegaProcess> {
        let system = SystemConfig::new(n, t).unwrap();
        system
            .processes()
            .map(|id| {
                OmegaProcess::new(
                    id,
                    irs_omega::OmegaConfig::new(system, irs_omega::Variant::Fig3)
                        .with_send_period(Ticks::from_ticks(20))
                        .with_timeout_unit(Ticks::from_ticks(10)),
                )
            })
            .collect()
    }

    /// Agreement alone is trivially true of the all-default initial state
    /// (every fresh Figure 3 process outputs `p1`, and snapshots publish
    /// right after `on_start`), so deployment tests additionally require
    /// every process to have progressed through real ALIVE rounds.
    fn agreed_after_progress(cluster: &Cluster<OmegaProcess>, rounds: u64) -> bool {
        (0..cluster.n() as u32).all(|i| cluster.snapshot(ProcessId::new(i)).sending_round > rounds)
            && cluster.agreed_leader().is_some()
    }

    fn delivered(cluster: &Cluster<OmegaProcess>) -> u64 {
        (0..cluster.n() as u32)
            .map(|i| {
                cluster
                    .snapshot(ProcessId::new(i))
                    .gauge("frames_delivered")
                    .unwrap_or(0)
            })
            .sum()
    }

    #[test]
    fn cluster_elects_a_common_leader_in_real_time() {
        let cluster = Cluster::spawn(fast_omega(4, 1), HostConfig::default());
        // Wait until the protocol has actually run for a while (several
        // ALIVE rounds everywhere) and the live processes agree on a leader.
        assert!(
            wait_for(Duration::from_secs(20), || agreed_after_progress(
                &cluster, 10
            )),
            "no agreement within 20s: leaders {:?}",
            cluster.leaders()
        );
        let finals = cluster.shutdown();
        assert_eq!(finals.len(), 4);
    }

    #[test]
    fn crashed_leader_is_replaced_in_real_time() {
        let cluster = Cluster::spawn(fast_omega(4, 1), HostConfig::default());
        assert!(wait_for(Duration::from_secs(10), || cluster
            .agreed_leader()
            .is_some()));
        let first = cluster.agreed_leader().unwrap();
        cluster.crash(first);
        assert!(cluster.is_crashed(first));
        let replaced = wait_for(Duration::from_secs(30), || {
            cluster.agreed_leader().is_some_and(|l| l != first)
        });
        assert!(replaced, "leaders after crash: {:?}", cluster.leaders());
        cluster.shutdown();
    }

    #[test]
    fn snapshots_are_published() {
        let cluster = Cluster::spawn(fast_omega(3, 1), HostConfig::default());
        assert!(wait_for(Duration::from_secs(5), || {
            cluster.snapshot(ProcessId::new(0)).sending_round > 2
        }));
        let snap = cluster.snapshot(ProcessId::new(1));
        assert_eq!(snap.susp_levels.len(), 3);
        cluster.shutdown();
    }

    /// The sharded cluster runs on a bounded number of shards regardless
    /// of n, and an explicit worker count is honoured.
    #[test]
    fn worker_threads_are_bounded_by_parallelism() {
        let cluster = Cluster::spawn(fast_omega(12, 5), HostConfig::default());
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert!(cluster.worker_threads() <= cores.min(12));
        assert!(cluster.worker_threads() >= 1);
        cluster.shutdown();

        let config = HostConfig {
            workers: 2,
            ..HostConfig::default()
        };
        let cluster = Cluster::spawn(omega_processes(4, 1), config);
        assert_eq!(cluster.worker_threads(), 2);
        cluster.shutdown();
    }

    #[test]
    fn in_memory_deployment_elects_a_leader() {
        let cluster = Cluster::on_transports(
            omega_processes(4, 1),
            MemNetwork::mesh(4),
            HostConfig::default(),
        );
        assert_eq!(cluster.worker_threads(), 4, "one shard per endpoint");
        assert!(
            wait_for(Duration::from_secs(20), || agreed_after_progress(
                &cluster, 10
            )),
            "no agreement: {:?}",
            cluster.leaders()
        );
        let finals = cluster.shutdown();
        assert_eq!(finals.len(), 4);
    }

    #[test]
    fn udp_socket_deployment_elects_and_survives_a_crash() {
        let transports = UdpTransport::localhost_mesh(4).expect("bind sockets");
        let cluster =
            Cluster::on_transports(omega_processes(4, 1), transports, HostConfig::default());
        assert!(
            wait_for(Duration::from_secs(30), || agreed_after_progress(
                &cluster, 10
            )),
            "no agreement over UDP: {:?}",
            cluster.leaders()
        );
        let first = cluster.agreed_leader().unwrap();
        cluster.crash(first);
        assert!(cluster.is_crashed(first));
        assert!(
            wait_for(Duration::from_secs(30), || cluster
                .agreed_leader()
                .is_some_and(|l| l != first)),
            "no re-election over UDP: {:?}",
            cluster.leaders()
        );
        cluster.shutdown();
    }

    #[test]
    fn faulty_links_with_random_drops_still_elect() {
        // 20% receiver-side loss on every link: the algorithm only needs
        // quorums of ALIVEs per round, so elections go through regardless.
        let cluster =
            Cluster::with_link_models(omega_processes(5, 2), HostConfig::default(), |p| {
                LinkModel::new(0x00D0_5EED ^ u64::from(p.as_u32())).with_drop_prob(0.2)
            });
        assert!(
            wait_for(Duration::from_secs(30), || agreed_after_progress(
                &cluster, 10
            )),
            "no agreement under 20% loss: {:?}",
            cluster.leaders()
        );
        // Discriminate a dead transport: without delivered ALIVEs every
        // receiving round closes by its (initially zero-valued) timeout and
        // `r_rn` races orders of magnitude past `s_rn`; with 80% of frames
        // arriving, rounds close mostly by quorum and the two stay in step.
        for i in 0..cluster.n() as u32 {
            let snap = cluster.snapshot(ProcessId::new(i));
            assert!(
                snap.receiving_round < 50 * snap.sending_round + 200,
                "p{}: receiving rounds racing ahead of sends ({} vs {}) — links are dead",
                i + 1,
                snap.receiving_round,
                snap.sending_round
            );
        }
        cluster.shutdown();
    }

    /// The grouped shape runs unchanged over a fault-injecting backend:
    /// `FaultyLink`-wrapped shard endpoints with 15% receiver-side loss
    /// still elect a leader.
    #[test]
    fn sharded_cluster_over_faulty_links_elects() {
        let shard_of: Vec<usize> = (0..4).map(|i| i % 2).collect();
        let transports: Vec<_> = MemNetwork::grouped(&shard_of)
            .into_iter()
            .enumerate()
            .map(|(s, t)| {
                FaultyLink::new(t, LinkModel::new(0xFA17 ^ s as u64).with_drop_prob(0.15))
            })
            .collect();
        let cluster =
            Cluster::on_transports(omega_processes(4, 1), transports, HostConfig::default());
        assert_eq!(cluster.worker_threads(), 2);
        assert!(
            wait_for(Duration::from_secs(30), || agreed_after_progress(
                &cluster, 10
            )),
            "no agreement under 15% loss: {:?}",
            cluster.leaders()
        );
        cluster.shutdown();
    }

    /// Behind a 2 s fixed link delay nothing is delivered while the cluster
    /// runs for 300 ms, so every frame sent is still in flight at shutdown:
    /// the drain must deliver them (visible through the `frames_delivered`
    /// gauge) instead of dropping them. Runs thread-per-node over a
    /// delaying mesh and on two grouped shards over delaying endpoints.
    #[test]
    fn shutdown_drains_in_flight_frames_behind_a_fixed_delay() {
        let delay = || LinkModel::new(11).with_fixed_delay(Duration::from_secs(2));
        let per_node =
            Cluster::with_link_models(omega_processes(4, 1), HostConfig::default(), |_| delay());
        let grouped = Cluster::on_transports(
            omega_processes(4, 1),
            MemNetwork::grouped(&[0, 1, 0, 1])
                .into_iter()
                .map(|t| FaultyLink::new(t, delay()))
                .collect(),
            HostConfig::default(),
        );
        std::thread::sleep(Duration::from_millis(300));
        let shapes = [("thread-per-node", per_node), ("grouped", grouped)];
        for (shape, cluster) in &shapes {
            assert_eq!(
                delivered(cluster),
                0,
                "{shape}: nothing may be delivered before the 2s link delay"
            );
        }
        for (shape, cluster) in shapes {
            let handles = cluster.handles.clone();
            let finals = cluster.shutdown();
            assert_eq!(finals.len(), 4);
            let drained: u64 = handles
                .iter()
                .map(|h| {
                    h.snapshot
                        .lock()
                        .unwrap()
                        .gauge("frames_delivered")
                        .unwrap_or(0)
                })
                .sum();
            // At minimum the on-start ALIVE broadcast (4 receivers each, the
            // sender included) must have been delivered during the drain.
            assert!(
                drained >= 16,
                "{shape}: in-flight frames were dropped on shutdown: delivered = {drained}"
            );
        }
    }

    /// A socket is an untrusted input: well-formed frames with out-of-range
    /// ids, misrouted frames, or messages sized for a different deployment
    /// must be dropped as link noise, not panic a shard. Runs over a
    /// thread-per-node UDP mesh and over the reactor backend.
    #[test]
    fn stray_datagrams_do_not_kill_a_udp_node() {
        use irs_net::wire::encode_frame;
        let mut wrong_size = Vec::new();
        irs_omega::OmegaMsg::Alive {
            rn: irs_types::RoundNum::new(3),
            susp: irs_omega::SuspVector::new(256),
        }
        .encode(&mut wrong_size);
        let mut bad_delta = Vec::new();
        irs_omega::OmegaMsg::AliveDelta {
            rn: irs_types::RoundNum::new(3),
            entries: vec![(200, 7)],
        }
        .encode(&mut bad_delta);
        let mut valid = Vec::new();
        irs_omega::OmegaMsg::Alive {
            rn: irs_types::RoundNum::new(3),
            susp: irs_omega::SuspVector::new(4),
        }
        .encode(&mut valid);
        // Out-of-range sender; receiver outside the deployment; a valid
        // message addressed to another process than the socket's; ALIVE
        // sized for n = 256; delta entry indexing process 200.
        let strays: [(u32, u32, &[u8]); 5] = [
            (99, 0, &wrong_size),
            (1, 77, b"not a message"),
            (1, 2, &valid),
            (1, 0, &wrong_size),
            (2, 0, &bad_delta),
        ];

        let transports = UdpTransport::localhost_mesh(4).expect("bind sockets");
        let per_node_victim = transports[0].local_addr().unwrap();
        let per_node =
            Cluster::on_transports(omega_processes(4, 1), transports, HostConfig::default());
        let sockets: Vec<UdpSocket> = (0..4)
            .map(|_| UdpSocket::bind(("127.0.0.1", 0)).unwrap())
            .collect();
        let addrs: Vec<SocketAddr> = sockets.iter().map(|s| s.local_addr().unwrap()).collect();
        let reactor_config = HostConfig {
            workers: 2,
            ..HostConfig::default()
        };
        let reactor = Cluster::on_sockets(
            omega_processes(4, 1),
            sockets,
            addrs.clone(),
            reactor_config,
        )
        .expect("spawn reactor cluster");

        let stray = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        for victim in [per_node_victim, addrs[0]] {
            for (from, to, payload) in strays {
                let mut frame = Vec::new();
                encode_frame(
                    &mut frame,
                    ProcessId::new(from),
                    ProcessId::new(to),
                    payload,
                );
                stray.send_to(&frame, victim).unwrap();
            }
        }

        // The bombarded process keeps running and the cluster still elects
        // (with every process, the victim included, progressing).
        for (shape, cluster) in [("thread-per-node", per_node), ("reactor", reactor)] {
            assert!(
                wait_for(Duration::from_secs(30), || agreed_after_progress(
                    &cluster, 10
                )),
                "{shape}: no agreement after stray datagrams: {:?}",
                cluster.leaders()
            );
            let finals = cluster.shutdown();
            assert_eq!(finals.len(), 4, "{shape}: a shard died on stray input");
        }
    }

    /// A crash-stopped process answers nothing, scrapes included, while a
    /// live one returns its full exposition — on both backends.
    #[test]
    fn crashed_processes_answer_no_scrapes() {
        use irs_net::{MuxNetwork, TransportScraper};
        use irs_obs::{collector::ScrapeSource, ScrapeFormat};

        fn check<T: Transport>(shape: &str, cluster: &Cluster<OmegaProcess>, collector: T) {
            let mut scraper = TransportScraper::new(collector, ProcessId::new(4))
                .with_timeout(Duration::from_millis(100))
                .with_retries(5);
            cluster.crash(ProcessId::new(1));
            // Let any reply already in flight from before the crash land
            // and be discarded as stale.
            std::thread::sleep(Duration::from_millis(50));
            let bodies = scraper.fetch_bodies(2, ScrapeFormat::Prometheus);
            let live = bodies[0].as_ref().expect("live process answers");
            assert!(
                String::from_utf8_lossy(live).contains("runtime_polls"),
                "{shape}: live scrape lacks the host counters"
            );
            assert!(bodies[1].is_err(), "{shape}: crashed process answered");
        }

        let obs = Arc::new(Obs::new(4));
        let config = HostConfig {
            peers: 5,
            obs: Some(obs),
            ..HostConfig::default()
        };
        let mut mesh = MemNetwork::mesh(5);
        let collector = mesh.pop().unwrap();
        let per_node = Cluster::on_transports(omega_processes(4, 1), mesh, config.clone());
        check("transport", &per_node, collector);
        per_node.shutdown();

        let mut sockets: Vec<UdpSocket> = (0..5)
            .map(|_| UdpSocket::bind(("127.0.0.1", 0)).unwrap())
            .collect();
        let addrs: Vec<SocketAddr> = sockets.iter().map(|s| s.local_addr().unwrap()).collect();
        let collector = sockets.pop().unwrap();
        let reactor = Cluster::on_sockets(omega_processes(4, 1), sockets, addrs.clone(), config)
            .expect("spawn reactor cluster");
        let collector = MuxNetwork::over_sockets(vec![collector], addrs)
            .expect("collector endpoint")
            .pop()
            .unwrap();
        check("reactor", &reactor, collector);
        reactor.shutdown();
    }

    /// Dropping a cluster without `shutdown` must still stop its shard
    /// threads, in every shape. Each shard holds the stop flag until its
    /// thread returns, so the flag's last reference going away proves every
    /// shard finished.
    #[test]
    fn dropping_cluster_stops_shard_threads() {
        let config = HostConfig {
            workers: 2,
            ..HostConfig::default()
        };
        let shapes = [
            (
                "thread-per-node",
                Cluster::on_transports(omega_processes(4, 1), MemNetwork::mesh(4), config.clone()),
            ),
            (
                "grouped",
                Cluster::spawn(omega_processes(4, 1), config.clone()),
            ),
            (
                "reactor",
                Cluster::udp(omega_processes(4, 1), config).expect("bind sockets"),
            ),
        ];
        for (shape, cluster) in shapes {
            let stop = Arc::downgrade(&cluster.stop);
            drop(cluster);
            let stopped = wait_for(Duration::from_secs(5), || stop.upgrade().is_none());
            assert!(stopped, "{shape}: shard threads still alive after drop");
        }
    }

    /// Large-n smoke (run by the CI large-n job): a 256-process cluster
    /// elects a stable leader while using at most `cores` shard threads.
    #[test]
    #[ignore = "large-n smoke; run explicitly (CI large-n job) with --ignored"]
    fn large_cluster_256_elects_leader_on_bounded_threads() {
        let n = 256;
        let system = SystemConfig::new(n, (n - 1) / 2).unwrap();
        let processes: Vec<_> = system
            .processes()
            .map(|id| {
                OmegaProcess::new(
                    id,
                    irs_omega::OmegaConfig::new(system, irs_omega::Variant::Fig3)
                        .with_send_period(Ticks::from_ticks(300))
                        .with_timeout_unit(Ticks::from_ticks(100))
                        .with_delta_gossip(8),
                )
            })
            .collect();
        let config = HostConfig {
            tick: Duration::from_millis(1),
            ..HostConfig::default()
        };
        let cluster = Cluster::spawn(processes, config);
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert!(
            cluster.worker_threads() <= cores,
            "{} shard threads for {cores} cores",
            cluster.worker_threads()
        );
        // Every process progresses through rounds, and the live cluster
        // agrees on a (live) leader.
        let stable = wait_for(Duration::from_secs(120), || {
            (0..n as u32).all(|i| cluster.snapshot(ProcessId::new(i)).sending_round >= 3)
                && cluster.agreed_leader().is_some()
        });
        assert!(
            stable,
            "no agreement within 120s (sample leaders: {:?})",
            &cluster.leaders()[..8]
        );
        assert!(delivered(&cluster) > 0);
        let finals = cluster.shutdown();
        assert_eq!(finals.len(), n);
    }
}
