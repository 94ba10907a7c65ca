//! In-process service deployments: `n` replicas on `irs-runtime`'s
//! [`Cluster`] host, plus connected clients.
//!
//! The transport mesh is built with `n + c` endpoints: the first `n` host
//! replicas and the rest become [`SvcClient`]s. The replicas run one per
//! shard thread over transport endpoints (the in-memory mesh, UDP sockets,
//! fault-injected links), or on reactor shards with one socket each
//! ([`SvcCluster::mux_udp`]). For the process-per-node deployment over UDP
//! see `examples/kv_cluster.rs`.

use crate::client::SvcClient;
use crate::node::SvcConfig;
use crate::replica::SvcReplica;
use irs_net::{
    FaultyLink, LinkModel, MemNetwork, MemTransport, MuxEndpoint, MuxNetwork, Transport,
    UdpTransport,
};
use irs_runtime::Cluster;
use irs_types::{ProcessId, Snapshot};
use std::sync::Arc;

/// Seed base for the deterministic per-client retry jitter.
const CLIENT_SEED: u64 = 0x5EED_C11E;

/// A running KV-service deployment.
#[derive(Debug)]
pub struct SvcCluster {
    host: Cluster<SvcReplica>,
    /// The shared observability handle, when the config carried one —
    /// callers scrape metrics or dump the flight recorder through it
    /// while the cluster runs (and after shutdown).
    obs: Option<Arc<irs_obs::Obs>>,
}

impl SvcCluster {
    /// Spawns `config.n` replicas, one shard thread each, over the given
    /// endpoints (`transports[i]` hosts replica `i`). Resilience is the
    /// largest consensus-compatible `t = ⌊(n−1)/2⌋`.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint count disagrees with `config.n`, or `n < 3`
    /// (a majority-based service needs to survive at least one crash).
    pub fn spawn<T>(transports: Vec<T>, config: SvcConfig) -> Self
    where
        T: Transport + 'static,
    {
        assert_eq!(transports.len(), config.n, "one endpoint per replica");
        let replicas = Self::replicas(config.n, &config);
        let host = Cluster::on_transports(replicas, transports, config.host(0));
        SvcCluster {
            host,
            obs: config.obs,
        }
    }

    fn replicas(n: usize, config: &SvcConfig) -> Vec<SvcReplica> {
        assert!(n >= 3, "a replicated service needs n >= 3");
        (0..n)
            .map(|i| config.replica(ProcessId::new(i as u32)))
            .collect()
    }

    /// An `n`-replica deployment over the in-memory mesh, with `clients`
    /// connected client endpoints.
    pub fn in_memory(
        n: usize,
        clients: usize,
        config: SvcConfig,
    ) -> (Self, Vec<SvcClient<MemTransport>>) {
        let mut mesh = MemNetwork::mesh(n + clients);
        let client_eps = mesh.split_off(n);
        let cluster = Self::spawn(mesh, config);
        (cluster, Self::wrap_clients(n, client_eps))
    }

    /// Like [`SvcCluster::in_memory`], with a fault-injecting link model on
    /// every *replica* endpoint (`model(p)` shapes what replica `p`
    /// receives; clients see clean links, which isolates the consensus
    /// plane as the thing under stress).
    pub fn with_link_models(
        n: usize,
        clients: usize,
        config: SvcConfig,
        mut model: impl FnMut(ProcessId) -> LinkModel,
    ) -> (Self, Vec<SvcClient<MemTransport>>) {
        let mut mesh = MemNetwork::mesh(n + clients);
        let client_eps = mesh.split_off(n);
        let mut faulty: Vec<FaultyLink<MemTransport>> = mesh
            .into_iter()
            .enumerate()
            .map(|(i, t)| FaultyLink::new(t, model(ProcessId::new(i as u32))))
            .collect();
        if let Some(obs) = &config.obs {
            for t in &mut faulty {
                t.attach_obs(obs.registry());
            }
        }
        let cluster = Self::spawn(faulty, config);
        (cluster, Self::wrap_clients(n, client_eps))
    }

    /// An `n`-replica deployment over real UDP sockets on localhost, with
    /// `clients` connected client sockets.
    ///
    /// # Errors
    ///
    /// Returns any socket-binding error.
    pub fn udp(
        n: usize,
        clients: usize,
        config: SvcConfig,
    ) -> std::io::Result<(Self, Vec<SvcClient<UdpTransport>>)> {
        let mut mesh = UdpTransport::localhost_mesh(n + clients)?;
        let client_eps = mesh.split_off(n);
        if let Some(obs) = &config.obs {
            for t in &mut mesh {
                t.attach_obs(obs.registry());
            }
        }
        let cluster = Self::spawn(mesh, config);
        Ok((cluster, Self::wrap_clients(n, client_eps)))
    }

    /// An `n`-replica deployment on the socket backend: every replica and
    /// every client keeps its own real UDP socket, but the replicas are
    /// served by `workers` reactor shard threads (`0` = the machine's
    /// parallelism) and the whole client fleet by one more, where
    /// [`SvcCluster::udp`] spends one blocking thread per endpoint. This is
    /// the deployment shape that scales the service to large client fleets
    /// in one process.
    ///
    /// # Errors
    ///
    /// Returns any socket-binding or readiness-registration error.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn mux_udp(
        n: usize,
        clients: usize,
        workers: usize,
        config: SvcConfig,
    ) -> std::io::Result<(Self, Vec<SvcClient<MuxEndpoint>>)> {
        let replicas = Self::replicas(n, &config);
        let mut sockets: Vec<std::net::UdpSocket> = (0..n + clients)
            .map(|_| std::net::UdpSocket::bind(("127.0.0.1", 0)))
            .collect::<std::io::Result<_>>()?;
        let peer_addrs: Vec<std::net::SocketAddr> = sockets
            .iter()
            .map(|s| s.local_addr())
            .collect::<std::io::Result<_>>()?;
        let client_sockets = sockets.split_off(n);
        let host =
            Cluster::on_sockets(replicas, sockets, peer_addrs.clone(), config.host(workers))?;
        let client_eps = MuxNetwork::over_sockets(client_sockets, peer_addrs)?;
        let cluster = SvcCluster {
            host,
            obs: config.obs,
        };
        Ok((cluster, Self::wrap_clients(n, client_eps)))
    }

    fn wrap_clients<T: Transport>(n: usize, endpoints: Vec<T>) -> Vec<SvcClient<T>> {
        endpoints
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let id = ProcessId::new((n + i) as u32);
                SvcClient::new(id, n, t, CLIENT_SEED ^ (i as u64 + 1))
            })
            .collect()
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.host.n()
    }

    /// The shared observability handle, when the config carried one.
    pub fn obs(&self) -> Option<&Arc<irs_obs::Obs>> {
        self.obs.as_ref()
    }

    /// The latest published snapshot of a replica.
    pub fn snapshot(&self, pid: ProcessId) -> Snapshot {
        self.host.snapshot(pid)
    }

    /// The current leader output of a replica.
    pub fn leader_of(&self, pid: ProcessId) -> ProcessId {
        self.host.leader_of(pid)
    }

    /// Returns `Some(p)` when every non-crashed replica currently outputs
    /// the same non-crashed leader `p`.
    pub fn agreed_leader(&self) -> Option<ProcessId> {
        self.host.agreed_leader()
    }

    /// Crash-stops a replica: it stops reacting to messages and timers.
    pub fn crash(&self, pid: ProcessId) {
        self.host.crash(pid);
    }

    /// Returns `true` if the replica was crashed via [`SvcCluster::crash`].
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        self.host.is_crashed(pid)
    }

    /// Stops every replica and returns the final states (stores included)
    /// in id order.
    pub fn shutdown(self) -> Vec<SvcReplica> {
        self.host.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration as StdDuration;

    #[test]
    fn in_memory_service_applies_and_acks_puts() {
        let (cluster, mut clients) = SvcCluster::in_memory(3, 1, SvcConfig::new(3, 1));
        let client = &mut clients[0];
        let deadline = StdDuration::from_secs(20);
        let slot_a = client.put(b"a", b"1", deadline).expect("put a");
        let slot_b = client.put(b"b", b"2", deadline).expect("put b");
        assert!(slot_b > slot_a, "log slots grow: {slot_a} then {slot_b}");
        client.delete(b"a", deadline).expect("del a");
        let finals = cluster.shutdown();
        // The shutdown drain flushes in-flight Decides, so every replica
        // should have converged on the same state.
        for r in &finals {
            assert_eq!(r.store().get(b"b"), Some(b"2".as_slice()));
            assert_eq!(r.store().get(b"a"), None);
        }
        let digests: Vec<u64> = finals.iter().map(|r| r.store().digest()).collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "replicas diverged: {digests:x?}"
        );
        assert_eq!(client.stats.acked, 3);
    }

    #[test]
    fn udp_service_applies_a_put_end_to_end() {
        let (cluster, mut clients) =
            SvcCluster::udp(3, 1, SvcConfig::new(3, 1)).expect("bind sockets");
        let slot = clients[0]
            .put(b"k", b"v", StdDuration::from_secs(30))
            .expect("put over UDP");
        let finals = cluster.shutdown();
        assert!(finals
            .iter()
            .any(|r| r.store().get(b"k") == Some(b"v".as_slice())));
        assert!(finals[0].log().decision(slot).is_some());
    }

    #[test]
    fn mux_udp_service_applies_a_put_end_to_end() {
        let (cluster, mut clients) =
            SvcCluster::mux_udp(3, 1, 2, SvcConfig::new(3, 1)).expect("bind sockets");
        let slot = clients[0]
            .put(b"k", b"v", StdDuration::from_secs(30))
            .expect("put over multiplexed UDP");
        let finals = cluster.shutdown();
        assert!(finals
            .iter()
            .any(|r| r.store().get(b"k") == Some(b"v".as_slice())));
        assert!(finals[0].log().decision(slot).is_some());
    }

    #[test]
    #[should_panic(expected = "n >= 3")]
    fn tiny_clusters_are_rejected() {
        let _ = SvcCluster::in_memory(2, 0, SvcConfig::new(2, 0));
    }
}
