//! Real-time execution of the sans-IO protocols: one host loop over two
//! I/O backends.
//!
//! The discrete-event simulator (`irs-sim`) is where the assumptions of the
//! paper are reproduced faithfully and deterministically; this crate answers
//! the other question a user of the library has — *can I actually run this?*
//! The protocols need only timers and message delivery, so there is one
//! host: [`Cluster`] runs `W` shard threads, each driving the loop
//! described in `shard.rs` (timer queue, staged receive, encode-once
//! fan-out, per-turn snapshot publishing, scrape answering, draining
//! shutdown) for the processes it hosts. A shard's I/O comes from one of
//! two backends:
//!
//! * **transport endpoints** ([`irs_net::Transport`]): one endpoint per
//!   shard, frames routed to processes by their `to` header. With one
//!   endpoint per process this is the thread-per-node shape
//!   ([`Cluster::on_transports`] over an in-memory, UDP or
//!   [`irs_net::FaultyLink`] mesh); with [`irs_net::MemNetwork::grouped`]
//!   endpoints it is the shared-memory scale shape ([`Cluster::spawn`]: 256
//!   processes on `W ≤ cores` threads);
//! * **a reactor** ([`irs_net::Reactor`]): one nonblocking UDP socket per
//!   process, `W` reactor shards serving all of them
//!   ([`Cluster::on_sockets`], [`Cluster::udp`]): 128 sockets on a handful
//!   of threads.
//!
//! [`run_node`] runs the same loop with one shard and one process on the
//! calling thread, for deployments where every process is its own OS
//! process (see `examples/socket_cluster.rs`).
//!
//! The protocols are byte-for-byte the state machines that run under the
//! simulator: [`irs_omega::OmegaProcess`], the baselines and the consensus
//! layer all work unchanged. Frame admission is the message type's
//! ([`irs_net::Wire::admit`]).
//!
//! # Example
//!
//! ```no_run
//! use irs_runtime::{Cluster, HostConfig};
//! use irs_omega::OmegaProcess;
//! use irs_types::SystemConfig;
//!
//! # fn main() -> Result<(), irs_types::ConfigError> {
//! let system = SystemConfig::new(4, 1)?;
//! let processes: Vec<_> = system.processes().map(|id| OmegaProcess::fig3(id, system)).collect();
//! let cluster = Cluster::spawn(processes, HostConfig::default());
//! std::thread::sleep(std::time::Duration::from_millis(500));
//! println!("leaders: {:?}", cluster.leaders());
//! cluster.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod cluster;
mod shard;

pub use cluster::{run_node, Cluster, HostConfig, NodeHandle};
