//! The same Ω state machines on real threads and wall-clock timers.
//!
//! Spawns a four-process cluster of the Figure 3 algorithm on the runtime's
//! host (shard threads over in-memory links), waits for a stable leader,
//! crashes it, and waits for the re-election — all in real time (a few
//! hundred milliseconds).
//!
//! Run with: `cargo run --release --example realtime_cluster`

use intermittent_rotating_star::omega::OmegaProcess;
use intermittent_rotating_star::runtime::{Cluster, HostConfig};
use intermittent_rotating_star::types::{ProcessId, SystemConfig};
use std::time::{Duration, Instant};

fn wait_for(limit: Duration, check: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < limit {
        if check() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    check()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = SystemConfig::new(4, 1)?;
    let processes: Vec<OmegaProcess> = system
        .processes()
        .map(|id| OmegaProcess::fig3(id, system))
        .collect();

    let cluster = Cluster::spawn(processes, HostConfig::default());

    // Agreement alone is trivially true of the all-default initial state,
    // so wait for real ALIVE rounds everywhere too.
    let elected = wait_for(Duration::from_secs(15), || {
        (0..4).all(|i| cluster.snapshot(ProcessId::new(i)).sending_round > 5)
            && cluster.agreed_leader().is_some()
    });
    let leader = cluster.agreed_leader();
    println!("initial election: agreed = {elected}, leader = {leader:?}");
    let delivered: u64 = (0..4)
        .filter_map(|i| {
            cluster
                .snapshot(ProcessId::new(i))
                .gauge("frames_delivered")
        })
        .sum();
    println!("frames delivered so far: {delivered}");

    if let Some(leader) = leader {
        println!("crashing {leader} …");
        cluster.crash(leader);
        let replaced = wait_for(Duration::from_secs(30), || {
            cluster.agreed_leader().is_some_and(|l| l != leader)
        });
        println!(
            "re-election: agreed on a new leader = {replaced}, leaders = {:?}",
            cluster.leaders()
        );
    }

    let finals = cluster.shutdown();
    for process in &finals {
        let snapshot = irs_types::Introspect::snapshot(process);
        println!(
            "p{}: rounds sent = {}, susp_levels = {:?}",
            irs_types::Protocol::id(process).display_index(),
            snapshot.sending_round,
            snapshot.susp_levels
        );
    }
    Ok(())
}
