//! `sim_star`: Figure 3 under the paper's assumption A (intermittent
//! rotating star, `D = 8`) in `irs-sim`, n = 256, horizon 1000 ticks,
//! process 0 crashed at tick 333.
//!
//! The simulation is built from the crates' public parts exactly as
//! `Scenario::run_seed` builds it (a self-test pins the equivalence), so
//! that set-up can be timed apart from the run and each simulated tick's
//! wall time can be sampled.

use crate::metrics::Outcome;
use crate::procfs;
use crate::spans::Spans;
use crate::stats::{self, Latency};
use irs_experiments::{Algorithm, Assumption, Background, RunOutcome, Scenario};
use irs_obs::FlightRecorder;
use irs_omega::{OmegaConfig, OmegaProcess, Variant};
use irs_sim::adversary::presets;
use irs_sim::adversary::star::StarAdversary;
use irs_sim::{CrashPlan, SimConfig, Simulation};
use irs_types::{ProcessId, SystemConfig, Time};
use std::sync::Arc;
use std::time::Instant;

/// One simulated system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimSpec {
    /// Processes.
    pub n: usize,
    /// Horizon in ticks.
    pub horizon: u64,
    /// Tick at which process 0 crashes.
    pub crash_tick: u64,
    /// The gap bound `D` of assumption A.
    pub d: u64,
}

/// The `sim_star` workload's system.
pub const STAR: SimSpec = SimSpec {
    n: 256,
    horizon: 1000,
    crash_tick: 333,
    d: 8,
};

/// Sim seeds the workload seed maps onto (`1 + seed % 16`).
pub const SIM_SEEDS: u64 = 16;

/// Recorded `(events, stabilisation tick, leader index)` of [`STAR`] for
/// sim seeds `1..=16`. A run must reproduce its seed's triple exactly.
pub const RECORDED: [(u64, u64, u32); SIM_SEEDS as usize] = [
    (12_930_213, 418, 2),
    (12_924_837, 408, 1),
    (12_926_885, 419, 1),
    (12_931_493, 418, 1),
    (12_927_909, 371, 1),
    (12_923_813, 332, 1),
    (12_923_301, 321, 2),
    (12_925_349, 911, 2),
    (12_931_493, 413, 1),
    (12_936_101, 417, 1),
    (12_911_269, 810, 3),
    (12_926_629, 417, 1),
    (12_924_837, 416, 2),
    (12_924_837, 362, 1),
    (12_926_117, 418, 2),
    (12_934_309, 416, 2),
];

/// The sim seed a workload seed selects.
pub fn sim_seed(seed: u64) -> u64 {
    1 + seed % SIM_SEEDS
}

/// A finished simulation and what the benchmark timed of it.
#[derive(Clone, Debug)]
pub struct SimRun {
    /// The run's outcome, as the experiment tables compute it.
    pub outcome: RunOutcome,
    /// Messages sent + rounds closed (the engine-throughput event count).
    pub events: u64,
    /// Wall time of each simulated tick, µs.
    pub tick_us: Vec<f64>,
    /// Process CPU time of each simulated tick, µs.
    pub tick_cpu_us: Vec<f64>,
    /// Set-up wall time (build + start), s.
    pub setup_s: f64,
    /// Run wall time (start excluded), s.
    pub wall_s: f64,
    /// When the run (after start) began.
    pub started: Instant,
}

impl SimSpec {
    /// The experiment-harness scenario this spec denotes.
    pub fn scenario(&self, sim_seed: u64) -> Scenario {
        Scenario::new(
            "sim_star",
            self.n,
            (self.n - 1) / 2,
            Algorithm::Fig3,
            Assumption::Intermittent { d: self.d },
        )
        .with_crash(0, self.crash_tick)
        .with_horizon(self.horizon, 0)
        .with_seeds(&[sim_seed])
    }

    /// Builds the simulation `Scenario::run_seed` would run.
    pub fn build(&self, sim_seed: u64) -> Simulation<OmegaProcess, StarAdversary> {
        let sc = self.scenario(sim_seed);
        let sys: SystemConfig = sc.system;
        let processes: Vec<OmegaProcess> = sys
            .processes()
            .map(|id| {
                let mut cfg = OmegaConfig::new(sys, Variant::Fig3);
                if let Some(refresh) = sc.delta_gossip {
                    cfg = cfg.with_delta_gossip(refresh);
                }
                OmegaProcess::new(id, cfg)
            })
            .collect();
        let adversary = presets::intermittent_rotating_star(
            sys,
            sc.center,
            sc.delta,
            self.d,
            Background::Static.dist(),
            sim_seed,
        );
        let crashes = CrashPlan::new().crash(ProcessId::new(0), Time::from_ticks(self.crash_tick));
        Simulation::new(
            SimConfig::new(sim_seed, Time::from_ticks(self.horizon)),
            processes,
            adversary,
            crashes,
        )
    }

    /// Builds, starts and runs one simulation, timing every tick.
    pub fn run(&self, sim_seed: u64, recorder: Option<Arc<FlightRecorder>>) -> SimRun {
        let t0 = Instant::now();
        let mut sim = self.build(sim_seed);
        if let Some(r) = recorder {
            sim.attach_recorder(r);
        }
        sim.start();
        let cpu0 = procfs::cpu_ns();
        let t1 = Instant::now();
        let mut tick_us = Vec::with_capacity(self.horizon as usize + 1);
        let mut tick_cpu_us = Vec::with_capacity(self.horizon as usize + 1);
        let mut next = 1u64;
        let (mut last, mut last_cpu) = (t1, cpu0);
        while sim.step() {
            let now = sim.now().ticks();
            if now >= next {
                let (t, cpu) = (Instant::now(), procfs::cpu_ns());
                tick_us.push((t - last).as_secs_f64() * 1e6);
                tick_cpu_us.push((cpu - last_cpu) as f64 / 1e3);
                (last, last_cpu) = (t, cpu);
                next = now + 1;
            }
        }
        let report = sim.report();
        let (t2, cpu2) = (Instant::now(), procfs::cpu_ns());
        tick_us.push((t2 - last).as_secs_f64() * 1e6);
        tick_cpu_us.push((cpu2 - last_cpu) as f64 / 1e3);
        let center = self.scenario(sim_seed).center;
        let outcome = RunOutcome::from_report(&report, Some(center));
        drop(sim);
        SimRun {
            events: outcome.messages_sent + outcome.rounds_closed,
            outcome,
            tick_us,
            tick_cpu_us,
            setup_s: (t1 - t0).as_secs_f64(),
            wall_s: (t2 - t1).as_secs_f64(),
            started: t1,
        }
    }
}

/// The `(events, stabilisation tick, leader)` triple a run is checked on.
pub fn fingerprint(r: &SimRun) -> (u64, u64, u32) {
    (
        r.events,
        r.outcome.stabilization_ticks.unwrap_or(u64::MAX),
        r.outcome.leader.map_or(u32::MAX, |l| l.as_u32()),
    )
}

/// Simulations a phase runs at the least, however long they take.
pub const MIN_SIM_RUNS: usize = 2;

/// Extra build-and-start cycles per run, for a steady `setup_s` median.
pub const SETUP_SAMPLES: usize = 32;

/// Runs whole simulations of one sim seed until they have taken about
/// `seconds` (at least [`MIN_SIM_RUNS`]; one [`STAR`] simulation takes about
/// 5 s on a 2-core host), so that a slow host does not stretch the run, and
/// checks each against the recorded triple and the first.
fn phase(spec: &SimSpec, seed: u64, seconds: f64, traced: bool, out: &mut Outcome) -> Vec<SimRun> {
    let s = sim_seed(seed);
    let expected = (spec == &STAR).then(|| RECORDED[(s - 1) as usize]);
    let started = Instant::now();
    let mut runs: Vec<SimRun> = Vec::new();
    loop {
        let recorder =
            traced.then(|| Arc::new(FlightRecorder::new(spec.n, irs_obs::Obs::DEFAULT_RING)));
        let r = spec.run(s, recorder);
        let got = fingerprint(&r);
        if let Some(want) = expected {
            if got != want {
                out.fail_check(
                    "sim_recorded_outcome",
                    format!("sim seed {s}: (events, stabilisation tick, leader) = {got:?}, recorded {want:?}"),
                );
            }
        }
        if let Some(first) = runs.first() {
            if fingerprint(first) != got {
                out.fail_check(
                    "sim_repeatable",
                    format!(
                        "sim seed {s}: {got:?} differs from this run's first {:?}",
                        fingerprint(first)
                    ),
                );
            }
        }
        runs.push(r);
        // Stop when one more simulation would end nearer past `seconds`
        // than this one ends before it.
        let elapsed = started.elapsed().as_secs_f64();
        let each = elapsed / runs.len() as f64;
        if !out.correct() || (runs.len() >= MIN_SIM_RUNS && elapsed + each / 2.0 >= seconds) {
            break;
        }
    }
    runs
}

/// Times building and starting the simulation (then drops it), s.
fn setup_only(spec: &SimSpec, sim_seed: u64) -> f64 {
    let t0 = Instant::now();
    let mut sim = spec.build(sim_seed);
    sim.start();
    let t = t0.elapsed().as_secs_f64();
    drop(sim);
    t
}

fn events_per_s(runs: &[SimRun]) -> f64 {
    runs.iter().map(|r| r.events).sum::<u64>() as f64 / runs.iter().map(|r| r.wall_s).sum::<f64>()
}

/// Each tick's median over `runs` of `f(run)[tick]`.
fn tick_medians(runs: &[SimRun], f: impl Fn(&SimRun) -> &Vec<f64>) -> Vec<f64> {
    let ticks = runs.iter().map(|r| f(r).len()).min().unwrap_or(0);
    (0..ticks)
        .map(|t| {
            let at: Vec<f64> = runs.iter().map(|r| f(r)[t]).collect();
            stats::median_of(&at).expect("at least one run")
        })
        .collect()
}

/// Runs `sim_star` (or a smaller spec, for the self-tests).
pub fn run(
    spec: &SimSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
    spans: &mut Spans,
) {
    let plain = phase(spec, seed, seconds, false, out);
    out.attempted = plain.len() as u64;
    out.failed = 0;
    let ticks: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.tick_us.iter().copied())
        .collect();
    let tick = Latency::of(&ticks).expect("a run has ticks");
    let first = &plain[0];
    out.note(format!(
        "sim_star: n = {}, sim seed {}, {} runs, {} events each, stabilised at tick {:?} on leader {:?}",
        spec.n,
        sim_seed(seed),
        plain.len(),
        first.events,
        first.outcome.stabilization_ticks,
        first.outcome.leader
    ));
    out.named("sim_events_per_s", events_per_s(&plain), "1/s", plain.len());
    out.named("tick_wall_p50_us", tick.p50, "us", tick.count);
    out.named("tick_wall_p90_us", tick.p90, "us", tick.count);
    out.named("tick_wall_p99_us", tick.p99, "us", tick.count);
    out.note(format!(
        "  gated: each tick's median over {} runs, for events/s, tick p50, CPU per event",
        plain.len()
    ));
    // The gated figures come from each tick's median over the repeats:
    // every run of the phase simulates the same seed, so tick `t` does the
    // same work in each, and a stretch of one run that a neighbour on the
    // host slowed is outvoted tick by tick.
    let wall = tick_medians(&plain, |r| &r.tick_us);
    let cpu = tick_medians(&plain, |r| &r.tick_cpu_us);
    let events = first.events as f64;
    out.set(
        "ops_per_s",
        events / (wall.iter().sum::<f64>() / 1e6),
        plain.len(),
    );
    out.set(
        "p50_us",
        stats::median_of(&wall).expect("a run has ticks"),
        wall.len(),
    );
    out.set(
        "cpu_us_per_op",
        cpu.iter().sum::<f64>() / events,
        plain.iter().map(|r| r.events as usize).sum(),
    );
    let mut setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| setup_only(spec, sim_seed(seed)))
        .collect();
    setups.extend(plain.iter().map(|r| r.setup_s));
    out.set(
        "setup_s",
        stats::median_of(&setups).expect("set-ups ran"),
        setups.len(),
    );
    if !traced || !out.correct() {
        return;
    }

    let traced_runs = phase(spec, seed, seconds, true, out);
    out.attempted += traced_runs.len() as u64;
    let t = &traced_runs[0];
    let start = spans.ns(t.started);
    let end = start + (t.wall_s * 1e9) as u64;
    let root = spans.push("sim.scenario", 0, (0, 0), start, end);
    let mut at = start;
    for (tick, us) in t.tick_us.iter().enumerate() {
        let ns = (us * 1e3) as u64;
        spans.push("sim.tick", root, (0, tick as u64 + 1), at, at + ns);
        at += ns;
    }
    let o = &t.outcome;
    out.set("sim.events", t.events as f64, traced_runs.len());
    out.set(
        "sim.stabilisation_tick",
        o.stabilization_ticks.unwrap_or(0) as f64,
        traced_runs.len(),
    );
    out.set(
        "sim.max_timer_ticks",
        o.max_timer_ticks as f64,
        traced_runs.len(),
    );
    out.set(
        "sim.max_susp_level",
        o.max_susp_level as f64,
        traced_runs.len(),
    );
    out.set(
        "sim.bytes_per_event",
        o.bytes_sent as f64 / t.events as f64,
        traced_runs.len(),
    );
    let (u, tr) = (events_per_s(&plain), events_per_s(&traced_runs));
    out.set("trace.overhead_pct", (u - tr) / u * 100.0, 2);
    out.note(format!("  trace: events/s untraced {u:.0}, traced {tr:.0}"));
}
