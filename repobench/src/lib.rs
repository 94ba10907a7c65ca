//! The repository benchmark.
//!
//! Three workloads, each run in its own process:
//!
//! * `lease_read_udp` — 5 replicas on the multiplexed UDP runtime (1 reactor
//!   thread), 2 closed-loop clients at 95 % lease reads / 5 % writes;
//! * `leader_failover` — 5 in-memory replicas, 2 closed-loop writers, the
//!   agreed leader crash-stopped once per fresh cluster;
//! * `sim_star` — Figure 3 under assumption A in `irs-sim`, n = 256.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) repeats the untraced measurement, then measures again
//! with observability attached and reports the per-layer metrics. See
//! `README.md` next to this crate for the metric definitions.

pub mod layers;
pub mod metrics;
pub mod procfs;
pub mod sim;
pub mod spans;
pub mod stats;
pub mod svc;

use metrics::Outcome;
use spans::Spans;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Lease reads with 5 % writes over loopback UDP.
    LeaseReadUdp,
    /// Writes across leader crashes.
    LeaderFailover,
    /// The n = 256 intermittent-star simulation.
    SimStar,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::LeaseReadUdp,
        Workload::LeaderFailover,
        Workload::SimStar,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LeaseReadUdp => "lease_read_udp",
            Workload::LeaderFailover => "leader_failover",
            Workload::SimStar => "sim_star",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the per-layer metric `name` measures a layer this workload
    /// runs. The others are reported as 0: the layer did no work.
    pub fn exercises(self, name: &str) -> bool {
        let sim = name.starts_with("sim.");
        name.starts_with("trace.") || sim == (self == Workload::SimStar)
    }
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (split between the two phases of a traced run).
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: repobench --workload <lease_read_udp|leader_failover|sim_star> \
--seed <n> --seconds <s> --trace <0|1>";

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the bad or missing argument.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(e.to_string()))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// Where a run keeps its scratch files and span dumps: `.repobench-run/`
/// under the working directory.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".repobench-run")
}

/// Runs one workload and returns its outcome; spans of a traced run are
/// written to `<scratch>/spans-<workload>-<seed>.jsonl`.
pub fn run(args: &Args, scratch: &Path) -> Outcome {
    run_with(args, scratch, &sim::STAR)
}

/// [`run`] with the simulated system given (the self-tests use a small one).
pub fn run_with(args: &Args, scratch: &Path, star: &sim::SimSpec) -> Outcome {
    let epoch = Instant::now();
    let (steal0, total0) = procfs::steal_and_total_ticks();
    let mut out = Outcome::default();
    let mut spans = Spans::new(epoch);
    if let Err(e) = std::fs::create_dir_all(scratch) {
        out.fail_check("scratch_dir", e);
        return out;
    }
    // A traced run measures twice (untraced, then traced): each phase gets
    // half the seconds, so both kinds of run take about as long.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    match args.workload {
        Workload::SimStar => sim::run(star, args.seed, seconds, args.trace, &mut out, &mut spans),
        w => {
            let cfg = svc::SvcRun {
                workload: w,
                seed: args.seed,
                seconds,
                scratch,
                epoch,
            };
            svc::run(&cfg, args.trace, &mut out, &mut spans);
        }
    }
    // A service run sets its peak RSS when its untraced phase ends.
    if !out.values.contains_key("peak_rss_mb") {
        out.set("peak_rss_mb", procfs::peak_rss_mb(), 1);
    }
    let (steal1, total1) = procfs::steal_and_total_ticks();
    let total = total1.saturating_sub(total0);
    out.named(
        "host_steal_pct",
        100.0 * steal1.saturating_sub(steal0) as f64 / total.max(1) as f64,
        "%",
        total as usize,
    );
    if args.trace {
        for d in metrics::PER_LAYER {
            if !args.workload.exercises(d.name) && !out.values.contains_key(d.name) {
                out.set(d.name, 0.0, 0);
            }
        }
        let path = scratch.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match spans.write_jsonl(&path) {
            Ok(()) => out.note(format!(
                "spans: {} written to {}",
                spans.spans().len(),
                path.display()
            )),
            Err(e) => out.note(format!("spans: could not write {}: {e}", path.display())),
        }
    }
    out
}
