//! The metric catalogue (mirrored by `BENCHMARK.json`) and the result
//! line every run prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric: name, unit, and which direction is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, reported by every workload on an untraced run.
/// What the primary op is differs per workload (see the README).
pub const END_TO_END: &[MetricDef] = &[
    m("ops_per_s", "1/s", "higher"),
    m("p50_us", "us", "lower"),
    m("cpu_us_per_op", "us", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("setup_s", "s", "lower"),
];

/// Per-layer metrics, reported by every workload on a traced run. A layer
/// the workload does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("client.retries_per_op", "ratio", "lower"),
    m("client.redirects_per_op", "ratio", "lower"),
    m("replica.requests_per_write", "ratio", "lower"),
    m("replica.dup_skips", "count", "lower"),
    m("replica.lease_read_share", "ratio", "higher"),
    m("replica.lease_expiries", "count", "lower"),
    m("replica.apply_us_p50", "us", "lower"),
    m("replica.apply_us_p99", "us", "lower"),
    m("replica.apply_us_mean", "us", "lower"),
    m("replica.batch_commands_mean", "count", "higher"),
    m("store.apply_ns_per_op", "ns", "lower"),
    m("store.get_ns_per_op", "ns", "lower"),
    m("store.export_us", "us", "lower"),
    m("consensus.slots_per_write", "ratio", "lower"),
    m("consensus.phase1_skip_ratio", "ratio", "higher"),
    m("consensus.reign_prepares", "count", "lower"),
    m("consensus.catchups_sent", "count", "lower"),
    m("consensus.inproc_us_per_write", "us", "lower"),
    m("consensus.msgs_per_write", "ratio", "lower"),
    m("wal.commit_us_p50", "us", "lower"),
    m("wal.commit_us_p99", "us", "lower"),
    m("wal.append_commit_us", "us", "lower"),
    m("wire.encode_ns_per_frame", "ns", "lower"),
    m("wire.decode_ns_per_frame", "ns", "lower"),
    m("wire.bytes_per_op", "B", "lower"),
    m("reactor.frames_rx_per_op", "ratio", "lower"),
    m("reactor.frames_tx_per_op", "ratio", "lower"),
    m("reactor.sends_batched_share", "ratio", "higher"),
    m("reactor.sends_shed", "count", "lower"),
    m("runtime.polls_per_op", "ratio", "lower"),
    m("runtime.timers_fired_per_s", "1/s", "lower"),
    m("process.ctx_switches_per_op", "ratio", "lower"),
    m("omega.elect_ms", "ms", "lower"),
    m("omega.resume_ms", "ms", "lower"),
    m("omega.reigns", "count", "lower"),
    m("sim.events", "count", "lower"),
    m("sim.stabilisation_tick", "tick", "lower"),
    m("sim.max_timer_ticks", "tick", "lower"),
    m("sim.max_susp_level", "count", "lower"),
    m("sim.bytes_per_event", "B", "lower"),
    m("trace.overhead_pct", "%", "lower"),
];

/// The catalogue a run reports from: end-to-end untraced, per-layer traced.
pub fn catalogue(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// What one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured windows.
    pub attempted: u64,
    /// Attempted operations that timed out or hit a closed transport.
    pub failed: u64,
    /// The first correctness check that failed, with its message.
    pub failed_check: Option<String>,
    /// Metric values by name, with the sample count behind each.
    pub values: BTreeMap<&'static str, (f64, usize)>,
    /// Human-readable report lines, printed before the result line.
    pub report: Vec<String>,
}

impl Outcome {
    /// Records a metric value and the number of samples behind it.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }

    /// Adds a human-readable report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.report.push(line.into());
    }

    /// Adds a report line for a metric outside the catalogue (the
    /// workload-specific names), with its unit and sample count.
    pub fn named(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.note(format!("  {name:<32} {value:>16.4} {unit:<6} n={samples}"));
    }

    /// Records a failed correctness check (the first one wins).
    pub fn fail_check(&mut self, check: &str, detail: impl std::fmt::Display) {
        if self.failed_check.is_none() {
            self.failed_check = Some(format!("{check}: {detail}"));
        }
    }

    /// Records a check's result.
    pub fn check(&mut self, check: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.fail_check(check, e);
        }
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failed_check.is_none()
    }

    /// The metric table: one line per catalogue metric, with unit and
    /// sample count.
    ///
    /// # Errors
    ///
    /// Names the first catalogue metric the run did not produce or
    /// produced as a non-finite number.
    pub fn metric_lines(&self, traced: bool) -> Result<Vec<String>, String> {
        catalogue(traced)
            .iter()
            .map(|d| {
                let (v, n) = self.value(d)?;
                Ok(format!("  {:<32} {:>16.4} {:<6} n={n}", d.name, v, d.unit))
            })
            .collect()
    }

    fn value(&self, d: &MetricDef) -> Result<(f64, usize), String> {
        match self.values.get(d.name) {
            Some(&(v, n)) if v.is_finite() => Ok((v, n)),
            Some(&(v, _)) => Err(format!("metric {} is not finite: {v}", d.name)),
            None => Err(format!("metric {} was not measured", d.name)),
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every catalogue metric with its unit.
    ///
    /// # Errors
    ///
    /// As [`Outcome::metric_lines`].
    pub fn result_json(&self, traced: bool) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, d) in catalogue(traced).iter().enumerate() {
            let (v, _) = self.value(d)?;
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(v),
                d.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip form keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}
