//! Self-tests of the benchmark: its statistics, the determinism of the
//! simulated workload, and the metric catalogue against `BENCHMARK.json`.

use repobench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use repobench::sim::{fingerprint, SimSpec};
use repobench::stats::{bucket_percentile, max_supported_percentile, median, percentile, Latency};
use repobench::{run_with, Args, Workload};
use std::path::PathBuf;

/// A small system with the `sim_star` shape, cheap enough for debug builds.
const SMALL: SimSpec = SimSpec {
    n: 16,
    horizon: 400,
    crash_tick: 133,
    d: 8,
};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[7.0]), Some(7.0));
    assert_eq!(median(&[1.0, 3.0, 5.0]), Some(3.0));
    // Even count: the mean of the two middle samples, not the upper one.
    assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
    assert_eq!(median(&[10.0, 20.0]), Some(15.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn percentiles_interpolate_between_order_statistics() {
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    assert_eq!(percentile(&v, 100.0), Some(1000.0));
    // Position 0.99 * 999 = 989.01 → between 990 and 991.
    let p99 = percentile(&v, 99.0).unwrap();
    assert!((p99 - 990.01).abs() < 1e-9, "p99 = {p99}");
    assert_eq!(percentile(&[5.0, 15.0], 50.0), Some(10.0));
    assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 25.0), Some(2.0));
}

#[test]
fn ten_beyond_rule() {
    assert_eq!(max_supported_percentile(10), None);
    assert_eq!(max_supported_percentile(0), None);
    assert_eq!(max_supported_percentile(1000), Some(99.0));
    assert_eq!(max_supported_percentile(20), Some(50.0));
    // p99 needs 1000 samples: 999 leave fewer than ten beyond it.
    let l = Latency::of(&(0..999).map(f64::from).collect::<Vec<_>>()).unwrap();
    assert!(!l.p99_supported());
    let l = Latency::of(&(0..1000).map(f64::from).collect::<Vec<_>>()).unwrap();
    assert!(l.p99_supported());
    assert_eq!(l.count, 1000);
    // Exactly ten samples lie beyond the highest supported percentile.
    let (p, v) = l.max_supported.unwrap();
    assert_eq!(p, 99.0);
    assert_eq!((0..1000).filter(|&x| f64::from(x) > v).count(), 10);
    // Unsorted input is sorted first.
    let l = Latency::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
    assert_eq!(l.p50, 2.5);
    assert_eq!(l.max_supported, None);
}

#[test]
fn bucket_percentile_stays_inside_the_holding_bucket() {
    // Four samples in [4, 8), nothing else.
    let mut b = vec![0u64; 65];
    b[3] = 4;
    let p50 = bucket_percentile(&b, 50.0).unwrap();
    assert!((4.0..8.0).contains(&p50), "p50 = {p50}");
    assert_eq!(bucket_percentile(&[0; 65], 50.0), None);
}

#[test]
fn sim_counts_repeat_per_seed_and_change_with_it() {
    let a = SMALL.run(1, None);
    let b = SMALL.run(1, None);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.outcome.max_timer_ticks, b.outcome.max_timer_ticks);
    assert_eq!(a.outcome.max_susp_level, b.outcome.max_susp_level);
    assert_eq!(a.outcome.bytes_sent, b.outcome.bytes_sent);
    assert_eq!(a.tick_us.len(), b.tick_us.len());
    let others: Vec<_> = (2..=4).map(|s| fingerprint(&SMALL.run(s, None))).collect();
    assert!(
        others.iter().any(|f| *f != fingerprint(&a)),
        "seeds 1..=4 all gave {:?}",
        fingerprint(&a)
    );
}

#[test]
fn sim_build_matches_the_experiment_scenario() {
    for seed in [1, 2] {
        let ours = SMALL.run(seed, None).outcome;
        let reference = SMALL.scenario(seed).run_seed(seed);
        assert_eq!(ours.messages_sent, reference.messages_sent);
        assert_eq!(ours.rounds_closed, reference.rounds_closed);
        assert_eq!(ours.stabilization_ticks, reference.stabilization_ticks);
        assert_eq!(ours.leader, reference.leader);
        assert_eq!(ours.bytes_sent, reference.bytes_sent);
    }
}

// ---- BENCHMARK.json and the printed result line ----

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

fn parse_json(text: &str) -> Json {
    fn ws(s: &[u8], i: &mut usize) {
        while *i < s.len() && s[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(s: &[u8], i: &mut usize) -> Json {
        ws(s, i);
        match s[*i] {
            b'{' => {
                *i += 1;
                let mut kv = Vec::new();
                loop {
                    ws(s, i);
                    if s[*i] == b'}' {
                        *i += 1;
                        return Json::Obj(kv);
                    }
                    let Json::Str(k) = value(s, i) else {
                        panic!("object key at {i}")
                    };
                    ws(s, i);
                    assert_eq!(s[*i], b':');
                    *i += 1;
                    kv.push((k, value(s, i)));
                    ws(s, i);
                    if s[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'[' => {
                *i += 1;
                let mut items = Vec::new();
                loop {
                    ws(s, i);
                    if s[*i] == b']' {
                        *i += 1;
                        return Json::Arr(items);
                    }
                    items.push(value(s, i));
                    ws(s, i);
                    if s[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'"' => {
                *i += 1;
                let start = *i;
                while s[*i] != b'"' {
                    assert_ne!(s[*i], b'\\', "escapes are not used");
                    *i += 1;
                }
                *i += 1;
                Json::Str(String::from_utf8(s[start..*i - 1].to_vec()).unwrap())
            }
            b't' => {
                *i += 4;
                Json::Bool(true)
            }
            b'f' => {
                *i += 5;
                Json::Bool(false)
            }
            b'n' => {
                *i += 4;
                Json::Null
            }
            _ => {
                let start = *i;
                while *i < s.len()
                    && matches!(s[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *i += 1;
                }
                Json::Num(std::str::from_utf8(&s[start..*i]).unwrap().parse().unwrap())
            }
        }
    }
    let mut i = 0;
    let v = value(text.as_bytes(), &mut i);
    ws(text.as_bytes(), &mut i);
    assert_eq!(i, text.len(), "trailing bytes");
    v
}

fn benchmark_json() -> Json {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "BENCHMARK.json"]
        .iter()
        .collect();
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark"))
}

fn listed(bench: &Json, key: &str) -> Vec<(String, String, String)> {
    let Some(Json::Arr(items)) = bench.get(key) else {
        panic!("BENCHMARK.json has no {key} list")
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").unwrap().str().to_string(),
                m.get("unit").unwrap().str().to_string(),
                m.get("better").unwrap().str().to_string(),
            )
        })
        .collect()
}

fn ours(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let bench = benchmark_json();
    assert_eq!(listed(&bench, "end_to_end"), ours(END_TO_END));
    assert_eq!(listed(&bench, "per_layer"), ours(PER_LAYER));
    let Some(Json::Arr(workloads)) = bench.get("workloads") else {
        panic!("no workloads")
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").unwrap().str())
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("repobench-selftest");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload,
                seed: 7,
                seconds: 0.3,
                trace,
            };
            let out = run_with(&args, &scratch, &SMALL);
            assert!(out.correct(), "{workload:?}: {:?}", out.failed_check);
            assert!(out.attempted >= 1);
            let line = out.result_json(trace).expect("every metric measured");
            let json = parse_json(&line);
            let Some(Json::Obj(metrics)) = json.get("metrics") else {
                panic!("no metrics in {line}")
            };
            let defs = if trace { PER_LAYER } else { END_TO_END };
            assert_eq!(metrics.len(), defs.len(), "{workload:?} trace={trace}");
            for (d, (name, m)) in defs.iter().zip(metrics) {
                assert_eq!(name, d.name);
                assert_eq!(m.get("unit").unwrap().str(), d.unit);
                let Some(Json::Num(v)) = m.get("value") else {
                    panic!("{name} has no numeric value")
                };
                assert!(v.is_finite());
                if !trace {
                    assert!(*v > 0.0, "{workload:?}: end-to-end {name} is {v}");
                }
            }
            let keys: Vec<&str> = match &json {
                Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
                _ => unreachable!(),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(out.metric_lines(trace).unwrap().len(), defs.len());
        }
    }
}

#[test]
fn arguments_are_checked() {
    let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    let ok = Args::parse(&args("--workload sim_star --seed 3 --seconds 10 --trace 1")).unwrap();
    assert_eq!(ok.workload, Workload::SimStar);
    assert_eq!(ok.seed, 3);
    assert!(ok.trace);
    for bad in [
        "--workload nope --seed 3 --seconds 10 --trace 1",
        "--workload sim_star --seconds 10 --trace 1",
        "--workload sim_star --seed 3 --seconds 0 --trace 1",
        "--workload sim_star --seed 3 --seconds 10 --trace 2",
        "--workload sim_star --seed 3 --seconds 10 --trace",
    ] {
        assert!(Args::parse(&args(bad)).is_err(), "{bad}");
    }
}
