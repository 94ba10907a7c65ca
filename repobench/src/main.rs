//! `repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then the metric table, then one JSON
//! result line. Exits 1 when a correctness check failed (the report names
//! it) and 2 on a usage error.

use repobench::{run, scratch_dir, Args, USAGE};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repobench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = run(&args, &scratch_dir());
    for line in &out.report {
        println!("{line}");
    }
    if let Some(check) = &out.failed_check {
        println!("CHECK FAILED: {check}");
    }
    let (lines, json) = match (out.metric_lines(args.trace), out.result_json(args.trace)) {
        (Ok(l), Ok(j)) => (l, j),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("repobench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{} metrics ({}):",
        args.workload.name(),
        if args.trace {
            "per-layer, traced"
        } else {
            "end-to-end, untraced"
        }
    );
    for l in lines {
        println!("{l}");
    }
    println!("{json}");
    if !out.correct() {
        std::process::exit(1);
    }
}
