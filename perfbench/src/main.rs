//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_suite|grid_200k|cbs_nets> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a human-readable table, then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use sllt_perfbench::{run, Options, Workload};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <paper_suite|grid_200k|cbs_nets> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Options {
        seed: None,
        seconds: 30.0,
        trace: false,
        tiny: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => Workload::parse(value).map(|w| workload = Some(w)).is_some(),
            "--seed" => value.parse().map(|s| opts.seed = Some(s)).is_ok(),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => {
                    opts.seconds = s;
                    true
                }
                _ => false,
            },
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };

    let out = run(workload, &opts);
    println!(
        "workload={} seed={} seconds={} trace={} cores={}",
        workload.name(),
        out.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for (m, v) in &out.metrics {
        println!(
            "  {:<36} {:>18.6} {:<6} ({} is better)",
            m.name,
            v,
            m.unit,
            m.better.as_str()
        );
    }
    for e in &out.tally.errors {
        println!("  FAILED: {e}");
    }
    println!(
        "  attempted={} failed={}",
        out.tally.attempted, out.tally.failed
    );
    println!("{}", out.json_line());
    ExitCode::SUCCESS
}
