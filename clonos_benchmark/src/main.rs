//! The repository's benchmark. See `README.md` beside this crate for the
//! workloads, the metrics and the measurement rules.
//!
//! `clonos-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints `workload metric value unit` lines and, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

// Host-time measurement is this binary's purpose (the root clippy.toml
// disallows wall-clock reads for the engine crates).
#![allow(clippy::disallowed_methods)]

mod alloc;
mod calib;
mod endtoend;
mod harness;
mod perlayer;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: clonos-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: Workload::Chain,
        seed: 1,
        seconds: 12.0,
        trace: false,
    };
    let mut seen_workload = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let Some(value) = argv.next() else { usage() };
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::parse(&value).unwrap_or_else(|| usage());
                seen_workload = true;
            }
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !seen_workload {
        usage();
    }
    args
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = parse_args();
    let name = args.workload.name();
    let outcome = if args.trace {
        perlayer::run(args.workload, args.seed)
    } else {
        endtoend::run(args.workload, args.seed, args.seconds)
    };
    for m in outcome.metrics.iter().chain(&outcome.notes) {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    let bad = outcome.metrics.iter().find(|m| !m.value.is_finite());
    if let Some(m) = bad {
        eprintln!("metric {} is not a finite number", m.name);
    }
    let correct = outcome.failed == 0 && bad.is_none();
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
}
