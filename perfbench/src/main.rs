//! `fesia-perfbench`: the repository benchmark.
//!
//! ```text
//! fesia-perfbench --workload serve-read|serve-churn|analytics \
//!                 --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics instead. Either way
//! every output is checked against an oracle. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (`{name: {value, unit}}`); the line before it records the host, the
//! workload and the seed. A failed check or a missed workload shape
//! exits with code 1. See `README.md` for the workloads and metrics.

mod analytics;
mod common;
mod layers;
mod serve;

use common::{Host, Outcome};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| s >= 1)
                        .ok_or(format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (want 0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn run(a: &Args) -> Result<Outcome, String> {
    let secs = a.seconds as f64;
    let io = |e: std::io::Error| format!("I/O error: {e}");
    let mut o = match (a.workload.as_str(), a.trace) {
        ("serve-read", false) => serve::run(serve::Mix::Read, a.seed, secs).map_err(io)?,
        ("serve-churn", false) => serve::run(serve::Mix::Churn, a.seed, secs).map_err(io)?,
        ("serve-read", true) => serve::trace(serve::Mix::Read, a.seed, secs).map_err(io)?,
        ("serve-churn", true) => serve::trace(serve::Mix::Churn, a.seed, secs).map_err(io)?,
        ("analytics", false) => analytics::run(a.seed, secs),
        ("analytics", true) => analytics::trace(a.seed, secs),
        (w, _) => return Err(format!("unknown workload `{w}`")),
    };
    if a.trace {
        complete(&mut o, &layers::PER_LAYER);
    } else {
        o.put("peak_rss_mb", common::peak_rss_mb(), "MiB");
        complete(&mut o, &layers::END_TO_END);
    }
    Ok(o)
}

/// Order the metrics as the benchmark declares them, filling a layer the
/// workload did not exercise with 0.
fn complete(o: &mut Outcome, declared: &[(&str, &'static str)]) {
    let mut got = std::mem::take(&mut o.metrics);
    for &(name, unit) in declared {
        let value = match got.iter().position(|(n, _, _)| n == name) {
            Some(i) => got.swap_remove(i).1,
            None => 0.0,
        };
        o.put(name, value, unit);
    }
    assert!(
        got.is_empty(),
        "undeclared metrics: {:?}",
        got.iter().map(|m| &m.0).collect::<Vec<_>>()
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fesia-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = Host::detect();
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fesia-perfbench: {e}");
            std::process::exit(2);
        }
    };
    for (name, value, unit) in &outcome.metrics {
        eprintln!("{name:<34} {value:>14.4} {unit}");
    }
    for why in &outcome.invalid {
        eprintln!("fesia-perfbench: invalid run: {why}");
    }
    if outcome.failed > 0 {
        eprintln!(
            "fesia-perfbench: {} of {} operations failed their check",
            outcome.failed, outcome.attempted
        );
    }
    println!(
        "{}",
        host.to_json(&args.workload, args.seed, args.seconds, args.trace)
    );
    println!("{}", outcome.to_json());
    if !outcome.correct() {
        std::process::exit(1);
    }
}
