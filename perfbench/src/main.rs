//! End-to-end and per-layer benchmark of the SHIFT reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-scenarios|cluster-diurnal|fault-hunt> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` adds a traced run
//! and prints the per-layer metrics. The last line of standard output is one
//! JSON object; human-readable report lines come before it. Any failed
//! output check or non-repeating count makes the run exit non-zero.

mod cluster;
mod common;
mod frame_loop;
mod hunt;
mod paper;
mod stats;
mod trace;

use common::{Args, Outcome};

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(2024),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result: Result<Outcome, String> = match args.workload.as_str() {
        "paper-scenarios" => paper::run(&args),
        "cluster-diurnal" => cluster::run(&args),
        "fault-hunt" => hunt::run(&args),
        other => Err(format!(
            "unknown workload {other} (paper-scenarios, cluster-diurnal, fault-hunt)"
        )),
    };
    match result {
        Ok(outcome) => std::process::exit(outcome.finish(&args)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
