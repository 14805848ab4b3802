//! Engine perf-regression gate: measure the forwarding-ring throughput
//! and compare it with the committed baseline.
//!
//! Run from the root of a checkout:
//!
//! ```sh
//! cargo run --release -p bench --bin perfgate
//! ```
//!
//! Drives the 100 k-event ring three times (best of three, see
//! [`bench::engine_driver::measure`]) and fails — exit 1 — if
//!
//! * `BENCH_baseline.json` in the working directory is missing,
//!   malformed, or has no numeric `engine_events_per_sec`;
//! * the steady-state packet-buffer pool hit rate is below 99 % (the
//!   deliver path must stay allocation-free);
//! * events/sec dropped more than 10 % below the baseline.
//!
//! Improvements print a hint to refresh the baseline but pass. The gate
//! takes no options and writes no file.

use std::process::ExitCode;

use bench::engine_driver::measure;

/// Lowest accepted ratio of measured to baseline events/sec.
const MIN_RATIO: f64 = 0.9;
/// Lowest accepted pool hit rate on the ring's steady state.
const MIN_POOL_HIT_RATE: f64 = 0.99;
/// The committed baseline, relative to the working directory.
const BASELINE_PATH: &str = "BENCH_baseline.json";

fn read_baseline() -> Result<f64, String> {
    let body = std::fs::read_to_string(BASELINE_PATH)
        .map_err(|e| format!("cannot read {BASELINE_PATH}: {e}"))?;
    bench::json::validate(&body).map_err(|e| format!("{BASELINE_PATH} is malformed: {e}"))?;
    bench::json::number_field(&body, "engine_events_per_sec")
        .filter(|rate| rate.is_finite() && *rate > 0.0)
        .ok_or_else(|| format!("{BASELINE_PATH} has no positive engine_events_per_sec"))
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("perfgate: FAIL — {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let baseline = match read_baseline() {
        Ok(rate) => rate,
        Err(e) => return fail(&e),
    };
    let (stats, elapsed) = measure();
    let current = stats.events_dispatched as f64 / elapsed.max(1e-9);
    let served = stats.pool_hits + stats.pool_misses;
    let hit_rate = if served == 0 { 1.0 } else { stats.pool_hits as f64 / served as f64 };
    let ratio = current / baseline;
    println!(
        "perfgate: engine {:.2} M events/sec vs baseline {:.2} M ({:+.1} %, floor {:.0} %); \
         pool hit rate {:.2} % ({} / {} serves)",
        current / 1e6,
        baseline / 1e6,
        (ratio - 1.0) * 100.0,
        MIN_RATIO * 100.0,
        hit_rate * 100.0,
        stats.pool_hits,
        served,
    );
    if hit_rate < MIN_POOL_HIT_RATE {
        return fail(&format!(
            "steady-state deliver path must be allocation-free: pool hit rate {:.2} % is below \
             {:.0} %",
            hit_rate * 100.0,
            MIN_POOL_HIT_RATE * 100.0
        ));
    }
    if ratio < MIN_RATIO {
        return fail(&format!(
            "engine throughput regressed more than {:.0} % below the committed baseline \
             ({BASELINE_PATH})",
            (1.0 - MIN_RATIO) * 100.0
        ));
    }
    if ratio > 1.1 {
        println!(
            "perfgate: engine is {:.0} % above baseline — consider refreshing \
             {BASELINE_PATH} to tighten the gate",
            (ratio - 1.0) * 100.0
        );
    }
    println!("perfgate: OK");
    ExitCode::SUCCESS
}
