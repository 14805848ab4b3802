//! Artifact benchmark for the DNS→NTP time-shifting reproduction.
//!
//! ```text
//! perfbench --workload <boot_attack|runtime_attack|snoop_scan>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Untraced (`--trace 0`) runs time the workload and print the end-to-end
//! metrics; traced (`--trace 1`) runs print the per-layer metrics. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Checkpoints and the span dump go under `--out` (default
//! `.bench_out` in the working directory). See `perfbench/README.md`.

// Timing the host is this program's purpose: the workspace's wall-clock
// rule (simlint R3, mirrored in clippy.toml) exempts benchmarks.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod kernel;
mod probes;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use kernel::{median, Meter, Timed};
use trace::Tracer;
use workload::{Kind, PassOutcome, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from(".bench_out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad(()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad(()))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                })
            }
            "--out" => out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(mut w) = Workload::new(&args.workload, args.seed, &args.out) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let result = if args.trace { traced(&mut w, &args) } else { untraced(&mut w, &args) };
    match result {
        Ok(report) => {
            println!("{}", report.context);
            println!("{}", report.result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}

struct Report {
    /// One JSON line of context: digests, raw rates, pass counts.
    context: String,
    /// The result line.
    result: String,
}

/// Tally of the trials a run attempted and the ones that failed a check.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    passes: usize,
    reference: Option<PassOutcome>,
    /// Record lines every pass must reproduce: in a traced run, the
    /// untraced pass's lines, so the phase-by-phase trials cannot drift from
    /// `Campaign::run_trial`.
    expected: Option<Vec<String>>,
    /// Records that differed from `expected`.
    mismatched: usize,
}

impl Tally {
    /// Accounts one pass: a pass whose digest differs from the run's first
    /// pass, or that broke, fails every trial; a record that differs from
    /// the expected line fails its trial.
    fn add(&mut self, trials: usize, pass: PassOutcome) {
        self.attempted += trials;
        self.passes += 1;
        if let Some(expected) = &self.expected {
            let bad = pass.lines.iter().zip(expected).filter(|(a, b)| a != b).count()
                + expected.len().abs_diff(pass.lines.len());
            self.mismatched += bad;
            self.failed += bad;
        }
        let digest_ok = match &self.reference {
            None => pass.digest.is_some(),
            Some(first) => pass.digest.is_some() && pass.digest == first.digest,
        };
        self.failed += if digest_ok { pass.failed } else { trials };
        if self.reference.is_none() && pass.digest.is_some() {
            self.reference = Some(pass);
        }
    }

    fn digest(&self) -> &str {
        self.reference.as_ref().and_then(|p| p.digest.as_deref()).unwrap_or("none")
    }
}

/// Normalised (and raw) seconds of one pass: per unit, the median over
/// passes, summed over units — the trials differ in length, so each is
/// summarised on its own before they are added up.
fn pass_seconds(units: &[Vec<Timed>]) -> (f64, f64) {
    let sum = |f: fn(&Timed) -> f64| {
        units.iter().map(|u| median(&u.iter().map(f).collect::<Vec<_>>())).sum::<f64>()
    };
    (sum(|t| t.norm), sum(|t| t.raw))
}

/// Runs passes until `seconds` have gone by (at least one), collecting
/// each unit's times.
fn timed_passes(
    w: &Workload,
    meter: &mut Meter,
    seconds: f64,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Vec<Timed>> {
    let mut units = vec![Vec::new(); w.units()];
    let start = Instant::now();
    while tally.passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let pass = w.pass(meter, tracer.as_deref_mut());
        for (u, t) in units.iter_mut().zip(&pass.units) {
            u.push(*t);
        }
        tally.add(w.trials, pass);
    }
    units
}

/// The untraced run: set-up, timed passes, one counted pass and one pass
/// at another seed.
fn untraced(w: &mut Workload, args: &Args) -> Result<Report, String> {
    let mut meter = Meter::new();
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let (r, t) = meter.time(|| w.setup());
        r.map_err(|e| e.to_string())?;
        setups.push(t.norm);
    }
    let mut tally = Tally::default();
    let units = timed_passes(w, &mut meter, args.seconds, &mut tally, None);
    let (norm_s, raw_s) = pass_seconds(&units);

    // Allocation counts of one warm pass; the kernel's are excluded.
    alloc::set_counting(true);
    let (a0, b0) = alloc::snapshot();
    let counted = w.pass(&mut meter, None);
    let (a1, b1) = alloc::snapshot();
    alloc::set_counting(false);
    tally.add(w.trials, counted);

    // Does the seed reach this workload's inputs? One pass at the next
    // seed, compared by digest.
    let alt_seed = args.seed.wrapping_add(1);
    let mut alt = Workload::new(w.name, alt_seed, &args.out.join("alt")).expect("known workload");
    alt.setup().map_err(|e| e.to_string())?;
    let alt_pass = alt.pass(&mut meter, None);
    let alt_digest = alt_pass.digest.clone().unwrap_or_else(|| "none".into());

    let trials = w.trials as f64;
    let failed_share = tally.failed as f64 / tally.attempted as f64;
    let metrics = [
        ("trials_per_s_norm", trials / norm_s, "1/s"),
        ("setup_s", median(&setups), "s"),
        ("allocs_per_trial", (a1 - a0) as f64 / trials, "count"),
        ("alloc_mb_per_trial", (b1 - b0) as f64 / trials / MIB, "MiB"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ("ok_share", 1.0 - failed_share, "share"),
    ];
    let context = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"digest\": \"{}\", \"alt_seed\": {alt_seed}, \
         \"alt_digest\": \"{alt_digest}\", \"seed_changes_digest\": {}, \
         \"trials_per_s_raw\": {}, \"kernel_per_s\": {}, \"failed_share\": {failed_share}, \
         \"passes\": {}, \"trials_per_pass\": {}}}",
        w.name,
        args.seed,
        tally.digest(),
        alt_digest != tally.digest(),
        trials / raw_s,
        1.0 / median(&meter.kernels),
        tally.passes,
        w.trials,
    );
    Ok(Report { context, result: result_line(&tally, &metrics) })
}

/// The traced run: untraced passes for half the time, then traced passes
/// with the counting allocator on, then the layer probes. Every traced
/// trial's record line must equal the untraced one.
fn traced(w: &mut Workload, args: &Args) -> Result<Report, String> {
    let mut meter = Meter::new();
    w.setup().map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    let half = args.seconds / 2.0;
    let base = timed_passes(w, &mut meter, half, &mut tally, None);
    let reference = tally.reference.as_ref().map(|p| p.lines.clone()).unwrap_or_default();

    alloc::set_counting(true);
    let mut tracer = Tracer::new();
    let mut traced_tally = Tally { expected: Some(reference.clone()), ..Tally::default() };
    let traced_units = timed_passes(w, &mut meter, half, &mut traced_tally, Some(&mut tracer));
    if traced_tally.mismatched > 0 {
        eprintln!(
            "{}: phase-by-phase trials differ from run_trial on {} records",
            w.name, traced_tally.mismatched
        );
    }
    let probes = probes::run(&mut meter, w.schema(), &reference);
    alloc::set_counting(false);

    let spans_path = args.out.join(format!("{}.spans.tsv", w.name));
    std::fs::write(&spans_path, tracer.render())
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    tally.attempted += traced_tally.attempted;
    tally.failed += traced_tally.failed;
    let p = probes.ok_or("a layer probe input failed to encode, decode or forge")?;

    let costs = tracer.self_costs();
    let cost = |name: &str| costs.get(name).copied().unwrap_or_default();
    let (ms, us) = (1e-3, 1e-6);
    let net = tracer.net;
    let per_trial = |n: u64| n as f64 / net.trials.max(1) as f64;
    let sim_phases =
        ["scenario.poison", "scenario.victim_sync", "scenario.converge", "scenario.attack"];
    let sim_secs: f64 = sim_phases.iter().map(|n| cost(n).secs).sum();
    let pool_serves = net.pool_hits + net.pool_misses;
    let overhead = pass_seconds(&traced_units).0 / pass_seconds(&base).0;
    let metrics = [
        ("scenario.build_ms", cost("scenario.build").per_call(ms), "ms"),
        ("scenario.build_allocs", cost("scenario.build").allocs_per_call(), "count"),
        ("scenario.poison_ms", cost("scenario.poison").per_call(ms), "ms"),
        ("scenario.poison_allocs", cost("scenario.poison").allocs_per_call(), "count"),
        ("scenario.poison_events", cost("scenario.poison").events_per_call(), "count"),
        ("scenario.victim_sync_ms", cost("scenario.victim_sync").per_call(ms), "ms"),
        ("scenario.victim_sync_allocs", cost("scenario.victim_sync").allocs_per_call(), "count"),
        ("scenario.victim_sync_events", cost("scenario.victim_sync").events_per_call(), "count"),
        ("scenario.converge_ms", cost("scenario.converge").per_call(ms), "ms"),
        ("scenario.converge_events", cost("scenario.converge").events_per_call(), "count"),
        ("scenario.attack_ms", cost("scenario.attack").per_call(ms), "ms"),
        ("scenario.attack_allocs", cost("scenario.attack").allocs_per_call(), "count"),
        ("scenario.attack_events", cost("scenario.attack").events_per_call(), "count"),
        ("netsim.events_per_trial", per_trial(net.events), "count"),
        ("netsim.packets_per_trial", per_trial(net.packets), "count"),
        ("netsim.timers_per_trial", per_trial(net.timers), "count"),
        ("netsim.drops_per_trial", per_trial(net.drops), "count"),
        ("netsim.pool_hit_share", net.pool_hits as f64 / pool_serves.max(1) as f64, "share"),
        ("netsim.us_per_event", sim_secs / us / net.events.max(1) as f64, "us"),
        ("netsim.ring_events_per_s_norm", p.ring_events_per_s, "1/s"),
        ("dns.encode_us", p.dns_encode.secs / us, "us"),
        ("dns.encode_allocs", p.dns_encode.allocs, "count"),
        ("dns.decode_us", p.dns_decode.secs / us, "us"),
        ("dns.decode_allocs", p.dns_decode.allocs, "count"),
        ("dns.answer_us", p.dns_answer.secs / us, "us"),
        ("dns.answer_allocs", p.dns_answer.allocs, "count"),
        ("ntp.encode_ns", p.ntp_encode.secs * 1e9, "ns"),
        ("ntp.encode_allocs", p.ntp_encode.allocs, "count"),
        ("ntp.decode_ns", p.ntp_decode.secs * 1e9, "ns"),
        ("ntp.decode_allocs", p.ntp_decode.allocs, "count"),
        ("attack.walk_records_us", p.walk_records.secs / us, "us"),
        ("attack.walk_records_allocs", p.walk_records.allocs, "count"),
        ("attack.forge_tail_us", p.forge_tail.secs / us, "us"),
        ("attack.forge_tail_allocs", p.forge_tail.allocs, "count"),
        ("measure.spec_at_us", cost("measure.spec_at").per_call(us), "us"),
        ("measure.spec_at_allocs", cost("measure.spec_at").allocs_per_call(), "count"),
        ("measure.scan_resolver_us", cost("measure.scan_resolver").per_call(us), "us"),
        ("measure.scan_resolver_allocs", cost("measure.scan_resolver").allocs_per_call(), "count"),
        ("campaign.encode_line_us", cost("campaign.encode_line").per_call(us), "us"),
        ("campaign.decode_line_us", p.decode_line.secs / us, "us"),
        ("campaign.append_us", cost("campaign.append").per_call(us), "us"),
        ("campaign.merge_ms", cost("campaign.merge").per_call(ms), "ms"),
        ("trace.overhead_ratio", overhead, "ratio"),
    ];
    let applies = match w.kind {
        Kind::Boot => "scenario.build,scenario.poison,scenario.victim_sync,netsim",
        Kind::Runtime => "scenario.build,scenario.converge,scenario.attack,netsim",
        Kind::Snoop => "measure",
    };
    let mut self_times = String::new();
    for (name, c) in &costs {
        let _ = write!(
            self_times,
            "{}\"{name}\": {}",
            if self_times.is_empty() { "" } else { ", " },
            c.secs
        );
    }
    let context = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"digest\": \"{}\", \"traced_records_mismatched\": {}, \
         \"spans\": {}, \"spans_file\": \"{}\", \"phase_metrics_apply_to\": \"{applies}\", \
         \"self_seconds\": {{{self_times}}}}}",
        w.name,
        args.seed,
        tally.digest(),
        traced_tally.mismatched,
        tracer.spans.len(),
        spans_path.display(),
    );
    Ok(Report { context, result: result_line(&tally, &metrics) })
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_line(tally: &Tally, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = String::new();
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && finite,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
