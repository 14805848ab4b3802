//! The three artifact workloads and the campaign path they drive.
//!
//! Each workload runs one registry scenario single-threaded through the
//! same public calls `campaign::exec::run_campaign` makes per shard:
//! `Scenario::build`, `Campaign::run_trial`, `record::encode_line`,
//! `checkpoint::Appender::append_line`, then `summary::merge`. A *pass* is
//! one campaign over the workload's trials into a fresh checkpoint; a
//! *unit* is the slice of a pass timed between two kernel samples.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use campaign::checkpoint::{self, Appender};
use campaign::error::CampaignError;
use campaign::exec::scale_spec;
use campaign::record::{encode_line, opt, Record, Value};
use campaign::registry::{self, Campaign};
use campaign::summary;
use measure::population::open_resolver_at;
use measure::snoop::scan_resolver;
use netsim::prelude::SimDuration;
use ntp::prelude::{ClientKind, ClientProfile, NtpClient};
use runner::scan_seed;
use timeshift::experiments::{salts, table2_cases, Scale, Table2Case};
use timeshift::scenario::{AttackOutcome, Scenario, ScenarioConfig};

use crate::kernel::{Meter, Timed};
use crate::trace::{Tracer, NO_TRIAL};

/// Resolvers in the `snoop_scan` population slice: the paper's 1.58 M
/// population is generated lazily per index, so only the slice is built.
const SNOOP_RESOLVERS: usize = 50_000;
/// Snoop trials per pass (the first `SNOOP_PASS` indices of the slice).
const SNOOP_PASS: usize = 8_000;
/// Snoop trials per bracketed unit: one ~150 µs trial is too short to
/// bracket alone, 400 of them take about as long as one boot trial.
const SNOOP_UNIT: usize = 400;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Boot,
    Runtime,
    Snoop,
}

pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    scenario: &'static registry::Scenario,
    scale: Scale,
    /// Trials per pass.
    pub trials: usize,
    /// Trials per bracketed unit.
    per_unit: usize,
    dir: PathBuf,
    campaign: Option<Box<dyn Campaign>>,
    cases: Vec<Table2Case>,
}

/// What one pass produced.
pub struct PassOutcome {
    /// The merged campaign digest, `None` when the pass broke (a panic, an
    /// I/O or decode error).
    pub digest: Option<String>,
    /// Every encoded record line, in index order.
    pub lines: Vec<String>,
    /// Trials that failed the workload's output check.
    pub failed: usize,
    /// Per unit, its bracketed time.
    pub units: Vec<Timed>,
}

impl Workload {
    /// The workload called `name`, at master seed `seed`, writing its
    /// checkpoints under `out`.
    pub fn new(name: &str, seed: u64, out: &Path) -> Option<Workload> {
        let scale = Scale { workers: 1, seed, ..Scale::quick() };
        let (kind, name, scenario, scale, trials, per_unit) = match name {
            "boot_attack" => {
                (Kind::Boot, "boot_attack", "table1", scale, ClientKind::all().len(), 1)
            }
            "runtime_attack" => {
                (Kind::Runtime, "runtime_attack", "table2", scale, table2_cases().len(), 1)
            }
            "snoop_scan" => (
                Kind::Snoop,
                "snoop_scan",
                "table4_snoop",
                Scale { resolvers: SNOOP_RESOLVERS, ..scale },
                SNOOP_PASS,
                SNOOP_UNIT,
            ),
            _ => return None,
        };
        Some(Workload {
            kind,
            name,
            scenario: registry::find(scenario).expect("registered scenario"),
            scale,
            trials,
            per_unit,
            dir: out.join(name),
            campaign: None,
            cases: table2_cases(),
        })
    }

    pub fn units(&self) -> usize {
        self.trials.div_ceil(self.per_unit)
    }

    /// The set-up a campaign pays before its first trial: the registry
    /// build at the workload's scale, checkpoint-directory preparation and
    /// one warm-up unit.
    pub fn setup(&mut self) -> Result<(), CampaignError> {
        let built = self.scenario.build(self.scale);
        assert!(built.trials() >= self.trials, "{}: scale too small for a pass", self.name);
        self.campaign = Some(built);
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| CampaignError::io(format!("create {}", self.dir.display()), e))?;
        checkpoint::wipe(&self.dir)?;
        checkpoint::check_manifest(&self.dir, self.scenario.name, &scale_spec(&self.scale), 1)?;
        let mut out = Appender::open(&checkpoint::shard_path(&self.dir, 0))?;
        for idx in 0..self.per_unit.min(self.trials) {
            let record = self.campaign().run_trial(idx);
            out.append_line(&encode_line(self.scenario.schema, &record))?;
        }
        Ok(())
    }

    pub fn schema(&self) -> &'static campaign::record::Schema {
        self.scenario.schema
    }

    fn campaign(&self) -> &dyn Campaign {
        self.campaign.as_deref().expect("setup ran")
    }

    /// Runs one pass: every trial, encoded and appended to a fresh
    /// checkpoint, then the merge. Each unit runs between two kernel
    /// samples of `meter`. With a tracer, trials run through the traced
    /// phase-by-phase runner and every public call gets a span.
    pub fn pass(&self, meter: &mut Meter, mut tracer: Option<&mut Tracer>) -> PassOutcome {
        let mut outcome = PassOutcome {
            digest: None,
            lines: Vec::with_capacity(self.trials),
            failed: 0,
            units: Vec::new(),
        };
        let path = checkpoint::shard_path(&self.dir, 0);
        let _ = std::fs::remove_file(&path);
        let mut out = match Appender::open(&path) {
            Ok(out) => Some(out),
            Err(e) => {
                eprintln!("{}: {e}", self.name);
                None
            }
        };
        let mut broken = out.is_none();
        let units = self.units();
        for unit in 0..units {
            if broken {
                break;
            }
            let range = unit * self.per_unit..((unit + 1) * self.per_unit).min(self.trials);
            let (result, timed) = meter.time(|| {
                catch_unwind(AssertUnwindSafe(|| -> Result<Option<String>, CampaignError> {
                    let out = out.as_mut().expect("checked above");
                    for idx in range {
                        let record = self.trial(idx, tracer.as_deref_mut());
                        outcome.failed += usize::from(!self.check(&record));
                        let line = span(&mut tracer, "campaign.encode_line", || {
                            encode_line(self.scenario.schema, &record)
                        });
                        span(&mut tracer, "campaign.append", || out.append_line(&line))?;
                        if let Some(t) = tracer.as_deref_mut() {
                            t.set_trial(NO_TRIAL);
                        }
                        outcome.lines.push(line);
                    }
                    if unit + 1 < units {
                        return Ok(None);
                    }
                    // One shard: the pass is a single contiguous index range.
                    #[allow(clippy::single_range_in_vec_init)]
                    let merged = span(&mut tracer, "campaign.merge", || {
                        summary::merge(
                            self.scenario,
                            "bench",
                            self.scale.seed,
                            &self.dir,
                            &[0..self.trials],
                        )
                    })?;
                    Ok(Some(merged.digest))
                }))
            });
            if let Some(t) = tracer.as_deref_mut() {
                t.set_norm(timed.norm / timed.raw.max(1e-12));
            }
            outcome.units.push(timed);
            match result {
                Ok(Ok(digest)) => outcome.digest = digest,
                Ok(Err(e)) => {
                    eprintln!("{}: {e}", self.name);
                    broken = true;
                }
                Err(_) => {
                    if let Some(t) = tracer.as_deref_mut() {
                        t.close_all();
                    }
                    broken = true;
                }
            }
        }
        if broken {
            outcome.digest = None;
            outcome.failed = self.trials;
        }
        outcome
    }

    /// The workload's output check on one record.
    fn check(&self, record: &Record) -> bool {
        let near_target = |v: &Value| matches!(v, Value::F64(x) if (x + 500.0).abs() < 1.0);
        match self.kind {
            // Table I: every client falls to the boot-time attack, shifted
            // by the paper's −500 s.
            Kind::Boot => record.0[2] == Value::Bool(true) && near_target(&record.0[4]),
            // Table II: every case succeeds with the −500 s shift.
            Kind::Runtime => record.0[3] == Value::Bool(true) && near_target(&record.0[6]),
            // Snoop records are checked by the merge (every line must
            // decode) and by the per-pass digest.
            Kind::Snoop => true,
        }
    }

    fn trial(&self, idx: usize, tracer: Option<&mut Tracer>) -> Record {
        let Some(t) = tracer else { return self.campaign().run_trial(idx) };
        t.set_trial(idx as u32);
        let id = t.open("trial");
        let record = match self.kind {
            Kind::Boot => traced_boot(t, self.scale.seed, ClientKind::all()[idx]),
            Kind::Runtime => traced_runtime(t, self.scale.seed, &self.cases[idx]),
            Kind::Snoop => traced_snoop(t, self.scale.seed, idx),
        };
        t.close(id, 0);
        record
    }
}

fn span<T>(tracer: &mut Option<&mut Tracer>, name: &'static str, work: impl FnOnce() -> T) -> T {
    match tracer.as_deref_mut() {
        Some(t) => t.span(name, work),
        None => work(),
    }
}

/// Runs `phase` on the scenario inside a span credited with the simulator
/// events it dispatched.
fn phase<T>(
    t: &mut Tracer,
    s: &mut Scenario,
    name: &'static str,
    work: impl FnOnce(&mut Scenario) -> T,
) -> T {
    let before = s.sim.stats().events_dispatched;
    let id = t.open(name);
    let out = work(s);
    let events = s.sim.stats().events_dispatched - before;
    t.close(id, events);
    out
}

/// `table1` trial `kind`, phase by phase: the sequence of
/// `timeshift::scenario::run_boot_time_attack` and the record of the
/// registry's Table I campaign, from their public parts. The caller checks
/// its line against `Campaign::run_trial`'s.
fn traced_boot(t: &mut Tracer, seed: u64, kind: ClientKind) -> Record {
    let config = ScenarioConfig { seed: seed ^ kind as u64, ..ScenarioConfig::default() };
    let target = config.shift_secs;
    let mut s = t.span("scenario.build", || Scenario::build(config));
    let poisoned_at = phase(t, &mut s, "scenario.poison", |s| {
        s.launch_poisoner();
        s.run_until_condition(SimDuration::from_secs(30), SimDuration::from_mins(30), |s| {
            s.poisoner().is_some_and(attack::prelude::OffPathPoisoner::fully_poisoned)
        })
    });
    phase(t, &mut s, "scenario.victim_sync", |s| {
        s.spawn_victim(kind);
        s.sim.run_for(SimDuration::from_mins(10));
    });
    t.net.add(&s.sim.stats());
    let observed = s.victim().expect("victim exists").offset_secs(s.sim.now());
    let success = poisoned_at.is_some() && (observed - target).abs() < 1.0;
    Record(vec![
        kind.name().into(),
        opt(kind.pool_share()),
        success.into(),
        opt(ClientProfile::for_kind(kind).vulnerable_run_time()),
        observed.into(),
    ])
}

/// `table2` trial `case`, phase by phase: the sequence of
/// `timeshift::scenario::run_runtime_attack` and the registry's Table II
/// record.
fn traced_runtime(t: &mut Tracer, seed: u64, case: &Table2Case) -> Record {
    let config = ScenarioConfig { seed: seed ^ case.kind as u64, ..ScenarioConfig::default() };
    let target = config.shift_secs;
    let mut s = t.span("scenario.build", || Scenario::build(config));
    let victim = phase(t, &mut s, "scenario.converge", |s| {
        let victim = s.spawn_victim(case.kind);
        s.sim.run_for(SimDuration::from_mins(20));
        victim
    });
    let attack_start = s.sim.now();
    let stepped_at = phase(t, &mut s, "scenario.attack", |s| {
        s.launch_runtime_attacker(victim, case.scenario.clone());
        s.run_until_condition(SimDuration::from_mins(1), SimDuration::from_hours(3), |s| {
            s.victim()
                .and_then(NtpClient::first_large_step)
                .is_some_and(|(at, _)| at > attack_start)
        })
    });
    let stats = s.sim.stats();
    t.net.add(&stats);
    let victim = s.victim().expect("victim exists");
    let observed = victim.offset_secs(s.sim.now());
    let duration = victim
        .first_large_step()
        .filter(|(at, _)| *at > attack_start)
        .map(|(at, _)| at.saturating_since(attack_start).as_secs_f64());
    let outcome = AttackOutcome {
        success: stepped_at.is_some() && (observed - target).abs() < 1.0,
        observed_shift: observed,
        duration_secs: duration,
        packets_sent: stats.packets_sent,
        frag_drops: stats.drops.frag_drops(),
        verify_drops: stats.drops.verify_drops(),
        total_drops: stats.drops.total(),
    };
    Record(vec![
        case.client.into(),
        case.label.into(),
        case.scenario.label().into(),
        outcome.success.into(),
        opt(duration.map(|secs| secs / 60.0)),
        case.paper_mins.into(),
        outcome.observed_shift.into(),
        outcome.packets_sent.into(),
        outcome.fail_stage().into(),
        outcome.frag_drops.into(),
        outcome.verify_drops.into(),
        outcome.total_drops.into(),
    ])
}

/// `table4_snoop` trial `idx`: the lazily generated resolver spec, then
/// its scan, projected to the registry's snoop record.
fn traced_snoop(t: &mut Tracer, seed: u64, idx: usize) -> Record {
    let spec = t.span("measure.spec_at", || open_resolver_at(seed, idx));
    let o = t.span("measure.scan_resolver", || {
        scan_resolver(&spec, scan_seed(seed ^ salts::SNOOP_SCAN, idx))
    });
    Record(vec![
        o.verified.into(),
        o.cached_total().into(),
        opt(o.apex_a_ttl()),
        o.accepts_fragments.into(),
        opt(o.timing_diff_ms),
    ])
}
