//! In-memory spans for the traced run.
//!
//! Each span records its name, start, end, parent and trial id, plus the
//! allocation counters and simulator events seen inside it. Spans are
//! kept in memory and written out once the run ends; the per-layer
//! metrics are self times (a span's duration minus the part its children
//! cover) and self allocation counts, per span name.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use netsim::prelude::SimStats;

use crate::alloc;

/// Trial id of spans that belong to no single trial (such as a merge).
pub const NO_TRIAL: u32 = u32::MAX;
const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub trial: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub bytes: u64,
    /// Simulator events dispatched inside the span, where it drives one.
    pub events: u64,
    /// Factor that rescales this span's time to the nominal kernel speed;
    /// set once the bracketed unit that contains it has ended.
    pub norm: f64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Simulator totals of the traced trials that drive one simulator.
    pub net: NetTotals,
    open: Vec<u32>,
    trial: u32,
    /// First span of the unit being measured (see [`Tracer::set_norm`]).
    unit_start: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            net: NetTotals::default(),
            open: Vec::new(),
            trial: NO_TRIAL,
            unit_start: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the trial id stamped on spans opened from now on.
    pub fn set_trial(&mut self, trial: u32) {
        self.trial = trial;
    }

    /// Opens a span as a child of the innermost open one. The counters are
    /// read last, so the tracer's own allocations stay out of the span.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        self.spans.push(Span {
            name,
            parent,
            trial: self.trial,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            bytes: 0,
            events: 0,
            norm: 1.0,
        });
        let (allocs, bytes) = alloc::snapshot();
        let start_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        (span.allocs, span.bytes, span.start_ns) = (allocs, bytes, start_ns);
        id
    }

    /// Closes the innermost span, which must be `id`, crediting it with
    /// `events` simulator events.
    pub fn close(&mut self, id: u32, events: u64) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        let end_ns = self.now_ns();
        let (allocs, bytes) = alloc::snapshot();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        span.bytes = bytes - span.bytes;
        span.events = events;
    }

    /// Closes every span a panic left open.
    pub fn close_all(&mut self) {
        while let Some(&id) = self.open.last() {
            self.close(id, 0);
        }
    }

    /// Runs `work` inside a span with no events.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = work();
        self.close(id, 0);
        out
    }

    /// Applies a unit's normalisation factor to every span opened since
    /// the previous call.
    pub fn set_norm(&mut self, factor: f64) {
        for span in &mut self.spans[self.unit_start..] {
            span.norm = factor;
        }
        self.unit_start = self.spans.len();
    }

    /// Self time (normalised seconds), self allocations, events and call
    /// count, per span name.
    pub fn self_costs(&self) -> BTreeMap<&'static str, SelfCost> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
                child_allocs[span.parent as usize] += span.allocs;
            }
        }
        let mut out: BTreeMap<&'static str, SelfCost> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let cost = out.entry(span.name).or_default();
            let self_ns = (span.end_ns - span.start_ns).saturating_sub(child_ns[i]);
            cost.secs += self_ns as f64 * 1e-9 * span.norm;
            cost.allocs += span.allocs - child_allocs[i];
            cost.events += span.events;
            cost.calls += 1;
        }
        out
    }

    /// The spans as tab-separated lines:
    /// `id name parent trial start_ns end_ns allocs bytes events norm`.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "id\tname\tparent\ttrial\tstart_ns\tend_ns\tallocs\tbytes\tevents\tnorm\n",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            let trial = if s.trial == NO_TRIAL { -1 } else { i64::from(s.trial) };
            let _ = writeln!(
                out,
                "{i}\t{}\t{parent}\t{trial}\t{}\t{}\t{}\t{}\t{}\t{:.6}",
                s.name, s.start_ns, s.end_ns, s.allocs, s.bytes, s.events, s.norm
            );
        }
        out
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct SelfCost {
    pub secs: f64,
    pub allocs: u64,
    pub events: u64,
    pub calls: u64,
}

impl SelfCost {
    /// Mean self time per call, in `unit` seconds (1e-3 for ms).
    pub fn per_call(&self, unit: f64) -> f64 {
        self.secs / unit / self.calls.max(1) as f64
    }

    pub fn allocs_per_call(&self) -> f64 {
        self.allocs as f64 / self.calls.max(1) as f64
    }

    pub fn events_per_call(&self) -> f64 {
        self.events as f64 / self.calls.max(1) as f64
    }
}

/// Per-trial simulator counters summed over traced trials.
#[derive(Debug, Default, Clone, Copy)]
pub struct NetTotals {
    pub trials: u64,
    pub events: u64,
    pub packets: u64,
    pub timers: u64,
    pub drops: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
}

impl NetTotals {
    /// Adds one trial's final `Simulator::stats()`.
    pub fn add(&mut self, stats: &SimStats) {
        self.trials += 1;
        self.events += stats.events_dispatched;
        self.packets += stats.packets_sent;
        self.timers += stats.timers_fired;
        self.drops += stats.drops.total();
        self.pool_hits += stats.pool_hits;
        self.pool_misses += stats.pool_misses;
    }
}
