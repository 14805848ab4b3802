//! Deterministic merge + online aggregation: the coordinator's final pass.
//!
//! After every shard's checkpoint is complete, the coordinator streams the
//! shard files **in shard order** — which, with contiguous shard ranges,
//! is exactly global trial order — feeding each line to the campaign
//! digest and the per-field aggregators. Memory stays O(1) in the trial
//! count: one line buffer, five P² markers per quantile, a handful of
//! counters. The result is written as `summary.json` next to the shards.
//!
//! A supervised run that quarantined shards still merges — into a
//! **partial** summary (`complete: false`) whose coverage report says
//! exactly which shards contributed which fraction of their planned
//! records and why the rest are missing. Degrading to an explicit partial
//! result beats aborting: a million-trial campaign with one poisoned
//! shard is still 95+% of a dataset, and the coverage report is what
//! makes the gap auditable instead of silent.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use crate::checkpoint;
use crate::digest::Digest;
use crate::error::CampaignError;
use crate::record::decode_line;
use crate::registry::Scenario;
use crate::stats::Aggregate;

/// One shard's slice of the merged stream.
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: usize,
    /// Records the shard contributed.
    pub records: usize,
    /// Digest of the shard's own stream.
    pub digest: String,
}

/// One shard's line in the coverage report: how much of its planned range
/// made it into the merge, and why the rest is missing.
#[derive(Debug, Clone)]
pub struct ShardCoverage {
    /// Shard index.
    pub shard: usize,
    /// Records the plan assigned to this shard.
    pub planned: usize,
    /// Records actually merged from its checkpoint.
    pub records: usize,
    /// Whether the shard delivered its full planned range.
    pub complete: bool,
    /// Whether the supervisor quarantined the shard (retry budget spent).
    pub quarantined: bool,
    /// Worker spawns the shard consumed (0 for an unsupervised merge).
    pub attempts: usize,
    /// The quarantining failure, rendered — `None` for healthy shards.
    pub last_error: Option<String>,
}

/// A quarantined shard as the supervisor hands it to the merge: which
/// shard, how many attempts it burned, what finally killed it.
#[derive(Debug, Clone)]
pub struct QuarantinedShard {
    /// Shard index.
    pub shard: usize,
    /// Worker spawns consumed (first lease + retries).
    pub attempts: usize,
    /// The final failure, rendered.
    pub last_error: String,
}

/// The merged result of a campaign run.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Scenario name.
    pub scenario: &'static str,
    /// Scale label ("quick" / "paper" / "custom").
    pub scale_label: String,
    /// Master seed.
    pub master_seed: u64,
    /// Shard count.
    pub shards: usize,
    /// Total records merged.
    pub records: usize,
    /// Whether every shard delivered its planned range. A `false` here is
    /// a **partial** summary: consult [`Summary::coverage`].
    pub complete: bool,
    /// Digest of the merged stream — the campaign's identity. For a
    /// partial summary this digests only the merged prefix records and is
    /// *not* comparable to a complete run's digest.
    pub digest: String,
    /// Per-shard slices.
    pub shard_summaries: Vec<ShardSummary>,
    /// Per-shard coverage report (always present; all-complete for a
    /// healthy run).
    pub coverage: Vec<ShardCoverage>,
    /// Online per-field aggregates.
    pub aggregate: Aggregate,
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl Summary {
    /// Renders `summary.json` (validated well-formed by the test suite).
    /// Field order is stable; in particular `"digest"` precedes
    /// `"shard_digests"` and `"coverage"` — CI greps the first `"digest"`
    /// occurrence as the campaign identity.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\n  \"campaign\": \"{}\",\n  \"scale\": \"{}\",\n  \"master_seed\": {},\n  \
             \"shards\": {},\n  \"records\": {},\n  \"complete\": {},\n  \"digest\": \"{}\",\n  \
             \"shard_digests\": [",
            self.scenario,
            self.scale_label,
            self.master_seed,
            self.shards,
            self.records,
            self.complete,
            self.digest
        );
        for (i, s) in self.shard_summaries.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{ \"shard\": {}, \"records\": {}, \"digest\": \"{}\" }}",
                if i > 0 { "," } else { "" },
                s.shard,
                s.records,
                s.digest
            );
        }
        out.push_str("\n  ],\n  \"coverage\": [");
        for (i, c) in self.coverage.iter().enumerate() {
            let last = match &c.last_error {
                Some(e) => format!("\"{}\"", json_escape(e)),
                None => "null".into(),
            };
            let _ = write!(
                out,
                "{}\n    {{ \"shard\": {}, \"planned\": {}, \"records\": {}, \"complete\": {}, \
                 \"quarantined\": {}, \"attempts\": {}, \"last_error\": {} }}",
                if i > 0 { "," } else { "" },
                c.shard,
                c.planned,
                c.records,
                c.complete,
                c.quarantined,
                c.attempts,
                last
            );
        }
        // "explain" sits between "coverage" and "fields": after the
        // top-level "digest" (CI greps the first occurrence) and before
        // the per-field dump, so explain-only consumers can stop reading
        // early. Its fields are not repeated under "fields".
        out.push_str("\n  ],\n  \"explain\": ");
        out.push_str(&self.aggregate.render_explain_json("    "));
        out.push_str(",\n  \"fields\": ");
        out.push_str(&self.aggregate.render_json("    "));
        out.push_str("\n}\n");
        out
    }

    /// A short human-readable report for the CLI.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "campaign {}  scale={}  seed={}  shards={}\n  records: {}{}\n  digest:  {}\n",
            self.scenario,
            self.scale_label,
            self.master_seed,
            self.shards,
            self.records,
            if self.complete { String::new() } else { "  (PARTIAL)".into() },
            self.digest
        );
        for s in &self.shard_summaries {
            out.push_str(&format!(
                "  shard {:>2}: {:>7} records  {}\n",
                s.shard, s.records, s.digest
            ));
        }
        if !self.complete {
            out.push_str("  coverage:\n");
            for c in self.coverage.iter().filter(|c| !c.complete) {
                out.push_str(&format!(
                    "    shard {:>2}: {}/{} records{}{}\n",
                    c.shard,
                    c.records,
                    c.planned,
                    if c.quarantined {
                        format!("  QUARANTINED after {} attempts", c.attempts)
                    } else {
                        String::new()
                    },
                    match &c.last_error {
                        Some(e) => format!("  ({})", e.lines().next().unwrap_or_default()),
                        None => String::new(),
                    },
                ));
            }
        }
        out
    }
}

/// Streams the shard checkpoints in shard order through the digest and the
/// aggregators, verifies counts against the plan, and writes
/// `summary.json`. Every shard must be complete — this is the strict
/// merge the unsupervised executor uses.
///
/// # Errors
///
/// I/O failures, schema violations, or a shard whose record count does not
/// match its planned range (an incomplete campaign).
pub fn merge(
    scenario: &'static Scenario,
    scale_label: &str,
    master_seed: u64,
    dir: &Path,
    ranges: &[std::ops::Range<usize>],
) -> Result<Summary, CampaignError> {
    merge_with_quarantine(scenario, scale_label, master_seed, dir, ranges, &[])
}

/// The quarantine-aware merge the supervisor uses: shards listed in
/// `quarantined` may fall short of their planned range (their clean
/// checkpoint prefix — possibly empty — still merges); every other shard
/// must be complete. The summary is marked partial iff any shard fell
/// short, and the coverage report carries each quarantined shard's
/// attempt count and final failure.
///
/// # Errors
///
/// I/O failures, schema violations, or a *non-quarantined* shard short of
/// its planned range.
pub fn merge_with_quarantine(
    scenario: &'static Scenario,
    scale_label: &str,
    master_seed: u64,
    dir: &Path,
    ranges: &[std::ops::Range<usize>],
    quarantined: &[QuarantinedShard],
) -> Result<Summary, CampaignError> {
    let mut total_digest = Digest::new();
    let mut aggregate = Aggregate::new(scenario.schema);
    let mut shard_summaries = Vec::with_capacity(ranges.len());
    let mut coverage = Vec::with_capacity(ranges.len());
    let mut records = 0usize;
    let mut complete = true;
    for (k, range) in ranges.iter().enumerate() {
        let path = checkpoint::shard_path(dir, k);
        let planned = range.end - range.start;
        let quarantine = quarantined.iter().find(|q| q.shard == k);
        let mut shard_digest = Digest::new();
        let mut count = 0usize;
        if planned > 0 && path.exists() {
            let file = File::open(&path)
                .map_err(|e| CampaignError::io(format!("open {}", path.display()), e))?;
            let mut reader = BufReader::new(file);
            let mut line = String::new();
            loop {
                line.clear();
                let n = reader
                    .read_line(&mut line)
                    .map_err(|e| CampaignError::io(format!("read {}", path.display()), e))?;
                if n == 0 {
                    break;
                }
                let body = line.strip_suffix('\n').ok_or_else(|| CampaignError::Schema {
                    path: path.clone(),
                    record: count + 1,
                    detail: "torn final line (recover before merging)".into(),
                })?;
                let record = decode_line(scenario.schema, body).map_err(|e| {
                    CampaignError::Schema { path: path.clone(), record: count + 1, detail: e }
                })?;
                total_digest.update_line(body);
                shard_digest.update_line(body);
                aggregate.push(&record);
                count += 1;
            }
        }
        if count != planned && quarantine.is_none() {
            return Err(CampaignError::IncompleteShard { shard: k, have: count, planned });
        }
        let shard_complete = count == planned;
        complete &= shard_complete;
        records += count;
        shard_summaries.push(ShardSummary { shard: k, records: count, digest: shard_digest.hex() });
        coverage.push(ShardCoverage {
            shard: k,
            planned,
            records: count,
            complete: shard_complete,
            quarantined: quarantine.is_some(),
            attempts: quarantine.map_or(0, |q| q.attempts),
            last_error: quarantine.map(|q| q.last_error.clone()),
        });
    }
    let summary = Summary {
        scenario: scenario.name,
        scale_label: scale_label.to_owned(),
        master_seed,
        shards: ranges.len(),
        records,
        complete,
        digest: total_digest.hex(),
        shard_summaries,
        coverage,
        aggregate,
    };
    std::fs::write(checkpoint::summary_path(dir), summary.render_json())
        .map_err(|e| CampaignError::io("write summary.json", e))?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_control_and_quote_chars() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
