//! Batch campaign service: many characterize / estimate runs through
//! one process, one worker pool, and one shared frame cache.
//!
//! A *campaign* is one named unit of work over one trace (what a single
//! CLI invocation would do). A *batch* is a manifest of campaigns run
//! concurrently: each campaign becomes one work item on the
//! `megsim-exec` pool, so campaigns overlap each other while each
//! campaign's own nested parallel passes run inline on its worker (the
//! pool never oversubscribes). Campaigns over overlapping traces
//! share frame results three ways through the batch's one
//! [`FrameCache`] — the in-memory cache, the optional disk store, and
//! the in-flight single-flight map that collapses *concurrent*
//! identical frames into one simulation.
//!
//! This module is deliberately ignorant of trace files: a campaign's
//! body is a caller-supplied closure (the CLI wires in the `megsim-gl`
//! streaming replay), and this module contributes what the closure
//! cannot see — scheduling, wall-clock accounting, and per-campaign
//! cache-tier attribution: each campaign looks frames up through its
//! own [`FrameCache::scope`], whose counts are its row.

use std::time::Instant;

use parking_lot::Mutex;

use crate::frame_cache::{FrameCache, TierCounts};

/// What a batch campaign runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOp {
    /// Functional characterization: feature matrix only.
    Characterize,
    /// Full MEGsim estimation: characterize, select, simulate
    /// representatives.
    Estimate,
}

impl BatchOp {
    fn parse(token: &str) -> Option<BatchOp> {
        match token {
            "characterize" => Some(BatchOp::Characterize),
            "estimate" => Some(BatchOp::Estimate),
            _ => None,
        }
    }

    /// The manifest keyword for this op.
    pub fn keyword(&self) -> &'static str {
        match self {
            BatchOp::Characterize => "characterize",
            BatchOp::Estimate => "estimate",
        }
    }
}

/// One campaign from a batch manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchJob {
    /// Unique campaign name (labels the report row and output files).
    pub name: String,
    /// What to run.
    pub op: BatchOp,
    /// Trace path, opaque to this module.
    pub trace: String,
    /// Clustering seed (`seed=N`, default 42).
    pub seed: u64,
    /// Output file for the campaign's CSV, if any (`out=PATH`).
    pub out: Option<String>,
    /// Whether `estimate` also runs the full ground truth
    /// (`ground-truth`).
    pub ground_truth: bool,
}

/// Parses a batch manifest.
///
/// One campaign per line:
///
/// ```text
/// # comment
/// <name> <characterize|estimate> <trace> [seed=N] [out=PATH] [ground-truth]
/// ```
///
/// Blank lines and `#` comments are skipped. Campaign names must be
/// unique — they key the report and any output files. Each option may
/// appear once per line; `seed=` and `ground-truth` apply only to
/// `estimate`; and no two campaigns may share an `out=` path, because
/// they run concurrently and one would overwrite the other.
pub fn parse_manifest(text: &str) -> Result<Vec<BatchJob>, String> {
    let mut jobs: Vec<BatchJob> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = |msg: String| format!("manifest line {}: {msg}", lineno + 1);
        let mut tokens = line.split_whitespace();
        let name = tokens.next().expect("non-empty line").to_string();
        let op_token = tokens
            .next()
            .ok_or_else(|| at("expected 'characterize' or 'estimate' after the name".into()))?;
        let op = BatchOp::parse(op_token).ok_or_else(|| {
            at(format!(
                "expected 'characterize' or 'estimate' after the name, got '{op_token}'"
            ))
        })?;
        let trace = tokens
            .next()
            .ok_or_else(|| at("expected a trace path".into()))?
            .to_string();
        let mut job = BatchJob {
            name,
            op,
            trace,
            seed: 42,
            out: None,
            ground_truth: false,
        };
        let mut seen: Vec<&str> = Vec::new();
        for token in tokens {
            let option = if let Some(seed) = token.strip_prefix("seed=") {
                job.seed = seed
                    .parse()
                    .map_err(|_| at(format!("invalid seed '{seed}'")))?;
                "seed"
            } else if let Some(path) = token.strip_prefix("out=") {
                job.out = Some(path.to_string());
                "out"
            } else if token == "ground-truth" {
                job.ground_truth = true;
                "ground-truth"
            } else {
                return Err(at(format!("unknown token '{token}'")));
            };
            if seen.contains(&option) {
                return Err(at(format!("repeated option '{token}'")));
            }
            if job.op == BatchOp::Characterize && option != "out" {
                return Err(at(format!(
                    "'{token}' does not apply to a characterize campaign"
                )));
            }
            seen.push(option);
        }
        if jobs.iter().any(|j| j.name == job.name) {
            return Err(at(format!("duplicate campaign name '{}'", job.name)));
        }
        if let Some(out) = &job.out {
            if let Some(other) = jobs.iter().find(|j| j.out.as_ref() == Some(out)) {
                return Err(at(format!(
                    "'out={out}' is already the output of campaign '{}'",
                    other.name
                )));
            }
        }
        jobs.push(job);
    }
    Ok(jobs)
}

/// One campaign's outcome within a [`BatchReport`].
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The campaign name from the manifest.
    pub name: String,
    /// One summary line on success, the error message on failure.
    pub outcome: Result<String, String>,
    /// Wall-clock seconds the campaign took on its worker.
    pub seconds: f64,
    /// Cache tiers serving this campaign's lookups. A single-flight
    /// leader's compute is attributed to the leading campaign; each
    /// waiting campaign counts one `shared`.
    pub tiers: TierCounts,
}

/// The whole batch's outcome.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-campaign rows, in manifest order.
    pub campaigns: Vec<CampaignReport>,
    /// Wall-clock seconds for the whole batch.
    pub seconds: f64,
}

impl BatchReport {
    /// Tier counts summed over every campaign.
    pub fn totals(&self) -> TierCounts {
        let mut totals = TierCounts::ZERO;
        for c in &self.campaigns {
            totals.merge(&c.tiers);
        }
        totals
    }

    /// How many campaigns failed.
    pub fn failures(&self) -> usize {
        self.campaigns.iter().filter(|c| c.outcome.is_err()).count()
    }

    /// The in-flight dedup factor: frame results demanded (computed or
    /// shared) per result actually computed. `1.0` means no two
    /// campaigns ever raced the same frame; `2.0` means every computed
    /// frame served a second campaign for free.
    pub fn dedup_factor(&self) -> f64 {
        let t = self.totals();
        let computed = t.activity_computed + t.stats_computed;
        let shared = t.activity_shared + t.stats_shared;
        if computed == 0 {
            1.0
        } else {
            (computed + shared) as f64 / computed as f64
        }
    }

    /// A human-readable per-campaign table plus batch totals.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>9} {:>6} {:>6} {:>7} {:>9} {:>7}  status",
            "campaign", "seconds", "lookups", "mem", "disk", "shared", "computed", "hit%"
        );
        for c in &self.campaigns {
            let t = &c.tiers;
            let _ = writeln!(
                out,
                "{:<20} {:>8.2} {:>9} {:>6} {:>6} {:>7} {:>9} {:>6.1}%  {}",
                c.name,
                c.seconds,
                t.lookups(),
                t.activity_memory + t.stats_memory,
                t.activity_disk + t.stats_disk,
                t.activity_shared + t.stats_shared,
                t.activity_computed + t.stats_computed,
                t.hit_rate() * 100.0,
                match &c.outcome {
                    Ok(s) => s.as_str(),
                    Err(e) => e.as_str(),
                },
            );
        }
        let totals = self.totals();
        let _ = writeln!(
            out,
            "batch: {} campaigns ({} failed) in {:.2}s, {} lookups, {}, dedup {:.2}x",
            self.campaigns.len(),
            self.failures(),
            self.seconds,
            totals.lookups(),
            totals.summary(),
            self.dedup_factor(),
        );
        out
    }
}

/// Runs every job concurrently on the worker pool and collects a
/// [`BatchReport`] in manifest order.
///
/// `run_job` executes one campaign body and returns its summary line;
/// errors are captured per campaign (one bad trace fails its row, not
/// the batch). With a `cache`, each campaign gets its own
/// [`FrameCache::scope`] of it: the scope's counts are the campaign's
/// row, and they roll up into `cache`, so the rows sum to the batch's
/// counts. Without one, every row counts zero.
pub fn run_batch<F>(jobs: &[BatchJob], cache: Option<&FrameCache>, run_job: F) -> BatchReport
where
    F: Fn(&BatchJob, Option<&FrameCache>) -> Result<String, String> + Sync,
{
    let start = Instant::now();
    let rows: Mutex<Vec<(usize, CampaignReport)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    megsim_exec::par_for_each_task((0..jobs.len()).collect(), |i| {
        let job = &jobs[i];
        let scope = cache.map(FrameCache::scope);
        let t0 = Instant::now();
        let outcome = run_job(job, scope.as_ref());
        let report = CampaignReport {
            name: job.name.clone(),
            outcome,
            seconds: t0.elapsed().as_secs_f64(),
            tiers: scope.map_or(TierCounts::ZERO, |s| s.counts()),
        };
        rows.lock().push((i, report));
    });
    let mut rows = rows.into_inner();
    rows.sort_by_key(|(i, _)| *i);
    BatchReport {
        campaigns: rows.into_iter().map(|(_, c)| c).collect(),
        seconds: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megsim_gfx::draw::Frame;
    use megsim_timing::FrameStats;

    #[test]
    fn manifest_parses_fields_and_defaults() {
        let jobs = parse_manifest(
            "# campaigns\n\
             \n\
             warm characterize a.mglt\n\
             full estimate b.mglt seed=7 out=b.csv ground-truth\n",
        )
        .expect("valid manifest");
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].name, "warm");
        assert_eq!(jobs[0].op, BatchOp::Characterize);
        assert_eq!(jobs[0].seed, 42);
        assert!(!jobs[0].ground_truth);
        assert_eq!(jobs[1].op, BatchOp::Estimate);
        assert_eq!(jobs[1].seed, 7);
        assert_eq!(jobs[1].out.as_deref(), Some("b.csv"));
        assert!(jobs[1].ground_truth);
    }

    #[test]
    fn manifest_rejects_bad_lines() {
        for (bad, needle) in [
            ("x frobnicate a.mglt", "characterize"),
            ("x estimate", "trace path"),
            ("x estimate a.mglt seed=abc", "invalid seed"),
            ("x estimate a.mglt wat", "unknown token"),
            ("x estimate a.mglt\nx characterize b.mglt", "duplicate"),
        ] {
            let err = parse_manifest(bad).expect_err(bad);
            assert!(err.contains(needle), "{bad}: {err}");
            assert!(err.contains("line"), "{bad}: {err}");
        }
    }

    #[test]
    fn manifest_errors_name_the_line_and_the_offending_token() {
        // The ISSUE 9 satellite: a malformed entry must surface *which*
        // line and *which* token broke, not an opaque failure.
        let err = parse_manifest(
            "# header comment\n\
             good characterize a.mglt\n\
             \n\
             bad frobnicate b.mglt\n",
        )
        .expect_err("bad op must fail");
        assert!(err.contains("manifest line 4"), "wrong line: {err}");
        assert!(err.contains("'frobnicate'"), "token not named: {err}");

        let err = parse_manifest("solo estimate t.mglt typo=1").expect_err("unknown token");
        assert!(err.contains("manifest line 1"), "{err}");
        assert!(err.contains("'typo=1'"), "{err}");

        let err = parse_manifest("solo estimate t.mglt seed=xyz").expect_err("bad seed");
        assert!(err.contains("manifest line 1"), "{err}");
        assert!(err.contains("'xyz'"), "{err}");
    }

    #[test]
    fn manifest_rejects_repeated_options() {
        for (bad, token) in [
            ("x estimate a.mglt seed=1 seed=2", "'seed=2'"),
            (
                "x estimate a.mglt out=a.csv ground-truth out=b.csv",
                "'out=b.csv'",
            ),
            (
                "x estimate a.mglt ground-truth ground-truth",
                "'ground-truth'",
            ),
        ] {
            let err = parse_manifest(bad).expect_err(bad);
            assert!(err.contains("manifest line 1"), "{bad}: {err}");
            assert!(err.contains("repeated option"), "{bad}: {err}");
            assert!(err.contains(token), "{bad}: {err}");
        }
    }

    #[test]
    fn manifest_rejects_estimate_options_on_characterize() {
        for (bad, token) in [
            (
                "ok estimate a.mglt
x characterize a.mglt seed=3",
                "'seed=3'",
            ),
            (
                "ok estimate a.mglt
x characterize a.mglt out=f.csv ground-truth",
                "'ground-truth'",
            ),
        ] {
            let err = parse_manifest(bad).expect_err(bad);
            assert!(err.contains("manifest line 2"), "{bad}: {err}");
            assert!(err.contains(token), "{bad}: {err}");
            assert!(err.contains("characterize"), "{bad}: {err}");
        }
        let jobs = parse_manifest("x characterize a.mglt out=f.csv").expect("out= applies");
        assert_eq!(jobs[0].out.as_deref(), Some("f.csv"));
    }

    #[test]
    fn manifest_rejects_a_shared_output_path() {
        let err = parse_manifest(
            "a characterize t.mglt out=same.csv
             b estimate t.mglt out=other.csv
             c estimate u.mglt seed=3 out=same.csv
",
        )
        .expect_err("two campaigns writing one file");
        assert!(err.contains("manifest line 3"), "{err}");
        assert!(err.contains("'out=same.csv'"), "{err}");
        assert!(err.contains("'a'"), "{err}");
    }

    #[test]
    fn batch_reports_in_manifest_order_and_captures_failures() {
        let jobs: Vec<BatchJob> = (0..6)
            .map(|i| BatchJob {
                name: format!("c{i}"),
                op: BatchOp::Characterize,
                trace: "unused".into(),
                seed: 42,
                out: None,
                ground_truth: false,
            })
            .collect();
        let report = run_batch(&jobs, None, |job, _| {
            if job.name == "c3" {
                Err("boom".into())
            } else {
                Ok(format!("done {}", job.name))
            }
        });
        let names: Vec<&str> = report.campaigns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["c0", "c1", "c2", "c3", "c4", "c5"]);
        assert_eq!(report.failures(), 1);
        assert!(report.campaigns[3].outcome.is_err());
        assert!(report.table().contains("boom"));
        assert_eq!(report.dedup_factor(), 1.0);
    }

    #[test]
    fn campaigns_sharing_frames_are_attributed_tiers() {
        // A synthetic "campaign" that looks up the same frame under the
        // same config fingerprint: whichever campaign gets there first
        // computes; the rest hit memory or share the in-flight result.
        let cache = FrameCache::new();
        let jobs: Vec<BatchJob> = (0..4)
            .map(|i| BatchJob {
                name: format!("c{i}"),
                op: BatchOp::Estimate,
                trace: "unused".into(),
                seed: 42,
                out: None,
                ground_truth: false,
            })
            .collect();
        let report = run_batch(&jobs, Some(&cache), |_, scope| {
            let scope = scope.expect("a batch cache gives every campaign a scope");
            let stats = scope.stats_or_else(1, &Frame::new(), || FrameStats {
                cycles: 1234,
                ..FrameStats::default()
            });
            assert_eq!(stats.cycles, 1234);
            Ok("ok".into())
        });
        for c in &report.campaigns {
            assert_eq!(c.tiers.lookups(), 1, "{}", report.table());
        }
        let totals = report.totals();
        assert_eq!(totals, cache.counts(), "{}", report.table());
        assert_eq!(totals.lookups(), 4, "{}", report.table());
        let computed = totals.stats_computed;
        assert!(computed >= 1, "{}", report.table());
        assert_eq!(
            computed + totals.stats_memory + totals.stats_shared,
            4,
            "{}",
            report.table()
        );
    }
}
