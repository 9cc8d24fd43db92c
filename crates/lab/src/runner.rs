//! Trial execution: the plan, run in order, every outcome recorded.
//!
//! Each trial builds its graph from the family registry, runs the declared
//! algorithm via [`crate::algorithms`], and lands as one [`TrialRow`] —
//! wall and routing time, logical/physical round counts, message and
//! fragment totals, fault casualties, per-round wall percentiles, output
//! and traffic fingerprints, and the validity verdict. A panicking trial
//! (a violated precondition under chaos, an unknown algorithm) is
//! caught and recorded as an errored row rather than killing the run: in a
//! chaos suite, "this configuration dies" is a measurement.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use graphs::Graph;

use crate::algorithms;
use crate::json::Value;
use crate::plan::{expand, TrialSpec};
use crate::schema::{congest_label, Suite};
use crate::stats::summarize;

/// One executed trial, flattened for the `trials.jsonl` artifact.
#[derive(Clone, Debug)]
pub struct TrialRow {
    /// The spec this row executed (carries id, axes, params).
    pub spec: TrialSpec,
    /// Generated graph order (families normalize the requested `n`).
    pub graph_n: usize,
    /// Generated graph size (edges).
    pub graph_m: usize,
    /// Wall-clock of the algorithm call, milliseconds (see
    /// [`algorithms::TrialOutput::wall_ms`]); a trial that died records its
    /// whole elapsed time.
    pub wall_ms: f64,
    /// Routing-phase wall, milliseconds (engine trials; 0 sequential).
    pub route_ms: f64,
    /// Logical LOCAL rounds from the ledger.
    pub ledger_rounds: u64,
    /// Engine-observed rounds (0 for sequential trials).
    pub engine_rounds: u64,
    /// Physical rounds: logical plus the CONGEST split surplus.
    pub physical_rounds: u64,
    /// The split surplus alone (`SPLIT_PHASE` ledger charge).
    pub split_surplus: u64,
    /// Point-to-point messages emitted.
    pub messages: usize,
    /// CONGEST fragments delivered.
    pub fragments: usize,
    /// Messages discarded by seeded loss.
    pub lost: usize,
    /// Messages discarded by drop faults.
    pub dropped: usize,
    /// Extra deliveries from seeded duplication.
    pub duplicated: usize,
    /// Messages rescheduled by delay faults.
    pub delayed: usize,
    /// Widest message observed, in words, the init round included: the
    /// run is CONGEST-safe at any width at least this.
    pub max_width: usize,
    /// Per-round wall percentiles, milliseconds (0 when no rounds).
    pub round_p50_ms: f64,
    /// 95th-percentile round wall.
    pub round_p95_ms: f64,
    /// 99th-percentile round wall.
    pub round_p99_ms: f64,
    /// FNV-1a fingerprint of the canonical output.
    pub output_hash: u64,
    /// FNV-1a fingerprint of the per-round message counts (0 sequential).
    pub traffic_hash: u64,
    /// Distinct colors used (coloring algorithms).
    pub colors_used: Option<usize>,
    /// Validity verdict (false when errored).
    pub valid: bool,
    /// Why the output was judged invalid (validity failures).
    pub invalid_reason: Option<String>,
    /// The panic message, when the trial died.
    pub error: Option<String>,
}

impl TrialRow {
    /// The row as JSON (sorted keys). Hashes render as fixed-width hex
    /// strings: they are identities, not quantities, and JSON numbers
    /// cannot carry 64 bits exactly.
    pub fn to_json(&self) -> Value {
        let opt_str = |s: &Option<String>| match s {
            Some(s) => Value::str(s),
            None => Value::Null,
        };
        Value::Obj(vec![
            ("algorithm".into(), Value::str(&self.spec.algorithm)),
            (
                "colors_used".into(),
                match self.colors_used {
                    Some(c) => Value::int(c as u64),
                    None => Value::Null,
                },
            ),
            (
                "congest".into(),
                Value::str(congest_label(self.spec.congest)),
            ),
            ("delayed".into(), Value::int(self.delayed as u64)),
            ("dropped".into(), Value::int(self.dropped as u64)),
            ("duplicated".into(), Value::int(self.duplicated as u64)),
            ("engine_rounds".into(), Value::int(self.engine_rounds)),
            ("error".into(), opt_str(&self.error)),
            ("family".into(), Value::str(&self.spec.family)),
            ("faults".into(), Value::str(self.spec.faults.label())),
            ("fragments".into(), Value::int(self.fragments as u64)),
            ("graph_m".into(), Value::int(self.graph_m as u64)),
            ("graph_n".into(), Value::int(self.graph_n as u64)),
            ("id".into(), Value::int(self.spec.id as u64)),
            ("invalid_reason".into(), opt_str(&self.invalid_reason)),
            ("ledger_rounds".into(), Value::int(self.ledger_rounds)),
            ("lost".into(), Value::int(self.lost as u64)),
            ("max_width".into(), Value::int(self.max_width as u64)),
            ("messages".into(), Value::int(self.messages as u64)),
            ("n".into(), Value::int(self.spec.n as u64)),
            (
                "output_hash".into(),
                Value::str(format!("{:016x}", self.output_hash)),
            ),
            ("physical_rounds".into(), Value::int(self.physical_rounds)),
            ("rep".into(), Value::int(self.spec.rep as u64)),
            ("round_p50_ms".into(), Value::num(self.round_p50_ms)),
            ("round_p95_ms".into(), Value::num(self.round_p95_ms)),
            ("round_p99_ms".into(), Value::num(self.round_p99_ms)),
            ("route_ms".into(), Value::num(self.route_ms)),
            ("scenario".into(), Value::str(&self.spec.scenario)),
            ("seed".into(), Value::int(self.spec.seed)),
            ("shards".into(), Value::int(self.spec.shards as u64)),
            ("split_surplus".into(), Value::int(self.split_surplus)),
            (
                "traffic_hash".into(),
                Value::str(format!("{:016x}", self.traffic_hash)),
            ),
            ("valid".into(), Value::Bool(self.valid)),
            ("wall_ms".into(), Value::num(self.wall_ms)),
            ("workers".into(), Value::str(self.spec.workers.label())),
        ])
    }
}

/// A whole executed suite: the plan and every row, in plan order.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Suite name.
    pub suite: String,
    /// The expanded plan.
    pub plan: Vec<TrialSpec>,
    /// One row per plan entry, same order.
    pub rows: Vec<TrialRow>,
}

impl RunOutcome {
    /// Rows that died or were judged invalid.
    pub fn failed_rows(&self) -> Vec<&TrialRow> {
        self.rows.iter().filter(|r| !r.valid).collect()
    }
}

/// Expands and executes a suite, calling `progress` after every trial.
///
/// # Errors
///
/// Plan-expansion errors only; trial failures land in the rows.
pub fn run_suite(
    suite: &Suite,
    mut progress: impl FnMut(&TrialRow, usize),
) -> Result<RunOutcome, String> {
    let plan = expand(suite)?;
    let total = plan.len();
    let mut graphs_cache: BTreeMap<(String, usize, u64), Graph> = BTreeMap::new();
    let mut rows = Vec::with_capacity(total);
    for spec in &plan {
        let key = (spec.family.clone(), spec.n, spec.seed);
        let g = graphs_cache.entry(key).or_insert_with(|| {
            graphs::gen::build_family(&spec.family, spec.n, spec.seed)
                .expect("plan admits registered families only")
        });
        let row = run_trial(spec, g);
        progress(&row, total);
        rows.push(row);
    }
    Ok(RunOutcome {
        suite: suite.name.clone(),
        plan,
        rows,
    })
}

/// Executes one trial on a pre-built graph.
pub fn run_trial(spec: &TrialSpec, g: &Graph) -> TrialRow {
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| algorithms::run(spec, g)));
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut row = TrialRow {
        spec: spec.clone(),
        graph_n: g.n(),
        graph_m: g.edges().count(),
        wall_ms,
        route_ms: 0.0,
        ledger_rounds: 0,
        engine_rounds: 0,
        physical_rounds: 0,
        split_surplus: 0,
        messages: 0,
        fragments: 0,
        lost: 0,
        dropped: 0,
        duplicated: 0,
        delayed: 0,
        max_width: 0,
        round_p50_ms: 0.0,
        round_p95_ms: 0.0,
        round_p99_ms: 0.0,
        output_hash: 0,
        traffic_hash: 0,
        colors_used: None,
        valid: false,
        invalid_reason: None,
        error: None,
    };
    match outcome {
        Err(panic) => {
            row.error = Some(panic_message(panic.as_ref()));
        }
        Ok(out) => {
            row.wall_ms = out.wall_ms;
            row.output_hash = out.output_hash;
            row.ledger_rounds = out.ledger_rounds;
            row.split_surplus = out.split_surplus;
            // The ledger total already includes the SPLIT_PHASE surplus,
            // so it *is* the physical view; engine metrics refine this
            // below for engine trials.
            row.physical_rounds = out.ledger_rounds;
            row.valid = out.valid;
            row.invalid_reason = out.invalid_reason;
            row.colors_used = out.colors_used;
            if let Some(m) = &out.metrics {
                row.route_ms = m.total_route_wall().as_secs_f64() * 1e3;
                row.engine_rounds = m.total_rounds();
                row.physical_rounds = m.total_physical_rounds();
                row.messages = m.total_messages();
                row.fragments = m.total_fragments();
                row.lost = m.total_lost();
                row.dropped = m.total_dropped();
                row.duplicated = m.total_duplicated();
                row.delayed = m.total_delayed();
                row.max_width = m.max_width();
                let walls: Vec<f64> = m
                    .per_round()
                    .iter()
                    .map(|r| r.wall.as_secs_f64() * 1e3)
                    .collect();
                if let Some(p) = summarize(&walls) {
                    row.round_p50_ms = p.p50;
                    row.round_p95_ms = p.p95;
                    row.round_p99_ms = p.p99;
                }
                row.traffic_hash = hash_counts(&m.message_counts());
            }
        }
    }
    row
}

/// FNV-1a over the per-round message counts — the traffic fingerprint the
/// determinism check compares across shard/worker configurations.
fn hash_counts(counts: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in counts {
        for byte in (c as u64).to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Suite;

    #[test]
    fn smoke_suite_runs_and_rows_align_with_plan() {
        let suite = Suite::from_json(
            r#"{"name": "t", "scenarios": [{
                "name": "s", "family": "grid", "n": 36, "algorithm": "gather",
                "shards": [0, 1, 2], "congest": ["unlimited", "split:2"], "reps": 2
            }]}"#,
        )
        .unwrap();
        let mut seen = 0;
        let run = run_suite(&suite, |_, total| {
            seen += 1;
            assert_eq!(total, 10);
        })
        .unwrap();
        assert_eq!(seen, 10);
        assert_eq!(run.rows.len(), run.plan.len());
        assert!(
            run.rows.iter().all(|r| r.valid),
            "clean gather trials all pass"
        );
        assert!(run.failed_rows().is_empty());
        // Reps replay bit-identically; engine rows match the baseline.
        let h0 = run.rows[0].output_hash;
        assert!(run.rows.iter().all(|r| r.output_hash == h0));
        // Engine rows observed traffic; the sequential baseline none.
        let seq = &run.rows[0];
        assert_eq!(seq.spec.shards, 0);
        assert_eq!(seq.messages, 0);
        assert!(run
            .rows
            .iter()
            .filter(|r| r.spec.shards > 0)
            .all(|r| r.messages > 0));
        // Split rows carry surplus and physical > logical.
        let split = run
            .rows
            .iter()
            .find(|r| r.spec.congest.split_width().is_some())
            .unwrap();
        assert!(split.split_surplus > 0);
        assert_eq!(
            split.physical_rounds,
            split.engine_rounds + split.split_surplus
        );
    }

    #[test]
    fn a_dying_trial_is_recorded_not_fatal() {
        // Plan expansion rejects this name, so only a hand-built spec
        // reaches `algorithms::run` with it, which panics — the row must
        // record the panic.
        let suite = Suite::from_json(
            r#"{"name": "t", "scenarios": [{
                "name": "s", "family": "grid", "n": 36, "algorithm": "gather",
                "shards": 1
            }]}"#,
        )
        .unwrap();
        let mut spec = expand(&suite).unwrap().remove(0);
        spec.algorithm = "no-such-algorithm".into();
        let g = graphs::gen::build_family(&spec.family, spec.n, spec.seed).unwrap();
        let row = run_trial(&spec, &g);
        assert!(!row.valid);
        let error = row.error.expect("the panic is recorded");
        assert!(error.contains("unknown algorithm"), "{error}");
    }

    #[test]
    fn rows_render_with_sorted_keys() {
        let suite = Suite::from_json(
            r#"{"name": "t", "scenarios": [{
                "name": "s", "family": "path", "n": 8, "algorithm": "cole-vishkin",
                "shards": 1
            }]}"#,
        )
        .unwrap();
        let run = run_suite(&suite, |_, _| {}).unwrap();
        let rendered = run.rows[0].to_json().render();
        let keys: Vec<&str> = rendered
            .match_indices('"')
            .map(|(i, _)| i)
            .collect::<Vec<_>>()
            .chunks(2)
            .filter_map(|c| rendered.get(c[0] + 1..c[1]))
            .collect();
        // Spot-check ordering of a few fields.
        let pos = |k: &str| keys.iter().position(|&x| x == k);
        assert!(pos("algorithm") < pos("congest"));
        assert!(pos("round_p50_ms") < pos("round_p95_ms"));
        let reparsed = crate::json::parse(&rendered).unwrap();
        assert_eq!(
            reparsed.get("valid").and_then(crate::json::Value::as_bool),
            Some(true)
        );
    }
}
