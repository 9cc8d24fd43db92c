//! Declared invariants, evaluated over a run's rows.
//!
//! The checks are data in the suite file; this module is the only code
//! that knows what they mean. Each check reduces to a [`CheckOutcome`]:
//! pass/fail plus a violation list naming the offending rows — what the
//! `lab` binary prints and what decides its exit code, and what the
//! determinism gate reuses instead of hand-rolled comparison loops.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::plan::TrialSpec;
use crate::report::timed_reps;
use crate::runner::{RunOutcome, TrialRow};
use crate::schema::{BudgetMetric, Check, CongestSpec, Suite};

/// The verdict of one declared check.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// The check's label (see [`Check::label`]).
    pub check: String,
    /// Whether it held over every row it applies to.
    pub passed: bool,
    /// One line per violation.
    pub violations: Vec<String>,
}

impl CheckOutcome {
    fn new(check: &Check, violations: Vec<String>) -> Self {
        CheckOutcome {
            check: check.label(),
            passed: violations.is_empty(),
            violations,
        }
    }

    /// The outcome as JSON (sorted keys).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("check".into(), Value::str(&self.check)),
            ("passed".into(), Value::Bool(self.passed)),
            (
                "violations".into(),
                Value::Arr(self.violations.iter().map(Value::str).collect()),
            ),
        ])
    }
}

/// Evaluates every declared check. Order follows the suite.
pub fn evaluate(suite: &Suite, run: &RunOutcome) -> Vec<CheckOutcome> {
    suite
        .checks
        .iter()
        .map(|check| match check {
            Check::Determinism => CheckOutcome::new(check, check_determinism(run)),
            Check::SplitReconciliation => CheckOutcome::new(check, check_split(run)),
            Check::ValidOutputs => CheckOutcome::new(check, check_valid(run)),
            Check::Budget { metric, max } => {
                CheckOutcome::new(check, check_budget(run, *metric, *max))
            }
        })
        .collect()
}

fn group_by_config(run: &RunOutcome) -> BTreeMap<String, Vec<&TrialRow>> {
    let mut groups: BTreeMap<String, Vec<&TrialRow>> = BTreeMap::new();
    for row in &run.rows {
        groups.entry(row.spec.config_key()).or_default().push(row);
    }
    groups
}

/// Rows sharing a configuration key — same computation, different
/// shards/workers/rep — must agree bit for bit.
fn check_determinism(run: &RunOutcome) -> Vec<String> {
    let mut violations = Vec::new();
    for (key, rows) in group_by_config(run) {
        let errored = rows.iter().filter(|r| r.error.is_some()).count();
        if errored > 0 {
            // A configuration may die (chaos does that), but it must die
            // in every replay, not depending on the shard count.
            if errored < rows.len() {
                violations.push(format!(
                    "{key}: {errored}/{} replays died — failure depends on a perf knob",
                    rows.len()
                ));
            }
            continue;
        }
        let engine: Vec<&&TrialRow> = rows.iter().filter(|r| r.spec.shards > 0).collect();
        if let Some(first) = engine.first() {
            for row in &engine[1..] {
                let mut diff = |what: &str, a: String, b: String| {
                    if a != b {
                        violations.push(format!(
                            "{key}: trial {} {what} {b} != trial {} {what} {a} \
                             (shards {}/{} workers {}/{})",
                            row.spec.id,
                            first.spec.id,
                            row.spec.shards,
                            first.spec.shards,
                            row.spec.workers.label(),
                            first.spec.workers.label(),
                        ));
                    }
                };
                diff(
                    "output",
                    format!("{:016x}", first.output_hash),
                    format!("{:016x}", row.output_hash),
                );
                diff(
                    "traffic",
                    format!("{:016x}", first.traffic_hash),
                    format!("{:016x}", row.traffic_hash),
                );
                diff(
                    "ledger",
                    first.ledger_rounds.to_string(),
                    row.ledger_rounds.to_string(),
                );
                diff(
                    "physical rounds",
                    first.physical_rounds.to_string(),
                    row.physical_rounds.to_string(),
                );
                diff(
                    "fragments",
                    first.fragments.to_string(),
                    row.fragments.to_string(),
                );
            }
            // The sequential baseline anchors the engine rows: the engine
            // must *replay* the simulation, not merely agree with itself.
            if let Some(seq) = rows.iter().find(|r| r.spec.shards == 0) {
                if seq.output_hash != first.output_hash {
                    violations.push(format!(
                        "{key}: engine output {:016x} departs from the sequential \
                         baseline {:016x}",
                        first.output_hash, seq.output_hash
                    ));
                }
                if seq.ledger_rounds != first.ledger_rounds {
                    violations.push(format!(
                        "{key}: engine ledger {} != sequential ledger {}",
                        first.ledger_rounds, seq.ledger_rounds
                    ));
                }
            }
        }
        // Reps of the sequential baseline must also agree among themselves.
        let seq: Vec<&&TrialRow> = rows.iter().filter(|r| r.spec.shards == 0).collect();
        if let Some(first) = seq.first() {
            for row in &seq[1..] {
                if row.output_hash != first.output_hash {
                    violations.push(format!(
                        "{key}: sequential reps disagree ({:016x} vs {:016x})",
                        row.output_hash, first.output_hash
                    ));
                }
            }
        }
    }
    violations
}

/// Every split row must reconcile with an unlimited twin: identical
/// output, `ledger − surplus == unlimited ledger`, `physical == engine
/// rounds + surplus`.
fn check_split(run: &RunOutcome) -> Vec<String> {
    let groups = group_by_config(run);
    let mut violations = Vec::new();
    let mut seen_pair = false;
    for row in &run.rows {
        if row.spec.congest.split_width().is_none() || row.error.is_some() {
            continue;
        }
        let Some(twin) = groups
            .get(&row.spec.unlimited_key())
            .and_then(|rows| rows.iter().find(|t| t.error.is_none()))
        else {
            violations.push(format!(
                "trial {}: split row has no unlimited twin in the plan (add \
                 \"unlimited\" to the congest axis)",
                row.spec.id
            ));
            continue;
        };
        seen_pair = true;
        if row.output_hash != twin.output_hash {
            violations.push(format!(
                "trial {}: split output {:016x} != unlimited output {:016x} — \
                 fragmentation changed semantics",
                row.spec.id, row.output_hash, twin.output_hash
            ));
        }
        if row.ledger_rounds < row.split_surplus
            || row.ledger_rounds - row.split_surplus != twin.ledger_rounds
        {
            violations.push(format!(
                "trial {}: ledger {} − surplus {} != unlimited ledger {}",
                row.spec.id, row.ledger_rounds, row.split_surplus, twin.ledger_rounds
            ));
        }
        if row.spec.shards > 0 && row.physical_rounds != row.engine_rounds + row.split_surplus {
            violations.push(format!(
                "trial {}: physical {} != rounds {} + surplus {}",
                row.spec.id, row.physical_rounds, row.engine_rounds, row.split_surplus
            ));
        }
    }
    if !seen_pair && violations.is_empty() {
        violations.push(
            "no split/unlimited pair in the plan — the check has nothing to certify \
             (declare a split:w congest alongside unlimited)"
                .into(),
        );
    }
    violations
}

fn check_valid(run: &RunOutcome) -> Vec<String> {
    run.rows
        .iter()
        .filter(|r| !r.valid)
        .map(|r| {
            let why = r
                .error
                .as_deref()
                .or(r.invalid_reason.as_deref())
                .unwrap_or("invalid");
            format!(
                "trial {} ({} {} n={} seed={} shards={} congest={} faults={}): {why}",
                r.spec.id,
                r.spec.scenario,
                r.spec.algorithm,
                r.spec.n,
                r.spec.seed,
                r.spec.shards,
                r.spec.congest.label(),
                r.spec.faults.label()
            )
        })
        .collect()
}

/// One measured configuration: a representative spec plus the best wall
/// and its route time over the configuration's timed reps.
struct Best<'a> {
    spec: &'a TrialSpec,
    wall: f64,
    route: f64,
}

/// Best-of-timed-reps wall/route per configuration × shards × workers —
/// every perf knob apart, so a budget never takes the min over two worker
/// settings.
fn best_walls(run: &RunOutcome) -> Vec<Best<'_>> {
    let mut groups: BTreeMap<String, Vec<&TrialRow>> = BTreeMap::new();
    for row in run.rows.iter().filter(|r| r.error.is_none()) {
        let key = format!(
            "{}|{}|{}",
            row.spec.config_key(),
            row.spec.shards,
            row.spec.workers.label()
        );
        groups.entry(key).or_default().push(row);
    }
    groups
        .values()
        .map(|rows| {
            let best = timed_reps(rows)
                .into_iter()
                .min_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms))
                .expect("groups are non-empty");
            Best {
                spec: &best.spec,
                wall: best.wall_ms,
                route: best.route_ms,
            }
        })
        .collect()
}

/// Ratio budgets, evaluated at the largest `n` of every (scenario,
/// algorithm) — small sizes are fixed overhead and noise.
fn check_budget(run: &RunOutcome, metric: BudgetMetric, max: f64) -> Vec<String> {
    let mut max_n: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut max_shards: BTreeMap<String, usize> = BTreeMap::new();
    for row in &run.rows {
        let key = (row.spec.scenario.clone(), row.spec.algorithm.clone());
        let n = max_n.entry(key).or_default();
        *n = (*n).max(row.spec.n);
        let shards = max_shards.entry(row.spec.config_key()).or_default();
        *shards = (*shards).max(row.spec.shards);
    }
    let at_scale = |row: &TrialRow| {
        max_n[&(row.spec.scenario.clone(), row.spec.algorithm.clone())] == row.spec.n
    };
    let widest = |spec: &TrialSpec| max_shards[&spec.config_key()];
    let best = best_walls(run);
    let wall_where = |pick: &dyn Fn(&TrialSpec) -> bool| {
        best.iter()
            .filter(|b| pick(b.spec))
            .map(|b| b.wall)
            .min_by(f64::total_cmp)
    };
    // The same perf knobs as `row` at `shards`, under configuration key `key`.
    let engine_wall = |row: &TrialSpec, key: &str, shards: usize| {
        wall_where(&|s| s.config_key() == key && s.shards == shards && s.workers == row.workers)
    };
    let mut violations = Vec::new();
    let mut applied = false;
    for row in &run.rows {
        if row.error.is_some() || !at_scale(row) || row.spec.rep != 0 {
            continue;
        }
        let spec = &row.spec;
        let own = || engine_wall(spec, &spec.config_key(), spec.shards);
        let ratio = match metric {
            BudgetMetric::EngineRatio => {
                // Judged once per configuration, from its shards=1 row.
                if spec.shards != 1
                    || spec.congest != CongestSpec::Unlimited
                    || !spec.faults.is_none()
                {
                    continue;
                }
                let seq = wall_where(&|s| s.config_key() == spec.config_key() && s.shards == 0);
                let (Some(engine), Some(seq)) = (own(), seq) else {
                    continue;
                };
                Some(("engine/1 vs sequential", engine / seq.max(f64::EPSILON)))
            }
            BudgetMetric::ShardRatio => {
                let widest = widest(spec);
                if spec.shards != widest || widest <= 1 {
                    continue;
                }
                let (Some(wide), Some(one)) = (own(), engine_wall(spec, &spec.config_key(), 1))
                else {
                    continue;
                };
                Some(("max-shards vs engine/1", wide / one.max(f64::EPSILON)))
            }
            BudgetMetric::RouteFrac => {
                if spec.shards == 0 || spec.shards != widest(spec) {
                    continue;
                }
                let Some(b) = best.iter().find(|b| {
                    b.spec.config_key() == spec.config_key()
                        && b.spec.shards == spec.shards
                        && b.spec.workers == spec.workers
                }) else {
                    continue;
                };
                Some(("route/wall", b.route / b.wall.max(f64::EPSILON)))
            }
            BudgetMetric::SplitRatio => {
                if spec.congest.split_width().is_none() {
                    continue;
                }
                let unlimited = engine_wall(spec, &spec.unlimited_key(), spec.shards);
                let (Some(split), Some(open)) = (own(), unlimited) else {
                    continue;
                };
                Some(("split vs unlimited", split / open.max(f64::EPSILON)))
            }
        };
        if let Some((what, ratio)) = ratio {
            applied = true;
            if ratio > max {
                violations.push(format!(
                    "trial {} ({} {} n={} shards={}): {what} ratio {ratio:.2} \
                     exceeds budget {max}",
                    spec.id, spec.scenario, spec.algorithm, spec.n, spec.shards
                ));
            }
        }
    }
    if !applied && violations.is_empty() {
        violations.push(format!(
            "budget {} applies to no row in the plan — the check certifies nothing",
            metric.label()
        ));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::expand;
    use crate::runner::{run_suite, run_trial};
    use crate::schema::WorkerSpec;

    fn run(body: &str) -> (Suite, RunOutcome) {
        let suite = Suite::from_json(body).unwrap();
        let run = run_suite(&suite, |_, _| {}).unwrap();
        (suite, run)
    }

    #[test]
    fn clean_suite_passes_all_checks() {
        let (suite, out) = run(r#"{"name": "t", "scenarios": [{
                "name": "s", "family": "grid", "n": 36, "algorithm": "gather",
                "shards": [0, 1, 2], "workers": "shards",
                "congest": ["unlimited", "split:2"], "reps": 2
            }], "checks": [
                {"kind": "determinism"},
                {"kind": "split-reconciliation"},
                {"kind": "valid-outputs"},
                {"kind": "budget", "metric": "route-frac", "max": 1.0}
            ]}"#);
        let outcomes = evaluate(&suite, &out);
        for o in &outcomes {
            assert!(o.passed, "{}: {:?}", o.check, o.violations);
        }
        assert_eq!(outcomes.len(), 4);
    }

    #[test]
    fn split_without_twin_is_called_out() {
        let (suite, out) = run(r#"{"name": "t", "scenarios": [{
                "name": "s", "family": "grid", "n": 36, "algorithm": "gather",
                "shards": 1, "congest": "split:2"
            }], "checks": [{"kind": "split-reconciliation"}]}"#);
        let outcomes = evaluate(&suite, &out);
        assert!(!outcomes[0].passed);
        assert!(outcomes[0].violations[0].contains("no unlimited twin"));
    }

    #[test]
    fn dying_configuration_fails_valid_outputs_but_not_determinism() {
        let suite = Suite::from_json(
            r#"{"name": "t", "scenarios": [{
                "name": "s", "family": "grid", "n": 36, "algorithm": "gather",
                "shards": [1, 2]
            }], "checks": [{"kind": "determinism"}, {"kind": "valid-outputs"}]}"#,
        )
        .unwrap();
        // An algorithm name plan expansion rejects: every replay panics.
        let plan: Vec<TrialSpec> = expand(&suite)
            .unwrap()
            .into_iter()
            .map(|mut spec| {
                spec.algorithm = "no-such-algorithm".into();
                spec
            })
            .collect();
        let g = graphs::gen::build_family("grid", 36, 0).unwrap();
        let rows = plan.iter().map(|spec| run_trial(spec, &g)).collect();
        let out = RunOutcome {
            suite: suite.name.clone(),
            plan,
            rows,
        };
        let outcomes = evaluate(&suite, &out);
        assert!(
            outcomes[0].passed,
            "dies at every shard count: {:?}",
            outcomes[0].violations
        );
        assert!(!outcomes[1].passed);
        assert_eq!(outcomes[1].violations.len(), 2);
    }

    /// Runs `body`, then overwrites every row's wall with `wall(spec)` —
    /// budget arithmetic on chosen numbers instead of scheduler noise.
    fn run_with_walls(body: &str, wall: impl Fn(&TrialSpec) -> f64) -> (Suite, RunOutcome) {
        let (suite, mut out) = run(body);
        for row in &mut out.rows {
            row.wall_ms = wall(&row.spec);
        }
        (suite, out)
    }

    #[test]
    fn budgets_keep_worker_twins_apart() {
        // One worker scales badly (1 → 2 ms), a worker per shard well
        // (10 → 1 ms). A min over both worker specs would see 1 ms at both
        // shard counts and pass; judged per worker spec, the single-worker
        // pair blows the budget.
        let (suite, out) = run_with_walls(
            r#"{"name": "t", "scenarios": [{
                "name": "s", "family": "grid", "n": 36, "algorithm": "gather",
                "shards": [1, 2], "workers": [1, "shards"]
            }], "checks": [{"kind": "budget", "metric": "shard-ratio", "max": 1.5}]}"#,
            |s| match (s.workers, s.shards) {
                (WorkerSpec::Fixed(_), 1) => 1.0,
                (WorkerSpec::Fixed(_), _) => 2.0,
                (_, 1) => 10.0,
                _ => 1.0,
            },
        );
        let outcome = &evaluate(&suite, &out)[0];
        assert!(!outcome.passed, "the single-worker pair scales 2x");
        assert_eq!(outcome.violations.len(), 1, "{:?}", outcome.violations);
        assert!(outcome.violations[0].contains("ratio 2.00"));
    }

    #[test]
    fn budgets_discard_the_warm_up_rep() {
        // Rep 0 of every configuration is slow (a cold first run); the
        // budget must judge reps 1.. only.
        let (suite, out) = run_with_walls(
            r#"{"name": "t", "scenarios": [{
                "name": "s", "family": "grid", "n": 36, "algorithm": "gather",
                "shards": [1, 2], "reps": 3
            }], "checks": [{"kind": "budget", "metric": "shard-ratio", "max": 1.5}]}"#,
            |s| match (s.rep, s.shards) {
                (0, 1) => 1.0,
                (0, _) => 100.0,
                _ => 5.0,
            },
        );
        let outcome = &evaluate(&suite, &out)[0];
        assert!(outcome.passed, "{:?}", outcome.violations);
    }

    #[test]
    fn inapplicable_budget_is_a_failure_not_a_silent_pass() {
        let (suite, out) = run(r#"{"name": "t", "scenarios": [{
                "name": "s", "family": "grid", "n": 36, "algorithm": "gather",
                "shards": 1
            }], "checks": [{"kind": "budget", "metric": "split-ratio", "max": 3.0}]}"#);
        let outcomes = evaluate(&suite, &out);
        assert!(!outcomes[0].passed);
        assert!(outcomes[0].violations[0].contains("applies to no row"));
    }
}
