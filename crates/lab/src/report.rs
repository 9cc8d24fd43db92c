//! The run artifact: per-trial rows, merged percentile summary, plan and
//! check records.
//!
//! A run directory holds four files:
//!
//! * `plan.json` — the expanded trial plan (replay map);
//! * `trials.jsonl` — one JSON row per executed trial, plan order;
//! * `summary.json` — the merged summary: per-configuration groups with
//!   best-of and p50/p95/p99 wall statistics, route fractions, round-wall
//!   percentiles, and per-scenario tails over physical rounds and
//!   fragments — distribution shape, not just best-of means;
//! * `checks.json` — the declared invariants' verdicts.

use std::path::Path;

use crate::invariants::CheckOutcome;
use crate::json::Value;
use crate::runner::{RunOutcome, TrialRow};
use crate::stats::summarize;

/// Groups a run's rows by configuration × shards × workers (reps merge)
/// and renders the merged summary document.
pub fn render_summary(run: &RunOutcome) -> Value {
    let mut groups: Vec<(String, Vec<&TrialRow>)> = Vec::new();
    for row in &run.rows {
        let key = format!(
            "{}|{}|{}",
            row.spec.config_key(),
            row.spec.shards,
            row.spec.workers.label()
        );
        match groups.last_mut() {
            Some((k, rows)) if *k == key => rows.push(row),
            _ => groups.push((key, vec![row])),
        }
    }
    let group_rows: Vec<Value> = groups.iter().map(|(_, rows)| group_json(rows)).collect();
    let mut scenario_names: Vec<&str> = run.rows.iter().map(|r| r.spec.scenario.as_str()).collect();
    scenario_names.dedup();
    let mut seen = std::collections::BTreeSet::new();
    let scenario_rows: Vec<Value> = scenario_names
        .into_iter()
        .filter(|name| seen.insert(*name))
        .map(|name| scenario_json(run, name))
        .collect();
    Value::Obj(vec![
        ("failed".into(), Value::int(run.failed_rows().len() as u64)),
        ("groups".into(), Value::Arr(group_rows)),
        ("scenarios".into(), Value::Arr(scenario_rows)),
        ("suite".into(), Value::str(&run.suite)),
        ("trials".into(), Value::int(run.rows.len() as u64)),
    ])
}

/// The timing method: the reps of one configuration (or one scenario)
/// that wall statistics are taken from. When any row is a repeat
/// (`rep ≥ 1`), every rep-0 row is a discarded warm-up — the first run of
/// a configuration pays page faults and cold caches the rest do not. A
/// single-rep configuration keeps its only row. Checks other than budgets
/// still see every row.
pub(crate) fn timed_reps<'a>(rows: &[&'a TrialRow]) -> Vec<&'a TrialRow> {
    let repeated = rows.iter().any(|r| r.spec.rep > 0);
    rows.iter()
        .copied()
        .filter(|r| !repeated || r.spec.rep > 0)
        .collect()
}

/// One summary group: a configuration's timed reps (see [`timed_reps`])
/// merged into best-of *and* percentile wall statistics.
fn group_json(rows: &[&TrialRow]) -> Value {
    let first = rows[0];
    let timed = timed_reps(rows);
    let walls: Vec<f64> = timed.iter().map(|r| r.wall_ms).collect();
    let wall_p = summarize(&walls).expect("groups are non-empty");
    let best = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let route_fracs: Vec<f64> = timed
        .iter()
        .map(|r| r.route_ms / r.wall_ms.max(f64::EPSILON))
        .collect();
    let round_p50: Vec<f64> = timed.iter().map(|r| r.round_p50_ms).collect();
    let round_p95: Vec<f64> = timed.iter().map(|r| r.round_p95_ms).collect();
    let round_p99: Vec<f64> = timed.iter().map(|r| r.round_p99_ms).collect();
    let median = |v: &[f64]| summarize(v).map_or(0.0, |p| p.p50);
    Value::Obj(vec![
        ("algorithm".into(), Value::str(&first.spec.algorithm)),
        ("congest".into(), Value::str(first.spec.congest.label())),
        ("family".into(), Value::str(&first.spec.family)),
        ("faults".into(), Value::str(first.spec.faults.label())),
        ("fragments".into(), Value::int(first.fragments as u64)),
        ("ledger_rounds".into(), Value::int(first.ledger_rounds)),
        ("messages".into(), Value::int(first.messages as u64)),
        ("n".into(), Value::int(first.spec.n as u64)),
        ("physical_rounds".into(), Value::int(first.physical_rounds)),
        ("reps".into(), Value::int(rows.len() as u64)),
        ("round_p50_ms".into(), Value::num(median(&round_p50))),
        ("round_p95_ms".into(), Value::num(median(&round_p95))),
        ("round_p99_ms".into(), Value::num(median(&round_p99))),
        ("route_frac_p50".into(), Value::num(median(&route_fracs))),
        ("scenario".into(), Value::str(&first.spec.scenario)),
        ("seed".into(), Value::int(first.spec.seed)),
        ("shards".into(), Value::int(first.spec.shards as u64)),
        ("split_surplus".into(), Value::int(first.split_surplus)),
        ("timed_reps".into(), Value::int(timed.len() as u64)),
        ("valid".into(), Value::Bool(rows.iter().all(|r| r.valid))),
        ("wall_ms_best".into(), Value::num(best)),
        ("wall_ms_p50".into(), Value::num(wall_p.p50)),
        ("wall_ms_p95".into(), Value::num(wall_p.p95)),
        ("wall_ms_p99".into(), Value::num(wall_p.p99)),
        ("workers".into(), Value::str(first.spec.workers.label())),
    ])
}

/// Per-scenario tails: physical-round and fragment percentiles over *all*
/// the scenario's trials, wall and route-fraction percentiles over its
/// timed reps — the distribution view across the whole declared matrix,
/// where a pathological configuration shows up as a fat p99 even when
/// every best-of mean looks healthy.
fn scenario_json(run: &RunOutcome, name: &str) -> Value {
    let rows: Vec<&TrialRow> = run
        .rows
        .iter()
        .filter(|r| r.spec.scenario == name)
        .collect();
    // A scenario's reps are uniform across its configurations, so its
    // timed reps are the union of theirs.
    let timed = timed_reps(&rows);
    let triple = |vals: Vec<f64>, label: &str, out: &mut Vec<(String, Value)>| {
        let p = summarize(&vals).expect("scenario has rows");
        out.push((format!("{label}_p50"), Value::num(p.p50)));
        out.push((format!("{label}_p95"), Value::num(p.p95)));
        out.push((format!("{label}_p99"), Value::num(p.p99)));
    };
    let mut fields: Vec<(String, Value)> = vec![
        (
            "failed".into(),
            Value::int(rows.iter().filter(|r| !r.valid).count() as u64),
        ),
        (
            "max_width".into(),
            Value::int(rows.iter().map(|r| r.max_width).max().unwrap_or(0) as u64),
        ),
    ];
    triple(
        rows.iter().map(|r| r.fragments as f64).collect(),
        "fragments",
        &mut fields,
    );
    triple(
        rows.iter().map(|r| r.physical_rounds as f64).collect(),
        "physical_rounds",
        &mut fields,
    );
    triple(
        timed
            .iter()
            .map(|r| r.route_ms / r.wall_ms.max(f64::EPSILON))
            .collect(),
        "route_frac",
        &mut fields,
    );
    fields.push(("scenario".into(), Value::str(name)));
    fields.push(("trials".into(), Value::int(rows.len() as u64)));
    triple(
        timed.iter().map(|r| r.wall_ms).collect(),
        "wall_ms",
        &mut fields,
    );
    fields.sort_by(|a, b| a.0.cmp(&b.0));
    Value::Obj(fields)
}

/// Writes the full run artifact into `dir` (created if missing).
///
/// # Errors
///
/// IO errors, with the offending path named.
pub fn write_run(dir: &Path, run: &RunOutcome, checks: &[CheckOutcome]) -> Result<(), String> {
    let write = |name: &str, content: String| {
        let path = dir.join(name);
        std::fs::write(&path, content).map_err(|e| format!("write {}: {e}", path.display()))
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let plan = Value::Arr(run.plan.iter().map(|t| t.to_json()).collect());
    write("plan.json", plan.render_pretty() + "\n")?;
    let mut trials = String::new();
    for row in &run.rows {
        trials.push_str(&row.to_json().render());
        trials.push('\n');
    }
    write("trials.jsonl", trials)?;
    write("summary.json", render_summary(run).render_pretty() + "\n")?;
    let checks_doc = Value::Arr(checks.iter().map(CheckOutcome::to_json).collect());
    write("checks.json", checks_doc.render_pretty() + "\n")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::evaluate;
    use crate::runner::run_suite;
    use crate::schema::Suite;

    #[test]
    fn summary_merges_reps_and_reports_percentiles() {
        let suite = Suite::from_json(
            r#"{"name": "t", "scenarios": [{
                "name": "s", "family": "grid", "n": 36, "algorithm": "gather",
                "shards": [0, 2], "reps": 3
            }]}"#,
        )
        .unwrap();
        let run = run_suite(&suite, |_, _| {}).unwrap();
        let summary = render_summary(&run);
        assert_eq!(summary.get("trials").and_then(Value::as_usize), Some(6));
        assert_eq!(summary.get("failed").and_then(Value::as_usize), Some(0));
        let groups = summary.get("groups").and_then(Value::as_arr).unwrap();
        assert_eq!(groups.len(), 2, "two configurations, reps merged");
        for g in groups {
            assert_eq!(g.get("reps").and_then(Value::as_usize), Some(3));
            let best = g.get("wall_ms_best").and_then(Value::as_f64).unwrap();
            let p50 = g.get("wall_ms_p50").and_then(Value::as_f64).unwrap();
            let p99 = g.get("wall_ms_p99").and_then(Value::as_f64).unwrap();
            assert!(best <= p50 && p50 <= p99);
        }
        let scenarios = summary.get("scenarios").and_then(Value::as_arr).unwrap();
        assert_eq!(scenarios.len(), 1);
        for key in [
            "wall_ms_p50",
            "wall_ms_p95",
            "wall_ms_p99",
            "physical_rounds_p99",
            "fragments_p99",
            "route_frac_p50",
        ] {
            assert!(
                scenarios[0].get(key).and_then(Value::as_f64).is_some(),
                "summary is missing {key}"
            );
        }
    }

    #[test]
    fn summary_walls_discard_the_warm_up_rep() {
        let suite = Suite::from_json(
            r#"{"name": "t", "scenarios": [
                {"name": "warm", "family": "grid", "n": 36, "algorithm": "gather",
                 "shards": 2, "reps": 3},
                {"name": "single", "family": "grid", "n": 36, "algorithm": "gather",
                 "shards": 2}
            ]}"#,
        )
        .unwrap();
        let mut run = run_suite(&suite, |_, _| {}).unwrap();
        for row in &mut run.rows {
            row.wall_ms = if row.spec.rep == 0 { 1e6 } else { 1.0 };
        }
        let summary = render_summary(&run);
        let groups = summary.get("groups").and_then(Value::as_arr).unwrap();
        let field = |g: &Value, key: &str| g.get(key).and_then(Value::as_f64).unwrap();
        // Three reps ran; the cold rep 0 is out of every wall statistic.
        assert_eq!(field(&groups[0], "reps"), 3.0);
        assert_eq!(field(&groups[0], "timed_reps"), 2.0);
        assert_eq!(field(&groups[0], "wall_ms_p99"), 1.0);
        // A single-rep configuration keeps its only row.
        assert_eq!(field(&groups[1], "timed_reps"), 1.0);
        assert_eq!(field(&groups[1], "wall_ms_best"), 1e6);
        let scenarios = summary.get("scenarios").and_then(Value::as_arr).unwrap();
        assert_eq!(field(&scenarios[0], "wall_ms_p99"), 1.0);
        assert_eq!(field(&scenarios[0], "trials"), 3.0);
    }

    #[test]
    fn write_run_emits_all_four_files() {
        let suite = Suite::from_json(
            r#"{"name": "t", "scenarios": [{
                "name": "s", "family": "path", "n": 8, "algorithm": "cole-vishkin",
                "shards": 1
            }], "checks": [{"kind": "valid-outputs"}]}"#,
        )
        .unwrap();
        let run = run_suite(&suite, |_, _| {}).unwrap();
        let checks = evaluate(&suite, &run);
        let dir = std::env::temp_dir().join(format!("lab-report-test-{}", std::process::id()));
        write_run(&dir, &run, &checks).unwrap();
        for name in ["plan.json", "trials.jsonl", "summary.json", "checks.json"] {
            let content = std::fs::read_to_string(dir.join(name)).unwrap();
            assert!(!content.is_empty(), "{name} is empty");
            if name.ends_with(".json") {
                crate::json::parse(&content).unwrap();
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
