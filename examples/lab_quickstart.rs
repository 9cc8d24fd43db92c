//! The scenario lab in one file: declare a three-scenario suite as JSON,
//! expand it into a deterministic trial plan, execute it, render the
//! percentile summary, and judge the declared invariants — the same path
//! `cargo run -p lab --bin lab -- run suites/smoke.json` takes, minus the
//! files.
//!
//! ```sh
//! cargo run --release --example lab_quickstart
//! ```

use lab::{congest_label, evaluate, expand, render_summary, run_suite, Suite};

const SUITE: &str = r#"{
  "name": "quickstart",
  "description": "one flood, one chaos curve, one full pipeline",
  "scenarios": [
    {
      "name": "gather-ladder",
      "family": "grid",
      "n": 64,
      "seed": 7,
      "algorithm": "gather",
      "shards": [0, 1, 2],
      "workers": "shards",
      "congest": ["unlimited", "split:4"],
      "reps": 3,
      "params": {"radius": 3}
    },
    {
      "name": "lossy-coloring",
      "family": "random-3-regular",
      "n": 48,
      "seed": [1, 2],
      "algorithm": "randomized",
      "shards": [1, 2],
      "workers": "shards",
      "faults": ["none", {"lose": {"seed": 101, "p": 0.1}}],
      "params": {"list_slack": 6}
    },
    {
      "name": "pipeline",
      "family": "apollonian",
      "n": 80,
      "seed": 7,
      "algorithm": "theorem13",
      "shards": [0, 1, 2],
      "workers": "shards",
      "params": {"d": 6}
    }
  ],
  "checks": [
    {"kind": "determinism"},
    {"kind": "valid-outputs"},
    {"kind": "budget", "metric": "route-frac", "max": 0.9}
  ]
}"#;

fn main() {
    let suite = Suite::from_json(SUITE).expect("quickstart suite parses");

    // The plan is pure data: every trial's axes and derived seeds, before
    // anything runs. Same suite, same plan, every time.
    let plan = expand(&suite).expect("suite expands");
    println!("suite {:?}: {} trials planned", suite.name, plan.len());
    for spec in plan.iter().take(3) {
        println!(
            "  trial {}: {} {} n={} shards={} {} {}",
            spec.id,
            spec.scenario,
            spec.algorithm,
            spec.n,
            spec.shards,
            congest_label(spec.congest),
            spec.faults.label(),
        );
    }
    println!("  …");

    let run = run_suite(&suite, |row, total| {
        if row.spec.id % 10 == 0 {
            println!("  [{:>2}/{total}] {}…", row.spec.id + 1, row.spec.scenario);
        }
    })
    .expect("suite runs");

    // The summary carries tail statistics per scenario — p50/p95/p99 wall
    // and route fractions, not just best-of means.
    let summary = render_summary(&run);
    let scenarios = summary
        .get("scenarios")
        .and_then(|s| s.as_arr())
        .expect("summary lists scenarios");
    println!("\nper-scenario tails:");
    for scenario in scenarios {
        let name = scenario.get("scenario").and_then(|v| v.as_str()).unwrap();
        let p50 = scenario.get("wall_ms_p50").and_then(|v| v.as_f64());
        let p95 = scenario.get("wall_ms_p95").and_then(|v| v.as_f64());
        let p99 = scenario.get("wall_ms_p99").and_then(|v| v.as_f64());
        let route = scenario.get("route_frac_p50").and_then(|v| v.as_f64());
        let (p50, p95, p99) = (p50.unwrap(), p95.unwrap(), p99.unwrap());
        assert!(
            p50 <= p95 && p95 <= p99,
            "{name}: percentiles must be ordered"
        );
        println!(
            "  {name}: wall p50 {p50:.2} ms, p95 {p95:.2} ms, p99 {p99:.2} ms, \
             route frac p50 {:.2}",
            route.unwrap_or(0.0)
        );
    }

    println!("\ndeclared invariants:");
    let mut all_passed = true;
    for outcome in evaluate(&suite, &run) {
        println!(
            "  {} — {}",
            outcome.check,
            if outcome.passed { "ok" } else { "FAILED" }
        );
        for v in &outcome.violations {
            println!("      {v}");
        }
        all_passed &= outcome.passed;
    }
    assert!(all_passed, "quickstart invariants must hold");
    println!(
        "\n{} trials, every declared invariant holds",
        run.rows.len()
    );
}
