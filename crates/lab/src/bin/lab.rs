//! The scenario lab CLI.
//!
//! ```sh
//! cargo run --release --bin lab -- run suites/smoke.json            # run + checks
//! cargo run --release --bin lab -- run suites/smoke.json --out=DIR  # choose artifact dir
//! cargo run --release --bin lab -- plan suites/smoke.json           # print the trial plan
//! cargo run --release --bin lab -- list                             # families + algorithms
//! ```
//!
//! `run` expands the suite, executes every trial, writes the artifact
//! (`plan.json`, `trials.jsonl`, `summary.json`, `checks.json`) into the
//! output directory (default `lab-runs/<suite-name>`), prints the check
//! verdicts, and exits non-zero when a declared invariant fails — which is
//! exactly how CI consumes it.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use lab::json::Value;
use lab::{algorithms, evaluate, expand, render_summary, run_suite, write_run, Suite};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        Some("list") => cmd_list(),
        _ => {
            eprintln!("usage: lab run <suite.json> [--out=DIR] | lab plan <suite.json> | lab list");
            ExitCode::from(2)
        }
    }
}

fn load(path: Option<&String>) -> Result<Suite, String> {
    let path = path.ok_or("missing suite path")?;
    Suite::load(path)
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut out_dir = None;
    let mut path = None;
    for arg in args {
        if let Some(dir) = arg.strip_prefix("--out=") {
            out_dir = Some(dir.to_string());
        } else {
            path = Some(arg.clone());
        }
    }
    let suite = match load(path.as_ref()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lab: {e}");
            return ExitCode::from(2);
        }
    };
    if !suite.description.is_empty() {
        println!("suite {}: {}", suite.name, suite.description);
    }
    let mut done = 0usize;
    let run = match run_suite(&suite, |row, total| {
        done += 1;
        let verdict = match (&row.error, row.valid) {
            (Some(e), _) => format!("DIED: {e}"),
            (None, false) => format!(
                "INVALID: {}",
                row.invalid_reason.as_deref().unwrap_or("unspecified")
            ),
            (None, true) => format!("ok {:8.2} ms", row.wall_ms),
        };
        println!(
            "[{done:>4}/{total}] {} {} n={} seed={} shards={} workers={} {} {} rep{}: {verdict}",
            row.spec.scenario,
            row.spec.algorithm,
            row.spec.n,
            row.spec.seed,
            row.spec.shards,
            row.spec.workers.label(),
            lab::congest_label(row.spec.congest),
            row.spec.faults.label(),
            row.spec.rep,
        );
    }) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("lab: {e}");
            return ExitCode::from(2);
        }
    };
    let checks = evaluate(&suite, &run);
    let dir =
        std::path::PathBuf::from(out_dir.unwrap_or_else(|| format!("lab-runs/{}", suite.name)));
    if let Err(e) = write_run(&dir, &run, &checks) {
        eprintln!("lab: {e}");
        return ExitCode::from(2);
    }
    let summary = render_summary(&run);
    println!(
        "\n{} trials, {} failed; artifact in {}",
        run.rows.len(),
        run.failed_rows().len(),
        dir.display()
    );
    print_scenario_tails(&summary);
    let mut all_passed = true;
    for check in &checks {
        if check.passed {
            println!("check {:<40} PASS", check.check);
        } else {
            all_passed = false;
            println!(
                "check {:<40} FAIL ({} violations)",
                check.check,
                check.violations.len()
            );
            for v in &check.violations {
                println!("  - {v}");
            }
        }
    }
    if suite.checks.is_empty() {
        println!("no checks declared — the artifact is the only product");
    }
    if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_scenario_tails(summary: &Value) {
    let Some(scenarios) = summary.get("scenarios").and_then(Value::as_arr) else {
        return;
    };
    println!(
        "{:<24} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "scenario", "trials", "wall p50", "wall p95", "wall p99", "phys p99", "frag p99"
    );
    for s in scenarios {
        let f = |key: &str| s.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        println!(
            "{:<24} {:>7} {:>9.2} {:>9.2} {:>9.2} {:>9.0} {:>9.0}",
            s.get("scenario").and_then(Value::as_str).unwrap_or("?"),
            s.get("trials").and_then(Value::as_usize).unwrap_or(0),
            f("wall_ms_p50"),
            f("wall_ms_p95"),
            f("wall_ms_p99"),
            f("physical_rounds_p99"),
            f("fragments_p99"),
        );
    }
}

fn cmd_plan(args: &[String]) -> ExitCode {
    let suite = match load(args.first()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lab: {e}");
            return ExitCode::from(2);
        }
    };
    match expand(&suite) {
        Ok(plan) => {
            for trial in &plan {
                println!("{}", trial.to_json().render());
            }
            eprintln!("{} trials", plan.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lab: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_list() -> ExitCode {
    println!("graph families:");
    for name in graphs::gen::family_names() {
        let spec = graphs::gen::family(name).expect("listed families exist");
        println!("  {:<20} {}", spec.name, spec.description);
    }
    println!("algorithms:");
    for name in algorithms::names() {
        println!("  {name}");
    }
    ExitCode::SUCCESS
}
