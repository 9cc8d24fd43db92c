//! CI determinism gate: the engine's replay contract, checked end to end.
//!
//! ```sh
//! cargo run --release -p bench --bin determinism_gate            # suite shard axis
//! cargo run --release -p bench --bin determinism_gate -- 1 4 32  # custom sweep
//! ```
//!
//! The gate is a thin wrapper over the **declared suite**
//! `suites/determinism.json` — the scenarios live as data, shared with the
//! scenario lab (`cargo run -p lab --bin lab -- run suites/determinism.json`
//! runs the identical plan). For every ported algorithm, the suite runs the
//! sequential implementation once and the engine at each shard count of the
//! axis — **forcing one worker group per shard** (`"workers": "shards"`), so
//! real pooled threads execute even on single-core CI runners — then the
//! declared checks diff, bit for bit:
//!
//! * the outputs (colorings / partition layers / balls / forests),
//! * the per-round traffic fingerprint,
//! * the `RoundLedger` totals (engine vs sequential *and* across shards),
//! * split-mode ledger reconciliation (`total − SPLIT_PHASE == unlimited`).
//!
//! Any divergence prints the offending configuration and exits nonzero.
//! This is the invariant the worker-pool executor must never trade for
//! speed: shard count and worker count are performance knobs, not
//! semantics.
//!
//! Positional arguments replace the engine shard axis of every scenario
//! (the sequential anchor at shards 0 is kept); with no arguments the
//! suite's own axis runs.

use bench::print_table;
use lab::{evaluate, run_suite, Suite, WorkerSpec};

/// Where the declared suite lives in the repo.
const SUITE_PATH: &str = "suites/determinism.json";

/// The suite baked into the binary, so the gate still runs from any
/// working directory (the checkout copy wins when present, keeping
/// suite edits live without a rebuild).
const BAKED_SUITE: &str = include_str!("../../../../suites/determinism.json");

fn main() {
    let sweep: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("shard counts must be integers"))
        .collect();
    let mut suite = match Suite::load(SUITE_PATH) {
        Ok(suite) => suite,
        Err(_) => Suite::from_json(BAKED_SUITE).expect("baked-in determinism suite parses"),
    };
    if !sweep.is_empty() {
        for scenario in &mut suite.scenarios {
            // Keep the sequential anchor; replace the engine sweep.
            let mut shards = vec![0];
            shards.extend(sweep.iter().copied().filter(|&s| s > 0));
            scenario.shards = shards;
            scenario.workers = vec![WorkerSpec::MatchShards];
        }
    }
    let run = run_suite(&suite, |_row, _total| {}).unwrap_or_else(|e| {
        eprintln!("determinism_gate: {e}");
        std::process::exit(2);
    });
    let mut rows = Vec::new();
    for scenario in &suite.scenarios {
        let trials: Vec<_> = run
            .rows
            .iter()
            .filter(|r| r.spec.scenario == scenario.name)
            .collect();
        let engine_runs = trials.iter().filter(|r| !r.spec.is_sequential()).count();
        let died = trials.iter().filter(|r| r.error.is_some()).count();
        rows.push(vec![
            scenario.name.clone(),
            format!("{}", trials.len()),
            format!("{engine_runs}"),
            if died == 0 {
                "ok".into()
            } else {
                format!("{died} DIED")
            },
        ]);
    }
    print_table(
        &format!(
            "determinism gate over suite {:?} (workers forced = shards)",
            run.suite
        ),
        &["scenario", "trials", "engine runs", "verdict"],
        &rows,
    );
    let mut divergences: Vec<String> = Vec::new();
    for outcome in evaluate(&suite, &run) {
        if outcome.passed {
            println!("check {}: ok", outcome.check);
        } else {
            for v in &outcome.violations {
                divergences.push(format!("{}: {v}", outcome.check));
            }
        }
    }
    if !divergences.is_empty() {
        eprintln!("\ndeterminism_gate: {} divergence(s):", divergences.len());
        for d in &divergences {
            eprintln!("  - {d}");
        }
        std::process::exit(1);
    }
    println!("\ndeterminism_gate: bit-identical across the sweep");
}
