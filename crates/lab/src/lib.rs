//! The scenario lab: experiments declared as data.
//!
//! A *suite* file describes a cross-product of graph family × `n` × seed ×
//! algorithm × shard count × worker pool × CONGEST mode × fault plan ×
//! repetitions, plus the invariants its runs must satisfy. The lab expands
//! the suite into a deterministic trial plan ([`plan`]), executes every
//! trial with fixed per-trial seeds ([`runner`]), persists per-trial JSON
//! rows plus a merged summary with percentile statistics ([`report`],
//! [`stats`]), and evaluates the declared invariants over the artifact
//! ([`invariants`]) — so the determinism gate is a thin wrapper over a
//! declared suite, every perf tier (`suites/bench.json`, `xl.json`,
//! `xl-ruling.json`, `xxl.json`) is a suite whose budgets are the gate,
//! and chaos experiments (loss-rate curves, crash storms, reorder sweeps,
//! split-width ladders) are one suite file away instead of one
//! hand-written binary away.
//!
//! ```text
//! suite.json ──expand──▶ plan ──run──▶ trials.jsonl ──merge──▶ summary.json
//!                                        │
//!                                        └──evaluate──▶ checks.json (pass/fail)
//! ```

#![forbid(unsafe_code)]

pub mod algorithms;
pub mod invariants;
pub mod json;
pub mod plan;
pub mod report;
pub mod runner;
pub mod schema;
pub mod stats;

pub use invariants::{evaluate, CheckOutcome};
pub use plan::{expand, TrialSpec};
pub use report::{render_summary, write_run};
pub use runner::{run_suite, RunOutcome, TrialRow};
pub use schema::{
    congest_label, parse_congest, BudgetMetric, Check, FaultSpec, Params, Scenario, Suite,
    WorkerSpec,
};
pub use stats::{percentile, summarize, Percentiles};
