//! The chaos matrix as integration tests: the CONGEST split-width ladder
//! must be semantically invisible to the full Theorem 1.3 pipeline, and
//! the randomized (deg+1)-list protocol must ride out a loss-rate curve up
//! to p = 0.1 and still hand back a proper coloring.
//!
//! Both tests drive the scenario lab end to end — suites declared as JSON,
//! expanded into trial plans, executed, and judged by the declared
//! invariants — so they also pin the lab's public contract: a suite string
//! in, percentile-bearing rows and check verdicts out.

use distributed_coloring::{list_color_sparse, ListAssignment, SparseColoringConfig};
use engine::{CongestMode, EngineConfig, SPLIT_PHASE};
use lab::{evaluate, run_suite, Suite};

/// Split(w) for w ∈ {1, 2, 4, 8} on the full `list_color_sparse` pipeline:
/// identical colors at every width and shard count, with the ledger
/// reconciling to the unlimited run once the `SPLIT_PHASE` surplus is
/// subtracted. Declared as a lab suite; the determinism and
/// split-reconciliation checks do the diffing.
#[test]
fn split_width_ladder_is_bit_identical_on_the_full_pipeline() {
    let suite = Suite::from_json(
        r#"{
          "name": "split-ladder-test",
          "description": "Split(w) ladder over the full pipeline",
          "scenarios": [
            {
              "name": "ladder",
              "family": "apollonian",
              "n": 120,
              "seed": 7,
              "algorithm": "theorem13",
              "shards": [1, 2],
              "workers": "shards",
              "congest": ["unlimited", "split:1", "split:2", "split:4", "split:8"],
              "params": {"d": 6}
            }
          ],
          "checks": [
            {"kind": "determinism"},
            {"kind": "split-reconciliation"},
            {"kind": "valid-outputs"}
          ]
        }"#,
    )
    .expect("ladder suite parses");
    let run = run_suite(&suite, |_row, _total| {}).expect("ladder suite runs");
    assert_eq!(run.rows.len(), 10, "2 shard counts × 5 congest modes");
    for outcome in evaluate(&suite, &run) {
        assert!(
            outcome.passed,
            "check {} failed: {:?}",
            outcome.check, outcome.violations
        );
    }
    // Semantic invisibility, asserted directly: one output fingerprint
    // across the whole ladder, narrowing widths notwithstanding.
    let anchor = run.rows[0].output_hash;
    for row in &run.rows {
        assert_eq!(
            row.output_hash, anchor,
            "split width must never change the coloring (trial {})",
            row.spec.id
        );
    }
}

/// The same ladder off-lab, against the raw pipeline API: Split(w) colors
/// equal the unlimited colors, the surplus is the only ledger divergence,
/// and narrower widths charge at least as many physical rounds.
#[test]
fn split_width_ladder_reconciles_ledgers() {
    let g = graphs::gen::build_family("apollonian", 120, 7).expect("registered family");
    let d = 6;
    let lists = ListAssignment::uniform(g.n(), d);
    let run = |congest: CongestMode| {
        let config = SparseColoringConfig {
            engine_shards: Some(2),
            engine: EngineConfig {
                congest,
                ..EngineConfig::default()
            },
            ..Default::default()
        };
        list_color_sparse(&g, &lists, d, config)
            .expect("pipeline runs")
            .coloring()
            .expect("planar instance colors")
            .clone()
    };
    let unlimited = run(CongestMode::Unlimited);
    assert!(graphs::is_proper(&g, &unlimited.colors));
    let mut last_surplus = 0;
    for width in [8, 4, 2, 1] {
        let split = run(CongestMode::Split(width));
        assert_eq!(split.colors, unlimited.colors, "width {width}");
        let surplus = split.ledger.phase_total(SPLIT_PHASE);
        assert_eq!(
            split.ledger.total() - surplus,
            unlimited.ledger.total(),
            "width {width}: surplus must be the only ledger divergence"
        );
        // ⌈x/w⌉ is non-increasing in w: narrowing the budget can only add
        // physical rounds, never remove them.
        assert!(
            surplus >= last_surplus,
            "width {width}: narrowing the budget must not cut physical rounds \
             (surplus {surplus} after {last_surplus})"
        );
        last_surplus = surplus;
    }
    // The ladder must end in real fragmentation: at one word per physical
    // round, the pipeline's multi-word floods cannot fit.
    assert!(
        last_surplus > 0,
        "width 1: the pipeline's wide floods must fragment"
    );
}

/// The loss-rate curve: with slack-6 lists on random 3-regular graphs, the
/// randomized protocol terminates with a complete, proper, on-list
/// coloring at every loss rate up to p = 0.1 — for every pinned graph
/// seed, at both shard counts, bit-identically across them.
#[test]
fn loss_rate_curve_keeps_the_randomized_protocol_proper() {
    let suite = Suite::from_json(
        r#"{
          "name": "loss-curve-test",
          "description": "randomized coloring under a loss-rate curve",
          "scenarios": [
            {
              "name": "loss-curve",
              "family": "random-3-regular",
              "n": 48,
              "seed": [1, 2, 6, 8],
              "algorithm": "randomized",
              "shards": [1, 2],
              "workers": "shards",
              "faults": [
                "none",
                {"lose": {"seed": 101, "p": 0.01}},
                {"lose": {"seed": 101, "p": 0.05}},
                {"lose": {"seed": 101, "p": 0.1}}
              ],
              "params": {"list_slack": 6}
            }
          ],
          "checks": [
            {"kind": "determinism"},
            {"kind": "valid-outputs"}
          ]
        }"#,
    )
    .expect("loss-curve suite parses");
    let run = run_suite(&suite, |_row, _total| {}).expect("loss-curve suite runs");
    assert_eq!(
        run.rows.len(),
        32,
        "4 seeds × 2 shard counts × 4 loss rates"
    );
    for row in &run.rows {
        assert!(
            row.valid,
            "seed {} at {} must stay proper: {:?}",
            row.spec.seed,
            row.spec.faults.label(),
            row.invalid_reason
        );
        assert!(row.error.is_none(), "no trial may die: {:?}", row.error);
    }
    for outcome in evaluate(&suite, &run) {
        assert!(
            outcome.passed,
            "check {} failed: {:?}",
            outcome.check, outcome.violations
        );
    }
}
