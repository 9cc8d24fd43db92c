//! # local-model — a LOCAL-model simulator with deterministic primitives
//!
//! The paper operates in the LOCAL model of distributed computing \[20\]:
//! synchronous rounds, unbounded messages and computation, unique ids, and
//! the round count as the only complexity measure. This crate provides:
//!
//! * [`RoundLedger`] — per-phase round accounting. Every primitive charges
//!   the rounds a LOCAL execution takes, so experiments can put *measured*
//!   round counts next to the paper's bounds.
//! * [`cole_vishkin_3color`] — `O(log* n)` forest 3-coloring (the \[17\]
//!   technique).
//! * [`Orientation`] / forest decomposition — acyclic orientations split
//!   into rooted forests.
//! * [`degree_plus_one_coloring`] — `(Δ+1)`-coloring in `O(Δ² + log* n)`
//!   rounds (merge-reduce), the "(d+1)-coloring … \[17\]" step of Lemma 3.2.
//! * [`barenboim_elkin_coloring`] — the `⌊(2+ε)a⌋+1`-color baseline \[4\]
//!   that the paper improves upon.
//! * [`ruling_set`] / [`ruling_forest`] — `(α, α·log n)`-ruling structures
//!   \[3\], the scaffolding of Lemma 3.2.
//! * [`gather_balls`] / [`detect_clique`] — ball collection and the paper's
//!   two-round clique detection, with honest round charging.
//! * [`layered_greedy`] — Lemma 3.2's leaves-to-roots coloring of a ruling
//!   forest, one (depth, class) slot per round.
//!
//! Each algorithm's per-vertex rule is a public function of a vertex's own
//! state and the values it received — [`cv_shrink`], [`smallest_free`],
//! [`draw_proposal`], [`claim_choice`], [`merge_fresh`], [`layered_pick`]
//! and the rest. The simulations here and the `engine` crate's node
//! programs both call them, so the two drivers differ only in how values
//! reach a vertex.
//!
//! # Examples
//!
//! ```
//! use local_model::{barenboim_elkin_coloring, RoundLedger};
//! use graphs::gen;
//!
//! let g = gen::forest_union(100, 2, 1);
//! let mut ledger = RoundLedger::new();
//! let coloring = barenboim_elkin_coloring(&g, None, 2, 1.0, &mut ledger);
//! assert!(coloring.iter().all(|&c| c < 7)); // ⌊(2+1)·2⌋ + 1
//! println!("{ledger}");
//! ```

#![forbid(unsafe_code)]

pub mod barenboim_elkin;
pub mod cole_vishkin;
pub mod forests;
pub mod gather;
pub mod goldberg_plotkin_shannon;
pub mod ledger;
pub mod randomized;
pub mod reduce;
pub mod ruling;

pub use barenboim_elkin::{barenboim_elkin_coloring, h_partition, peel_threshold, HPartition};
pub use cole_vishkin::{cole_vishkin_3color, cv_recolor, cv_shift_down, cv_shrink, RootedForest};
pub use forests::Orientation;
pub use gather::{clique_at_apex, detect_clique, gather_balls, merge_fresh};
pub use goldberg_plotkin_shannon::{bounded_peeling_coloring, degree_peeling, gps_seven_coloring};
pub use ledger::RoundLedger;
pub use randomized::{
    assert_deg_plus_one_lists, commits, draw_proposal, per_vertex_rng, randomized_list_coloring,
    strike, RandomizedColoring,
};
pub use reduce::{
    coloring_by_forest_merge, degree_plus_one_coloring, forest_merge, smallest_free, MergeRounds,
};
pub use ruling::{
    claim_choice, layered_greedy, layered_list, layered_pick, layered_slot, layered_slots,
    ruling_beta, ruling_bits, ruling_forest, ruling_set, strike_sorted, RulingForest,
};
