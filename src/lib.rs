//! # fewer-colors
//!
//! A full Rust reproduction of **Aboulker, Bonamy, Bousquet, Esperet —
//! “Distributed coloring in sparse graphs with fewer colors” (PODC 2018)**:
//! a deterministic LOCAL-model algorithm that `d`-list-colors every graph
//! with `mad(G) ≤ d` (or exhibits a `(d+1)`-clique) in `O(d⁴ log³ n)`
//! rounds, plus every corollary, baseline, and lower-bound construction the
//! paper discusses.
//!
//! This facade re-exports the five member crates:
//!
//! * [`graphs`] — graph substrate: CSR graphs, Gallai trees, exact
//!   `mad`/arboricity via max-flow, exact coloring verifiers, generators.
//! * [`local_model`] — LOCAL simulator: Cole–Vishkin, `(Δ+1)`-coloring,
//!   Barenboim–Elkin baseline, ruling forests, round ledgers.
//! * [`engine`] — the sharded, message-passing LOCAL execution runtime:
//!   per-node programs, round-synchronized delivery, deterministic replay
//!   at any shard count, fault injection, observed per-round metrics.
//! * [`distributed_coloring`] — the paper: Theorem 1.3, constructive
//!   Theorem 1.1, Lemma 3.1/3.2 machinery, Corollaries 1.4/2.1/2.3/2.11,
//!   Theorem 6.1.
//! * [`lower_bounds`] — Theorems 1.5/2.5/2.6: Klein-bottle grids, `H_{2l}`,
//!   locally planar 5-chromatic triangulations, Observation 2.4 tooling.
//!
//! # Quickstart
//!
//! ```
//! use fewer_colors::prelude::*;
//!
//! // A planar graph (mad < 6) with arbitrary 6-color lists:
//! let g = graphs::gen::apollonian(100, 7);
//! let lists = ListAssignment::random(g.n(), 6, 12, 1);
//! let outcome = list_color_sparse(&g, &lists, 6, SparseColoringConfig::default())?;
//! let result = outcome.coloring().expect("planar graphs have no K7");
//! assert!(graphs::is_proper(&g, &result.colors));
//! println!("colored {} vertices in {} LOCAL rounds", g.n(), result.ledger.total());
//! # Ok::<(), distributed_coloring::ColoringError>(())
//! ```

#![forbid(unsafe_code)]

pub use distributed_coloring;
pub use engine;
pub use graphs;
pub use local_model;
pub use lower_bounds;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use distributed_coloring::{
        brooks_list_coloring, color_by_arboricity, color_planar, color_planar_girth6,
        color_planar_triangle_free, list_color_sparse, nice_list_coloring, ColoringError,
        ListAssignment, Outcome, RadiusPolicy, SparseColoring, SparseColoringConfig,
    };
    pub use engine::{
        engine_cole_vishkin_3color, engine_degree_plus_one_coloring, engine_h_partition,
        engine_randomized_list_coloring, CongestMode, EngineConfig, EngineMessage, EngineMetrics,
        EngineSession, FaultPlan, GraphView, Inbox, NodeCtx, NodeProgram, Outbox, Stop, WireCodec,
    };
    pub use graphs;
    pub use local_model::{barenboim_elkin_coloring, RoundLedger};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_smoke() {
        let g = graphs::gen::grid(5, 5);
        let lists = ListAssignment::uniform(25, 4);
        let outcome = list_color_sparse(&g, &lists, 4, SparseColoringConfig::default()).unwrap();
        assert!(outcome.coloring().is_some());
    }
}
