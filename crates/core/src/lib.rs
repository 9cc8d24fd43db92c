//! # distributed-coloring — PODC'18 "fewer colors" in executable form
//!
//! Reproduction of Aboulker–Bonamy–Bousquet–Esperet, *Distributed coloring
//! in sparse graphs with fewer colors* (PODC 2018): a deterministic
//! LOCAL-model algorithm that `d`-list-colors any graph with
//! `mad(G) ≤ d` (or finds a `(d+1)`-clique) in `O(d⁴ log³ n)` rounds.
//!
//! * [`list_color_sparse`] — Theorem 1.3, the main result.
//! * [`ert`] — constructive Theorem 1.1 (Borodin / Erdős–Rubin–Taylor):
//!   non-Gallai-trees are degree-choosable.
//! * [`happy`] — the rich/poor/happy/sad classification of §3.
//! * [`extend`] — the Lemma 3.2 coloring-extension procedure.
//!
//! # Examples
//!
//! Six-list-color a planar graph (Corollary 2.3):
//!
//! ```
//! use distributed_coloring::{list_color_sparse, ListAssignment, SparseColoringConfig};
//! use graphs::gen;
//!
//! let g = gen::triangular(8, 8); // planar: mad < 6
//! let lists = ListAssignment::random(g.n(), 6, 12, 42); // arbitrary 6-lists
//! let outcome = list_color_sparse(&g, &lists, 6, SparseColoringConfig::default())?;
//! let coloring = outcome.coloring().expect("planar graphs contain no K7");
//! assert!(graphs::is_proper(&g, &coloring.colors));
//! # Ok::<(), distributed_coloring::ColoringError>(())
//! ```

#![forbid(unsafe_code)]

pub mod ert;
pub mod extend;
pub mod happy;
pub mod lists;
pub mod state;
pub mod theorem13;

pub use ert::{degree_choosable_coloring, ErtError};
pub use extend::{extend_to_happy_set, ExtendError, UNCOLORED};
pub use happy::{classify, paper_radius, Classification};
pub use lists::ListAssignment;
pub use state::ColoringState;
pub use theorem13::{
    list_color_sparse, ColoringError, Outcome, PeelStats, RadiusPolicy, SparseColoring,
    SparseColoringConfig,
};

pub mod analysis;
pub mod brooks;
pub mod corollaries;

pub use brooks::{brooks_list_coloring, nice_list_coloring, BrooksError};
pub use corollaries::{
    color_by_arboricity, color_genus, color_planar, color_planar_girth6,
    color_planar_triangle_free, heawood_mad_bound, heawood_number, CorollaryError,
};
