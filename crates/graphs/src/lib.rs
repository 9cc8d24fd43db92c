//! # graphs — the graph substrate for the PODC'18 fewer-colors reproduction
//!
//! Everything the distributed-coloring stack needs from graph theory, built
//! from scratch:
//!
//! * [`Graph`] / [`GraphBuilder`] — immutable CSR undirected simple graphs.
//! * [`VertexSet`] — dense bit-set masks (the paper lives in induced
//!   subgraphs `G[R]`, `G[S]`, peeled residuals).
//! * [`traversal`] — one reusable breadth-first search ([`Bfs`]) behind
//!   distances, balls `B^r_R(v)`, components, bipartiteness.
//! * [`blocks`] — biconnected components, block–cut trees, and **Gallai
//!   tree** recognition (paper §1.4, Figure 1).
//! * [`girth`](mod@girth) / [`degeneracy`] — structural analytics used across §2/§4.
//! * [`flow`] / [`density`] — Dinic max-flow powering *exact* `mad(G)` and
//!   Nash-Williams arboricity oracles (the paper's sparseness measures).
//! * [`exact`] — exponential-time chromatic/list-coloring verifiers for the
//!   lower-bound constructions.
//! * [`iso`] — (rooted) graph isomorphism for Observation 2.4
//!   indistinguishability experiments.
//! * [`gen`] — all workload generators.
//!
//! # Examples
//!
//! ```
//! use graphs::{gen, mad_f64, is_gallai_tree, arboricity};
//!
//! // Planar graphs have mad < 6 (Proposition 2.2)…
//! let tri = gen::triangular(6, 6);
//! assert!(mad_f64(&tri) < 6.0);
//!
//! // …and unions of a forests have arboricity ≤ a (Corollary 1.4 workload).
//! let g = gen::forest_union(40, 3, 7);
//! assert!(arboricity(&g) <= 3);
//!
//! // Gallai trees are the obstructions of Theorem 1.1.
//! let t = gen::random_gallai_tree(&gen::GallaiTreeConfig::default(), 1);
//! assert!(is_gallai_tree(&t, None));
//! ```

#![forbid(unsafe_code)]

pub mod blocks;
pub mod degeneracy;
pub mod density;
pub mod exact;
pub mod flow;
pub mod gen;
pub mod girth;
pub mod graph;
pub mod iso;
pub mod subgraph;
pub mod traversal;
pub mod vertex_set;

pub use blocks::{
    block_decomposition, classify_block, find_non_gallai_block, is_clique, is_gallai_forest,
    is_gallai_tree, is_odd_cycle, BlockDecomposition, BlockKind,
};
pub use degeneracy::{degeneracy_order, greedy_degeneracy_coloring, Degeneracy};
pub use density::{
    arboricity, densest_subgraph, fractional_arboricity_exceeds, mad, mad_at_most, mad_f64,
    DensestSubgraph,
};
pub use exact::{chromatic_number, is_proper, is_proper_list_coloring, k_coloring, list_coloring};
pub use girth::{girth, is_triangle_free};
pub use graph::{Edge, Graph, GraphBuilder, VertexId};
pub use iso::{are_isomorphic, are_rooted_isomorphic, isomorphism};
pub use subgraph::InducedSubgraph;
pub use traversal::{
    ball, bfs_distances, bfs_parents, bipartition, component_of, components, eccentricity,
    is_connected, Bfs, UNREACHABLE,
};
pub use vertex_set::VertexSet;
