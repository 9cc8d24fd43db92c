//! # lower-bounds — the paper's impossibility constructions, executable
//!
//! The paper's §2 lower bounds all run through Observation 2.4: an
//! `r`-round LOCAL algorithm cannot tell apart vertices with isomorphic
//! radius-`(r+1)` balls. This crate builds every witness family and the
//! machinery to *measure* the indistinguishability:
//!
//! * [`locally_planar_5chromatic`] — 6-regular toroidal triangulations with
//!   χ = 5 whose balls match balls of the planar triangulated cylinder
//!   (Theorem 1.5 / Figure 3; see DESIGN.md for the Fisk substitution).
//! * [`h_graph`](fn@h_graph) — the planar triangle-free `H_{2l}` whose balls match the
//!   4-chromatic Klein-bottle grid `G_{5,2l+1}` (Theorem 2.5 / Figure 2).
//! * Klein-bottle grids themselves live in [`graphs::gen::klein_grid`]
//!   (4-chromatic for odd×odd — Theorem 2.6's engine against the
//!   2-chromatic planar grid).
//! * [`locality`] — ball-isomorphism radii and per-pair match reports.
//!
//! # Examples
//!
//! ```
//! use lower_bounds::{h_graph, locality::balls_match};
//! use graphs::gen::klein_grid;
//! // A 4-chromatic Klein grid is locally a planar triangle-free graph.
//! let hard = klein_grid(5, 7);
//! let easy = h_graph(3);
//! assert_eq!(graphs::chromatic_number(&hard), 4);
//! assert_eq!(graphs::chromatic_number(&easy), 3);
//! assert!(balls_match(&hard, 2 * 7 + 3, &easy, 2 * 6 + 3, 2));
//! ```

#![forbid(unsafe_code)]

pub mod fisk;
pub mod h_graph;
pub mod locality;

pub use fisk::{
    cycle_power3, locally_planar_5chromatic, path_power3, shifted_torus_triangulation,
    triangulated_cylinder,
};
pub use h_graph::{h_graph, h_graph_index};
pub use locality::{
    balls_match, indistinguishability_radius, indistinguishability_report,
    IndistinguishabilityReport,
};
