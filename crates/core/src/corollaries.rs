//! Corollaries 1.4, 2.3 and 2.11: arboricity, planar classes, and bounded
//! Euler genus.
//!
//! All of these are direct instantiations of Theorem 1.3 with the right
//! `d`, justified by mad bounds: arboricity-`a` graphs have `mad ≤ 2a` and
//! no `K_{2a+1}`; planar graphs of girth ≥ g have `mad < 2g/(g−2)`
//! (Proposition 2.2: `< 6`, `< 4` for triangle-free, `< 3` for girth ≥ 6);
//! genus-`g` graphs have `mad ≤ (5+√(24g+1))/2` (Heawood).

use crate::lists::ListAssignment;
use crate::theorem13::{list_color_sparse, ColoringError, Outcome, SparseColoringConfig};
use graphs::{Graph, VertexId};
use std::fmt;

/// Failure modes of the corollary wrappers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CorollaryError {
    /// Corollary 1.4 requires arboricity `a ≥ 2` (paths/trees cannot be
    /// 2-colored in `o(n)` rounds — Linial).
    ArboricityTooSmall {
        /// The rejected `a`.
        a: usize,
    },
    /// A `(d+1)`-clique emerged, contradicting the promised graph class
    /// (e.g. a `K_{2a+1}` in a claimed arboricity-`a` graph).
    ClassViolated {
        /// The witnessing clique.
        clique: Vec<VertexId>,
    },
    /// The input failed a cheap structural check (triangle-freeness, girth).
    StructuralCheckFailed {
        /// Human-readable description of the failed check.
        check: &'static str,
    },
    /// Propagated Theorem 1.3 failure.
    Coloring(ColoringError),
}

impl fmt::Display for CorollaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorollaryError::ArboricityTooSmall { a } => {
                write!(f, "corollary 1.4 requires arboricity ≥ 2, got {a}")
            }
            CorollaryError::ClassViolated { clique } => {
                write!(f, "graph-class promise violated by clique {clique:?}")
            }
            CorollaryError::StructuralCheckFailed { check } => {
                write!(f, "structural check failed: {check}")
            }
            CorollaryError::Coloring(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CorollaryError {}

impl From<ColoringError> for CorollaryError {
    fn from(e: ColoringError) -> Self {
        CorollaryError::Coloring(e)
    }
}

fn run(g: &Graph, lists: &ListAssignment, d: usize) -> Result<Vec<usize>, CorollaryError> {
    match list_color_sparse(g, lists, d, SparseColoringConfig::default())? {
        Outcome::Colored(c) => Ok(c.colors),
        Outcome::CliqueFound { vertices, .. } => {
            Err(CorollaryError::ClassViolated { clique: vertices })
        }
    }
}

/// Corollary 1.4: `2a`-list-colors a graph of arboricity `a ≥ 2` in
/// `O(a⁴ log³ n)` rounds.
///
/// # Errors
///
/// [`CorollaryError::ArboricityTooSmall`] for `a < 2`;
/// [`CorollaryError::ClassViolated`] if a `K_{2a+1}` shows the arboricity
/// promise false; list sizes must be ≥ `2a`.
///
/// # Examples
///
/// ```
/// use distributed_coloring::corollaries::color_by_arboricity;
/// use distributed_coloring::ListAssignment;
/// use graphs::gen;
/// let g = gen::forest_union(60, 2, 9); // arboricity ≤ 2
/// let lists = ListAssignment::uniform(60, 4);
/// let colors = color_by_arboricity(&g, &lists, 2).unwrap();
/// assert!(graphs::is_proper(&g, &colors));
/// ```
pub fn color_by_arboricity(
    g: &Graph,
    lists: &ListAssignment,
    a: usize,
) -> Result<Vec<usize>, CorollaryError> {
    if a < 2 {
        return Err(CorollaryError::ArboricityTooSmall { a });
    }
    run(g, lists, 2 * a)
}

/// Corollary 2.3(1): 6-list-colors a planar graph in `O(log³ n)` rounds.
///
/// Planarity is the *caller's* promise (our planar workloads are planar by
/// construction); the consequence we rely on, `mad < 6`, is what the
/// algorithm actually uses, and a `K_7` would disprove planarity.
pub fn color_planar(g: &Graph, lists: &ListAssignment) -> Result<Vec<usize>, CorollaryError> {
    run(g, lists, 6)
}

/// Corollary 2.3(2): 4-list-colors a triangle-free planar graph.
///
/// # Errors
///
/// [`CorollaryError::StructuralCheckFailed`] if the graph has a triangle.
pub fn color_planar_triangle_free(
    g: &Graph,
    lists: &ListAssignment,
) -> Result<Vec<usize>, CorollaryError> {
    if !graphs::is_triangle_free(g, None) {
        return Err(CorollaryError::StructuralCheckFailed {
            check: "triangle-free",
        });
    }
    run(g, lists, 4)
}

/// Corollary 2.3(3): 3-list-colors a planar graph of girth ≥ 6.
///
/// # Errors
///
/// [`CorollaryError::StructuralCheckFailed`] if the girth is below 6.
pub fn color_planar_girth6(
    g: &Graph,
    lists: &ListAssignment,
) -> Result<Vec<usize>, CorollaryError> {
    if graphs::girth(g, None).is_some_and(|girth| girth < 6) {
        return Err(CorollaryError::StructuralCheckFailed {
            check: "girth ≥ 6"
        });
    }
    run(g, lists, 3)
}

/// The Heawood choice-number bound `H(g) = ⌊(7 + √(24g+1))/2⌋` for Euler
/// genus `g` (paper §2). `H(1) = 6`, `H(2) = 7`, `H(3) = 7`, … (the paper
/// applies it for `g ≥ 1`; at `g = 0` the formula collapses to 4).
pub fn heawood_number(euler_genus: usize) -> usize {
    ((7.0 + ((24 * euler_genus + 1) as f64).sqrt()) / 2.0).floor() as usize
}

/// The Heawood mad bound `M(g) = (5 + √(24g+1))/2` (graphs of Euler genus
/// `g ≥ 1` have `mad ≤ M(g)`).
pub fn heawood_mad_bound(euler_genus: usize) -> f64 {
    (5.0 + ((24 * euler_genus + 1) as f64).sqrt()) / 2.0
}

/// Corollary 2.11: `H(g)`-list-colors a graph embeddable on a surface of
/// Euler genus `g ≥ 1` in `O(log³ n)` rounds. With `try_fewer = true` and
/// `M(g)` an integer, attempts the `(H(g)−1)`-list-coloring of the second
/// part (which can fail with [`CorollaryError::ClassViolated`] carrying a
/// `K_{H(g)}` — exactly the excluded complete graph).
pub fn color_genus(
    g: &Graph,
    euler_genus: usize,
    lists: &ListAssignment,
    try_fewer: bool,
) -> Result<Vec<usize>, CorollaryError> {
    let m = heawood_mad_bound(euler_genus);
    let d = if try_fewer && (m.fract() == 0.0) {
        m as usize
    } else {
        m.ceil() as usize
    };
    run(g, lists, d.max(3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    fn assert_list_proper(g: &Graph, lists: &ListAssignment, colors: &[usize]) {
        assert!(graphs::is_proper(g, colors));
        for v in g.vertices() {
            assert!(lists.list(v).contains(&colors[v]));
        }
    }

    #[test]
    fn arboricity_coloring_uses_2a_colors() {
        for a in [2usize, 3] {
            let g = gen::forest_union(90, a, 31 + a as u64);
            let lists = ListAssignment::uniform(90, 2 * a);
            let colors = color_by_arboricity(&g, &lists, a).unwrap();
            assert_list_proper(&g, &lists, &colors);
            assert!(colors.iter().all(|&c| c < 2 * a));
        }
    }

    #[test]
    fn arboricity_rejects_trees_parameter() {
        let g = gen::random_tree(20, 1);
        let lists = ListAssignment::uniform(20, 2);
        assert!(matches!(
            color_by_arboricity(&g, &lists, 1),
            Err(CorollaryError::ArboricityTooSmall { a: 1 })
        ));
    }

    #[test]
    fn arboricity_class_violation_reports_clique() {
        // K5 has arboricity 3 > 2; claiming a = 2 with 4-lists must surface
        // the K5 (d = 4, K_{d+1} = K5).
        let g = gen::complete(5);
        let lists = ListAssignment::uniform(5, 4);
        match color_by_arboricity(&g, &lists, 2) {
            Err(CorollaryError::ClassViolated { clique }) => assert_eq!(clique.len(), 5),
            other => panic!("expected clique, got {other:?}"),
        }
    }

    #[test]
    fn planar_six_coloring() {
        let g = gen::apollonian(70, 11);
        let lists = ListAssignment::random(70, 6, 11, 2);
        let colors = color_planar(&g, &lists).unwrap();
        assert_list_proper(&g, &lists, &colors);
    }

    #[test]
    fn triangle_free_four_coloring() {
        let g = gen::grid(8, 8);
        let lists = ListAssignment::uniform(64, 4);
        let colors = color_planar_triangle_free(&g, &lists).unwrap();
        assert_list_proper(&g, &lists, &colors);
        // Rejects graphs with triangles.
        let t = gen::triangular(4, 4);
        let lt = ListAssignment::uniform(t.n(), 4);
        assert!(matches!(
            color_planar_triangle_free(&t, &lt),
            Err(CorollaryError::StructuralCheckFailed { .. })
        ));
    }

    #[test]
    fn girth6_three_coloring() {
        let g = gen::hexagonal(4, 5);
        let lists = ListAssignment::uniform(g.n(), 3);
        let colors = color_planar_girth6(&g, &lists).unwrap();
        assert_list_proper(&g, &lists, &colors);
        // Grid has girth 4: rejected.
        let grid = gen::grid(5, 5);
        let lg = ListAssignment::uniform(25, 3);
        assert!(matches!(
            color_planar_girth6(&grid, &lg),
            Err(CorollaryError::StructuralCheckFailed { .. })
        ));
    }

    #[test]
    fn heawood_number_small_genera() {
        assert_eq!(heawood_number(0), 4); // formula collapses to 4 on the sphere
                                          // g=1: ⌊(7+5)/2⌋ = 6; g=2: ⌊(7+7)/2⌋ = 7; g=3: ⌊(7+√73)/2⌋ = 7.
        assert_eq!(heawood_number(1), 6);
        assert_eq!(heawood_number(2), 7);
        assert_eq!(heawood_number(3), 7);
    }

    #[test]
    fn genus_coloring_on_torus_grid() {
        // Toroidal grid: Euler genus 2, mad = 4 ≤ M(2) = 6 → H(2) = 7 lists.
        let g = gen::torus_grid(6, 8);
        let lists = ListAssignment::uniform(g.n(), heawood_number(2));
        let colors = color_genus(&g, 2, &lists, false).unwrap();
        assert_list_proper(&g, &lists, &colors);
    }

    #[test]
    fn genus_coloring_fewer_colors_when_integral() {
        // g = 1 (projective plane): M = 5 exactly, H = 6; try H−1 = 5 lists
        // on the Klein-bottle grid (Euler genus 2 ≤ … use torus grid with
        // genus parameter 1 — mad = 4 ≤ 5 still sound for the solver).
        let g = gen::torus_grid(5, 7);
        let lists = ListAssignment::uniform(g.n(), 5);
        let colors = color_genus(&g, 1, &lists, true).unwrap();
        assert_list_proper(&g, &lists, &colors);
        assert!(colors.iter().all(|&c| c < 5));
    }
}
