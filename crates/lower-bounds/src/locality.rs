//! Observation 2.4 machinery: LOCAL indistinguishability via ball
//! isomorphism.
//!
//! If every ball of radius `r + 1` in `H` is isomorphic to some ball in
//! `G`, then an `r`-round distributed algorithm cannot color `G` with
//! fewer than `χ(H)` colors: the adversary runs the algorithm on `H`,
//! where each vertex sees the same labelled neighborhood. The functions
//! here *measure* that correspondence on concrete graph pairs, which is
//! how this crate's tests and `examples/locality_lower_bound.rs` certify
//! Theorems 1.5, 2.5 and 2.6.

use graphs::{are_rooted_isomorphic, ball, Graph, InducedSubgraph, VertexId};

/// The largest radius `r ≤ max_radius` such that the balls of radius `r`
/// around `root_h` in `h` and `root_g` in `g` are rooted-isomorphic
/// (`None` if they already differ at radius 0 — impossible for nonempty
/// graphs — or 1).
pub fn indistinguishability_radius(
    h: &Graph,
    root_h: VertexId,
    g: &Graph,
    root_g: VertexId,
    max_radius: usize,
) -> Option<usize> {
    let mut best = None;
    for r in 1..=max_radius {
        if balls_match(h, root_h, g, root_g, r) {
            best = Some(r);
        } else {
            break;
        }
    }
    best
}

/// Whether the radius-`r` balls around the two roots are rooted-isomorphic.
pub fn balls_match(h: &Graph, root_h: VertexId, g: &Graph, root_g: VertexId, r: usize) -> bool {
    let bh = InducedSubgraph::new(h, ball(h, root_h, r, None));
    let bg = InducedSubgraph::new(g, ball(g, root_g, r, None));
    let (Some(rh), Some(rg)) = (bh.from_parent(root_h), bg.from_parent(root_g)) else {
        return false;
    };
    are_rooted_isomorphic(bh.graph(), rh, bg.graph(), rg)
}

/// A report row for one Observation 2.4 experiment: a "hard" graph `H`
/// (high chromatic number) whose balls match balls of an "easy" graph `G`.
#[derive(Clone, Debug)]
pub struct IndistinguishabilityReport {
    /// Number of vertices of the hard graph.
    pub hard_n: usize,
    /// Chromatic number of the hard graph (exact).
    pub hard_chi: usize,
    /// Chromatic number of the easy (planar) comparison graph (exact).
    pub easy_chi: usize,
    /// Fraction of hard-graph vertices whose radius-`radius` ball matches
    /// some easy-graph ball.
    pub matched_fraction: f64,
    /// The radius checked.
    pub radius: usize,
}

/// Checks, for every vertex of `hard`, whether its radius-`radius` ball
/// matches the ball around `easy_root` in `easy` (vertex-transitive easy
/// side) and reports the fraction. Exact χ is computed for both graphs —
/// keep them small.
pub fn indistinguishability_report(
    hard: &Graph,
    easy: &Graph,
    easy_roots: &[VertexId],
    radius: usize,
) -> IndistinguishabilityReport {
    let matched = hard
        .vertices()
        .filter(|&v| {
            easy_roots
                .iter()
                .any(|&w| balls_match(hard, v, easy, w, radius))
        })
        .count();
    IndistinguishabilityReport {
        hard_n: hard.n(),
        hard_chi: graphs::chromatic_number(hard),
        easy_chi: graphs::chromatic_number(easy),
        matched_fraction: matched as f64 / hard.n() as f64,
        radius,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    #[test]
    fn path_interior_vs_cycle() {
        // Linial's classic: cycle balls look like path balls.
        let c = gen::cycle(20);
        let p = gen::path(41);
        let r = indistinguishability_radius(&c, 5, &p, 20, 8).unwrap();
        assert!(r >= 8, "cycle and path balls match to radius 8, got {r}");
    }

    #[test]
    fn radius_stops_at_structure() {
        // A cycle of length 9 vs a long path: balls match until the cycle
        // closes (radius 4 wraps: ball = whole C9 ≠ path segment).
        let c = gen::cycle(9);
        let p = gen::path(41);
        let r = indistinguishability_radius(&c, 0, &p, 20, 8).unwrap();
        assert_eq!(r, 3);
    }

    #[test]
    fn klein_grid_vs_planar_grid_interiors() {
        // Theorem 2.6's engine: interior balls of the odd Klein grid match
        // interior balls of the planar grid.
        let kg = gen::klein_grid(9, 9);
        let pg = gen::grid(9, 9);
        let center_k = 4 * 9 + 4;
        let center_p = 4 * 9 + 4;
        assert!(balls_match(&kg, center_k, &pg, center_p, 2));
    }

    #[test]
    fn report_on_small_klein() {
        let kg = gen::klein_grid(5, 5);
        // Easy side: torus grid (3-colorable? torus 5x5 chi=3…) — use the
        // big planar grid with several root types (interior, edge, corner).
        let pg = gen::grid(11, 11);
        let roots: Vec<usize> = vec![5 * 11 + 5];
        let rep = indistinguishability_report(&kg, &pg, &roots, 1);
        assert_eq!(rep.hard_chi, 4);
        assert_eq!(rep.easy_chi, 2);
        // All Klein-grid vertices are interior-like (4-regular).
        assert_eq!(rep.matched_fraction, 1.0);
    }
}
