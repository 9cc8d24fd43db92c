//! Theorem 6.1 (nice list-assignments) and Corollary 2.1 (the Brooks-type
//! Δ-list-coloring).
//!
//! A list-assignment is *nice* when `|L(v)| ≥ deg(v)` for every vertex, and
//! `|L(v)| ≥ deg(v) + 1` whenever `deg(v) ≤ 2` or `N(v)` is a clique
//! (paper §6). The paper observes that Theorem 1.3's machinery runs
//! verbatim with `d` replaced by each vertex's own list size — every vertex
//! is rich — giving `O(Δ² log³ n)` rounds. Our implementation reuses the
//! generic extension (which is already per-vertex) and Theorem 1.3's
//! verdict loop with `|L(v)|` as each vertex's threshold: a ball is helpful
//! if it contains a vertex with `|L(v)| > deg(v)` (a *surplus*) or is not a
//! Gallai tree.

use crate::extend::{extend_to_happy_set, UNCOLORED};
use crate::happy::{split_by_verdict, Classification};
use crate::lists::ListAssignment;
use crate::theorem13::ColoringError;
use graphs::{components, Bfs, Graph, VertexId, VertexSet};
use local_model::RoundLedger;
use std::fmt;

/// Failure modes of the nice-list / Brooks-type algorithms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BrooksError {
    /// The list-assignment is not nice for this graph.
    NotNice {
        /// A vertex violating the niceness condition.
        vertex: VertexId,
    },
    /// Corollary 2.1: some `K_{Δ+1}` component admits no coloring from its
    /// lists — so no `L`-list-coloring of `G` exists (the certified
    /// negative outcome the corollary promises).
    NoColoringExists {
        /// The uncolorable clique component.
        component: Vec<VertexId>,
    },
    /// Corollary 2.1 requires `Δ ≥ 3`.
    MaxDegreeTooSmall {
        /// The rejected maximum degree.
        max_degree: usize,
    },
    /// Propagated main-algorithm failure.
    Coloring(ColoringError),
}

impl fmt::Display for BrooksError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrooksError::NotNice { vertex } => {
                write!(f, "list assignment is not nice at vertex {vertex}")
            }
            BrooksError::NoColoringExists { component } => write!(
                f,
                "no list-coloring exists: clique component {component:?} is infeasible"
            ),
            BrooksError::MaxDegreeTooSmall { max_degree } => {
                write!(f, "corollary 2.1 requires max degree ≥ 3, got {max_degree}")
            }
            BrooksError::Coloring(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BrooksError {}

impl From<ColoringError> for BrooksError {
    fn from(e: ColoringError) -> Self {
        BrooksError::Coloring(e)
    }
}

/// Nice-list happiness: every alive vertex is rich; a ball is helpful when
/// it holds a surplus vertex (`|L(v)| > alive_degree(v)`) or is non-Gallai
/// — Theorem 1.3's verdict loop with each vertex's list size as its
/// threshold.
fn classify_nice(
    g: &Graph,
    alive: &VertexSet,
    lists: &ListAssignment,
    radius: usize,
    ledger: &mut RoundLedger,
) -> Classification {
    let mut bfs = Bfs::new(g.n());
    let (happy, sad) = split_by_verdict(
        g,
        alive,
        |w| lists.list(w).len(),
        alive,
        Some(radius),
        |v| bfs.ball(g, v, radius, Some(alive)),
    );
    ledger.charge("ball-gather", radius as u64);
    Classification {
        rich: alive.clone(),
        poor: VertexSet::new(g.n()),
        happy,
        sad,
        radius,
    }
}

/// Theorem 6.1: finds an `L`-list-coloring for any **nice** assignment `L`
/// in `O(Δ² log³ n)` rounds.
///
/// # Errors
///
/// [`BrooksError::NotNice`] when the assignment is not nice;
/// [`BrooksError::Coloring`] on internal failure (never for nice inputs).
///
/// # Examples
///
/// ```
/// use distributed_coloring::brooks::nice_list_coloring;
/// use distributed_coloring::ListAssignment;
/// use graphs::gen;
/// let g = gen::petersen(); // 3-regular, neighborhoods are independent sets
/// let lists = ListAssignment::uniform(10, 3); // deg-sized lists are nice here
/// let (colors, _ledger) = nice_list_coloring(&g, &lists).unwrap();
/// assert!(graphs::is_proper(&g, &colors));
/// ```
pub fn nice_list_coloring(
    g: &Graph,
    lists: &ListAssignment,
) -> Result<(Vec<usize>, RoundLedger), BrooksError> {
    assert_eq!(lists.n(), g.n());
    if let Some(v) = g.vertices().find(|&v| {
        let d = g.degree(v);
        let len = lists.list(v).len();
        if d <= 2 || graphs::is_clique(g, g.neighbors(v)) {
            len < d + 1
        } else {
            len < d
        }
    }) {
        return Err(BrooksError::NotNice { vertex: v });
    }

    let n = g.n();
    let mut ledger = RoundLedger::new();
    let mut alive = VertexSet::full(n);
    let mut levels: Vec<(VertexSet, Classification)> = Vec::new();
    while !alive.is_empty() {
        let mut radius = 2usize;
        let classification = loop {
            let c = classify_nice(g, &alive, lists, radius, &mut ledger);
            if !c.happy.is_empty() {
                break c;
            }
            if radius >= n {
                // Unreachable for nice assignments (leaf blocks always hold
                // surplus vertices); report as a coloring failure.
                return Err(BrooksError::Coloring(ColoringError::NoHappyVertices {
                    alive: alive.len(),
                }));
            }
            radius = (2 * radius).min(n);
        };
        let pre_removal = alive.clone();
        alive.difference_with(&classification.happy);
        levels.push((pre_removal, classification));
    }
    let mut colors = vec![UNCOLORED; n];
    for (level_alive, classification) in levels.iter().rev() {
        extend_to_happy_set(
            g,
            level_alive,
            lists,
            classification,
            &mut colors,
            &mut ledger,
            None,
        )
        .map_err(|e| BrooksError::Coloring(ColoringError::Extend(e)))?;
    }
    debug_assert!(graphs::is_proper(g, &colors));
    Ok((colors, ledger))
}

/// Corollary 2.1: given `Δ ≥ 3` and a `Δ`-list-assignment, finds an
/// `L`-list-coloring or certifies that none exists.
///
/// Strategy: `K_{Δ+1}` components are the only non-nice obstruction; each
/// is solved exactly (it has Δ+1 vertices), and an infeasible one
/// certifies global infeasibility. The rest is nice and goes through
/// [`nice_list_coloring`].
///
/// # Errors
///
/// [`BrooksError::NoColoringExists`] with the offending clique component;
/// [`BrooksError::MaxDegreeTooSmall`] when `Δ < 3`;
/// [`BrooksError::NotNice`] when some list is smaller than `Δ`.
pub fn brooks_list_coloring(
    g: &Graph,
    lists: &ListAssignment,
) -> Result<(Vec<usize>, RoundLedger), BrooksError> {
    assert_eq!(lists.n(), g.n());
    let delta = g.max_degree();
    if delta < 3 {
        return Err(BrooksError::MaxDegreeTooSmall { max_degree: delta });
    }
    if let Some(v) = g.vertices().find(|&v| lists.list(v).len() < delta) {
        return Err(BrooksError::NotNice { vertex: v });
    }

    // Split off K_{Δ+1} components.
    let (comp_id, comp_count) = components(g, None);
    let mut comp_members: Vec<Vec<VertexId>> = vec![Vec::new(); comp_count];
    for v in g.vertices() {
        comp_members[comp_id[v]].push(v);
    }
    let mut colors = vec![UNCOLORED; g.n()];
    let mut rest = VertexSet::new(g.n());
    for members in &comp_members {
        if members.len() == delta + 1 && graphs::is_clique(g, members) {
            // Exact solve (tiny: Δ+1 vertices).
            let sub = graphs::InducedSubgraph::new(g, members.iter().copied());
            let sub_lists: Vec<Vec<usize>> = sub
                .parent_vertices()
                .iter()
                .map(|&p| lists.list(p).to_vec())
                .collect();
            match graphs::list_coloring(sub.graph(), &sub_lists) {
                Some(sol) => {
                    for (local, &p) in sub.parent_vertices().iter().enumerate() {
                        colors[p] = sol[local];
                    }
                }
                None => {
                    return Err(BrooksError::NoColoringExists {
                        component: members.clone(),
                    })
                }
            }
        } else {
            for &v in members {
                rest.insert(v);
            }
        }
    }

    // The rest (as an induced subgraph) has nice Δ-lists: no vertex's closed
    // neighborhood is a K_{Δ+1} there.
    let sub = graphs::InducedSubgraph::from_set(g, &rest);
    let sub_lists = ListAssignment::new(
        sub.parent_vertices()
            .iter()
            .map(|&p| lists.list(p).to_vec())
            .collect(),
    );
    let (sub_colors, ledger) = nice_list_coloring(sub.graph(), &sub_lists)?;
    for (local, &p) in sub.parent_vertices().iter().enumerate() {
        colors[p] = sub_colors[local];
    }
    debug_assert!(graphs::is_proper(g, &colors));
    Ok((colors, ledger))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    #[test]
    fn nice_lists_on_random_regular() {
        // d-regular, d ≥ 3, non-clique components: deg-sized lists are nice
        // unless some neighborhood is a clique — rare; filter.
        for (d, seed) in [(3usize, 2u64), (4, 5), (5, 8)] {
            let g = gen::random_regular(24, d, seed);
            let lists = ListAssignment::uniform(24, d);
            match nice_list_coloring(&g, &lists) {
                Ok((colors, _)) => {
                    assert!(graphs::is_proper(&g, &colors));
                    assert!(colors.iter().all(|&c| c < d));
                }
                Err(BrooksError::NotNice { .. }) => {} // clique neighborhood
                Err(e) => panic!("unexpected: {e}"),
            }
        }
    }

    #[test]
    fn nice_lists_with_varying_sizes() {
        // Caterpillar: degrees vary; give everyone deg+1 colors — nice.
        let g = gen::caterpillar(10, 2);
        let lists =
            ListAssignment::new(g.vertices().map(|v| (0..=g.degree(v)).collect()).collect());
        let (colors, _) = nice_list_coloring(&g, &lists).unwrap();
        assert!(graphs::is_proper(&g, &colors));
        for v in g.vertices() {
            assert!(lists.list(v).contains(&colors[v]));
        }
    }

    #[test]
    fn not_nice_detected() {
        let g = gen::path(4); // degrees ≤ 2 need deg+1 colors
        let lists = ListAssignment::new(vec![vec![0], vec![0, 1], vec![0, 1], vec![0]]);
        assert!(matches!(
            nice_list_coloring(&g, &lists),
            Err(BrooksError::NotNice { .. })
        ));
    }

    #[test]
    fn brooks_colors_petersen_with_3_lists() {
        let g = gen::petersen();
        let lists = ListAssignment::random(10, 3, 6, 4);
        let (colors, _) = brooks_list_coloring(&g, &lists).unwrap();
        assert!(graphs::is_proper(&g, &colors));
        for v in g.vertices() {
            assert!(lists.list(v).contains(&colors[v]));
        }
    }

    #[test]
    fn brooks_certifies_infeasible_clique() {
        // K4 with identical 3-lists: no coloring exists.
        let g = gen::complete(4);
        let lists = ListAssignment::uniform(4, 3);
        match brooks_list_coloring(&g, &lists) {
            Err(BrooksError::NoColoringExists { component }) => {
                assert_eq!(component, vec![0, 1, 2, 3]);
            }
            other => panic!("expected certificate, got {other:?}"),
        }
    }

    #[test]
    fn brooks_colors_feasible_clique_component() {
        // K4 with diverse 3-lists + a path component: colorable.
        let k4 = gen::complete(4);
        let g = k4.disjoint_union(&gen::random_regular(12, 3, 3));
        let mut raw: Vec<Vec<usize>> =
            vec![vec![0, 1, 2], vec![0, 1, 2], vec![0, 1, 3], vec![1, 2, 3]];
        raw.extend(std::iter::repeat_n(vec![0, 1, 2], 12));
        let lists = ListAssignment::new(raw);
        let (colors, _) = brooks_list_coloring(&g, &lists).unwrap();
        assert!(graphs::is_proper(&g, &colors));
    }

    #[test]
    fn brooks_rejects_small_delta() {
        let g = gen::cycle(6);
        let lists = ListAssignment::uniform(6, 2);
        assert!(matches!(
            brooks_list_coloring(&g, &lists),
            Err(BrooksError::MaxDegreeTooSmall { max_degree: 2 })
        ));
    }

    #[test]
    fn delta_coloring_matches_corollary_on_grid() {
        // Grid has Δ = 4, no K5: 4-coloring must exist (Brooks).
        let g = gen::grid(6, 6);
        let lists = ListAssignment::uniform(36, 4);
        let (colors, _) = brooks_list_coloring(&g, &lists).unwrap();
        assert!(colors.iter().all(|&c| c < 4));
        assert!(graphs::is_proper(&g, &colors));
    }
}
