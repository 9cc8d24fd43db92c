//! Theorem 6.1 (nice list-assignments) and Corollary 2.1 (the Brooks-type
//! Δ-list-coloring).
//!
//! A list-assignment is *nice* when `|L(v)| ≥ deg(v)` for every vertex, and
//! `|L(v)| ≥ deg(v) + 1` whenever `deg(v) ≤ 2` or `N(v)` is a clique
//! (paper §6). The paper observes that Theorem 1.3's machinery runs
//! verbatim with `d` replaced by each vertex's own list size — every vertex
//! is rich — giving `O(Δ² log³ n)` rounds. [`nice_list_coloring`] runs
//! exactly that: Theorem 1.3's one peel-and-extend loop
//! ([`crate::theorem13`]), on the sequential substrate, with the adaptive
//! radius schedule from 2. Only two inputs differ. Its classification makes
//! every alive vertex rich and uses `|L(v)|` as each vertex's threshold, so
//! a ball is helpful if it contains a vertex with `|L(v)| > deg(v)` (a
//! *surplus*) or is not a Gallai tree. And a stuck level looks for no
//! clique. The peel statistics are discarded.

use crate::extend::UNCOLORED;
use crate::happy::classify_rich;
use crate::lists::ListAssignment;
use crate::substrate::Substrate;
use crate::theorem13::{peel_and_extend, ColoringError, Outcome, RadiusPolicy};
use graphs::{components, Graph, InducedSubgraph, VertexId, VertexSet};
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
    if let Some(vertex) = lists.not_nice_at(g) {
        return Err(BrooksError::NotNice { vertex });
    }

    // Every alive vertex is rich, and a ball is helpful when it holds a
    // surplus vertex (`|L(v)| > alive_degree(v)`) or is non-Gallai. A level
    // without happy vertices is unreachable for nice assignments (leaf
    // blocks always hold surplus vertices), so none looks for a clique.
    let list_size = |w: VertexId| lists.list(w).len();
    let outcome = peel_and_extend(
        g,
        lists,
        RadiusPolicy::Adaptive { initial: 2 },
        Substrate::Sequential,
        |_, alive, radius, ledger| {
            classify_rich(g, alive, alive.clone(), list_size, radius, ledger)
        },
        |_, _, _| None,
    )?;
    let Outcome::Colored(coloring) = outcome else {
        unreachable!("Theorem 6.1 looks for no clique")
    };
    Ok((coloring.colors, coloring.ledger))
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

    let sub_lists = |sub: &InducedSubgraph| -> Vec<Vec<usize>> {
        let parents = sub.parent_vertices();
        parents.iter().map(|&p| lists.list(p).to_vec()).collect()
    };
    let mut colors = vec![UNCOLORED; g.n()];
    let mut lift = |sub: &InducedSubgraph, sub_colors: Vec<usize>| {
        for (&p, c) in sub.parent_vertices().iter().zip(sub_colors) {
            colors[p] = c;
        }
    };

    // Split off K_{Δ+1} components and solve each exactly (Δ+1 vertices).
    let (comp_id, comp_count) = components(g, None);
    let mut comp_members: Vec<Vec<VertexId>> = vec![Vec::new(); comp_count];
    for v in g.vertices() {
        comp_members[comp_id[v]].push(v);
    }
    let mut rest = VertexSet::full(g.n());
    for clique in comp_members
        .into_iter()
        .filter(|m| m.len() == delta + 1 && graphs::is_clique(g, m))
    {
        let sub = InducedSubgraph::new(g, clique.iter().copied());
        let Some(sub_colors) = graphs::list_coloring(sub.graph(), &sub_lists(&sub)) else {
            return Err(BrooksError::NoColoringExists { component: clique });
        };
        lift(&sub, sub_colors);
        for v in clique {
            rest.remove(v);
        }
    }

    // The rest (as an induced subgraph) has nice Δ-lists: no vertex's closed
    // neighborhood is a K_{Δ+1} there.
    let sub = InducedSubgraph::from_set(g, &rest);
    let (sub_colors, ledger) =
        nice_list_coloring(sub.graph(), &ListAssignment::new(sub_lists(&sub)))?;
    lift(&sub, sub_colors);
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

    /// 64-bit FNV-1a over the colors.
    fn fnv(colors: &[usize]) -> u64 {
        colors.iter().fold(0xcbf2_9ce4_8422_2325, |h, &c| {
            (h ^ c as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Asserts the colors' FNV-1a hash and every ledger phase total, in
    /// first-charged order.
    fn assert_pinned(case: &str, colors: &[usize], ledger: &RoundLedger, pin: Pin) {
        let phases: Vec<(String, u64)> = pin.1.iter().map(|&(p, t)| (p.to_owned(), t)).collect();
        assert_eq!((fnv(colors), ledger.summary()), (pin.0, phases), "{case}");
    }

    type Pin = (u64, &'static [(&'static str, u64)]);

    const PETERSEN_PIN: Pin = (
        0x0489_7958_e6fe_7e3a,
        &[
            ("ball-gather", 2),
            ("ruling-set", 24),
            ("ruling-forest-claim", 24),
            ("ruling-forest-prune", 24),
            ("forest-decomposition", 1),
            ("cole-vishkin", 6),
            ("shift-down", 18),
            ("class-sweep", 15),
            ("layered-coloring", 8),
            ("root-ball-recolor", 4),
        ],
    );

    #[test]
    fn theorem_61_colors_and_ledgers_are_pinned() {
        // Exact colors and every ledger phase total of Theorem 6.1 and
        // Corollary 2.1 on fixed inputs, so a change of behaviour fails
        // here and not only an invalid coloring. The caterpillar input is
        // the one `examples/brooks_and_planar_classes.rs` runs. Seed 5 is
        // the first seed ≥ 5 whose 3-regular graph takes uniform 3-lists as
        // nice (no K4 component); those lists are tight, so the Gallai
        // verdicts decide.
        let cat = gen::caterpillar(30, 3);
        let cat_lists = ListAssignment::new(
            cat.vertices()
                .map(|v| (0..=cat.degree(v)).collect())
                .collect(),
        );
        let cases: [(&str, Graph, ListAssignment, Pin); 3] = [
            (
                "petersen",
                gen::petersen(),
                ListAssignment::uniform(10, 3),
                PETERSEN_PIN,
            ),
            (
                "caterpillar",
                cat,
                cat_lists,
                (
                    0x1246_005b_ed0d_4c7f,
                    &[
                        ("ball-gather", 2),
                        ("ruling-set", 42),
                        ("ruling-forest-claim", 42),
                        ("ruling-forest-prune", 42),
                        ("forest-decomposition", 1),
                        ("cole-vishkin", 10),
                        ("shift-down", 24),
                        ("class-sweep", 30),
                        ("layered-coloring", 30),
                        ("root-ball-recolor", 4),
                    ],
                ),
            ),
            (
                "random-regular seed 5",
                gen::random_regular(200, 3, 5),
                ListAssignment::uniform(200, 3),
                (
                    0x90f2_495b_aa64_01c6,
                    &[
                        ("ball-gather", 8),
                        ("ruling-set", 192),
                        ("ruling-forest-claim", 192),
                        ("ruling-forest-prune", 192),
                        ("forest-decomposition", 4),
                        ("cole-vishkin", 27),
                        ("shift-down", 72),
                        ("class-sweep", 60),
                        ("layered-coloring", 84),
                        ("root-ball-recolor", 16),
                    ],
                ),
            ),
        ];
        for (case, g, lists, pin) in cases {
            let (colors, ledger) = nice_list_coloring(&g, &lists).unwrap();
            assert!(graphs::is_proper(&g, &colors), "{case}");
            assert_pinned(case, &colors, &ledger, pin);
        }
        let g = gen::petersen();
        let (colors, ledger) = brooks_list_coloring(&g, &ListAssignment::uniform(10, 3)).unwrap();
        assert_pinned("brooks petersen", &colors, &ledger, PETERSEN_PIN);
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
