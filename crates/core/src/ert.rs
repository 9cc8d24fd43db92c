//! Constructive Theorem 1.1 (Borodin \[7\]; Erdős–Rubin–Taylor \[10\]):
//! a connected graph that is **not a Gallai tree** is degree-choosable.
//!
//! The paper uses this theorem as a black box to finish each ruling-forest
//! root ball in Lemma 3.2; we need an executable, polynomial-time proof.
//! The implementation follows a self-contained induction (see DESIGN.md):
//!
//! 1. **Surplus:** if some vertex has more live colors than alive
//!    neighbors, reverse-BFS greedy colors the whole component.
//! 2. **2-connected, all tight:**
//!    a. an edge `uv` with `L(u) ≠ L(v)` lets us color `u` with a color
//!    missing from `L(v)`; 2-connectivity keeps the rest connected and
//!    `v` gains a surplus;
//!    b. otherwise all lists are equal, the component is `k`-regular:
//!    `k = 2` is an even cycle (2-color it); `k ≥ 3` uses the
//!    Brooks–Lovász triple — a vertex `z` with non-adjacent neighbors
//!    `x, y` whose removal keeps the component connected — coloring
//!    `x, y` alike gives `z` a surplus.
//! 3. **Cut vertex, all tight:** some block `B*` is non-Gallai. Peel a leaf
//!    block `D ≠ B*` with cut vertex `x`: color `D − x` first (its
//!    `x`-neighbors have a surplus *inside* `D − x` because `x` stays
//!    alive), then recurse on the remainder, which still contains `B*`.

use crate::state::ColoringState;
use graphs::{block_decomposition, classify_block, BlockKind, VertexId, VertexSet};
use std::fmt;

/// Failure of the constructive Theorem 1.1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ErtError {
    /// The component is a Gallai tree with all-tight lists — exactly the
    /// obstruction excluded by the theorem's hypothesis.
    GallaiObstruction {
        /// A vertex of the offending component.
        witness: VertexId,
    },
    /// Internal invariant breach: the Brooks–Lovász triple search failed on
    /// a 2-connected regular non-clique component. This indicates a bug, not
    /// a bad input, and is surfaced rather than panicking.
    TripleSearchFailed {
        /// A vertex of the offending component.
        witness: VertexId,
    },
}

impl fmt::Display for ErtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErtError::GallaiObstruction { witness } => write!(
                f,
                "component of vertex {witness} is a Gallai tree with tight lists"
            ),
            ErtError::TripleSearchFailed { witness } => write!(
                f,
                "Brooks–Lovász triple not found in component of vertex {witness}"
            ),
        }
    }
}

impl std::error::Error for ErtError {}

/// Colors the entire alive component of `anchor` in `state`.
///
/// Precondition (the hypothesis of Theorem 1.1): for every alive vertex of
/// the component, `|live(v)| ≥ alive_degree(v)`; and either some vertex has
/// a strict surplus or the component is not a Gallai tree.
///
/// # Errors
///
/// [`ErtError::GallaiObstruction`] when the precondition fails (the
/// component is a tight Gallai tree).
pub fn color_component(state: &mut ColoringState<'_>, anchor: VertexId) -> Result<(), ErtError> {
    let mut anchor = anchor;
    loop {
        // Case 1: a surplus vertex finishes the whole component.
        if let Some(v) = state.surplus_in_component(anchor) {
            state.greedy_from_surplus(v);
            return Ok(());
        }

        // All lists tight. Find the structure.
        let comp = state.alive_component(anchor);
        let g = state.graph();
        let decomposition = block_decomposition(g, Some(&comp));

        if decomposition.blocks.len() == 1 {
            // 2-connected: handled exactly — including the Gallai boundary
            // (a clique or odd cycle with *identical* tight lists is
            // genuinely uncolorable; with differing lists case 2a colors it
            // even though the theorem's hypothesis technically fails).
            return color_two_connected(state, &comp, anchor);
        }

        let non_gallai: Vec<usize> = decomposition
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| classify_block(g, b) == BlockKind::Other)
            .map(|(i, _)| i)
            .collect();
        let Some(&bad_block) = non_gallai.first() else {
            return Err(ErtError::GallaiObstruction { witness: anchor });
        };

        // Case 3: peel a leaf block other than the non-Gallai one.
        let leaf = decomposition
            .leaf_blocks()
            .into_iter()
            .find(|&i| i != bad_block)
            .expect("a block-cut tree with ≥ 2 blocks has ≥ 2 leaves");
        let cut = *decomposition
            .cut_vertices_in(leaf)
            .first()
            .expect("a leaf block in a connected multi-block component has a cut vertex");
        let region: Vec<VertexId> = decomposition.blocks[leaf]
            .iter()
            .copied()
            .filter(|&v| v != cut)
            .collect();
        debug_assert!(!region.is_empty(), "blocks have ≥ 2 vertices");
        // Start from a region vertex adjacent to the cut vertex: the cut
        // vertex stays alive, so the start always keeps a free color.
        let start = *region
            .iter()
            .find(|&&v| g.has_edge(v, cut))
            .expect("every block vertex set touches its cut vertex");
        let region_set = VertexSet::from_iter_with_universe(g.n(), region.iter().copied());
        // Reverse-BFS greedy inside the region: each vertex keeps its BFS
        // parent uncolored until its turn, and `start` keeps the cut vertex.
        let colored = state.greedy_reverse_bfs(start, Some(&region_set));
        debug_assert_eq!(colored, region.len(), "region must be connected");
        anchor = cut;
    }
}

/// Case 2: `comp` is 2-connected with all-tight lists. Colors it unless it
/// is a clique or odd cycle with identical lists (the exact infeasible
/// boundary).
fn color_two_connected(
    state: &mut ColoringState<'_>,
    comp: &VertexSet,
    anchor: VertexId,
) -> Result<(), ErtError> {
    let g = state.graph();

    // 2a: an edge with differing lists.
    for u in comp.iter() {
        for &v in g.neighbors(u) {
            if !comp.contains(v) {
                continue;
            }
            let lu = state.live_list(u);
            let lv = state.live_list(v);
            if lu != lv {
                // Some color distinguishes them; orient so that `u` owns it.
                let (owner, other) = if lu.iter().any(|c| lv.binary_search(c).is_err()) {
                    (u, v)
                } else {
                    (v, u)
                };
                let c = *state
                    .live_list(owner)
                    .iter()
                    .find(|c| state.live_list(other).binary_search(c).is_err())
                    .expect("lists differ");
                state.assign(owner, c);
                // `other` kept its full list but lost a neighbor: surplus.
                debug_assert!(state.has_surplus(other));
                state.greedy_from_surplus(other);
                return Ok(());
            }
        }
    }

    // 2b: identical lists everywhere; comp is k-regular with k = |list|.
    // Cliques and odd cycles are now genuinely infeasible (identical tight
    // lists): report the obstruction.
    let k = state.live_list(anchor).len();
    let comp_members: Vec<VertexId> = comp.iter().collect();
    if classify_block(g, &comp_members) != BlockKind::Other {
        return Err(ErtError::GallaiObstruction { witness: anchor });
    }
    if k == 2 {
        // Even cycle: 2-color by bipartition.
        let side = graphs::bipartition(g, Some(comp))
            .expect("a 2-regular non-odd-cycle block is an even cycle");
        let palette: Vec<usize> = state.live_list(anchor).to_vec();
        // Color one side then the other; assign() keeps lists consistent.
        let members: Vec<VertexId> = comp.iter().collect();
        for &v in members.iter().filter(|&&v| side[v] == 0) {
            state.assign(v, palette[0]);
        }
        for &v in members.iter().filter(|&&v| side[v] == 1) {
            state.assign(v, palette[1]);
        }
        return Ok(());
    }

    // Brooks–Lovász triple: z with non-adjacent neighbors x, y such that
    // comp − {x, y} is connected. Exists in every 2-connected k-regular
    // (k ≥ 3) non-complete graph.
    for z in comp.iter() {
        let nbrs: Vec<VertexId> = g
            .neighbors(z)
            .iter()
            .copied()
            .filter(|&w| comp.contains(w))
            .collect();
        for (i, &x) in nbrs.iter().enumerate() {
            for &y in &nbrs[i + 1..] {
                if g.has_edge(x, y) {
                    continue;
                }
                let mut rest = comp.clone();
                rest.remove(x);
                rest.remove(y);
                if !graphs::is_connected(g, Some(&rest)) {
                    continue;
                }
                let c = state.live_list(x)[0];
                state.assign(x, c);
                debug_assert!(state.live_list(y).binary_search(&c).is_ok());
                state.assign(y, c);
                debug_assert!(state.has_surplus(z));
                state.greedy_from_surplus(z);
                return Ok(());
            }
        }
    }
    Err(ErtError::TripleSearchFailed { witness: anchor })
}

/// Standalone entry point: list-colors a connected graph `g` with `lists`,
/// under the Theorem 1.1 hypothesis (`|L(v)| ≥ deg(v)` everywhere, and a
/// surplus vertex exists or `g` is not a Gallai tree).
///
/// # Errors
///
/// [`ErtError`] when the hypothesis fails.
///
/// # Panics
///
/// Panics if `lists.len() != g.n()` or some `|L(v)| < deg(v)`.
///
/// # Examples
///
/// ```
/// use distributed_coloring::ert::degree_choosable_coloring;
/// use graphs::gen;
/// // C4 with tight identical 2-lists: not a Gallai tree, so colorable.
/// let g = gen::cycle(4);
/// let lists = vec![vec![7, 9]; 4];
/// let col = degree_choosable_coloring(&g, &lists).unwrap();
/// for (u, v) in g.edges() {
///     assert_ne!(col[u], col[v]);
/// }
/// ```
pub fn degree_choosable_coloring(
    g: &graphs::Graph,
    lists: &[Vec<usize>],
) -> Result<Vec<usize>, ErtError> {
    assert_eq!(lists.len(), g.n());
    for v in g.vertices() {
        assert!(
            lists[v].len() >= g.degree(v),
            "vertex {v}: list smaller than degree"
        );
    }
    let mut state = ColoringState::new(g, VertexSet::full(g.n()), lists.to_vec());
    let mut remaining: Vec<VertexId> = g.vertices().collect();
    while let Some(&v) = remaining.iter().find(|&&v| state.alive().contains(v)) {
        color_component(&mut state, v)?;
        remaining.retain(|&u| state.alive().contains(u));
    }
    Ok(state.into_colors())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    fn check(g: &graphs::Graph, lists: &[Vec<usize>]) {
        let col = degree_choosable_coloring(g, lists).expect("colorable");
        assert!(graphs::is_proper_list_coloring(g, &col, lists));
    }

    #[test]
    fn even_cycles_with_two_lists() {
        for n in [4usize, 6, 8, 10] {
            let g = gen::cycle(n);
            // Identical lists.
            check(&g, &vec![vec![1, 2]; n]);
            // Rotating distinct lists.
            let lists: Vec<Vec<usize>> = (0..n).map(|i| vec![i % 3, (i + 1) % 3]).collect();
            check(&g, &lists);
        }
    }

    #[test]
    fn odd_cycle_tight_identical_is_obstruction() {
        let g = gen::cycle(5);
        let err = degree_choosable_coloring(&g, &vec![vec![0, 1]; 5]).unwrap_err();
        assert!(matches!(err, ErtError::GallaiObstruction { .. }));
    }

    #[test]
    fn odd_cycle_with_one_different_list_colors() {
        let g = gen::cycle(5);
        let mut lists = vec![vec![0, 1]; 5];
        lists[3] = vec![1, 2];
        check(&g, &lists);
    }

    #[test]
    fn clique_tight_identical_is_obstruction() {
        let g = gen::complete(4);
        let err = degree_choosable_coloring(&g, &vec![vec![0, 1, 2]; 4]).unwrap_err();
        assert!(matches!(err, ErtError::GallaiObstruction { .. }));
    }

    #[test]
    fn clique_with_surplus_colors() {
        let g = gen::complete(4);
        check(&g, &vec![vec![0, 1, 2, 3]; 4]);
    }

    #[test]
    fn petersen_brooks_case() {
        // 3-regular, 2-connected, not K4, identical tight 3-lists: the
        // Brooks–Lovász path must fire.
        let g = gen::petersen();
        check(&g, &vec![vec![5, 6, 7]; 10]);
    }

    #[test]
    fn k4_minus_edge_tight() {
        // 2-connected, not clique/odd cycle; degrees 2,3,3,2.
        let g = graphs::Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let lists = vec![vec![0, 1], vec![0, 1, 2], vec![0, 1, 2], vec![0, 1]];
        check(&g, &lists);
    }

    #[test]
    fn theta_graph_tight() {
        // Two degree-3 hubs joined by three paths; tight lists everywhere.
        let g =
            graphs::Graph::from_edges(6, [(0, 1), (1, 5), (0, 2), (2, 5), (0, 3), (3, 4), (4, 5)]);
        let lists = vec![
            vec![0, 1, 2],
            vec![0, 1],
            vec![0, 1],
            vec![0, 1],
            vec![0, 1],
            vec![0, 1, 2],
        ];
        check(&g, &lists);
    }

    #[test]
    fn broken_gallai_trees_color_with_degree_lists() {
        for seed in 0..15 {
            let t = gen::random_gallai_tree(&gen::GallaiTreeConfig::default(), seed);
            let Some(g) = gen::break_gallai_tree(&t, seed) else {
                continue;
            };
            let lists: Vec<Vec<usize>> = g.vertices().map(|v| (0..g.degree(v)).collect()).collect();
            check(&g, &lists);
        }
    }

    #[test]
    fn gallai_tree_with_surplus_everywhere_colors() {
        for seed in 0..10 {
            let g = gen::random_gallai_tree(&gen::GallaiTreeConfig::default(), seed);
            let lists: Vec<Vec<usize>> =
                g.vertices().map(|v| (0..=g.degree(v)).collect()).collect();
            check(&g, &lists);
        }
    }

    #[test]
    fn gallai_tree_single_surplus_vertex_colors() {
        // Tight everywhere except one vertex with +1: case 1 must propagate
        // through the whole tree.
        for seed in 0..10 {
            let g = gen::random_gallai_tree(&gen::GallaiTreeConfig::default(), seed);
            let mut lists: Vec<Vec<usize>> =
                g.vertices().map(|v| (0..g.degree(v)).collect()).collect();
            lists[0] = (0..=g.degree(0)).collect();
            check(&g, &lists);
        }
    }

    #[test]
    fn grid_tight_lists() {
        // Grids are 2-connected-ish with non-Gallai blocks; give each vertex
        // exactly degree many colors from a shared palette.
        let g = gen::grid(5, 5);
        let lists: Vec<Vec<usize>> = g.vertices().map(|v| (0..g.degree(v)).collect()).collect();
        check(&g, &lists);
    }

    #[test]
    fn disconnected_input_each_component_handled() {
        let a = gen::cycle(4);
        let b = gen::cycle(6);
        let g = a.disjoint_union(&b);
        check(&g, &vec![vec![3, 4]; 10]);
    }

    #[test]
    fn random_regular_identical_tight() {
        for (d, seed) in [(3usize, 1u64), (4, 2), (5, 3)] {
            let g = gen::random_regular(20, d, seed);
            if !graphs::is_connected(&g, None) {
                continue;
            }
            check(&g, &vec![(0..d).collect(); 20]);
        }
    }

    #[test]
    fn bowtie_with_chord_multi_block() {
        // Two triangles sharing a vertex (Gallai) plus a pendant C4 glued at
        // vertex 4 (non-Gallai block): leaf-block peeling must fire.
        let g = graphs::Graph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 2),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
            ],
        );
        let lists: Vec<Vec<usize>> = g.vertices().map(|v| (0..g.degree(v)).collect()).collect();
        check(&g, &lists);
    }

    #[test]
    #[should_panic(expected = "list smaller than degree")]
    fn undersized_list_panics() {
        let g = gen::cycle(4);
        let lists = vec![vec![0], vec![0, 1], vec![0, 1], vec![0, 1]];
        let _ = degree_choosable_coloring(&g, &lists);
    }

    #[test]
    fn cross_validated_against_exact_solver() {
        // On every instance where the exact solver finds a coloring from
        // degree-sized lists, ours must too (when not a Gallai obstruction).
        for seed in 0..10u64 {
            let g = gen::gnm(12, 18, seed);
            if !graphs::is_connected(&g, None) {
                continue;
            }
            let lists: Vec<Vec<usize>> = g
                .vertices()
                .map(|v| (0..g.degree(v).max(1)).collect())
                .collect();
            if g.vertices().any(|v| lists[v].len() < g.degree(v)) {
                continue;
            }
            let ours = degree_choosable_coloring(&g, &lists);
            match ours {
                Ok(col) => assert!(graphs::is_proper_list_coloring(&g, &col, &lists)),
                Err(ErtError::GallaiObstruction { .. }) => {
                    // The obstruction fires only on tight Gallai trees (the
                    // exact hypothesis boundary of Theorem 1.1); such graphs
                    // may or may not be colorable, but they must be Gallai.
                    assert!(graphs::is_gallai_tree(&g, None));
                    assert!(g.vertices().all(|v| lists[v].len() == g.degree(v)));
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
    }
}
