//! Lemma 3.2 — extending a partial list-coloring to the happy set `A`.
//!
//! Given the residual graph of one peeling level with everything but `A`
//! colored:
//!
//! 1. build an `(α, α·log n)`-ruling forest in `G[R]` with respect to `A`
//!    (`α = 2·radius + 2`, so root balls are disjoint with no edges between
//!    them — slightly safer than the paper's `2c·log n`, see DESIGN.md);
//! 2. uncolor every tree vertex `T` (this may uncolor sad vertices — the
//!    paper's "recoloring process might modify the colors of some vertices
//!    of G∖A");
//! 3. compute a `(d+1)`-coloring of `G[T]` (max degree ≤ d since `T ⊆ R`);
//! 4. color `T` leaves-to-roots, one (depth, class) stable set per round —
//!    every vertex still has its parent uncolored, so a list color is free
//!    (Observation 5.1);
//! 5. uncolor each root's radius-`r` rich ball entirely and finish it with
//!    the constructive Theorem 1.1 ([`crate::ert`]) — the root is happy, so
//!    its ball has a surplus vertex or is not a Gallai tree.
//!
//! Step 5 relies on the `α` spacing: the balls must be disjoint, with no
//! edge between two of them, or one root's recoloring would reach into
//! another's ball. A fault-free ruling forest guarantees it. A faulted one
//! (lost or crashed token messages) can leave two roots closer than `α`,
//! so step 5 checks the spacing in every build, recording which ball owns
//! each vertex, and returns [`ExtendError::RootsTooClose`] when it fails.

use crate::ert::{color_component, ErtError};
use crate::happy::Classification;
use crate::lists::ListAssignment;
use crate::state::ColoringState;
use engine::{EngineConfig, EngineMetrics};
use graphs::{Bfs, Graph, VertexId, VertexSet};
use local_model::{degree_plus_one_coloring, layered_greedy, ruling_forest, RoundLedger};
use std::fmt;

/// Failure of the Lemma 3.2 extension.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExtendError {
    /// The root-ball recoloring hit a Theorem 1.1 obstruction — the root was
    /// not actually happy, indicating an upstream classification bug or a
    /// violated precondition.
    RootBall {
        /// The offending root.
        root: VertexId,
        /// The underlying Theorem 1.1 error.
        source: ErtError,
    },
    /// Two ruling-forest roots sit closer than `α`: their radius-`r` rich
    /// balls share a vertex or are joined by an edge. Only a faulted ruling
    /// forest produces this.
    RootsTooClose {
        /// One of the two roots.
        root: VertexId,
        /// The other root.
        other: VertexId,
    },
}

impl fmt::Display for ExtendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtendError::RootBall { root, source } => {
                write!(f, "root-ball extension failed at root {root}: {source}")
            }
            ExtendError::RootsTooClose { root, other } => write!(
                f,
                "the balls of roots {root} and {other} overlap or touch: the ruling forest \
                 broke its spacing"
            ),
        }
    }
}

impl std::error::Error for ExtendError {}

/// Marker for "uncolored" entries in the global color vector.
pub const UNCOLORED: usize = usize::MAX;

/// Reduced list of `v`: original list minus the colors of its colored
/// neighbors within `alive`.
fn reduced_list(
    g: &Graph,
    alive: &VertexSet,
    lists: &ListAssignment,
    coloring: &[usize],
    v: VertexId,
) -> Vec<usize> {
    let mut l = lists.list(v).to_vec();
    for &w in g.neighbors(v) {
        if alive.contains(w) && coloring[w] != UNCOLORED {
            if let Ok(pos) = l.binary_search(&coloring[w]) {
                l.remove(pos);
            }
        }
    }
    l
}

/// Extends `coloring` (proper on `alive ∖ A`, `UNCOLORED` on `A`) to all of
/// `alive`, possibly recoloring some sad vertices. See module docs.
///
/// `engine` selects the substrate for this level's communication phases:
/// `None` runs the sequential simulations (step 4's is
/// [`local_model::layered_greedy`]); `Some((template, sink))` runs
/// the ruling-forest construction (step 1, [`engine::engine_ruling_forest`]),
/// the `(d+1)`-coloring (step 3,
/// [`engine::engine_degree_plus_one_coloring`]), and the layered greedy
/// (step 4, [`engine::engine_layered_greedy`]) on masked
/// [`engine::EngineSession`]s over the level's scopes, each a clone of
/// `template` with only its mask set — identical outputs and ledger
/// charges, executed as message passing under the template's shards,
/// CONGEST mode, faults and pool, with every session's observed metrics
/// absorbed into `sink`. Step 5's root-ball recoloring is
/// node-local (each ball sits inside one root's radius-`r` neighborhood)
/// and stays a host computation on both substrates.
///
/// # Errors
///
/// [`ExtendError::RootBall`] if a root ball violates the Theorem 1.1
/// hypothesis (never happens when `classification` is honest);
/// [`ExtendError::RootsTooClose`] if two root balls overlap or touch
/// (never happens when the ruling forest keeps its `α` spacing, which a
/// fault-free run does).
///
/// # Panics
///
/// Panics (in debug) if invariants break: a tree vertex without a free
/// color, or a residual uncolored vertex at the end.
pub fn extend_to_happy_set(
    g: &Graph,
    alive: &VertexSet,
    lists: &ListAssignment,
    classification: &Classification,
    coloring: &mut [usize],
    ledger: &mut RoundLedger,
    mut engine: Option<&mut (EngineConfig, EngineMetrics)>,
) -> Result<(), ExtendError> {
    let n = g.n();
    let happy: Vec<VertexId> = classification.happy.iter().collect();
    if happy.is_empty() {
        return Ok(());
    }
    let radius = classification.radius;
    let alpha = 2 * radius + 2;

    // 1. Ruling forest in G[R] with respect to A — sequential simulation or
    // a masked engine session running the same per-round steps.
    let rf = match engine.as_deref_mut() {
        None => ruling_forest(g, Some(&classification.rich), &happy, alpha, ledger),
        Some((template, sink)) => {
            let (rf, metrics) = engine::engine_ruling_forest(
                g,
                Some(&classification.rich),
                &happy,
                alpha,
                template.clone(),
                ledger,
            );
            sink.absorb(metrics);
            rf
        }
    };

    // 2. Uncolor T.
    let members = rf.members();
    let scope = VertexSet::from_iter_with_universe(n, members.iter().copied());
    for &v in &members {
        coloring[v] = UNCOLORED;
    }

    // 3. (d+1)-coloring of G[T] (T ⊆ R keeps degrees ≤ d) — sequential
    // simulation or a masked engine session over the tree scope; the two
    // substrates are bit-identical in colors and ledger charges.
    let classes = match engine.as_deref_mut() {
        None => degree_plus_one_coloring(g, Some(&scope), ledger),
        Some((template, sink)) => {
            let (classes, metrics) =
                engine::engine_degree_plus_one_coloring(g, Some(&scope), template.clone(), ledger);
            sink.absorb(metrics);
            classes
        }
    };
    let class_count = members.iter().map(|&v| classes[v] + 1).max().unwrap_or(1);

    // 4. Layered greedy, leaves to roots, roots skipped — one (depth,
    // class) slot per round: the sequential twin or a masked engine
    // session, bit-identical in colors and ledger charges.
    let reduced: Vec<Vec<usize>> = (0..n)
        .map(|v| {
            if scope.contains(v) {
                reduced_list(g, alive, lists, coloring, v)
            } else {
                Vec::new()
            }
        })
        .collect();
    let tree_colors = match engine {
        None => layered_greedy(
            g,
            &scope,
            &reduced,
            &rf.depth,
            &classes,
            class_count,
            ledger,
        ),
        Some((template, sink)) => {
            let (colors, metrics) = engine::engine_layered_greedy(
                g,
                &scope,
                &reduced,
                &rf.depth,
                &classes,
                class_count,
                template.clone(),
                ledger,
            );
            sink.absorb(metrics);
            colors
        }
    };
    for &v in &members {
        if rf.depth[v] >= 1 {
            debug_assert_ne!(tree_colors[v], UNCOLORED);
            coloring[v] = tree_colors[v];
        }
    }

    // 5. Root balls: uncolor completely, then Theorem 1.1 per ball. Each
    // vertex of the union records its ball's root; a second claim or an
    // edge between two balls means the forest lost its α spacing.
    let mut owner = vec![usize::MAX; n];
    let mut union = VertexSet::new(n);
    let mut bfs = Bfs::new(n);
    for &root in &rf.roots {
        for &v in bfs.run(g, [root], radius, |w| classification.rich.contains(w)) {
            if !union.insert(v) {
                return Err(ExtendError::RootsTooClose {
                    root,
                    other: owner[v],
                });
            }
            owner[v] = root;
        }
    }
    for v in union.iter() {
        if let Some(&w) = g
            .neighbors(v)
            .iter()
            .find(|&&w| union.contains(w) && owner[w] != owner[v])
        {
            return Err(ExtendError::RootsTooClose {
                root: owner[v],
                other: owner[w],
            });
        }
        coloring[v] = UNCOLORED;
    }
    let mut ball_state = ColoringState::new(
        g,
        union.clone(),
        (0..n)
            .map(|v| {
                if coloring[v] == UNCOLORED && alive.contains(v) {
                    reduced_list(g, alive, lists, coloring, v)
                } else {
                    Vec::new()
                }
            })
            .collect(),
    );
    for &root in &rf.roots {
        color_component(&mut ball_state, root)
            .map_err(|source| ExtendError::RootBall { root, source })?;
    }
    ledger.charge("root-ball-recolor", 2 * radius as u64);
    let ball_colors = ball_state.into_colors();
    for v in union.iter() {
        debug_assert_ne!(ball_colors[v], UNCOLORED);
        coloring[v] = ball_colors[v];
    }
    debug_assert!(
        alive.iter().all(|v| coloring[v] != UNCOLORED),
        "extension must color every alive vertex"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::happy::classify;
    use graphs::gen;

    /// End-to-end single-level check: color alive ∖ A greedily by brute
    /// force, then extend to A and verify the result.
    fn run_single_level(g: &Graph, d: usize, radius: usize, lists: &ListAssignment) {
        let alive = VertexSet::full(g.n());
        let mut ledger = RoundLedger::new();
        let cls = classify(g, &alive, d, radius, &mut ledger);
        assert!(!cls.happy.is_empty(), "workload must have happy vertices");
        // Color the complement of A with the exact solver (tests only).
        let rest: Vec<VertexId> = (0..g.n()).filter(|&v| !cls.happy.contains(v)).collect();
        let sub = graphs::InducedSubgraph::new(g, rest.iter().copied());
        let sub_lists: Vec<Vec<usize>> = sub
            .parent_vertices()
            .iter()
            .map(|&p| lists.list(p).to_vec())
            .collect();
        let sub_col =
            graphs::list_coloring(sub.graph(), &sub_lists).expect("complement colorable in tests");
        let mut coloring = vec![UNCOLORED; g.n()];
        for (local, &p) in sub.parent_vertices().iter().enumerate() {
            coloring[p] = sub_col[local];
        }
        for engine_shards in [None, Some(2)] {
            let mut coloring = coloring.clone();
            let mut ledger = RoundLedger::new();
            let mut engine = engine_shards.map(|shards| {
                let template = EngineConfig::default().with_shards(shards);
                (template, EngineMetrics::default())
            });
            extend_to_happy_set(
                g,
                &alive,
                lists,
                &cls,
                &mut coloring,
                &mut ledger,
                engine.as_mut(),
            )
            .expect("extension succeeds");
            assert!(graphs::is_proper(g, &coloring));
            for v in g.vertices() {
                assert!(
                    lists.list(v).contains(&coloring[v]),
                    "vertex {v} got off-list color {}",
                    coloring[v]
                );
            }
            if let Some((_, metrics)) = &engine {
                assert!(
                    metrics.total_messages() > 0,
                    "engine-mode extension must surface its sessions' traffic"
                );
            }
        }
    }

    #[test]
    fn extends_on_grid() {
        let g = gen::grid(7, 7);
        run_single_level(&g, 4, 3, &ListAssignment::uniform(g.n(), 4));
    }

    #[test]
    fn extends_on_tree_with_d3() {
        let g = gen::random_tree(60, 5);
        run_single_level(&g, 3, 2, &ListAssignment::uniform(g.n(), 3));
    }

    #[test]
    fn extends_with_adversarial_lists() {
        let g = gen::grid(6, 6);
        let lists = ListAssignment::random(g.n(), 4, 8, 11);
        run_single_level(&g, 4, 3, &lists);
    }

    #[test]
    fn extends_on_triangular_lattice() {
        let g = gen::triangular(5, 5);
        run_single_level(&g, 6, 3, &ListAssignment::uniform(g.n(), 6));
    }

    #[test]
    fn extends_when_everyone_is_happy_and_uncolored_base_is_empty() {
        // A path with d = 3: everyone happy; nothing precolored at all.
        let g = gen::path(30);
        let alive = VertexSet::full(30);
        let lists = ListAssignment::uniform(30, 3);
        let mut ledger = RoundLedger::new();
        let cls = classify(&g, &alive, 3, 2, &mut ledger);
        assert_eq!(cls.happy.len(), 30);
        let mut coloring = vec![UNCOLORED; 30];
        extend_to_happy_set(&g, &alive, &lists, &cls, &mut coloring, &mut ledger, None).unwrap();
        assert!(graphs::is_proper(&g, &coloring));
    }

    #[test]
    fn noop_when_no_happy_vertices() {
        let g = gen::complete(4);
        let alive = VertexSet::full(4);
        let lists = ListAssignment::uniform(4, 3);
        let mut ledger = RoundLedger::new();
        let cls = classify(&g, &alive, 3, 5, &mut ledger);
        assert!(cls.happy.is_empty());
        let mut coloring = vec![UNCOLORED; 4];
        extend_to_happy_set(&g, &alive, &lists, &cls, &mut coloring, &mut ledger, None).unwrap();
        assert!(coloring.iter().all(|&c| c == UNCOLORED));
    }
}
