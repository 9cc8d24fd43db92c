//! Cole–Vishkin forest 3-coloring as a message-passing node program.
//!
//! The same algorithm as [`local_model::cole_vishkin_3color`], but executed
//! over the forest's members only: every member broadcasts its color each
//! round and recomputes it from its parent's broadcast with the shared
//! rules [`cv_shrink`], [`cv_shift_down`] and [`cv_recolor`]. The host
//! drives the standard phase structure — the `O(log* n)` bit-shrink loop
//! until six colors remain (all-halted vote), then three fixed two-round
//! shift-down phases eliminating colors 5, 4, 3 — and the run is
//! equivalence-tested to produce the *same colors and the same ledger
//! totals* as the sequential twin.

use graphs::{Graph, VertexId, VertexSet};
use local_model::{cv_recolor, cv_shift_down, cv_shrink, RootedForest, RoundLedger};

use crate::context::NodeCtx;
use crate::driver::{EngineConfig, EngineSession, Stop};
use crate::metrics::EngineMetrics;
use crate::program::{Inbox, NodeProgram, Outbox};

/// Which stage of the algorithm the node is in (switched by the host
/// between engine phases — the "synchronizer" seam).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// Iterated bit-shrink until the color is below 6.
    Shrink,
    /// Two-round shift-down eliminating `target`: `step` 0 shifts, `step` 1
    /// recolors the `target` class into `{0, 1, 2}`.
    Shift { target: usize, step: u8 },
}

/// Per-node Cole–Vishkin state. Only forest members run one: the session
/// is masked to the members.
#[derive(Clone, Debug)]
pub struct CvProgram {
    /// Parent id; `== id` for roots.
    parent: usize,
    color: usize,
    stage: Stage,
}

impl CvProgram {
    fn is_root(&self, id: VertexId) -> bool {
        self.parent == id
    }

    /// The node's current color.
    pub fn color(&self) -> usize {
        self.color
    }

    /// Host hook: enter the two-round shift-down phase for `target`.
    pub fn begin_shift(&mut self, target: usize) {
        self.stage = Stage::Shift { target, step: 0 };
    }

    /// The parent's latest broadcast color, if any.
    fn parent_color(&self, id: VertexId, inbox: Inbox<'_, usize>) -> Option<usize> {
        if self.is_root(id) {
            return None;
        }
        inbox
            .iter()
            .find(|&(src, _)| src == self.parent)
            .map(|(_, &c)| c)
    }
}

impl NodeProgram for CvProgram {
    type Message = usize;

    fn init(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<usize> {
        // Initial color: the unique id, published as free initial knowledge.
        self.color = ctx.id;
        Outbox::Broadcast(self.color)
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, usize>) -> Outbox<usize> {
        match self.stage {
            Stage::Shrink => self.color = cv_shrink(self.color, self.parent_color(ctx.id, inbox)),
            Stage::Shift { target, step: 0 } => {
                self.color = cv_shift_down(self.color, self.parent_color(ctx.id, inbox));
                self.stage = Stage::Shift { target, step: 1 };
            }
            Stage::Shift { target, step: _ } => {
                if self.color == target {
                    // Every child carries one color after the shift.
                    let child = inbox
                        .iter()
                        .find(|&(src, _)| src != self.parent)
                        .map(|(_, &c)| c);
                    self.color = cv_recolor(self.parent_color(ctx.id, inbox), child);
                }
                self.stage = Stage::Shrink; // inert until the host intervenes
            }
        }
        Outbox::Broadcast(self.color)
    }

    fn halted(&self) -> bool {
        // During the shrink phase this is the convergence vote; shift-down
        // phases run on fixed round counts and ignore it.
        self.color < 6
    }
}

/// The session mask for `forest`: its members, or `None` when every vertex
/// is one, so a spanning forest runs on an identity view with no id tables.
fn member_mask(forest: &RootedForest) -> Option<VertexSet> {
    let members = VertexSet::from_iter_with_universe(forest.n(), forest.members());
    (members.len() < forest.n()).then_some(members)
}

/// Runs engine Cole–Vishkin over `forest`: same output contract as
/// [`local_model::cole_vishkin_3color`] (colors in `{0,1,2}` for members,
/// `usize::MAX` outside), same ledger phases (`"cole-vishkin"`,
/// `"shift-down"`), plus the observed [`EngineMetrics`].
///
/// The session runs over the forest's members only, unmasked when the
/// forest spans every vertex. Non-members take no part in the LOCAL
/// algorithm, so they get no program and cost no step.
///
/// # Panics
///
/// Panics if `config.max_rounds` interrupts the shrink loop (it converges in
/// `O(log* n)` rounds, so that indicates a hostile config or fault plan).
///
/// # Examples
///
/// ```
/// use engine::{engine_cole_vishkin_3color, EngineConfig};
/// use local_model::{RootedForest, RoundLedger};
///
/// let f = RootedForest::new(vec![0, 0, 1, 2, 3]);
/// let mut ledger = RoundLedger::new();
/// let (colors, metrics) = engine_cole_vishkin_3color(&f, EngineConfig::default(), &mut ledger);
/// for v in 1..5 {
///     assert!(colors[v] < 3);
///     assert_ne!(colors[v], colors[f.parent(v)]);
/// }
/// assert_eq!(metrics.total_rounds(), ledger.total());
/// ```
pub fn engine_cole_vishkin_3color(
    forest: &RootedForest,
    config: EngineConfig,
    ledger: &mut RoundLedger,
) -> (Vec<usize>, EngineMetrics) {
    let n = forest.n();
    let members = member_mask(forest);
    let g = Graph::from_edges(
        n,
        forest.members().filter_map(|v| {
            let p = forest.parent(v);
            (p != v).then_some((v, p))
        }),
    );
    let mut sess = EngineSession::new(&g, members.as_ref(), config, |ctx| CvProgram {
        parent: forest.parent(ctx.id),
        color: usize::MAX,
        stage: Stage::Shrink,
    });
    let report = sess.run_phase("cole-vishkin", Stop::AllHalted);
    assert!(
        report.converged,
        "Cole–Vishkin shrink loop hit the round cap after {} rounds",
        report.rounds
    );
    for target in (3..6).rev() {
        sess.for_each_program(|_, p| p.begin_shift(target));
        sess.run_phase("shift-down", Stop::Rounds(2));
    }
    let colors = sess
        .view()
        .scatter(usize::MAX, sess.programs().iter().map(CvProgram::color));
    let (_, metrics, run_ledger) = sess.into_parts();
    ledger.absorb(run_ledger);
    (colors, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    fn forest_from_bfs(g: &Graph, root: usize) -> RootedForest {
        RootedForest::new(graphs::bfs_parents(g, root, None))
    }

    #[test]
    fn engine_run_is_proper_on_paths_and_trees() {
        for g in [
            gen::path(500),
            gen::binary_tree(8),
            gen::random_tree(300, 4),
        ] {
            let f = forest_from_bfs(&g, 0);
            let mut ledger = RoundLedger::new();
            let (colors, _) = engine_cole_vishkin_3color(&f, EngineConfig::default(), &mut ledger);
            for v in f.members() {
                assert!(colors[v] < 3);
                if f.parent(v) != v {
                    assert_ne!(colors[v], colors[f.parent(v)]);
                }
            }
            assert_eq!(ledger.phase_total("shift-down"), 6);
        }
    }

    #[test]
    fn matches_sequential_exactly() {
        for (n, seed) in [(50usize, 1u64), (200, 2), (1000, 3)] {
            let g = gen::random_tree(n, seed);
            let f = forest_from_bfs(&g, 0);
            let mut seq_ledger = RoundLedger::new();
            let seq = local_model::cole_vishkin_3color(&f, &mut seq_ledger);
            for shards in [1usize, 4] {
                let mut eng_ledger = RoundLedger::new();
                let (colors, metrics) = engine_cole_vishkin_3color(
                    &f,
                    EngineConfig::default().with_shards(shards),
                    &mut eng_ledger,
                );
                assert_eq!(colors, seq, "n={n} seed={seed} shards={shards}");
                assert_eq!(eng_ledger.total(), seq_ledger.total());
                assert_eq!(
                    eng_ledger.phase_total("cole-vishkin"),
                    seq_ledger.phase_total("cole-vishkin")
                );
                assert_eq!(metrics.total_rounds(), eng_ledger.total());
            }
        }
    }

    /// Two stars over 6 of 8 vertices; 6 and 7 are non-members.
    fn two_stars() -> RootedForest {
        let mut parent = vec![usize::MAX; 8];
        parent[0] = 0;
        parent[1] = 0;
        parent[2] = 0;
        parent[3] = 3;
        parent[4] = 3;
        parent[5] = 3;
        RootedForest::new(parent)
    }

    /// BFS from the corner of a 10×10 grid over its six leftmost columns:
    /// 60 of 100 vertices.
    fn partial_grid_forest() -> RootedForest {
        let g = gen::grid(10, 10);
        let left = VertexSet::from_iter_with_universe(100, (0..100).filter(|v| v % 10 < 6));
        RootedForest::new(graphs::bfs_parents(&g, 0, Some(&left)))
    }

    #[test]
    fn member_mask_is_none_exactly_for_spanning_forests() {
        let spanning = forest_from_bfs(&gen::grid(6, 6), 0);
        assert_eq!(member_mask(&spanning), None);
        for f in [two_stars(), partial_grid_forest()] {
            let mask = member_mask(&f).expect("a partial forest is masked");
            assert_eq!(mask.universe(), f.n());
            assert_eq!(
                mask.iter().collect::<Vec<_>>(),
                f.members().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn handles_non_members_and_multi_trees() {
        // Non-members get no program: every round steps exactly the
        // members.
        for f in [two_stars(), partial_grid_forest()] {
            let members = f.members().count();
            assert!(members < f.n());
            let mut seq_ledger = RoundLedger::new();
            let seq = local_model::cole_vishkin_3color(&f, &mut seq_ledger);
            for shards in [1usize, 2, 4, 8] {
                let config = EngineConfig::default().with_shards(shards);
                let mut ledger = RoundLedger::new();
                let (colors, metrics) = engine_cole_vishkin_3color(&f, config, &mut ledger);
                assert_eq!(colors, seq, "shards={shards}");
                assert!(f.members().all(|v| colors[v] < 3));
                assert!((0..f.n()).all(|v| f.contains(v) || colors[v] == usize::MAX));
                assert_eq!(ledger.total(), seq_ledger.total());
                for phase in ["cole-vishkin", "shift-down"] {
                    assert_eq!(ledger.phase_total(phase), seq_ledger.phase_total(phase));
                }
                assert!(!metrics.per_round().is_empty());
                for r in metrics.per_round() {
                    assert_eq!(r.live, members, "round {} shards={shards}", r.round);
                    assert_eq!(r.stepped, r.live, "round {} shards={shards}", r.round);
                }
            }
        }
    }
}
