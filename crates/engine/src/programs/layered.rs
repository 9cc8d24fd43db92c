//! Lemma 3.2's layered greedy — coloring a ruling forest leaves-to-roots,
//! one (depth, class) stable set per round — as a **masked** engine
//! execution, reusing the masked-session machinery the class sweep
//! ([`super::sweep::SweepProgram`]) established.
//!
//! The sequential twin [`local_model::layered_greedy`] (step 4 of
//! `distributed_coloring::extend`) walks slots `(max_depth, 0),
//! (max_depth, 1), …, (1, class_count − 1)` and greedily assigns each
//! slot's vertices the first free color of their reduced list. A slot is
//! an independent set of the tree scope (same class ⇒ non-adjacent in
//! `G[T]`), so one engine round per slot suffices:
//! the slot's vertices pick their color and broadcast it; every later slot
//! hears the announcement a round before it decides — exactly the
//! `max_depth · class_count` rounds the sequential twin charges to
//! `"layered-coloring"`. The slot schedule ([`layered_slot`]), the list
//! form ([`layered_list`]) and the pick ([`layered_pick`]) are shared with
//! the sequential twin, so the two substrates cannot disagree on which
//! vertex colors when, or with what.

use graphs::{Graph, VertexSet};
use local_model::{layered_list, layered_pick, layered_slot, strike_sorted, RoundLedger};

use crate::context::NodeCtx;
use crate::driver::{EngineConfig, EngineSession, Stop};
use crate::metrics::EngineMetrics;
use crate::program::{Activation, Inbox, NodeProgram, Outbox};

/// Per-node state of the layered greedy: the host-reduced color list, the
/// node's forest depth and `(d+1)`-class, and the slot geometry.
#[derive(Clone, Debug)]
pub struct LayeredGreedyProgram {
    /// Live list: the reduced list minus every color heard so far (sorted).
    list: Vec<usize>,
    depth: usize,
    class: usize,
    max_depth: usize,
    class_count: usize,
    color: usize,
}

impl LayeredGreedyProgram {
    /// The committed color (`usize::MAX` for roots and not-yet-reached
    /// slots).
    pub fn color(&self) -> usize {
        self.color
    }
}

impl NodeProgram for LayeredGreedyProgram {
    type Message = usize;

    fn init(&mut self, _ctx: &mut NodeCtx<'_>) -> Outbox<usize> {
        Outbox::Silent
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, usize>) -> Outbox<usize> {
        // Strike the colors committed by scope neighbors last round — the
        // same removals the sequential twin performs.
        for (_, &c) in inbox {
            strike_sorted(&mut self.list, c);
        }
        let round = ctx.round as usize;
        if self.color != usize::MAX || round > self.max_depth * self.class_count {
            return Outbox::Silent;
        }
        let (depth, class) = layered_slot(round, self.max_depth, self.class_count);
        if self.depth == depth && self.class == class {
            self.color = layered_pick(&self.list);
            return Outbox::Broadcast(self.color);
        }
        Outbox::Silent
    }

    fn halted(&self) -> bool {
        self.color != usize::MAX || self.depth == 0
    }

    /// A node's only scheduled event is its own slot round (inverting
    /// [`layered_slot`]); every other empty-inbox step is a pure `Silent`.
    /// Once colored — or for depth-0 roots, whose slot round lands past the
    /// sweep — only neighbor announcements matter, and those arrive as
    /// traffic. The sweep therefore steps one stable set (plus its
    /// listeners) per round instead of the whole scope.
    fn activation(&self) -> Activation {
        if self.color != usize::MAX {
            return Activation::OnMessage;
        }
        let slot_round = (self.max_depth - self.depth) * self.class_count + self.class + 1;
        Activation::WakeAt(slot_round as u64)
    }
}

/// Engine twin of [`local_model::layered_greedy`]: colors the forest scope
/// leaves-to-roots on a masked session over `g[scope]`, charging
/// `"layered-coloring"` exactly `max_depth · class_count` rounds. `lists`
/// are the host-reduced lists (original indexing; only scope entries are
/// read), `depth`/`classes` the forest depth and `(d+1)`-class per vertex.
/// Returns the committed colors (original indexing, `usize::MAX` for
/// masked-out vertices and depth-0 roots) plus the observed metrics —
/// bit-identical to the sequential sweep at any shard count.
///
/// # Panics
///
/// Panics if a slot vertex runs out of colors (an upstream invariant
/// violation, like the sequential `expect`), or if `config.max_rounds`
/// interrupts the sweep.
#[allow(clippy::too_many_arguments)]
pub fn engine_layered_greedy(
    g: &Graph,
    scope: &VertexSet,
    lists: &[Vec<usize>],
    depth: &[usize],
    classes: &[usize],
    class_count: usize,
    config: EngineConfig,
    ledger: &mut RoundLedger,
) -> (Vec<usize>, EngineMetrics) {
    assert_eq!(lists.len(), g.n());
    let max_depth = scope.iter().map(|v| depth[v]).max().unwrap_or(0);
    let mut sess = EngineSession::new(g, Some(scope), config, |ctx| LayeredGreedyProgram {
        list: layered_list(&lists[ctx.id]),
        depth: depth[ctx.id],
        class: classes[ctx.id],
        max_depth,
        class_count,
        color: usize::MAX,
    });
    let rounds = (max_depth * class_count) as u64;
    let report = sess.run_phase("layered-coloring", Stop::Rounds(rounds));
    assert_eq!(
        report.rounds, rounds,
        "max_rounds interrupted the layered sweep"
    );
    let colors = sess.view().scatter(
        usize::MAX,
        sess.programs().iter().map(LayeredGreedyProgram::color),
    );
    let (_, metrics, run_ledger) = sess.into_parts();
    ledger.absorb(run_ledger);
    (colors, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    #[test]
    fn slot_schedule_counts_depths_down_and_classes_up() {
        let slots: Vec<(usize, usize)> = (1..=6).map(|r| layered_slot(r, 3, 2)).collect();
        assert_eq!(slots, vec![(3, 0), (3, 1), (2, 0), (2, 1), (1, 0), (1, 1)]);
        assert_eq!(layered_slot(1, 3, 2), (3, 0));
        assert_eq!(layered_slot(6, 3, 2), (1, 1));
    }

    /// A hand-built forest on a path: 0 (root) ← 1 ← 2 ← 3, colored
    /// leaves-to-roots with 2-entry lists. The engine must assign exactly
    /// what the sequential twin computes.
    #[test]
    fn colors_a_path_forest_like_the_sequential_greedy() {
        let g = gen::path(4);
        let scope = VertexSet::full(4);
        let lists: Vec<Vec<usize>> = vec![vec![0, 1]; 4];
        let depth = vec![0usize, 1, 2, 3];
        // Proper 2-coloring of the path as the (d+1)-classes.
        let classes = vec![0usize, 1, 0, 1];
        let class_count = 2;
        let mut seq_ledger = RoundLedger::new();
        let expect = local_model::layered_greedy(
            &g,
            &scope,
            &lists,
            &depth,
            &classes,
            class_count,
            &mut seq_ledger,
        );
        assert_eq!(expect, vec![usize::MAX, 0, 1, 0]);
        for shards in [1usize, 2] {
            let mut ledger = RoundLedger::new();
            let (colors, metrics) = engine_layered_greedy(
                &g,
                &scope,
                &lists,
                &depth,
                &classes,
                class_count,
                EngineConfig::default().with_shards(shards),
                &mut ledger,
            );
            assert_eq!(colors, expect, "shards={shards}");
            assert_eq!(metrics.total_rounds(), 6);
            assert_eq!(ledger.phase_total("layered-coloring"), 6);
            assert_eq!(ledger.total(), seq_ledger.total());
        }
    }

    #[test]
    fn empty_scope_charges_nothing() {
        let g = gen::path(3);
        let scope = VertexSet::new(3);
        let mut ledger = RoundLedger::new();
        let (colors, metrics) = engine_layered_greedy(
            &g,
            &scope,
            &[vec![], vec![], vec![]],
            &[0, 0, 0],
            &[0, 0, 0],
            1,
            EngineConfig::default(),
            &mut ledger,
        );
        assert!(colors.iter().all(|&c| c == usize::MAX));
        assert_eq!(metrics.total_rounds(), 0);
        assert_eq!(ledger.total(), 0);
    }
}
