//! The merge-reduce `(Δ+1)`-coloring — Lemma 3.2's "(d+1)-coloring computed
//! deterministically \[17\]" step — as a **masked** engine execution.
//!
//! [`local_model::forest_merge`] decomposes the (masked) graph into rooted
//! forests, 3-colors each with Cole–Vishkin, and repeatedly sweeps
//! product-color classes down into `0..target`. Both drivers run that one
//! host loop; the communication in it lives in two places
//! ([`MergeRounds`]), and both run on the engine here:
//!
//! * each forest's Cole–Vishkin pass is the existing
//!   [`engine_cole_vishkin_3color`] port (own session over the forest
//!   edges, masked to the forest's members, on the caller's config);
//! * each class sweep runs on a **single masked [`EngineSession`] over the
//!   host graph** (the first masked consumer of the engine's
//!   [`GraphView`](crate::GraphView)): one announce round in which every
//!   live vertex broadcasts its product color, then one round per swept
//!   class in which exactly that class recolors greedily
//!   ([`smallest_free`]) and announces the change. That is exactly the
//!   `current_colors − target + 1` rounds the sequential twin charges to
//!   `"class-sweep"`.
//!
//! Because a product-color class is an independent set of the union graph
//! and the greedy choice reads only union-neighbor colors — all announced
//! a round earlier — the engine run commits the same color per vertex as
//! the sequential one-pass sweep, at any shard count: the sweep is
//! order-independent within a class.
//!
//! This is the port Theorem 1.3's peel loop rides on: every peeling level
//! hands its residual scope to [`engine_degree_plus_one_coloring`] as a
//! mask (see `distributed_coloring::extend`).

use graphs::{Graph, VertexId, VertexSet};
use local_model::{forest_merge, smallest_free, MergeRounds, RootedForest, RoundLedger};

use crate::context::NodeCtx;
use crate::driver::{EngineConfig, EngineSession, Stop};
use crate::metrics::EngineMetrics;
use crate::program::{Inbox, NodeProgram, Outbox};
use crate::programs::cole_vishkin::engine_cole_vishkin_3color;

/// Where a sweep-phase node is in the announce → sweep cycle (reset by the
/// host via [`SweepProgram::load`] before every merge).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SweepStage {
    /// Not participating (between merges, or before the first).
    Idle,
    /// Next round: broadcast the freshly loaded product color.
    Announce,
    /// Counting classes down, recoloring when `cursor - 1` matches.
    Sweep,
}

/// Per-node state of the class sweep.
#[derive(Clone, Debug)]
pub struct SweepProgram {
    color: usize,
    /// Union-forest neighbors (original ids, sorted) — the only colors the
    /// greedy step may read.
    union_nbrs: Vec<VertexId>,
    /// Latest color heard from each union neighbor, aligned to
    /// `union_nbrs`.
    nbr_colors: Vec<usize>,
    /// Next sweep round handles class `cursor - 1`.
    cursor: usize,
    target: usize,
    stage: SweepStage,
}

impl SweepProgram {
    /// A node that does nothing until the host loads a merge.
    pub fn idle() -> Self {
        SweepProgram {
            color: usize::MAX,
            union_nbrs: Vec::new(),
            nbr_colors: Vec::new(),
            cursor: 0,
            target: 0,
            stage: SweepStage::Idle,
        }
    }

    /// Host seam: arm the node for one merge's sweep phase. `union_nbrs`
    /// must be sorted ascending.
    pub fn load(
        &mut self,
        color: usize,
        union_nbrs: Vec<VertexId>,
        current_colors: usize,
        target: usize,
    ) {
        debug_assert!(union_nbrs.windows(2).all(|w| w[0] < w[1]));
        self.color = color;
        self.nbr_colors = vec![usize::MAX; union_nbrs.len()];
        self.union_nbrs = union_nbrs;
        self.cursor = current_colors;
        self.target = target;
        self.stage = SweepStage::Announce;
    }

    /// The node's current color.
    pub fn color(&self) -> usize {
        self.color
    }

    fn absorb(&mut self, inbox: Inbox<'_, usize>) {
        for (src, &c) in inbox {
            if let Ok(i) = self.union_nbrs.binary_search(&src) {
                self.nbr_colors[i] = c;
            }
        }
    }
}

impl NodeProgram for SweepProgram {
    type Message = usize;

    fn init(&mut self, _ctx: &mut NodeCtx<'_>) -> Outbox<usize> {
        Outbox::Silent
    }

    fn on_round(&mut self, _ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, usize>) -> Outbox<usize> {
        match self.stage {
            SweepStage::Idle => Outbox::Silent,
            SweepStage::Announce => {
                // The inbox holds leftovers of the previous merge's last
                // sweep round — stale product inputs, deliberately ignored.
                self.stage = SweepStage::Sweep;
                Outbox::Broadcast(self.color)
            }
            SweepStage::Sweep => {
                self.absorb(inbox);
                self.cursor -= 1;
                let class = self.cursor;
                if class == self.target {
                    // Last class this merge; go quiet afterwards.
                    self.stage = SweepStage::Idle;
                }
                if self.color != class {
                    return Outbox::Silent;
                }
                debug_assert!(
                    self.nbr_colors.iter().all(|&c| c != usize::MAX),
                    "every union neighbor announced before the first sweep"
                );
                let fresh = smallest_free(self.target, &self.nbr_colors)
                    .expect("target exceeds union degree, a free color exists");
                self.color = fresh;
                Outbox::Broadcast(fresh)
            }
        }
    }

    fn halted(&self) -> bool {
        self.stage == SweepStage::Idle
    }
}

/// [`MergeRounds`] on the engine: each forest's Cole–Vishkin pass is its
/// own session, and every class sweep runs on one masked sweep session.
struct EngineRounds<'g> {
    config: EngineConfig,
    sweep: EngineSession<'g, SweepProgram>,
    /// The Cole–Vishkin sessions' metrics, in run order.
    metrics: EngineMetrics,
}

impl MergeRounds for EngineRounds<'_> {
    fn three_color(&mut self, forest: &RootedForest, ledger: &mut RoundLedger) -> Vec<usize> {
        let (f3, metrics) = engine_cole_vishkin_3color(forest, self.config.clone(), ledger);
        self.metrics.absorb(metrics);
        f3
    }

    /// Charges the sweep session's own ledger, which
    /// [`engine_degree_plus_one_coloring`] absorbs once the merge is done.
    fn sweep(
        &mut self,
        _members: &[VertexId],
        union_adj: &[Vec<VertexId>],
        color: &mut [usize],
        current_colors: usize,
        target: usize,
        _ledger: &mut RoundLedger,
    ) {
        self.sweep.for_each_program(|v, p| {
            let mut nbrs = union_adj[v].clone();
            nbrs.sort_unstable();
            p.load(color[v], nbrs, current_colors, target);
        });
        let rounds = (current_colors - target + 1) as u64;
        let report = self.sweep.run_phase("class-sweep", Stop::Rounds(rounds));
        assert_eq!(
            report.rounds, rounds,
            "max_rounds interrupted a class sweep"
        );
        for (v, p) in self.sweep.view().live().zip(self.sweep.programs()) {
            color[v] = p.color();
        }
    }
}

/// Engine twin of [`local_model::degree_plus_one_coloring`]: the classic
/// `(Δ+1)`-coloring of `g[mask]`, executed by running [`forest_merge`]
/// with engine sessions for its rounds. Returns `color[v] ∈
/// 0..masked_Δ+1` for masked vertices, `usize::MAX` elsewhere — identical
/// to the sequential output (bit for bit, at any shard count), with
/// identical ledger phase totals (`"forest-decomposition"`,
/// `"cole-vishkin"`, `"shift-down"`, `"class-sweep"`), plus the observed
/// [`EngineMetrics`] of every session it runs.
///
/// Every session runs on `config`: the sweep session, masked to `mask`,
/// and each forest's Cole–Vishkin session, masked to its forest's members
/// (see [`engine_cole_vishkin_3color`]), share its pool, faults, CONGEST
/// mode, frontier gating and round cap, and the returned metrics hold the
/// rounds of all of them.
///
/// # Panics
///
/// Panics if `config.max_rounds` interrupts a sweep.
///
/// # Examples
///
/// ```
/// use engine::{engine_degree_plus_one_coloring, EngineConfig};
/// use graphs::gen;
/// use local_model::RoundLedger;
///
/// let g = gen::grid(5, 5);
/// let mut ledger = RoundLedger::new();
/// let (col, _) =
///     engine_degree_plus_one_coloring(&g, None, EngineConfig::default(), &mut ledger);
/// for (u, v) in g.edges() {
///     assert_ne!(col[u], col[v]);
/// }
/// assert!(col.iter().all(|&c| c < 5));
/// ```
pub fn engine_degree_plus_one_coloring(
    g: &Graph,
    mask: Option<&VertexSet>,
    config: EngineConfig,
    ledger: &mut RoundLedger,
) -> (Vec<usize>, EngineMetrics) {
    let mut rounds = EngineRounds {
        sweep: EngineSession::new(g, mask, config.clone(), |_| SweepProgram::idle()),
        config,
        metrics: EngineMetrics::default(),
    };
    let color = forest_merge(g, mask, &vec![0; g.n()], None, &mut rounds, ledger);
    let (_, sweep_metrics, sweep_ledger) = rounds.sweep.into_parts();
    ledger.absorb(sweep_ledger);
    let mut metrics = rounds.metrics;
    metrics.absorb(sweep_metrics);
    (color, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use graphs::gen;
    use local_model::degree_plus_one_coloring;

    fn assert_matches_sequential(g: &Graph, mask: Option<&VertexSet>, label: &str) {
        let mut seq_ledger = RoundLedger::new();
        let seq = degree_plus_one_coloring(g, mask, &mut seq_ledger);
        for shards in [1usize, 2, 8] {
            let mut eng_ledger = RoundLedger::new();
            let (col, _) = engine_degree_plus_one_coloring(
                g,
                mask,
                EngineConfig::default().with_shards(shards),
                &mut eng_ledger,
            );
            assert_eq!(col, seq, "{label} shards={shards}: colors diverged");
            assert_eq!(
                eng_ledger.total(),
                seq_ledger.total(),
                "{label} shards={shards}: ledger totals diverged"
            );
            assert_eq!(
                eng_ledger.phase_total("class-sweep"),
                seq_ledger.phase_total("class-sweep"),
                "{label} shards={shards}"
            );
        }
    }

    #[test]
    fn matches_sequential_on_whole_graphs() {
        assert_matches_sequential(&gen::grid(7, 7), None, "grid");
        assert_matches_sequential(&gen::random_regular(40, 4, 3), None, "4-regular");
        assert_matches_sequential(&gen::random_tree(60, 9), None, "tree");
    }

    #[test]
    fn matches_sequential_on_masked_subgraphs() {
        let g = gen::complete(8);
        let mask = VertexSet::from_iter_with_universe(8, [0, 2, 4, 6]);
        assert_matches_sequential(&g, Some(&mask), "masked K8");
        let g = gen::triangular(5, 5);
        let mask = VertexSet::from_iter_with_universe(g.n(), (0..g.n()).filter(|v| v % 3 != 0));
        assert_matches_sequential(&g, Some(&mask), "masked triangular");
    }

    #[test]
    fn colors_are_proper_and_in_range() {
        let g = gen::grid(8, 8);
        let mut ledger = RoundLedger::new();
        let (col, metrics) =
            engine_degree_plus_one_coloring(&g, None, EngineConfig::default(), &mut ledger);
        for (u, v) in g.edges() {
            assert_ne!(col[u], col[v]);
        }
        assert!(col.iter().all(|&c| c < 5));
        assert!(metrics.total_rounds() > 0, "the sweeps actually executed");
        assert_eq!(
            ledger.total() - ledger.phase_total("forest-decomposition"),
            metrics.total_rounds(),
            "every Cole–Vishkin and class-sweep round was executed on the engine"
        );
    }

    #[test]
    fn cole_vishkin_rounds_are_counted_and_faultable() {
        // A path orients into one forest, so its Cole–Vishkin pass is the
        // only communication: those rounds must reach the returned metrics,
        // and a loss plan on the caller's config must reach them too.
        let g = gen::path(64);
        let cole_vishkin = |config: EngineConfig| {
            let mut ledger = RoundLedger::new();
            let (_, metrics) = engine_degree_plus_one_coloring(&g, None, config, &mut ledger);
            let (rounds, lost) = metrics
                .per_round()
                .iter()
                .filter(|r| &*r.phase == "cole-vishkin")
                .fold((0u64, 0usize), |(rounds, lost), r| {
                    (rounds + 1, lost + r.lost)
                });
            assert_eq!(rounds, ledger.phase_total("cole-vishkin"));
            (rounds, lost)
        };
        let (rounds, lost) = cole_vishkin(EngineConfig::default().with_shards(2));
        assert!(rounds > 0, "the Cole–Vishkin rounds are in the metrics");
        assert_eq!(lost, 0);
        let faults = FaultPlan::new().lose_edges(5, 0.2);
        let (_, lost) = cole_vishkin(EngineConfig::default().with_shards(2).with_faults(faults));
        assert!(lost > 0, "the loss plan reaches the Cole–Vishkin sessions");
    }

    #[test]
    fn edgeless_and_empty_masks() {
        let g = Graph::empty(5);
        let mut ledger = RoundLedger::new();
        let (col, _) =
            engine_degree_plus_one_coloring(&g, None, EngineConfig::default(), &mut ledger);
        assert!(col.iter().all(|&c| c == 0));

        let g = gen::cycle(6);
        let empty = VertexSet::new(6);
        let mut ledger = RoundLedger::new();
        let (col, _) =
            engine_degree_plus_one_coloring(&g, Some(&empty), EngineConfig::default(), &mut ledger);
        assert!(col.iter().all(|&c| c == usize::MAX));
    }
}
