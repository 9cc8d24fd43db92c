//! The §6 randomized `(deg+1)`-list-coloring as a message-passing program.
//!
//! Each propose/resolve cycle costs two engine rounds, matching the
//! sequential twin's `2 · cycles` ledger charge (see
//! [`local_model::randomized`]):
//!
//! * **Propose** (odd rounds): an uncolored node first strikes the colors
//!   its neighbors committed last cycle (the `Committed` messages in its
//!   inbox), then draws a uniform color from its live list and broadcasts
//!   `Proposal`.
//! * **Resolve** (even rounds): the node hears every neighbor proposal and
//!   commits unless some neighbor proposed — or is known to own — the same
//!   color; on commit it broadcasts `Committed` and halts.
//!
//! Both steps apply the sequential twin's rules — [`strike`],
//! [`draw_proposal`], [`commits`] — to what the inbox brought.
//!
//! Because each node draws from [`local_model::per_vertex_rng`]`(seed, id)`
//! — the program owns exactly that stream, seeded in its factory with
//! [`node_rng`] — and inboxes are sorted by sender, the engine run commits
//! the same vertices with the same colors in the same cycles as the
//! sequential implementation, at any shard count.

use graphs::{Graph, VertexSet};
use local_model::{
    assert_deg_plus_one_lists, commits, draw_proposal, strike, RandomizedColoring, RoundLedger,
};
use rand::rngs::StdRng;

use crate::context::{node_rng, NodeCtx};
use crate::driver::{EngineConfig, EngineSession, Stop};
use crate::metrics::EngineMetrics;
use crate::program::{EngineMessage, Inbox, NodeProgram, Outbox, WireCodec};

/// Cycle traffic: a color proposal, or a committed color.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColorMsg {
    /// "I propose this color for the current cycle."
    Proposal(usize),
    /// "I committed this color last resolve round."
    Committed(usize),
}

/// One word on the wire: the color in the high bits, the
/// proposal/commitment flag in bit 0.
impl WireCodec for ColorMsg {
    fn encode(&self, out: &mut Vec<u64>) {
        let (c, tag) = match *self {
            ColorMsg::Proposal(c) => (c as u64, 0),
            ColorMsg::Committed(c) => (c as u64, 1),
        };
        debug_assert_eq!(c >> 63, 0, "color must fit the 63-bit wire field");
        out.push((c << 1) | tag);
    }

    fn decode(words: &[u64]) -> Option<Self> {
        match words {
            [w] if w & 1 == 0 => Some(ColorMsg::Proposal((w >> 1) as usize)),
            [w] => Some(ColorMsg::Committed((w >> 1) as usize)),
            _ => None,
        }
    }
}

impl EngineMessage for ColorMsg {}

/// Per-node randomized list-coloring state.
#[derive(Clone, Debug)]
pub struct RandomizedProgram {
    live: Vec<usize>,
    color: usize,
    proposal: usize,
    /// Colors committed by neighbors (for the "neighbor owns it" conflict).
    taken: Vec<usize>,
    /// This node's private stream, `node_rng(seed, id)`.
    rng: StdRng,
}

impl RandomizedProgram {
    /// The node's committed color (`usize::MAX` while uncolored).
    pub fn color(&self) -> usize {
        self.color
    }

    fn strike(&mut self, inbox: Inbox<'_, ColorMsg>) {
        for (_, &msg) in inbox {
            if let ColorMsg::Committed(c) = msg {
                self.taken.push(c);
                strike(&mut self.live, c);
            }
        }
    }
}

impl NodeProgram for RandomizedProgram {
    type Message = ColorMsg;

    fn init(&mut self, _ctx: &mut NodeCtx<'_>) -> Outbox<ColorMsg> {
        Outbox::Silent
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, ColorMsg>) -> Outbox<ColorMsg> {
        if self.color != usize::MAX {
            // Committed (and announced in the commit round): silent forever.
            return Outbox::Silent;
        }
        if ctx.round % 2 == 1 {
            // Propose: strike last cycle's commitments first, exactly the
            // knowledge the sequential implementation draws with.
            self.strike(inbox);
            self.proposal = draw_proposal(&self.live, &mut self.rng);
            Outbox::Broadcast(ColorMsg::Proposal(self.proposal))
        } else {
            // Resolve: ties kill both, owned colors kill the proposer.
            // Strike first: fault-free resolve inboxes hold only proposals
            // (a no-op), but a fault-delayed `Committed` can land here and
            // must not be lost — dropping it could let this node commit a
            // neighbor's color.
            self.strike(inbox);
            let proposals = inbox.iter().filter_map(|(_, &m)| match m {
                ColorMsg::Proposal(c) => Some(c),
                ColorMsg::Committed(_) => None,
            });
            if commits(self.proposal, proposals.chain(self.taken.iter().copied())) {
                self.color = self.proposal;
                Outbox::Broadcast(ColorMsg::Committed(self.color))
            } else {
                Outbox::Silent
            }
        }
    }

    fn halted(&self) -> bool {
        self.color != usize::MAX
    }
}

/// Runs the engine randomized list-coloring over `g[mask]`: same output
/// contract and `"randomized-coloring"` ledger total as
/// [`local_model::randomized_list_coloring`] — including bit-identical
/// colors for equal `seed`, masked or not — plus the observed
/// [`EngineMetrics`]. `max_cycles` caps propose/resolve cycles, like the
/// sequential `max_rounds`. Masked-out vertices run no program and keep
/// `usize::MAX`.
///
/// # Panics
///
/// Panics if some masked vertex's list is smaller than its masked degree
/// plus one.
///
/// # Examples
///
/// ```
/// use engine::{engine_randomized_list_coloring, EngineConfig};
/// use graphs::gen;
/// use local_model::RoundLedger;
///
/// let g = gen::cycle(12);
/// let lists: Vec<Vec<usize>> = (0..12).map(|_| vec![0, 1, 2]).collect();
/// let mut ledger = RoundLedger::new();
/// let (out, _) = engine_randomized_list_coloring(
///     &g, None, &lists, 1, 100, EngineConfig::default(), &mut ledger,
/// );
/// assert!(out.complete);
/// for (u, v) in g.edges() {
///     assert_ne!(out.colors[u], out.colors[v]);
/// }
/// ```
pub fn engine_randomized_list_coloring(
    g: &Graph,
    mask: Option<&VertexSet>,
    lists: &[Vec<usize>],
    seed: u64,
    max_cycles: u64,
    mut config: EngineConfig,
    ledger: &mut RoundLedger,
) -> (RandomizedColoring, EngineMetrics) {
    assert_deg_plus_one_lists(g, mask, lists);
    // The node RNG stream is the sequential contract: per_vertex_rng(seed, v),
    // seeded in the factory below.
    config.max_rounds = config.max_rounds.min(2 * max_cycles);
    let mut sess = EngineSession::new(g, mask, config, |ctx| RandomizedProgram {
        live: lists[ctx.id].clone(),
        color: usize::MAX,
        proposal: usize::MAX,
        taken: Vec::new(),
        rng: node_rng(seed, ctx.id),
    });
    let report = sess.run_phase("randomized-coloring", Stop::AllHalted);
    let colors = sess.view().scatter(
        usize::MAX,
        sess.programs().iter().map(RandomizedProgram::color),
    );
    let (_, metrics, run_ledger) = sess.into_parts();
    ledger.absorb(run_ledger);
    (
        RandomizedColoring {
            colors,
            rounds: report.rounds / 2,
            complete: report.converged,
        },
        metrics,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    fn deg_plus_one_lists(g: &Graph, slack: usize) -> Vec<Vec<usize>> {
        g.vertices()
            .map(|v| (0..g.degree(v) + 1 + slack).collect())
            .collect()
    }

    #[test]
    fn matches_sequential_bit_for_bit() {
        for seed in 0..4u64 {
            let g = gen::random_regular(200, 4, seed);
            let lists = deg_plus_one_lists(&g, 0);
            let mut seq_ledger = RoundLedger::new();
            let seq =
                local_model::randomized_list_coloring(&g, None, &lists, seed, 500, &mut seq_ledger);
            for shards in [1usize, 2, 8] {
                let mut eng_ledger = RoundLedger::new();
                let (out, _) = engine_randomized_list_coloring(
                    &g,
                    None,
                    &lists,
                    seed,
                    500,
                    EngineConfig::default().with_shards(shards),
                    &mut eng_ledger,
                );
                assert_eq!(out.colors, seq.colors, "seed={seed} shards={shards}");
                assert_eq!(out.rounds, seq.rounds);
                assert_eq!(out.complete, seq.complete);
                assert_eq!(eng_ledger.total(), seq_ledger.total());
            }
        }
    }

    #[test]
    fn proper_and_on_list() {
        let g = gen::grid(9, 9);
        let lists: Vec<Vec<usize>> = g
            .vertices()
            .map(|v| (7 * v..7 * v + g.degree(v) + 1).collect())
            .collect();
        let mut ledger = RoundLedger::new();
        let (out, metrics) = engine_randomized_list_coloring(
            &g,
            None,
            &lists,
            3,
            500,
            EngineConfig::default(),
            &mut ledger,
        );
        assert!(out.complete);
        for (u, v) in g.edges() {
            assert_ne!(out.colors[u], out.colors[v]);
        }
        for v in g.vertices() {
            assert!(lists[v].contains(&out.colors[v]));
        }
        assert_eq!(metrics.total_rounds(), 2 * out.rounds);
    }

    #[test]
    fn cycle_budget_respected() {
        let g = gen::random_regular(100, 3, 1);
        let lists = deg_plus_one_lists(&g, 0);
        let mut ledger = RoundLedger::new();
        let (out, _) = engine_randomized_list_coloring(
            &g,
            None,
            &lists,
            1,
            1,
            EngineConfig::default(),
            &mut ledger,
        );
        assert_eq!(out.rounds, 1);
        assert!(!out.complete, "one cycle cannot finish 100 vertices");
        for (u, v) in g.edges() {
            if out.colors[u] != usize::MAX && out.colors[v] != usize::MAX {
                assert_ne!(out.colors[u], out.colors[v]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "deg+1")]
    fn tight_lists_rejected() {
        let g = gen::cycle(6);
        let lists = vec![vec![0, 1]; 6];
        let mut ledger = RoundLedger::new();
        engine_randomized_list_coloring(
            &g,
            None,
            &lists,
            1,
            10,
            EngineConfig::default(),
            &mut ledger,
        );
    }

    #[test]
    fn delayed_commit_announcements_never_cause_improper_colorings() {
        // Delay node 0's outbox by 1 in every resolve (even) round: its
        // `Committed` then lands in a *resolve* inbox (2c + 2) instead of a
        // propose inbox. The late announcement must still be struck there —
        // losing it would let a neighbor commit node 0's color.
        use crate::faults::FaultPlan;
        for seed in 0..6u64 {
            let g = gen::cycle(20);
            let lists = deg_plus_one_lists(&g, 0);
            let mut faults = FaultPlan::new();
            for resolve_round in (2..400u64).step_by(2) {
                faults = faults.delay_outbox(0, resolve_round, 1);
            }
            let mut ledger = RoundLedger::new();
            let (out, metrics) = engine_randomized_list_coloring(
                &g,
                None,
                &lists,
                seed,
                1000,
                EngineConfig::default().with_faults(faults),
                &mut ledger,
            );
            assert!(
                metrics.total_delayed() > 0,
                "seed {seed}: fault never fired"
            );
            assert!(out.complete, "seed {seed}: delayed run must still finish");
            for (u, v) in g.edges() {
                assert_ne!(out.colors[u], out.colors[v], "seed {seed}: edge ({u},{v})");
            }
        }
    }

    #[test]
    fn masked_run_matches_sequential_masked_primitive() {
        use graphs::VertexSet;
        for seed in 0..3u64 {
            let g = gen::grid(12, 12);
            let mask = VertexSet::from_iter_with_universe(
                g.n(),
                (0..g.n()).filter(|v| !(v * 7 + seed as usize).is_multiple_of(4)),
            );
            let lists = deg_plus_one_lists(&g, 0);
            let mut seq_ledger = RoundLedger::new();
            let seq = local_model::randomized_list_coloring(
                &g,
                Some(&mask),
                &lists,
                seed,
                500,
                &mut seq_ledger,
            );
            for shards in [1usize, 2, 8] {
                let mut eng_ledger = RoundLedger::new();
                let (out, _) = engine_randomized_list_coloring(
                    &g,
                    Some(&mask),
                    &lists,
                    seed,
                    500,
                    EngineConfig::default().with_shards(shards),
                    &mut eng_ledger,
                );
                assert_eq!(out.colors, seq.colors, "seed={seed} shards={shards}");
                assert_eq!(out.rounds, seq.rounds);
                assert_eq!(out.complete, seq.complete);
                assert_eq!(eng_ledger.total(), seq_ledger.total());
            }
            for v in 0..g.n() {
                if !mask.contains(v) {
                    assert_eq!(seq.colors[v], usize::MAX, "dead vertices stay uncolored");
                }
            }
        }
    }
}
