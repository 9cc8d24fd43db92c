//! The Barenboim–Elkin H-partition phase as a message-passing node program.
//!
//! Layer-by-layer peeling, executed: a node whose residual degree is at most
//! [`peel_threshold`]`(a, ε) = ⌊(2+ε)a⌋` (shared with the sequential twin)
//! assigns itself the current layer and tells its neighbors, which
//! decrement their residual degree when the peel messages arrive next
//! round. The layer index *is* the round index — one LOCAL round per layer,
//! exactly what [`local_model::h_partition`] charges.
//!
//! Only the first round needs every node: after it, an unpeeled node's
//! residual degree can fall — and let it peel — only when peel messages
//! arrive, and a peeled node is silent for good. So the program asks for
//! [`Activation::EveryRound`] until its first step and
//! [`Activation::OnMessage`] after it, and each later round steps only the
//! nodes that hear a neighbor peel.

use graphs::{Graph, VertexSet};
use local_model::{peel_threshold, HPartition, RoundLedger};

use crate::context::NodeCtx;
use crate::driver::{EngineConfig, EngineSession, Stop};
use crate::metrics::EngineMetrics;
use crate::program::{Activation, EngineMessage, Inbox, NodeProgram, Outbox, WireCodec};

/// "I peeled this round" — the only thing neighbors need to hear.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Peeled;

/// One fixed word on the wire — the message carries no payload, only its
/// arrival.
const PEELED_WORD: u64 = 0x5045_454c; // "PEEL"

impl WireCodec for Peeled {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(PEELED_WORD);
    }

    fn decode(words: &[u64]) -> Option<Self> {
        (words == [PEELED_WORD]).then_some(Peeled)
    }
}

impl EngineMessage for Peeled {}

/// Per-node H-partition state.
#[derive(Clone, Debug)]
pub struct HPartitionProgram {
    threshold: usize,
    resid: usize,
    layer: usize,
    /// Whether the node has taken its first step (see the module docs).
    started: bool,
}

impl HPartitionProgram {
    /// The node's layer (`usize::MAX` until peeled).
    pub fn layer(&self) -> usize {
        self.layer
    }
}

impl NodeProgram for HPartitionProgram {
    type Message = Peeled;

    fn init(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<Peeled> {
        self.resid = ctx.degree();
        Outbox::Silent
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, Peeled>) -> Outbox<Peeled> {
        self.started = true;
        if self.layer != usize::MAX {
            return Outbox::Silent;
        }
        // Saturating: exact in fault-free runs (each neighbor peels once),
        // but duplication faults can re-deliver a peel announcement and the
        // degraded run must stay observable instead of underflowing.
        self.resid = self.resid.saturating_sub(inbox.len());
        if self.resid <= self.threshold {
            // Round r assigns layer r − 1, matching the sequential loop.
            self.layer = (ctx.round - 1) as usize;
            Outbox::Broadcast(Peeled)
        } else {
            Outbox::Silent
        }
    }

    fn halted(&self) -> bool {
        self.layer != usize::MAX
    }

    fn activation(&self) -> Activation {
        if self.started {
            Activation::OnMessage
        } else {
            Activation::EveryRound
        }
    }
}

/// Runs the engine H-partition over `g[mask]`: same output contract and
/// `"h-partition"` ledger charge as [`local_model::h_partition`], plus the
/// observed [`EngineMetrics`]. Masked-out vertices run no program and keep
/// layer `usize::MAX`; residual degrees count masked neighbors only.
///
/// # Panics
///
/// Panics (like the sequential twin) if the peeling stalls — certifying
/// `arboricity > a` — or if `a == 0` / `epsilon <= 0`.
///
/// # Examples
///
/// ```
/// use engine::{engine_h_partition, EngineConfig};
/// use graphs::gen;
/// use local_model::RoundLedger;
///
/// let g = gen::forest_union(80, 2, 5);
/// let mut ledger = RoundLedger::new();
/// let (hp, _) = engine_h_partition(&g, None, 2, 1.0, EngineConfig::default(), &mut ledger);
/// assert_eq!(ledger.phase_total("h-partition"), hp.layers as u64);
/// ```
pub fn engine_h_partition(
    g: &Graph,
    mask: Option<&VertexSet>,
    a: usize,
    epsilon: f64,
    mut config: EngineConfig,
    ledger: &mut RoundLedger,
) -> (HPartition, EngineMetrics) {
    let threshold = peel_threshold(a, epsilon);
    // Fault-free, every round peels at least one vertex or the partition has
    // stalled, so n rounds always suffice; don't let a huge default cap spin
    // on a stall. Delay faults insert quiet waiting rounds, so a faulted run
    // keeps the caller's own cap instead of this tightened one.
    if config.faults.is_empty() {
        config.max_rounds = config.max_rounds.min(g.n() as u64 + 1);
    }
    let mut sess = EngineSession::new(g, mask, config, |_| HPartitionProgram {
        threshold,
        resid: 0,
        layer: usize::MAX,
        started: false,
    });
    let report = sess.run_phase("h-partition", Stop::AllHalted);
    assert!(
        report.converged,
        "H-partition stalled: arboricity exceeds {a} (threshold {threshold})"
    );
    let layer = sess.view().scatter(
        usize::MAX,
        sess.programs().iter().map(HPartitionProgram::layer),
    );
    let (_, metrics, run_ledger) = sess.into_parts();
    ledger.absorb(run_ledger);
    let layers = layer
        .iter()
        .filter(|&&l| l != usize::MAX)
        .map(|&l| l + 1)
        .max()
        .unwrap_or(0);
    (
        HPartition {
            layer,
            layers,
            threshold,
        },
        metrics,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    #[test]
    fn matches_sequential_exactly() {
        for (n, a, eps, seed) in [
            (80usize, 3usize, 0.5f64, 11u64),
            (500, 2, 1.0, 3),
            (64, 1, 1.0, 9),
        ] {
            let g = gen::forest_union(n, a, seed);
            let mut seq_ledger = RoundLedger::new();
            let seq = local_model::h_partition(&g, None, a, eps, &mut seq_ledger);
            for shards in [1usize, 8] {
                let mut eng_ledger = RoundLedger::new();
                let (hp, metrics) = engine_h_partition(
                    &g,
                    None,
                    a,
                    eps,
                    EngineConfig::default().with_shards(shards),
                    &mut eng_ledger,
                );
                assert_eq!(hp.layer, seq.layer, "n={n} a={a} shards={shards}");
                assert_eq!(hp.layers, seq.layers);
                assert_eq!(hp.threshold, seq.threshold);
                assert_eq!(
                    eng_ledger.phase_total("h-partition"),
                    seq_ledger.phase_total("h-partition")
                );
                assert_eq!(metrics.total_rounds(), hp.layers as u64);
            }
        }
    }

    #[test]
    fn peel_steps_only_nodes_that_hear_a_peel_after_round_one() {
        let g = gen::forest_union(500, 2, 3);
        let mut ledger = RoundLedger::new();
        let (_, metrics) =
            engine_h_partition(&g, None, 2, 1.0, EngineConfig::default(), &mut ledger);
        let rounds = metrics.per_round();
        assert!(rounds.len() > 1, "the peel takes several rounds");
        assert_eq!(rounds[0].stepped, 500, "round 1 steps every node");
        for r in &rounds[1..] {
            assert!(
                r.stepped < r.live,
                "round {} stepped {} of {} live nodes",
                r.round,
                r.stepped,
                r.live
            );
        }
    }

    #[test]
    fn masked_partition_matches_sequential() {
        let g = gen::forest_union(200, 2, 13);
        let mask = VertexSet::from_iter_with_universe(200, (0..200).filter(|v| v % 5 != 2));
        let mut seq_ledger = RoundLedger::new();
        let seq = local_model::h_partition(&g, Some(&mask), 2, 1.0, &mut seq_ledger);
        for shards in [1usize, 4] {
            let mut eng_ledger = RoundLedger::new();
            let (hp, _) = engine_h_partition(
                &g,
                Some(&mask),
                2,
                1.0,
                EngineConfig::default().with_shards(shards),
                &mut eng_ledger,
            );
            assert_eq!(hp.layer, seq.layer, "shards={shards}");
            assert_eq!(hp.layers, seq.layers);
            assert_eq!(
                eng_ledger.phase_total("h-partition"),
                seq_ledger.phase_total("h-partition")
            );
        }
    }

    #[test]
    fn up_degree_bounded_by_threshold() {
        let g = gen::forest_union(120, 2, 7);
        let mut ledger = RoundLedger::new();
        let (hp, _) = engine_h_partition(&g, None, 2, 1.0, EngineConfig::default(), &mut ledger);
        for v in 0..g.n() {
            let up = g
                .neighbors(v)
                .iter()
                .filter(|&&w| hp.layer[w] >= hp.layer[v])
                .count();
            assert!(up <= hp.threshold, "vertex {v}: {up} up-neighbors");
        }
    }

    #[test]
    #[should_panic(expected = "stalled")]
    fn dense_graph_stalls_detectably() {
        let g = gen::complete(10);
        let mut ledger = RoundLedger::new();
        engine_h_partition(&g, None, 1, 0.1, EngineConfig::default(), &mut ledger);
    }

    #[test]
    fn peel_messages_are_counted() {
        let g = gen::random_tree(50, 2);
        let mut ledger = RoundLedger::new();
        let (_, metrics) =
            engine_h_partition(&g, None, 1, 1.0, EngineConfig::default(), &mut ledger);
        // Every vertex announces its peel to every then-unpeeled neighbor at
        // most once; a tree has 49 edges, so ≤ 98 messages, and > 0.
        assert!(metrics.total_messages() > 0);
        assert!(metrics.total_messages() <= 2 * g.m());
    }

    #[test]
    fn long_delay_faults_wait_out_the_quiet_rounds_without_stall_panics() {
        // A star: the 9 leaves peel in round 1; with their announcements
        // delayed 20 rounds the center idles far past the fault-free n+1
        // cap, then peels once the batch lands. The run must converge with
        // the correct layers, not panic with a bogus arboricity diagnosis.
        use crate::faults::FaultPlan;
        let center = 0usize;
        let g = graphs::Graph::from_edges(10, (1..10).map(|v| (center, v)));
        let mut faults = FaultPlan::new();
        for leaf in 1..10 {
            faults = faults.delay_outbox(leaf, 1, 20);
        }
        let mut ledger = RoundLedger::new();
        let (hp, metrics) = engine_h_partition(
            &g,
            None,
            1,
            1.0,
            EngineConfig::default().with_faults(faults),
            &mut ledger,
        );
        assert!(metrics.total_delayed() > 0);
        assert!(hp.layer.iter().all(|&l| l != usize::MAX));
        assert_eq!(
            hp.layer[center], 21,
            "center peels right after the batch lands"
        );
        assert!((1..10).all(|v| hp.layer[v] == 0));
    }
}
