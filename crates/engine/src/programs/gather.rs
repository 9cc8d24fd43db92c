//! Radius-`r` ball gathering and the paper's two-round `(d+1)`-clique
//! detection as message-passing node programs — the communication half of
//! Theorem 1.3's happy/sad classification, executed.
//!
//! Both programs run the per-round step functions of `local_model`
//! ([`local_model::merge_fresh`] for the flood,
//! [`local_model::clique_at_apex`] for the apex-local clique decision).
//! The sequential [`local_model::gather_balls`] searches each ball
//! directly instead of flooding, and the equivalence tests tie the two to
//! the same balls:
//!
//! * [`GatherProgram`] floods ball membership one hop per round. In
//!   [`engine_gather_balls`] every live vertex starts flooding at wake-up
//!   and `B^r` is complete after exactly `r` rounds — the `"ball-gather"`
//!   charge of [`local_model::gather_balls`]. In
//!   [`engine_classification_gather`] a **rich/poor round** precedes the
//!   flood: every vertex of residual degree ≤ `d` announces itself rich,
//!   and the subsequent flood runs strictly inside the rich subgraph —
//!   `1 + r` rounds, matching the sequential `classify`'s
//!   `"rich-poor"` + `"ball-gather"` charges.
//! * [`CliqueProgram`] is §3's two-round handshake: round one exchanges
//!   (live) adjacency lists, round two decides locally whether the node is
//!   the apex of a `(d+1)`-clique. [`engine_detect_clique`] returns the
//!   smallest apex's clique — exactly the sequential
//!   [`local_model::detect_clique`] scan order.

use graphs::{Graph, VertexId, VertexSet};
use local_model::{clique_at_apex, merge_fresh, RoundLedger};

use crate::context::NodeCtx;
use crate::driver::{EngineConfig, EngineSession, Stop};
use crate::metrics::EngineMetrics;
use crate::program::{Activation, EngineMessage, Inbox, NodeProgram, Outbox, WireCodec};

/// Gather traffic: the rich/poor wake-up announcement, or one round's fresh
/// ball members.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GatherMsg {
    /// "My residual degree is at most d" — the classification's first round.
    Rich,
    /// Newly-learned ball members (sorted), flooded one hop per round.
    Ball(Vec<VertexId>),
}

/// Wire sentinel for [`GatherMsg::Rich`] — distinguishable from any vertex
/// id, which is bounded by the graph order.
const RICH_WORD: u64 = u64::MAX;
/// Wire sentinel for an empty [`GatherMsg::Ball`] (never emitted by the
/// flood, but the codec is total over the type).
const EMPTY_BALL_WORD: u64 = u64::MAX - 1;

/// One word per ball member (vertex ids are the payload; the two sentinels
/// above are unreachable ids), so the wire cost is exactly
/// [`EngineMessage::width`].
impl WireCodec for GatherMsg {
    fn encode(&self, out: &mut Vec<u64>) {
        match self {
            GatherMsg::Rich => out.push(RICH_WORD),
            GatherMsg::Ball(members) if members.is_empty() => out.push(EMPTY_BALL_WORD),
            GatherMsg::Ball(members) => {
                debug_assert!(members.iter().all(|&v| (v as u64) < EMPTY_BALL_WORD));
                out.extend(members.iter().map(|&v| v as u64));
            }
        }
    }

    fn decode(words: &[u64]) -> Option<Self> {
        match words {
            [] => None,
            [RICH_WORD] => Some(GatherMsg::Rich),
            [EMPTY_BALL_WORD] => Some(GatherMsg::Ball(Vec::new())),
            _ => words
                .iter()
                .map(|&w| (w < EMPTY_BALL_WORD).then_some(w as VertexId))
                .collect::<Option<Vec<_>>>()
                .map(GatherMsg::Ball),
        }
    }
}

impl EngineMessage for GatherMsg {
    fn width(&self) -> usize {
        match self {
            GatherMsg::Rich => 1,
            GatherMsg::Ball(members) => members.len().max(1),
        }
    }
}

/// How a [`GatherProgram`] starts its flood.
#[derive(Clone, Copy, Debug)]
enum GatherMode {
    /// Every live vertex floods from wake-up; `B^r` after `r` rounds.
    Direct,
    /// Round 1 is the rich/poor exchange (degree ≤ `d` vertices announce);
    /// the flood then runs inside the rich subgraph for `r` more rounds.
    RichFirst {
        /// The rich/poor degree threshold.
        d: usize,
    },
}

/// Per-node radius-`r` ball-gathering state.
#[derive(Clone, Debug)]
pub struct GatherProgram {
    mode: GatherMode,
    radius: usize,
    /// Whether this node participates in the flood (always true in direct
    /// mode; decided by the degree threshold in rich-first mode).
    rich: bool,
    /// Flood recipients: all live neighbors in direct mode, the rich ones
    /// in rich-first mode (learned in the rich/poor round).
    rich_nbrs: Vec<VertexId>,
    /// Ball members known so far (sorted) — `B^k` after `k` flood rounds,
    /// by [`merge_fresh`].
    known: Vec<VertexId>,
    done: bool,
}

impl GatherProgram {
    fn direct(radius: usize) -> Self {
        GatherProgram {
            mode: GatherMode::Direct,
            radius,
            rich: true,
            rich_nbrs: Vec::new(),
            known: Vec::new(),
            done: false,
        }
    }

    fn rich_first(radius: usize, d: usize) -> Self {
        GatherProgram {
            mode: GatherMode::RichFirst { d },
            radius,
            rich: false,
            rich_nbrs: Vec::new(),
            known: Vec::new(),
            done: false,
        }
    }

    /// The gathered ball (empty for non-participating vertices).
    pub fn ball(&self) -> &[VertexId] {
        &self.known
    }

    /// Whether this node classified itself rich (direct mode: always true).
    pub fn is_rich(&self) -> bool {
        self.rich
    }

    /// Absorbs one round of flood traffic, returning the fresh members to
    /// forward.
    fn absorb(&mut self, inbox: Inbox<'_, GatherMsg>) -> Vec<VertexId> {
        let incoming = inbox.iter().filter_map(|(_, m)| match m {
            GatherMsg::Ball(members) => Some(members.as_slice()),
            GatherMsg::Rich => None,
        });
        let mut fresh = Vec::new();
        merge_fresh(&mut self.known, incoming, &mut fresh);
        fresh
    }

    /// Sends `fresh` to the flood recipients, if anything is left to say:
    /// one payload, multicast to the rich neighbors, or broadcast when they
    /// are exactly the live `neighbors`.
    fn forward(&self, fresh: Vec<VertexId>, neighbors: &[VertexId]) -> Outbox<GatherMsg> {
        if fresh.is_empty() || self.rich_nbrs.is_empty() {
            return Outbox::Silent;
        }
        if self.rich_nbrs == neighbors {
            return Outbox::Broadcast(GatherMsg::Ball(fresh));
        }
        Outbox::Multicast(self.rich_nbrs.clone(), GatherMsg::Ball(fresh))
    }
}

impl NodeProgram for GatherProgram {
    type Message = GatherMsg;

    fn init(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<GatherMsg> {
        match self.mode {
            GatherMode::Direct => {
                self.rich_nbrs = ctx.neighbors.to_vec();
                self.known = vec![ctx.id];
                if self.radius == 0 {
                    self.done = true;
                    Outbox::Silent
                } else {
                    Outbox::Broadcast(GatherMsg::Ball(vec![ctx.id]))
                }
            }
            GatherMode::RichFirst { d } => {
                self.rich = ctx.degree() <= d;
                if self.rich {
                    Outbox::Broadcast(GatherMsg::Rich)
                } else {
                    Outbox::Silent
                }
            }
        }
    }

    fn on_round(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        inbox: Inbox<'_, GatherMsg>,
    ) -> Outbox<GatherMsg> {
        // The flood spans rounds `flood_start ..= flood_start + radius - 1`;
        // round `r` of the flood absorbs the hop-`r` traffic.
        let flood_start = match self.mode {
            GatherMode::Direct => 1,
            GatherMode::RichFirst { .. } => 2,
        };
        let round = ctx.round as usize;
        if round < flood_start {
            // Rich-first mode only: the rich/poor round. Learn which
            // neighbors are rich and seed the flood among them. The inbox
            // is sorted by sender, so dropping adjacent repeats (a
            // duplicated announcement) leaves the strictly ascending list a
            // multicast takes.
            self.rich_nbrs = inbox
                .iter()
                .filter(|(_, m)| matches!(m, GatherMsg::Rich))
                .map(|(src, _)| src)
                .collect();
            self.rich_nbrs.dedup();
            if !self.rich {
                self.done = true;
                return Outbox::Silent;
            }
            self.known = vec![ctx.id];
            if self.radius == 0 {
                self.done = true;
                return Outbox::Silent;
            }
            return self.forward(vec![ctx.id], ctx.neighbors);
        }
        if !self.rich || self.done {
            return Outbox::Silent;
        }
        let fresh = self.absorb(inbox);
        if round + 1 - flood_start >= self.radius {
            // Final flood round: `known` is `B^radius`; nothing further to
            // forward would ever be delivered.
            self.done = true;
            return Outbox::Silent;
        }
        self.forward(fresh, ctx.neighbors)
    }

    fn halted(&self) -> bool {
        self.done
    }

    /// Done nodes (poor vertices after the rich/poor round, everyone once
    /// the flood completes) step only on traffic — their step is a pure
    /// `Silent`. Unfinished nodes keep the full scan: an empty-inbox step
    /// can still seed the flood or retire the node at the final flood round.
    fn activation(&self) -> Activation {
        if self.done {
            Activation::OnMessage
        } else {
            Activation::EveryRound
        }
    }
}

/// Engine twin of [`local_model::gather_balls`]: every live vertex learns
/// `B^radius_mask(v)` in exactly `radius` executed rounds (charged to
/// `"ball-gather"`), and the balls of `centers` are returned — bit-identical
/// to the sequential flood, masked or not, at any shard count. Centers
/// outside the mask get empty balls, per the paper's convention.
///
/// # Examples
///
/// ```
/// use engine::{engine_gather_balls, EngineConfig};
/// use graphs::gen;
/// use local_model::RoundLedger;
///
/// let g = gen::grid(5, 5);
/// let mut ledger = RoundLedger::new();
/// let (balls, _) =
///     engine_gather_balls(&g, None, &[12], 2, EngineConfig::default(), &mut ledger);
/// assert_eq!(balls[0], graphs::ball(&g, 12, 2, None));
/// assert_eq!(ledger.phase_total("ball-gather"), 2);
/// ```
pub fn engine_gather_balls(
    g: &Graph,
    mask: Option<&VertexSet>,
    centers: &[VertexId],
    radius: usize,
    config: EngineConfig,
    ledger: &mut RoundLedger,
) -> (Vec<Vec<VertexId>>, EngineMetrics) {
    let mut sess = EngineSession::new(g, mask, config, |_| GatherProgram::direct(radius));
    let report = sess.run_phase("ball-gather", Stop::Rounds(radius as u64));
    assert_eq!(
        report.rounds, radius as u64,
        "max_rounds interrupted the ball gather"
    );
    let balls = centers
        .iter()
        .map(|&c| match sess.view().dense_of(c) {
            Some(dv) => sess.programs()[dv].ball().to_vec(),
            None => Vec::new(),
        })
        .collect();
    let (_, metrics, run_ledger) = sess.into_parts();
    ledger.absorb(run_ledger);
    (balls, metrics)
}

/// The communication of Theorem 1.3's classification, executed: one
/// rich/poor degree-announcement round over `g[alive]` (charged to
/// `"rich-poor"`), then a `radius`-round ball flood strictly inside the
/// rich subgraph (charged to `"ball-gather"`) — the same `1 + radius`
/// rounds the sequential `classify` charges. Returns the rich set and, for
/// every rich vertex, its ball `B^radius_rich(v)` (empty for poor or dead
/// vertices), indexed by original vertex id.
pub fn engine_classification_gather(
    g: &Graph,
    alive: &VertexSet,
    d: usize,
    radius: usize,
    config: EngineConfig,
    ledger: &mut RoundLedger,
) -> (VertexSet, Vec<Vec<VertexId>>, EngineMetrics) {
    let mut sess = EngineSession::new(g, Some(alive), config, |_| {
        GatherProgram::rich_first(radius, d)
    });
    let rich_report = sess.run_phase("rich-poor", Stop::Rounds(1));
    let flood_report = sess.run_phase("ball-gather", Stop::Rounds(radius as u64));
    assert_eq!(
        rich_report.rounds + flood_report.rounds,
        1 + radius as u64,
        "max_rounds interrupted the classification gather"
    );
    let mut rich = VertexSet::new(g.n());
    let mut balls: Vec<Vec<VertexId>> = vec![Vec::new(); g.n()];
    for (v, p) in sess.view().live().zip(sess.programs()) {
        if p.is_rich() {
            rich.insert(v);
            balls[v] = p.ball().to_vec();
        }
    }
    let (_, metrics, run_ledger) = sess.into_parts();
    ledger.absorb(run_ledger);
    (rich, balls, metrics)
}

/// Clique-handshake traffic: a node's live adjacency list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NbrList(pub Vec<VertexId>);

/// Wire sentinel for an empty adjacency list (an isolated node's
/// handshake).
const EMPTY_LIST_WORD: u64 = u64::MAX;

/// One word per listed neighbor, so the wire cost is exactly
/// [`EngineMessage::width`].
impl WireCodec for NbrList {
    fn encode(&self, out: &mut Vec<u64>) {
        if self.0.is_empty() {
            out.push(EMPTY_LIST_WORD);
        } else {
            debug_assert!(self.0.iter().all(|&v| (v as u64) < EMPTY_LIST_WORD));
            out.extend(self.0.iter().map(|&v| v as u64));
        }
    }

    fn decode(words: &[u64]) -> Option<Self> {
        match words {
            [] => None,
            [EMPTY_LIST_WORD] => Some(NbrList(Vec::new())),
            _ => words
                .iter()
                .map(|&w| (w < EMPTY_LIST_WORD).then_some(w as VertexId))
                .collect::<Option<Vec<_>>>()
                .map(NbrList),
        }
    }
}

impl EngineMessage for NbrList {
    fn width(&self) -> usize {
        self.0.len().max(1)
    }
}

/// Per-node state of §3's two-round `(d+1)`-clique detection: broadcast the
/// live adjacency list in round one, decide apex-locally in round two with
/// [`clique_at_apex`] — the same decision function the sequential scan
/// runs, fed only with exchanged knowledge.
#[derive(Clone, Debug)]
pub struct CliqueProgram {
    d: usize,
    /// Senders of round-one adjacency lists (sorted — inbox order).
    heard_from: Vec<VertexId>,
    /// Their lists, aligned to `heard_from`.
    lists: Vec<Vec<VertexId>>,
    /// The clique this apex found (sorted, apex included), if any.
    found: Option<Vec<VertexId>>,
    done: bool,
}

impl CliqueProgram {
    fn new(d: usize) -> Self {
        CliqueProgram {
            d,
            heard_from: Vec::new(),
            lists: Vec::new(),
            found: None,
            done: false,
        }
    }

    /// The `(d+1)`-clique containing this apex, if the handshake found one.
    pub fn found(&self) -> Option<&Vec<VertexId>> {
        self.found.as_ref()
    }

    fn list_of(&self, w: VertexId) -> Option<&[VertexId]> {
        self.heard_from
            .binary_search(&w)
            .ok()
            .map(|i| self.lists[i].as_slice())
    }
}

impl NodeProgram for CliqueProgram {
    type Message = NbrList;

    fn init(&mut self, _ctx: &mut NodeCtx<'_>) -> Outbox<NbrList> {
        Outbox::Silent
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, NbrList>) -> Outbox<NbrList> {
        match ctx.round {
            1 => Outbox::Broadcast(NbrList(ctx.neighbors.to_vec())),
            2 => {
                for (src, NbrList(list)) in inbox {
                    self.heard_from.push(src);
                    self.lists.push(list.clone());
                }
                // A lost or faulted list degrades the neighbor to degree 0 —
                // it simply cannot join a clique through this apex.
                self.found = clique_at_apex(
                    ctx.id,
                    ctx.neighbors,
                    self.d,
                    |w| self.list_of(w).map_or(0, <[VertexId]>::len),
                    |u, w| self.list_of(w).is_some_and(|l| l.binary_search(&u).is_ok()),
                );
                self.done = true;
                Outbox::Silent
            }
            _ => Outbox::Silent,
        }
    }

    fn halted(&self) -> bool {
        self.done
    }
}

/// Engine twin of [`local_model::detect_clique`]: the two-round handshake
/// executed over `g[mask]`, charged to `"clique-detection"` exactly like
/// the sequential scan, returning the same clique (the smallest apex wins).
pub fn engine_detect_clique(
    g: &Graph,
    mask: Option<&VertexSet>,
    d: usize,
    config: EngineConfig,
    ledger: &mut RoundLedger,
) -> (Option<Vec<VertexId>>, EngineMetrics) {
    let mut sess = EngineSession::new(g, mask, config, |_| CliqueProgram::new(d));
    let report = sess.run_phase("clique-detection", Stop::Rounds(2));
    assert_eq!(
        report.rounds, 2,
        "max_rounds interrupted the clique handshake"
    );
    let found = sess.programs().iter().find_map(|p| p.found().cloned());
    let (_, metrics, run_ledger) = sess.into_parts();
    ledger.absorb(run_ledger);
    (found, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;
    use local_model::{detect_clique, gather_balls};

    fn assert_balls_match(g: &Graph, mask: Option<&VertexSet>, radius: usize, label: &str) {
        let centers: Vec<VertexId> = (0..g.n()).collect();
        let mut seq_ledger = RoundLedger::new();
        let seq = gather_balls(g, mask, &centers, radius, &mut seq_ledger);
        for shards in [1usize, 2, 8] {
            let mut eng_ledger = RoundLedger::new();
            let (balls, metrics) = engine_gather_balls(
                g,
                mask,
                &centers,
                radius,
                EngineConfig::default().with_shards(shards),
                &mut eng_ledger,
            );
            assert_eq!(balls, seq, "{label} shards={shards}");
            assert_eq!(eng_ledger.total(), seq_ledger.total(), "{label}");
            assert_eq!(metrics.total_rounds(), radius as u64, "{label}");
        }
    }

    #[test]
    fn balls_match_sequential_gather() {
        assert_balls_match(&gen::grid(6, 6), None, 3, "grid");
        assert_balls_match(&gen::random_tree(50, 3), None, 2, "tree");
        let g = gen::triangular(5, 5);
        let mask = VertexSet::from_iter_with_universe(g.n(), (0..g.n()).filter(|v| v % 3 != 1));
        assert_balls_match(&g, Some(&mask), 4, "masked triangular");
    }

    #[test]
    fn gather_codec_round_trips() {
        for msg in [
            GatherMsg::Rich,
            GatherMsg::Ball(Vec::new()),
            GatherMsg::Ball(vec![0]),
            GatherMsg::Ball(vec![3, 17, 19, 523]),
        ] {
            let words = msg.encode_to_vec();
            assert_eq!(words.len(), msg.width(), "{msg:?}");
            assert_eq!(GatherMsg::decode(&words), Some(msg));
        }
        for list in [
            NbrList(Vec::new()),
            NbrList(vec![7]),
            NbrList(vec![1, 2, 3]),
        ] {
            let words = list.encode_to_vec();
            assert_eq!(words.len(), list.width());
            assert_eq!(NbrList::decode(&words), Some(list));
        }
        assert_eq!(GatherMsg::decode(&[]), None);
        assert_eq!(NbrList::decode(&[]), None);
    }

    #[test]
    fn split_mode_gather_matches_unlimited_and_charges_extra_rounds() {
        use crate::driver::SPLIT_PHASE;
        let g = gen::grid(7, 7);
        let centers: Vec<VertexId> = (0..g.n()).collect();
        let radius = 3;
        let mut base_ledger = RoundLedger::new();
        let (base, base_metrics) = engine_gather_balls(
            &g,
            None,
            &centers,
            radius,
            EngineConfig::default(),
            &mut base_ledger,
        );
        assert!(
            base_metrics.max_width() > 1,
            "the flood ships wide messages"
        );
        for shards in [1usize, 2, 8] {
            let mut ledger = RoundLedger::new();
            let (balls, metrics) = engine_gather_balls(
                &g,
                None,
                &centers,
                radius,
                EngineConfig::default().with_shards(shards).congest_split(1),
                &mut ledger,
            );
            assert_eq!(balls, base, "shards={shards}: split changed the balls");
            assert!(metrics.total_fragments() > 0, "wide messages fragmented");
            assert!(
                metrics.total_physical_rounds() > metrics.total_rounds(),
                "splitting must cost physical rounds"
            );
            assert_eq!(
                ledger.phase_total("ball-gather"),
                base_ledger.phase_total("ball-gather"),
                "logical charge unchanged"
            );
            assert_eq!(
                ledger.phase_total(SPLIT_PHASE) + ledger.phase_total("ball-gather"),
                ledger.total(),
                "surplus lands under {SPLIT_PHASE}"
            );
            assert_eq!(
                ledger.phase_total(SPLIT_PHASE) + metrics.total_rounds(),
                metrics.total_physical_rounds(),
                "ledger surplus equals the observed physical surplus"
            );
        }
    }

    #[test]
    fn radius_zero_balls_are_singletons() {
        let g = gen::cycle(5);
        let mut ledger = RoundLedger::new();
        let (balls, metrics) =
            engine_gather_balls(&g, None, &[0, 3], 0, EngineConfig::default(), &mut ledger);
        assert_eq!(balls, vec![vec![0], vec![3]]);
        assert_eq!(metrics.total_rounds(), 0);
        assert_eq!(ledger.total(), 0);
    }

    #[test]
    fn classification_gather_splits_rich_and_floods_rich_subgraph() {
        // Star K_{1,5} with d = 3: the center is poor, the leaves rich. A
        // leaf's rich ball is just itself — the poor center blocks every
        // path between leaves.
        let g = gen::star(5);
        let alive = VertexSet::full(g.n());
        let mut ledger = RoundLedger::new();
        let (rich, balls, metrics) = engine_classification_gather(
            &g,
            &alive,
            3,
            4,
            EngineConfig::default().with_shards(2),
            &mut ledger,
        );
        assert!(!rich.contains(0));
        assert_eq!(rich.len(), 5);
        assert!(balls[0].is_empty(), "poor vertices gather nothing");
        for (leaf, ball) in balls.iter().enumerate().take(6).skip(1) {
            assert_eq!(ball, &vec![leaf]);
        }
        assert_eq!(ledger.phase_total("rich-poor"), 1);
        assert_eq!(ledger.phase_total("ball-gather"), 4);
        assert_eq!(metrics.total_rounds(), 5);
    }

    #[test]
    fn classification_balls_match_masked_bfs_balls() {
        let g = gen::triangular(5, 5);
        let alive = VertexSet::from_iter_with_universe(g.n(), (0..g.n()).filter(|v| v % 5 != 2));
        let d = 4;
        for radius in [1usize, 2, 3] {
            let mut ledger = RoundLedger::new();
            let (rich, balls, _) = engine_classification_gather(
                &g,
                &alive,
                d,
                radius,
                EngineConfig::default().with_shards(2),
                &mut ledger,
            );
            for v in alive.iter() {
                if rich.contains(v) {
                    assert_eq!(
                        balls[v],
                        graphs::ball(&g, v, radius, Some(&rich)),
                        "vertex {v} radius {radius}"
                    );
                }
            }
        }
    }

    #[test]
    fn clique_detection_matches_sequential() {
        // K4 glued into a path (the sequential module's own fixture), K5,
        // and a clique-free grid.
        let mut edges: Vec<(usize, usize)> = (0..10).map(|i| (i, i + 1)).collect();
        edges.extend([(0, 2), (0, 3), (1, 3)]);
        let glued = graphs::Graph::from_edges(11, edges);
        let cases: Vec<(Graph, usize)> =
            vec![(glued, 3), (gen::complete(5), 4), (gen::grid(5, 5), 3)];
        for (g, d) in &cases {
            let mut seq_ledger = RoundLedger::new();
            let seq = detect_clique(g, None, *d, &mut seq_ledger);
            for shards in [1usize, 2, 8] {
                let mut eng_ledger = RoundLedger::new();
                let (found, metrics) = engine_detect_clique(
                    g,
                    None,
                    *d,
                    EngineConfig::default().with_shards(shards),
                    &mut eng_ledger,
                );
                assert_eq!(found, seq, "n={} d={d} shards={shards}", g.n());
                assert_eq!(eng_ledger.total(), seq_ledger.total());
                assert_eq!(
                    eng_ledger.phase_total("clique-detection"),
                    seq_ledger.phase_total("clique-detection")
                );
                assert_eq!(metrics.total_rounds(), 2);
            }
        }
    }

    #[test]
    fn masked_clique_detection_matches_sequential() {
        let g = gen::complete(6);
        let mask = VertexSet::from_iter_with_universe(6, [0, 2, 3, 5]);
        let mut seq_ledger = RoundLedger::new();
        let seq = detect_clique(&g, Some(&mask), 3, &mut seq_ledger);
        assert!(seq.is_some(), "K4 survives the mask");
        let mut eng_ledger = RoundLedger::new();
        let (found, _) = engine_detect_clique(
            &g,
            Some(&mask),
            3,
            EngineConfig::default().with_shards(2),
            &mut eng_ledger,
        );
        assert_eq!(found, seq);
    }
}
