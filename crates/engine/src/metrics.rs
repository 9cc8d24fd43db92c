//! Observed execution metrics: what the run *actually did*, round by round.
//!
//! The seed crates charge rounds to a [`local_model::RoundLedger`] by
//! analysis; the engine instead *observes* every round — messages routed,
//! widest message, active (non-halted) nodes, wall-clock time — and keeps
//! both books: the ledger for comparability with the paper's bounds, the
//! metrics for everything the ledger cannot see.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Everything the engine observed about one executed round.
#[derive(Clone, Debug)]
pub struct RoundMetrics {
    /// Global round index, monotone across phases: 0 for a session's init
    /// exchange, 1-based for executed rounds.
    pub round: u64,
    /// The phase this round was charged to. Shared, not owned: the driver
    /// interns the label once per phase so per-round accounting allocates
    /// nothing.
    pub phase: Arc<str>,
    /// Point-to-point messages emitted this round (including messages a
    /// fault later dropped or delayed — they were *sent*).
    pub messages: usize,
    /// Messages discarded by an injected drop fault.
    pub dropped: usize,
    /// Messages rescheduled by an injected delay fault.
    pub delayed: usize,
    /// Extra deliveries created by seeded per-edge duplication.
    pub duplicated: usize,
    /// Messages discarded by seeded per-edge loss.
    pub lost: usize,
    /// Payload store entries routed this round: one per outbox that
    /// reaches a live neighbor, minus the outboxes a drop or delay fault
    /// suppressed, plus one per delayed message re-staged as it comes due.
    /// Fault-free traffic stores one payload per sending step, however many
    /// [`messages`](RoundMetrics::messages) it fans out to.
    pub payloads: usize,
    /// Widest message emitted this round, in abstract words
    /// ([`EngineMessage::width`](crate::EngineMessage::width)).
    pub max_width: usize,
    /// Physical rounds this logical round cost on the wire: 1 unless
    /// [`CongestMode::Split`](crate::CongestMode::Split) stretched it to
    /// `ceil(w / budget)` virtual rounds, where `w` is the widest message
    /// actually **delivered** this round. Charging follows delivery, not
    /// emission: traffic a fault suppressed (dropped, crashed, lost) never
    /// crossed the wire and costs nothing, and a fault-delayed wide
    /// message is charged in the round its frames actually traverse.
    pub physical_rounds: u64,
    /// CONGEST frames of the over-budget messages delivered this round,
    /// counted per delivery (0 outside split mode; a message within budget
    /// is delivered whole and counts no fragment).
    pub fragments: usize,
    /// Nodes whose halt vote was still "active" when the round started.
    pub active_nodes: usize,
    /// Live-range size when the round ran — the denominator behind
    /// [`active_frac`](RoundMetrics::active_frac), kept so session-level
    /// aggregation ([`EngineMetrics::mean_active_frac`]) can weight rounds
    /// by how much work a full scan *would* have cost.
    pub live: usize,
    /// Nodes actually stepped this round — the realized frontier. Equals
    /// [`live`](RoundMetrics::live) with frontier gating off.
    pub stepped: usize,
    /// Fraction of live nodes actually *stepped* this round — the frontier
    /// density (`stepped / live`). 1.0 with frontier gating off (or every
    /// node active); tails of peeling levels and ruling-forest floods decay
    /// toward 0 as the quiescent bulk is skipped.
    pub active_frac: f64,
    /// How many of the round's two epochs (compute, routing) the driver
    /// thread ran alone, every group in turn, because their work was too
    /// small to pay for waking the pool. A function of the traffic and the
    /// frontier only, so it is the same at every shard and worker count.
    pub driver_epochs: u8,
    /// Wall-clock time of the round (compute + routing).
    pub wall: Duration,
    /// Wall-clock time of the whole routing epoch: everything between the
    /// compute epoch's close and the buffer flip — the counter sums and
    /// store swaps, the per-group counting sort (count, place, and, in a
    /// round with re-staged delayed traffic, sort the spans), and inbox
    /// finalization (the reorder). Delayed traffic is re-staged in the
    /// compute epoch, so it is not charged here. A subset of
    /// [`wall`](RoundMetrics::wall); the lab's `route-frac` budget judges
    /// this number, so it must not under-count any epoch step.
    pub route_wall: Duration,
}

impl RoundMetrics {
    /// Wall-clock milliseconds as a float, for tables and JSON artifacts.
    pub fn wall_ms(&self) -> f64 {
        self.wall.as_secs_f64() * 1e3
    }

    /// Routing-phase milliseconds as a float.
    pub fn route_ms(&self) -> f64 {
        self.route_wall.as_secs_f64() * 1e3
    }
}

/// Per-round metrics for a whole engine session, with aggregate views.
///
/// The free knowledge exchange emitted by
/// [`init`](crate::NodeProgram::init) runs as round 0 through the same
/// epochs as every other round, and is recorded as one [`RoundMetrics`]
/// per session (round 0, phase `"init"`) in [`inits`](EngineMetrics::inits).
/// It is traffic (faults apply to it) but not a charged round: the traffic
/// totals include it, while the totals indexed by round
/// ([`per_round`](EngineMetrics::per_round), walls, physical rounds,
/// frontier density, [`message_counts`](EngineMetrics::message_counts))
/// cover executed rounds only.
#[derive(Clone, Debug, Default)]
pub struct EngineMetrics {
    rounds: Vec<RoundMetrics>,
    inits: Vec<RoundMetrics>,
}

impl EngineMetrics {
    /// Records one round: round 0 is a session's init exchange, every
    /// other round an executed one.
    pub(crate) fn push(&mut self, m: RoundMetrics) {
        if m.round == 0 {
            self.inits.push(m);
        } else {
            self.rounds.push(m);
        }
    }

    /// Folds another session's metrics into this accumulator — the
    /// composite-pipeline aggregation (`SparseColoring::engine_metrics`):
    /// init entries and per-round records both concatenate in absorption
    /// order. Round indices restart per absorbed session; the totals are
    /// what composite reports consume.
    pub fn absorb(&mut self, other: EngineMetrics) {
        self.inits.extend(other.inits);
        self.rounds.extend(other.rounds);
    }

    /// The init exchanges, one per session, in absorption order.
    pub fn inits(&self) -> &[RoundMetrics] {
        &self.inits
    }

    /// Sums `f` over the init exchanges and the executed rounds — the
    /// traffic totals.
    fn traffic(&self, f: impl Fn(&RoundMetrics) -> usize) -> usize {
        self.inits.iter().chain(&self.rounds).map(f).sum()
    }

    /// All executed rounds, in order.
    pub fn per_round(&self) -> &[RoundMetrics] {
        &self.rounds
    }

    /// Number of rounds executed.
    pub fn total_rounds(&self) -> u64 {
        self.rounds.len() as u64
    }

    /// Total messages sent, init traffic included.
    pub fn total_messages(&self) -> usize {
        self.traffic(|r| r.messages)
    }

    /// Total messages lost to injected drop faults, init traffic included.
    pub fn total_dropped(&self) -> usize {
        self.traffic(|r| r.dropped)
    }

    /// Total messages rescheduled by injected delay faults, init included.
    pub fn total_delayed(&self) -> usize {
        self.traffic(|r| r.delayed)
    }

    /// Total extra deliveries created by per-edge duplication, init included.
    pub fn total_duplicated(&self) -> usize {
        self.traffic(|r| r.duplicated)
    }

    /// Total messages discarded by seeded per-edge loss, init included.
    pub fn total_lost(&self) -> usize {
        self.traffic(|r| r.lost)
    }

    /// Total payload store entries, init included: one per outbox, however
    /// wide its fan-out (see [`RoundMetrics::payloads`]).
    pub fn total_payloads(&self) -> usize {
        self.traffic(|r| r.payloads)
    }

    /// Total physical rounds spent on the wire — equals
    /// [`total_rounds`](EngineMetrics::total_rounds) outside
    /// [`CongestMode::Split`](crate::CongestMode::Split); under splitting,
    /// each logical round contributes `ceil(w / budget)`, where `w` is the
    /// widest message delivered that round (see
    /// [`RoundMetrics::physical_rounds`]).
    pub fn total_physical_rounds(&self) -> u64 {
        self.rounds.iter().map(|r| r.physical_rounds).sum()
    }

    /// Total CONGEST frames produced by fragmentation, init included.
    pub fn total_fragments(&self) -> usize {
        self.traffic(|r| r.fragments)
    }

    /// Epochs the driver ran alone instead of waking the pool, the init
    /// exchanges' included.
    pub fn total_driver_epochs(&self) -> usize {
        self.traffic(|r| usize::from(r.driver_epochs))
    }

    /// Widest message observed anywhere in the run.
    pub fn max_width(&self) -> usize {
        self.inits
            .iter()
            .chain(&self.rounds)
            .map(|r| r.max_width)
            .max()
            .unwrap_or(0)
    }

    /// Total wall-clock time across rounds.
    pub fn total_wall(&self) -> Duration {
        self.rounds.iter().map(|r| r.wall).sum()
    }

    /// Total routing-phase wall-clock time across rounds — what the
    /// worker-parallel routing barrier actually costs, for the bench
    /// artifact's routing-overhead budget.
    pub fn total_route_wall(&self) -> Duration {
        self.rounds.iter().map(|r| r.route_wall).sum()
    }

    /// Mean frontier density across all executed rounds, **weighted by
    /// live-range size**: `Σ stepped / Σ live`. An unweighted mean of
    /// per-round fractions would let a masked 10-node tail session drag the
    /// average as hard as a million-node bulk round; weighting makes the
    /// number answer "what fraction of the full-scan work did the engine
    /// actually do". 1.0 for an empty run (nothing was skippable).
    pub fn mean_active_frac(&self) -> f64 {
        let live: usize = self.rounds.iter().map(|r| r.live).sum();
        if live == 0 {
            return 1.0;
        }
        let stepped: usize = self.rounds.iter().map(|r| r.stepped).sum();
        stepped as f64 / live as f64
    }

    /// Total node-steps skipped by frontier gating across the run:
    /// `Σ (live - stepped)`. 0 with gating off; the companion number to
    /// [`mean_active_frac`](EngineMetrics::mean_active_frac) (density says
    /// how sparse rounds were, this says how much absolute work that
    /// sparsity saved).
    pub fn total_frontier_skipped(&self) -> usize {
        self.rounds.iter().map(|r| r.live - r.stepped).sum()
    }

    /// The per-round message counts — the replay-determinism fingerprint
    /// (equal seeds must produce equal fingerprints at any shard count).
    pub fn message_counts(&self) -> Vec<usize> {
        self.rounds.iter().map(|r| r.messages).collect()
    }
}

impl fmt::Display for EngineMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "engine: {} rounds, {} messages (max width {}), {:.2} ms",
            self.total_rounds(),
            self.total_messages(),
            self.max_width(),
            self.total_wall().as_secs_f64() * 1e3,
        )?;
        for r in &self.rounds {
            writeln!(
                f,
                "  r{:<4} {:<24} msgs {:<8} width {:<4} active {:<7} {:.3} ms",
                r.round,
                r.phase,
                r.messages,
                r.max_width,
                r.active_nodes,
                r.wall_ms()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(i: u64, messages: usize, width: usize) -> RoundMetrics {
        RoundMetrics {
            round: i,
            phase: "p".into(),
            messages,
            dropped: 0,
            delayed: 0,
            duplicated: 0,
            lost: 0,
            payloads: 1,
            max_width: width,
            physical_rounds: 1,
            fragments: 0,
            active_nodes: 3,
            live: 3,
            stepped: 3,
            active_frac: 1.0,
            driver_epochs: 2,
            wall: Duration::from_micros(10),
            route_wall: Duration::from_micros(4),
        }
    }

    #[test]
    fn aggregates() {
        let mut m = EngineMetrics::default();
        m.push(round(1, 5, 2));
        m.push(round(2, 7, 1));
        assert_eq!(m.total_rounds(), 2);
        assert_eq!(m.total_messages(), 12);
        assert_eq!(m.max_width(), 2);
        assert_eq!(m.message_counts(), vec![5, 7]);
        assert_eq!(m.total_dropped(), 0);
        assert_eq!(m.total_duplicated(), 0);
        assert_eq!(m.total_lost(), 0);
        assert_eq!(m.total_physical_rounds(), 2);
        assert_eq!(m.total_fragments(), 0);
        assert_eq!(m.total_route_wall(), Duration::from_micros(8));
        assert_eq!(m.total_driver_epochs(), 4);
        assert_eq!(m.total_payloads(), 2);
    }

    #[test]
    fn split_rounds_accumulate_physical_cost() {
        let mut m = EngineMetrics::default();
        let mut wide = round(1, 4, 9);
        wide.physical_rounds = 3;
        wide.fragments = 12;
        m.push(wide);
        m.push(round(2, 1, 1));
        assert_eq!(m.total_rounds(), 2);
        assert_eq!(m.total_physical_rounds(), 4);
        assert_eq!(m.total_fragments(), 12);
    }

    #[test]
    fn absorb_concatenates_sessions() {
        let mut a = EngineMetrics::default();
        let mut init = round(0, 3, 2);
        init.dropped = 1;
        a.push(init);
        a.push(round(1, 5, 2));
        let mut b = EngineMetrics::default();
        let mut init = round(0, 4, 5);
        init.fragments = 6;
        b.push(init);
        b.push(round(1, 7, 1));
        b.push(round(2, 2, 1));
        a.absorb(b);
        let inits: Vec<usize> = a.inits().iter().map(|r| r.messages).collect();
        assert_eq!(inits, vec![3, 4], "one init entry per session, in order");
        assert_eq!(a.total_rounds(), 3, "init entries are not rounds");
        assert_eq!(a.message_counts(), vec![5, 7, 2]);
        assert_eq!(a.total_messages(), 3 + 4 + 5 + 7 + 2);
        assert_eq!(a.total_payloads(), 5);
        assert_eq!(a.total_driver_epochs(), 5 * 2);
        assert_eq!(a.max_width(), 5, "an init entry's width counts");
        assert_eq!(a.total_fragments(), 6);
        assert_eq!(a.total_dropped(), 1);
        assert_eq!(a.total_physical_rounds(), 3, "over executed rounds only");
        assert_eq!(a.total_wall(), Duration::from_micros(30));
    }

    #[test]
    fn mean_active_frac_weights_by_live_range() {
        let mut m = EngineMetrics::default();
        // A big full-scan round and a tiny sparse one: the unweighted mean
        // would be (1.0 + 0.1) / 2 = 0.55; weighting by live size keeps the
        // big round dominant.
        let mut big = round(1, 0, 0);
        big.live = 1000;
        big.stepped = 1000;
        big.active_frac = 1.0;
        let mut small = round(2, 0, 0);
        small.live = 10;
        small.stepped = 1;
        small.active_frac = 0.1;
        m.push(big);
        m.push(small);
        assert!((m.mean_active_frac() - 1001.0 / 1010.0).abs() < 1e-12);
        assert_eq!(m.total_frontier_skipped(), 9);
    }

    #[test]
    fn empty_metrics() {
        let m = EngineMetrics::default();
        assert_eq!(m.total_rounds(), 0);
        assert_eq!(m.max_width(), 0);
        assert!(m.message_counts().is_empty());
    }

    #[test]
    fn display_lists_rounds() {
        let mut m = EngineMetrics::default();
        m.push(round(1, 5, 2));
        let s = m.to_string();
        assert!(s.contains("r1"));
        assert!(s.contains("msgs 5"));
    }
}
