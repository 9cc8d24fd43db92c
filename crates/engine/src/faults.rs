//! Deterministic fault injection: perturb a run without touching programs.
//!
//! A [`FaultPlan`] names (node, round) pairs whose **outbox** is dropped or
//! delayed, plus an optional seeded **per-edge duplication** rule that
//! re-delivers individual messages. Faults are applied by the engine between
//! compute and routing, so node programs stay oblivious — exactly how one
//! probes an algorithm's sensitivity to loss, asynchrony, and at-least-once
//! delivery. Plans are plain data: the same plan on the same seed perturbs
//! the run identically at any shard count.
//!
//! Duplication and **per-edge loss** are keyed on `(seed, round, sender,
//! receiver)` only — pure functions of the traffic, never of the shard
//! layout — so a perturbed run replays bit-identically across shard and
//! worker counts, exactly like the outbox-level faults. The key names one
//! message: an outbox sends each neighbor at most one message a round
//! ([`Outbox`](crate::Outbox)). Loss and duplication use domain-separated
//! hashes, so installing both draws independent decisions per message.

use std::collections::BTreeMap;

use graphs::VertexId;
use rand::mix64;

/// What happens to a node's outbox in a given round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally next round.
    Deliver,
    /// Discard every message of the outbox.
    Drop,
    /// Deliver the outbox `by` rounds late (`by ≥ 1`).
    Delay(u64),
}

/// A deterministic schedule of outbox faults, keyed by `(round, node)`.
///
/// # Examples
///
/// ```
/// use engine::{FaultAction, FaultPlan};
/// let plan = FaultPlan::new().drop_outbox(3, 1).delay_outbox(5, 2, 4);
/// assert_eq!(plan.action(1, 3), FaultAction::Drop);
/// assert_eq!(plan.action(2, 5), FaultAction::Delay(4));
/// assert_eq!(plan.action(1, 5), FaultAction::Deliver);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    schedule: BTreeMap<(u64, VertexId), FaultAction>,
    duplication: Option<Duplication>,
    loss: Option<Loss>,
    reorder: Option<u64>,
    /// Crash-stop nodes: vertex → first round whose outbox is suppressed
    /// (the node is silent from that round on, forever).
    crashes: BTreeMap<VertexId, u64>,
}

/// Domain separator mixed into the seed of per-edge *loss* decisions, so a
/// plan installing loss and duplication under the same seed draws
/// independent coins for each.
const LOSS_DOMAIN: u64 = 0x6c6f_7373_2d65_6467; // "loss-edg"

/// Domain separator for adversarial *reorder* coins, independent of loss
/// and duplication under a shared seed.
const REORDER_DOMAIN: u64 = 0x7265_6f72_6465_7221; // "reorder!"

/// The last word the loss and duplication coins hash. It once counted the
/// earlier messages of an outbox to the same receiver, which is always 0
/// now that an outbox sends each neighbor at most one message; it stays in
/// the hash so every coin — and every recorded chaos outcome pinned on the
/// coins — keeps its value.
const RETIRED_OCCURRENCE: u64 = 0;

/// Seeded per-edge loss: each delivered message is independently discarded
/// with the given probability, decided by hashing the message's
/// coordinates under `seed`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Loss {
    seed: u64,
    /// `probability × u64::MAX`, so the decision is one integer compare.
    threshold: u64,
}

/// Seeded per-edge duplication: each delivered message is independently
/// re-delivered with the given probability, decided by hashing the message's
/// coordinates under `seed`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Duplication {
    seed: u64,
    /// `probability × u64::MAX`, so the decision is one integer compare.
    threshold: u64,
}

impl FaultPlan {
    /// An empty plan: every outbox delivers normally.
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Drops `node`'s entire outbox in `round` (round 0 is
    /// [`init`](crate::NodeProgram::init)).
    #[must_use]
    pub fn drop_outbox(mut self, node: VertexId, round: u64) -> Self {
        self.schedule.insert((round, node), FaultAction::Drop);
        self
    }

    /// Delays `node`'s round-`round` outbox by `by` extra rounds (clamped to
    /// at least 1): receivers see it with their round `round + 1 + by` inbox.
    #[must_use]
    pub fn delay_outbox(mut self, node: VertexId, round: u64, by: u64) -> Self {
        self.schedule
            .insert((round, node), FaultAction::Delay(by.max(1)));
        self
    }

    /// Duplicates each delivered message independently with `probability`,
    /// seeded by `seed`. The decision for a message is a pure function of
    /// `(seed, round, sender, receiver)` — replayable at any shard count. Duplicates ride in the same round as their original
    /// (immediately after it in the receiver's inbox); dropped and delayed
    /// outboxes are not duplicated.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < probability <= 1.0`.
    #[must_use]
    pub fn duplicate_edges(mut self, seed: u64, probability: f64) -> Self {
        assert!(
            probability > 0.0 && probability <= 1.0,
            "duplication probability must be in (0, 1], got {probability}"
        );
        self.duplication = Some(Duplication {
            seed,
            threshold: (probability * u64::MAX as f64) as u64,
        });
        self
    }

    /// Loses each delivered message independently with `probability`,
    /// seeded by `seed` — the per-edge counterpart of a drop fault, and the
    /// symmetric twin of [`duplicate_edges`](FaultPlan::duplicate_edges).
    /// The decision for a message is a pure function of `(seed, round,
    /// sender, receiver)` — replayable at any shard or worker count. Losses apply to a delivered outbox before duplication (a lost
    /// message is never duplicated); dropped and delayed outboxes are
    /// already gone as a whole.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < probability <= 1.0`.
    #[must_use]
    pub fn lose_edges(mut self, seed: u64, probability: f64) -> Self {
        assert!(
            probability > 0.0 && probability <= 1.0,
            "loss probability must be in (0, 1], got {probability}"
        );
        self.loss = Some(Loss {
            seed,
            threshold: (probability * u64::MAX as f64) as u64,
        });
        self
    }

    /// Adversarially permutes each inbox's delivery order with a seeded
    /// rule, applied together with the deterministic sender sort — so
    /// protocols that silently *rely* on arrival order within one sender's
    /// run (a duplicated delivery after its original, a delayed batch
    /// ahead of fresh traffic) are flushed out. The permutation is a
    /// pure function of `(seed, round, receiver, sender)` over the
    /// canonical sorted order, so a reordered run still replays
    /// bit-identically at any shard or worker count.
    #[must_use]
    pub fn reorder(mut self, seed: u64) -> Self {
        self.reorder = Some(seed);
        self
    }

    /// Crash-stops `vertex` at `round`: its outbox is suppressed from that
    /// round on, forever (round 0 crashes a node before its free `init`
    /// exchange). The node's program still steps locally — a crashed
    /// processor's *state* is irrelevant to the network, only its silence
    /// is observable — and the suppressed messages are counted as dropped.
    /// Calling again with an earlier round moves the crash earlier.
    #[must_use]
    pub fn crash(mut self, vertex: VertexId, round: u64) -> Self {
        let at = self.crashes.entry(vertex).or_insert(round);
        *at = (*at).min(round);
        self
    }

    /// The action for `node`'s outbox in `round`. A crash-stop overrides
    /// any scheduled outbox fault from its round on.
    pub fn action(&self, round: u64, node: VertexId) -> FaultAction {
        if self.crashes.get(&node).is_some_and(|&at| round >= at) {
            return FaultAction::Drop;
        }
        self.schedule
            .get(&(round, node))
            .copied()
            .unwrap_or(FaultAction::Deliver)
    }

    /// The adversarial reorder seed, if installed.
    pub(crate) fn reorder_seed(&self) -> Option<u64> {
        self.reorder
    }

    /// Whether any duplication rule is installed (cheap pre-check so the
    /// staging hot path skips the per-message hash entirely).
    pub(crate) fn duplicates_messages(&self) -> bool {
        self.duplication.is_some()
    }

    /// Whether the message from `src` to `dst` in `round` is duplicated.
    pub(crate) fn duplicates(&self, round: u64, src: VertexId, dst: VertexId) -> bool {
        let Some(dup) = self.duplication else {
            return false;
        };
        let h = mix64(mix64(mix64(dup.seed, round), src as u64), dst as u64);
        mix64(h, RETIRED_OCCURRENCE) <= dup.threshold
    }

    /// Whether any loss rule is installed (cheap pre-check so the staging
    /// hot path skips the per-message hash entirely).
    pub(crate) fn loses_messages(&self) -> bool {
        self.loss.is_some()
    }

    /// Whether the message from `src` to `dst` in `round` is lost.
    pub(crate) fn loses(&self, round: u64, src: VertexId, dst: VertexId) -> bool {
        let Some(loss) = self.loss else {
            return false;
        };
        let h = mix64(
            mix64(mix64(mix64(loss.seed, LOSS_DOMAIN), round), src as u64),
            dst as u64,
        );
        mix64(h, RETIRED_OCCURRENCE) <= loss.threshold
    }

    /// Whether the plan injects any fault at all.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
            && self.duplication.is_none()
            && self.loss.is_none()
            && self.reorder.is_none()
            && self.crashes.is_empty()
    }

    /// Number of scheduled faults (outbox schedule entries plus crash-stop
    /// nodes; per-edge rules are not scheduled events).
    pub fn len(&self) -> usize {
        self.schedule.len() + self.crashes.len()
    }
}

/// Applies the seeded adversarial reorder to a sender-sorted inbox whose
/// entries name their sender through `sender`: each maximal run of
/// messages from one sender is permuted by a Fisher–Yates whose coins are
/// a pure function of `(seed, round, receiver, sender)`.
/// Because the run's pre-permutation order (staging order) and membership
/// are shard-invariant, so is the permuted delivery order — reordering
/// composes with the engine's replay contract like every other fault.
pub(crate) fn reorder_inbox<T>(
    inbox: &mut [T],
    sender: impl Fn(&T) -> VertexId,
    seed: u64,
    round: u64,
    receiver: VertexId,
) {
    let mut i = 0;
    while i < inbox.len() {
        let src = sender(&inbox[i]);
        let mut j = i + 1;
        while j < inbox.len() && sender(&inbox[j]) == src {
            j += 1;
        }
        if j - i > 1 {
            let base = mix64(
                mix64(mix64(mix64(seed, REORDER_DOMAIN), round), receiver as u64),
                src as u64,
            );
            let run = &mut inbox[i..j];
            for k in (1..run.len()).rev() {
                let pick = (mix64(base, k as u64) % (k as u64 + 1)) as usize;
                run.swap(k, pick);
            }
        }
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_transparent() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert_eq!(plan.action(10, 10), FaultAction::Deliver);
    }

    #[test]
    fn delay_clamped_to_one() {
        let plan = FaultPlan::new().delay_outbox(0, 1, 0);
        assert_eq!(plan.action(1, 0), FaultAction::Delay(1));
    }

    #[test]
    fn later_insert_wins() {
        let plan = FaultPlan::new().drop_outbox(2, 4).delay_outbox(2, 4, 3);
        assert_eq!(plan.action(4, 2), FaultAction::Delay(3));
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn duplication_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new().duplicate_edges(7, 0.5);
        let b = FaultPlan::new().duplicate_edges(7, 0.5);
        let c = FaultPlan::new().duplicate_edges(8, 0.5);
        assert!(!a.is_empty());
        assert_eq!(a.len(), 0, "duplication is not a scheduled outbox fault");
        let draw = |p: &FaultPlan| {
            (0..200u64)
                .map(|r| p.duplicates(r, 3, 5))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(&a), draw(&b), "same seed must replay");
        assert_ne!(draw(&a), draw(&c), "different seed must diverge");
        let hits = draw(&a).iter().filter(|&&d| d).count();
        assert!(
            (40..160).contains(&hits),
            "p = 0.5 should hit ~half: {hits}"
        );
    }

    #[test]
    fn coins_are_pinned_on_literal_coordinates() {
        // Recorded chaos outcomes hang on these coins. Bit `r` of each mask
        // is the coin at p = 0.5 for round `r` of the literal
        // `(seed, sender, receiver)`, one plan holding both rules.
        let pinned = [
            (
                5u64,
                0usize,
                1usize,
                0xe35a_9d37_6237_641du64,
                0x7440_b1c7_8617_1a67u64,
            ),
            (41, 3, 2, 0x7794_d0e8_f4e3_83c6, 0x7d92_12d8_6f43_5409),
            (43, 17, 18, 0x48d7_dfe4_93e6_20ba, 0x3882_db46_3979_51f3),
            (101, 40, 7, 0xeef2_13f2_c968_2605, 0x1aab_cde5_0edd_f851),
        ];
        for (seed, src, dst, lost, duplicated) in pinned {
            let plan = FaultPlan::new()
                .lose_edges(seed, 0.5)
                .duplicate_edges(seed, 0.5);
            let mask = |coin: &dyn Fn(u64) -> bool| {
                (0..64u64).fold(0u64, |m, r| m | u64::from(coin(r)) << r)
            };
            assert_eq!(
                mask(&|r| plan.loses(r, src, dst)),
                lost,
                "loss, seed {seed}"
            );
            assert_eq!(
                mask(&|r| plan.duplicates(r, src, dst)),
                duplicated,
                "duplication, seed {seed}"
            );
        }
    }

    #[test]
    fn probability_one_duplicates_everything() {
        let plan = FaultPlan::new().duplicate_edges(1, 1.0);
        assert!((0..50u64).all(|r| plan.duplicates(r, 0, 1)));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn zero_probability_rejected() {
        let _ = FaultPlan::new().duplicate_edges(1, 0.0);
    }

    #[test]
    fn loss_is_deterministic_and_independent_of_duplication() {
        let a = FaultPlan::new().lose_edges(7, 0.5);
        let b = FaultPlan::new().lose_edges(7, 0.5);
        assert!(!a.is_empty());
        let draw = |p: &FaultPlan| (0..200u64).map(|r| p.loses(r, 3, 5)).collect::<Vec<_>>();
        assert_eq!(draw(&a), draw(&b), "same seed must replay");
        let hits = draw(&a).iter().filter(|&&l| l).count();
        assert!(
            (40..160).contains(&hits),
            "p = 0.5 should hit ~half: {hits}"
        );
        // Domain separation: under one seed, loss and duplication coins
        // must not be the same sequence.
        let both = FaultPlan::new().lose_edges(7, 0.5).duplicate_edges(7, 0.5);
        let losses: Vec<bool> = (0..200u64).map(|r| both.loses(r, 3, 5)).collect();
        let dups: Vec<bool> = (0..200u64).map(|r| both.duplicates(r, 3, 5)).collect();
        assert_ne!(
            losses, dups,
            "loss must be domain-separated from duplication"
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn zero_loss_probability_rejected() {
        let _ = FaultPlan::new().lose_edges(1, 0.0);
    }

    #[test]
    fn crash_suppresses_from_its_round_on() {
        let plan = FaultPlan::new().crash(4, 3).delay_outbox(4, 5, 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.action(2, 4), FaultAction::Deliver);
        assert_eq!(plan.action(3, 4), FaultAction::Drop);
        assert_eq!(plan.action(100, 4), FaultAction::Drop, "crash is forever");
        assert_eq!(plan.action(5, 4), FaultAction::Drop, "crash beats delay");
        assert_eq!(plan.action(3, 5), FaultAction::Deliver, "others unaffected");
        // Re-crashing only ever moves the crash earlier.
        let plan = plan.crash(4, 10).crash(4, 1);
        assert_eq!(plan.action(1, 4), FaultAction::Drop);
    }

    #[test]
    fn reorder_permutes_only_same_sender_runs_deterministically() {
        let sorted = vec![(1usize, 'a'), (2, 'b'), (2, 'c'), (2, 'd'), (5, 'e')];
        // Find a seed that actually moves something in sender 2's run.
        let mut moved = None;
        for seed in 0..64u64 {
            let mut inbox = sorted.clone();
            reorder_inbox(&mut inbox, |&(s, _)| s, seed, 7, 0);
            assert_eq!(inbox[0], (1, 'a'), "singleton runs never move");
            assert_eq!(inbox[4], (5, 'e'));
            let senders: Vec<usize> = inbox.iter().map(|&(s, _)| s).collect();
            assert_eq!(senders, vec![1, 2, 2, 2, 5], "sender sort preserved");
            if inbox != sorted {
                moved = Some((seed, inbox));
                break;
            }
        }
        let (seed, perturbed) = moved.expect("some seed permutes a 3-run");
        let mut replay = sorted.clone();
        reorder_inbox(&mut replay, |&(s, _)| s, seed, 7, 0);
        assert_eq!(replay, perturbed, "same coordinates replay identically");
        let mut other_round = sorted.clone();
        reorder_inbox(&mut other_round, |&(s, _)| s, seed, 8, 0);
        let mut other_receiver = sorted.clone();
        reorder_inbox(&mut other_receiver, |&(s, _)| s, seed, 7, 9);
        // Coins are drawn per (round, receiver): at least the full triple
        // never collides into the identity for every coordinate at once.
        assert!(
            perturbed != sorted || other_round != sorted || other_receiver != sorted,
            "reorder coins must depend on the coordinates"
        );
    }

    #[test]
    fn reorder_plan_is_nonempty_and_exposes_its_seed() {
        let plan = FaultPlan::new().reorder(11);
        assert!(!plan.is_empty());
        assert_eq!(plan.len(), 0, "reorder is a rule, not a scheduled event");
        assert_eq!(plan.reorder_seed(), Some(11));
        assert_eq!(FaultPlan::new().reorder_seed(), None);
    }
}
