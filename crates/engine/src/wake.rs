//! Scheduled wakes: the per-group queue behind [`Activation`] hints.
//!
//! Each worker group owns one [`WakeQueue`] for its dense vertex range.
//! The group pops the round's due list at the start of its compute share
//! and registers every stepped node's next wake as it steps it, so the
//! queue is only ever touched by its owner — no wake crosses to the
//! driver.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::mailbox::TwoLevelBits;
use crate::program::Activation;

/// Resolves an [`Activation`] hint read after `round` into the wake-queue
/// key: the first round at which the node must be stepped even without
/// traffic (`u64::MAX` = never). `EveryRound` wants the very next round; a
/// `WakeAt` in the past collapses to it too — the node was already stepped
/// on time, so only future rounds matter.
pub(crate) fn wake_round(hint: Activation, round: u64) -> u64 {
    match hint {
        Activation::EveryRound => round + 1,
        Activation::OnMessage => u64::MAX,
        Activation::WakeAt(r) => r.max(round + 1),
    }
}

/// One worker group's scheduled wakes over the dense range
/// `base..base + next.len()`.
///
/// Every vertex has at most one standing registration, kept in `next`. A
/// bucket lists the vertices registered for its round in registration
/// order; superseding a registration leaves the old entry in its bucket
/// (stale, skipped when popped) and decrements that bucket's standing
/// count, so [`due_count`](WakeQueue::due_count) is exact without a scan.
/// Bucket vectors are recycled, so steady-state churn allocates nothing.
#[derive(Default)]
pub(crate) struct WakeQueue {
    base: usize,
    /// Per vertex of the range: the round its registration targets
    /// (`u64::MAX` = none).
    next: Vec<u64>,
    /// Per due round: the registered vertices (absolute dense indices,
    /// stale entries included) and how many of them still stand.
    buckets: BTreeMap<u64, (Vec<usize>, usize)>,
    /// Drained bucket vectors, kept for the next rounds.
    spare: Vec<Vec<usize>>,
    /// Orders a popped bucket ascending and drops its duplicates.
    bits: TwoLevelBits,
}

impl WakeQueue {
    /// An empty queue over the dense range `range`.
    pub(crate) fn new(range: Range<usize>) -> Self {
        WakeQueue {
            base: range.start,
            next: vec![u64::MAX; range.len()],
            ..WakeQueue::default()
        }
    }

    /// Makes `wake` (`u64::MAX` = never) vertex `dv`'s one standing
    /// registration, superseding any earlier one.
    pub(crate) fn register(&mut self, dv: usize, wake: u64) {
        let next = &mut self.next[dv - self.base];
        let old = std::mem::replace(next, wake);
        if old == wake {
            return;
        }
        if old != u64::MAX {
            let (_, standing) = self
                .buckets
                .get_mut(&old)
                .expect("a standing registration has a bucket");
            *standing -= 1;
        }
        if wake != u64::MAX {
            let (bucket, standing) = self
                .buckets
                .entry(wake)
                .or_insert_with(|| (self.spare.pop().unwrap_or_default(), 0));
            bucket.push(dv);
            *standing += 1;
        }
    }

    /// Registrations standing for `round`.
    pub(crate) fn due_count(&self, round: u64) -> usize {
        self.buckets
            .get(&round)
            .map_or(0, |&(_, standing)| standing)
    }

    /// Replaces `due` with the vertices whose registration stands for
    /// `round`, ascending, and consumes them: each must register again to
    /// be woken again.
    pub(crate) fn pop(&mut self, round: u64, due: &mut Vec<usize>) {
        due.clear();
        let Some((mut bucket, _)) = self.buckets.remove(&round) else {
            return;
        };
        self.bits.ensure(self.next.len());
        for &dv in &bucket {
            let next = &mut self.next[dv - self.base];
            if *next == round {
                *next = u64::MAX;
                self.bits.set(dv - self.base);
            }
        }
        let base = self.base;
        self.bits.drain(|i| due.push(base + i));
        bucket.clear();
        self.spare.push(bucket);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn popped(q: &mut WakeQueue, round: u64) -> Vec<usize> {
        let mut due = vec![99];
        q.pop(round, &mut due);
        due
    }

    #[test]
    fn wake_round_resolves_each_hint() {
        assert_eq!(wake_round(Activation::EveryRound, 4), 5);
        assert_eq!(wake_round(Activation::OnMessage, 4), u64::MAX);
        assert_eq!(wake_round(Activation::WakeAt(9), 4), 9);
        assert_eq!(wake_round(Activation::WakeAt(2), 4), 5, "past collapses");
    }

    #[test]
    fn superseding_moves_the_registration() {
        let mut q = WakeQueue::new(10..14);
        for dv in 10..14 {
            q.register(dv, 5);
        }
        q.register(11, 3); // earlier
        q.register(12, 8); // later
        q.register(13, u64::MAX); // never
        assert_eq!(q.due_count(3), 1);
        assert_eq!(q.due_count(5), 1, "stale entries are not counted");
        assert_eq!(q.due_count(8), 1);
        assert_eq!(popped(&mut q, 3), [11]);
        assert_eq!(popped(&mut q, 5), [10], "superseded entries are skipped");
        assert_eq!(popped(&mut q, 8), [12]);
        assert!(popped(&mut q, u64::MAX).is_empty(), "never is not a round");
    }

    #[test]
    fn re_registering_a_round_keeps_one_entry() {
        let mut q = WakeQueue::new(0..4);
        q.register(2, 6);
        q.register(2, 6);
        assert_eq!(q.due_count(6), 1);
        assert_eq!(q.buckets[&6].0, [2], "one entry");
        // Away and back: the bucket holds a stale and a standing entry for
        // vertex 2, and it still pops once.
        q.register(2, 7);
        q.register(2, 6);
        assert_eq!(q.due_count(6), 1);
        assert_eq!(q.due_count(7), 0);
        assert_eq!(popped(&mut q, 6), [2]);
        assert!(popped(&mut q, 7).is_empty());
    }

    #[test]
    fn pop_ascends_and_consumes() {
        let mut q = WakeQueue::new(100..200);
        for dv in [170, 103, 199, 100, 150] {
            q.register(dv, 2);
        }
        assert_eq!(q.due_count(2), 5);
        assert_eq!(popped(&mut q, 2), [100, 103, 150, 170, 199]);
        assert_eq!(q.due_count(2), 0);
        assert!(popped(&mut q, 2).is_empty(), "a popped round pops empty");
        // A consumed vertex registers afresh, into a recycled bucket.
        q.register(150, 2);
        assert_eq!(popped(&mut q, 2), [150]);
    }
}
