//! Double-buffered mailboxes: the synchronous message fabric — plus the
//! CONGEST **reassembly layer** for split-mode runs.
//!
//! Inboxes are stored struct-of-arrays: one contiguous payload **segment**
//! per routing group holds the `(sender, payload)` entries of the group's
//! whole dense vertex range packed back to back, and a per-vertex table of
//! `(start, len)` **spans** says where each inbox lives inside its group's
//! segment. The routing epoch rebuilds a segment with a **counting sort**
//! — count per receiver, prefix-sum into spans, place each message once —
//! so a routing epoch is O(traffic) with **no per-message allocation**:
//! segments, spans, and the counting scratch are reused round over round.
//! The counting pass additionally emits a per-group **active list** — the
//! ascending dense indices of exactly the non-empty spans — nearly for
//! free: it is the compute epoch's frontier index (only listed vertices
//! plus the driver's due wake list are stepped) and the buffer's own next
//! span-reset list, which is what makes quiescent rounds O(frontier)
//! rather than O(range).
//!
//! Two such buffers — `cur` (read this round) and `next` (rebuilt for the
//! coming round) — plus a schedule of fault-delayed batches. Inboxes are
//! indexed by the session's dense live-vertex index (see
//! [`GraphView`](crate::GraphView)); entries carry *original* sender ids,
//! which is what programs observe and what the delivery order sorts on.
//! The strict buffer flip is what makes the execution *synchronous*: a
//! message sent in round `r` is visible in round `r + 1` and never
//! earlier, no matter how threads interleave.
//!
//! Delivery order contract: each inbox is sorted by original sender id
//! (stable, so multiple messages from one sender keep their send order,
//! duplicated deliveries immediately follow their original, and delayed
//! batches due the same round precede fresh traffic from the same sender
//! because they are placed first). The order is therefore a pure function
//! of the traffic, independent of shard count and thread schedule. An
//! installed [`FaultPlan::reorder`](crate::FaultPlan::reorder) rule then
//! adversarially permutes each same-sender run — seeded, shard-invariant.
//!
//! The contract is *implemented* by staging order, not by sorting. Dense
//! order is ascending original id, worker groups own ascending contiguous
//! dense ranges, each group steps (and so stages) its senders in ascending
//! order, and routing places the arenas in group order. Fresh traffic
//! therefore lands in every span already sorted by sender, one sender's
//! messages in send order with its duplicates after them. Delayed batches
//! are the one exception: they are placed ahead of the arenas, so a group
//! with delayed traffic due stable-sorts its spans by sender, which keeps
//! each delayed batch ahead of fresh traffic from the same sender.
//!
//! # Fragmentation and reassembly
//!
//! Under [`CongestMode::Split`](crate::CongestMode::Split) a logical
//! message wider than the budget never crosses an edge whole. The routing
//! phase encodes it through its [`WireCodec`](crate::WireCodec), chops the
//! words into `(seq, total)`-headed frames of at most the budget, and feeds
//! them — in order, over consecutive virtual rounds — into a `Reassembly`
//! buffer, which releases the decoded logical message to the program
//! **only when the last frame lands**. One message's frames are encoded,
//! fed and decoded within a single call, so nothing is ever in flight
//! between messages and no per-vertex or per-edge state is needed: each
//! routing group keeps one `SplitScratch` — its encode arena and one
//! reassembly buffer — reused for every message the group's worker splits.
//! Faults act on *logical* messages in the staging phase, before
//! fragmentation, so fault replay is identical across split and unlimited
//! modes.
//!
//! The per-group rebuild itself runs on the workers (`pool::route_range`,
//! fed a `RouteTargets` pointer bundle from
//! `Mailboxes::next_targets`), or group by group on the driver when the
//! epoch is small; round-0 init traffic takes the same path, so there is
//! no separate driver-side fill.

use std::collections::BTreeMap;
use std::ops::Range;

use graphs::VertexId;

use crate::faults::reorder_inbox;
use crate::pool::RouteEnv;
use crate::program::EngineMessage;

/// A routed point-to-point message: `(destination dense index, original
/// sender id, payload)`.
pub(crate) type Routed<M> = (usize, VertexId, M);

/// A reusable two-level bitmap: one bit per element plus a summary bit
/// per 64-bit word, so the set bits of a sparse domain are enumerable in
/// ascending order in O(set + domain/4096) — how the routing epoch builds
/// its active lists and the driver its due lists without sorting them.
/// Grown on demand and cleared by its own drain, it allocates nothing at
/// steady state.
#[derive(Default)]
pub(crate) struct TwoLevelBits {
    words: Vec<u64>,
    summary: Vec<u64>,
    any: bool,
}

impl TwoLevelBits {
    /// Grows the bitmap to cover `bits` elements (zero-filled).
    pub(crate) fn ensure(&mut self, bits: usize) {
        let w = bits.div_ceil(64);
        if self.words.len() < w {
            self.words.resize(w, 0);
            self.summary.resize(w.div_ceil(64), 0);
        }
    }

    /// Sets bit `i` (idempotent). `i` must be within the ensured domain.
    #[inline]
    pub(crate) fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
        self.summary[i >> 12] |= 1u64 << ((i >> 6) & 63);
        self.any = true;
    }

    /// Whether any bit is set.
    pub(crate) fn any(&self) -> bool {
        self.any
    }

    /// Visits every set bit in ascending order, clearing the bitmap —
    /// only the touched words are rewritten.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(usize)) {
        if !self.any {
            return;
        }
        for si in 0..self.summary.len() {
            let mut sw = self.summary[si];
            if sw == 0 {
                continue;
            }
            self.summary[si] = 0;
            while sw != 0 {
                let wi = (si << 6) | sw.trailing_zeros() as usize;
                sw &= sw - 1;
                let mut w = self.words[wi];
                self.words[wi] = 0;
                while w != 0 {
                    f((wi << 6) | w.trailing_zeros() as usize);
                    w &= w - 1;
                }
            }
        }
        self.any = false;
    }
}

/// A fragment buffer: accumulates the `(seq, total)` frames of a single
/// logical message and reports completion. The words vector is retained
/// across messages, so steady-state reassembly allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Reassembly {
    total: u32,
    next_seq: u32,
    words: Vec<u64>,
}

impl Reassembly {
    /// Feeds one frame; returns `true` when the message is complete (the
    /// accumulated words are then readable via [`Reassembly::words`] until
    /// [`Reassembly::reset`]).
    ///
    /// # Panics
    ///
    /// Panics on a protocol violation — a frame out of sequence, a `total`
    /// that changes mid-message, or a frame after completion. The engine
    /// feeds each message's frames in order, so a violation is a runtime
    /// bug, never a valid execution.
    pub(crate) fn push(&mut self, seq: u32, total: u32, frame: &[u64]) -> bool {
        if seq == 0 {
            assert_eq!(
                self.next_seq, 0,
                "new message started before the previous one completed"
            );
            assert!(total >= 1, "a fragmented message has at least one frame");
            self.total = total;
            self.words.clear();
        }
        assert_eq!(seq, self.next_seq, "fragment out of sequence");
        assert_eq!(
            total, self.total,
            "fragment header total changed mid-message"
        );
        self.words.extend_from_slice(frame);
        self.next_seq += 1;
        self.next_seq == self.total
    }

    /// The reassembled words of a completed message.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Readies the buffer for the next message, keeping capacity.
    pub(crate) fn reset(&mut self) {
        self.total = 0;
        self.next_seq = 0;
        self.words.clear();
    }

    /// Whether a message is mid-reassembly.
    pub(crate) fn in_flight(&self) -> bool {
        self.next_seq != 0 && self.next_seq < self.total
    }
}

/// One routing group's split-mode scratch: the encode arena and the
/// reassembly buffer every over-budget message the group's worker ships
/// passes through, one message at a time (see [`split_roundtrip`]).
#[derive(Debug, Default)]
pub(crate) struct SplitScratch {
    encode: Vec<u64>,
    reasm: Reassembly,
}

/// What one inbox's finalization observed: CONGEST frames produced, and
/// the widest logical message actually **delivered** (0 outside split
/// mode) — the width that decides the round's physical cost. Charging on
/// delivered widths keeps fault-suppressed traffic free: a dropped,
/// crashed, or lost wide message never crossed the wire, so it costs no
/// virtual rounds.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RouteTally {
    /// Frames produced by fragmenting over-budget messages.
    pub(crate) fragments: usize,
    /// Widest delivered logical message, in words.
    pub(crate) wire_width: usize,
}

impl RouteTally {
    /// Merges another range's tally into this one.
    pub(crate) fn absorb(&mut self, other: RouteTally) {
        self.fragments += other.fragments;
        self.wire_width = self.wire_width.max(other.wire_width);
    }
}

/// Ships one over-budget logical message through the wire: encode (into
/// the group's reusable arena), chop into ≤ `budget`-word `(seq, total)`
/// frames, feed every frame through the group's reassembly buffer, decode
/// on completion. Returns the decoded message — what the program will
/// actually observe, so a codec defect is a visible output divergence,
/// never a silent one — and the frame count.
///
/// # Panics
///
/// Panics if the codec violates its contract (encode/decode mismatch).
pub(crate) fn split_roundtrip<M: EngineMessage>(
    m: &M,
    budget: usize,
    split: &mut SplitScratch,
) -> (M, usize) {
    debug_assert!(budget >= 1);
    let SplitScratch { encode, reasm } = split;
    encode.clear();
    m.encode(encode);
    let total = encode.len().div_ceil(budget).max(1) as u32;
    let mut complete = false;
    if encode.is_empty() {
        // A zero-word encoding still crosses as one (empty) frame.
        complete = reasm.push(0, 1, &[]);
    } else {
        for (seq, frame) in encode.chunks(budget).enumerate() {
            assert!(!complete, "message released before its last frame");
            complete = reasm.push(seq as u32, total, frame);
        }
    }
    assert!(complete, "last frame must complete the message");
    let decoded = M::decode(reasm.words()).expect("wire codec must round-trip its own encoding");
    reasm.reset();
    (decoded, total as usize)
}

/// Finalizes one freshly routed inbox — the per-inbox half of the routing
/// phase (`pool::route_range` runs it on each span of the rebuilt
/// segment):
///
/// 1. **split mode**: every over-budget message is fragmented and
///    reassembled through the group's [`SplitScratch`] ([`split_roundtrip`]);
/// 2. the optional seeded adversarial reorder of same-sender runs.
///
/// The span arrives **already in delivery order** (see the module docs),
/// so finalize sorts nothing.
///
/// Message types with a static width bound within the budget
/// ([`EngineMessage::MAX_WIDTH`]) skip the per-message width scan: no
/// message can fragment, and any delivered width ≤ budget charges exactly
/// one physical round, so reporting the bound itself is equivalent.
///
/// Returns the frames produced and the widest delivered message.
pub(crate) fn finalize_inbox<M: EngineMessage>(
    inbox: &mut [(VertexId, M)],
    receiver: VertexId,
    env: &RouteEnv<'_>,
    split: &mut SplitScratch,
) -> RouteTally {
    let mut tally = RouteTally::default();
    if env.split != usize::MAX {
        match M::MAX_WIDTH {
            // Width-specialized fast path: statically within budget.
            Some(bound) if bound <= env.split => {
                if !inbox.is_empty() {
                    tally.wire_width = bound;
                }
            }
            _ => {
                for (_, m) in inbox.iter_mut() {
                    let width = m.width();
                    tally.wire_width = tally.wire_width.max(width);
                    if width > env.split {
                        let (decoded, frames) = split_roundtrip(m, env.split, split);
                        *m = decoded;
                        tally.fragments += frames;
                    }
                }
                debug_assert!(
                    !split.reasm.in_flight(),
                    "fragments of one round must not leak into the next"
                );
            }
        }
    }
    if inbox.len() > 1 {
        if let Some(seed) = env.reorder {
            reorder_inbox(inbox, seed, env.round, receiver);
        }
    }
    tally
}

/// One side of the double buffer, struct-of-arrays: per-group payload
/// segments plus per-vertex spans. See the module docs.
pub(crate) struct Inboxes<M> {
    /// One contiguous payload segment per routing group: the inboxes of
    /// the group's whole dense range, packed back to back.
    segs: Vec<Vec<(VertexId, M)>>,
    /// Per dense vertex: `(start, len)` into its group's segment.
    spans: Vec<(usize, usize)>,
    /// Per group: the **active list** — absolute dense indices of exactly
    /// the non-empty spans of this buffer, ascending. Built by the routing
    /// epoch as a by-product of the counting sort, it is both the compute
    /// epoch's frontier index (step only these plus the due wake list) and
    /// the next routing of this buffer's O(frontier) span-reset list.
    active: Vec<Vec<usize>>,
}

impl<M> Inboxes<M> {
    fn new(live: usize, groups: usize) -> Self {
        Inboxes {
            segs: (0..groups).map(|_| Vec::new()).collect(),
            spans: vec![(0, 0); live],
            active: (0..groups).map(|_| Vec::new()).collect(),
        }
    }

    /// Group `g`'s read view: its segment plus the span rows of its dense
    /// `range` (span starts are relative to the segment) and its active
    /// list (absolute dense indices of the non-empty spans).
    pub(crate) fn group(&self, g: usize, range: Range<usize>) -> GroupInboxes<'_, M> {
        GroupInboxes {
            seg: &self.segs[g],
            spans: &self.spans[range.start..range.end],
            active: &self.active[g],
        }
    }
}

/// A compute-epoch read view of one group's inboxes: `inbox(i)` is the
/// `i`-th vertex of the group's dense range. Plain shared slices, so the
/// view is `Copy` and crosses the task slot as two pointers.
pub(crate) struct GroupInboxes<'a, M> {
    pub(crate) seg: &'a [(VertexId, M)],
    pub(crate) spans: &'a [(usize, usize)],
    /// Absolute dense indices of the non-empty spans, ascending — the
    /// vertices that received traffic, i.e. the message half of the round's
    /// frontier.
    pub(crate) active: &'a [usize],
}

impl<M> Clone for GroupInboxes<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for GroupInboxes<'_, M> {}

impl<'a, M> GroupInboxes<'a, M> {
    /// Vertices in this view (the group's dense range length).
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// The inbox of the `i`-th vertex of the range.
    pub(crate) fn inbox(&self, i: usize) -> &'a [(VertexId, M)] {
        let (start, len) = self.spans[i];
        &self.seg[start..start + len]
    }
}

/// The raw-pointer bundle the routing epoch writes through — base pointers
/// of the `next` buffer's segments and spans, the counting scratch, the
/// per-group pending lists, and the per-group scratch. Built by
/// [`Mailboxes::next_targets`]; each worker touches only its own group's
/// segment/pending slot and its own dense range of the per-vertex arrays,
/// so the epoch-barrier discipline (see `pool`) makes the writes disjoint.
pub(crate) struct RouteTargets<M> {
    /// Per-group `next` segments (`add(group)` = the group's own).
    pub(crate) segs: *mut Vec<(VertexId, M)>,
    /// Per-vertex span rows of the `next` buffer.
    pub(crate) spans: *mut (usize, usize),
    /// Per-group active lists of the `next` buffer (`add(group)` = the
    /// group's own). On entry each holds the indices of the spans the
    /// buffer's *previous* routing left non-empty — exactly the spans that
    /// need resetting; on exit, the freshly non-empty ones.
    pub(crate) active: *mut Vec<usize>,
    /// Per-vertex counting-sort scratch. All-zeros between epochs: each
    /// routing zeroes exactly the entries it touched.
    pub(crate) counts: *mut usize,
    /// Per-group due-delayed lists (`add(group)`), drained first.
    pub(crate) pending: *mut Vec<Routed<M>>,
    /// Per-group split scratch (`add(group)` = the group's own), reused
    /// by every message the group's worker fragments.
    pub(crate) split: *mut SplitScratch,
    /// Per-group vertex bitmaps (`add(group)`) marking the dense indices
    /// that received traffic — drained ascending to rebuild the active
    /// list without sorting it.
    pub(crate) vbits: *mut TwoLevelBits,
}

impl<M> Clone for RouteTargets<M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for RouteTargets<M> {}

// SAFETY: a `RouteTargets` is a bundle of raw pointers whose pointees are
// partitioned by group/vertex index under the routing epoch's barrier
// discipline — worker `g` touches only slot `g` of the per-group arrays and
// the vertex entries of its own range. The bundle itself carries no state,
// so sharing the *value* across worker threads is sound; all aliasing rules
// live with `route_range`'s safety contract.
unsafe impl<M: Send> Send for RouteTargets<M> {}
unsafe impl<M: Send> Sync for RouteTargets<M> {}

/// The engine's mailbox fabric. See module docs.
pub(crate) struct Mailboxes<M> {
    cur: Inboxes<M>,
    next: Inboxes<M>,
    /// Dense group boundaries, ascending, `len = groups + 1` — the same
    /// partition the pool's worker groups use.
    bounds: Vec<usize>,
    /// Per-vertex counting-sort scratch for the routing epoch.
    counts: Vec<usize>,
    /// Per-group delayed batches due the round being routed: filled by
    /// [`inject_due`](Mailboxes::inject_due), drained **first** by the
    /// routing epoch so late traffic precedes fresh traffic from the same
    /// sender after the stable sender sort.
    pending: Vec<Vec<Routed<M>>>,
    /// Per-group split scratch (encode arena + reassembly buffer): each
    /// routing worker reuses its own across every over-budget message it
    /// fragments, so steady-state split routing performs zero per-message
    /// allocation and keeps no per-vertex state.
    split: Vec<SplitScratch>,
    /// Per-group traffic-receiver bitmaps (see [`RouteTargets::vbits`]).
    vbits: Vec<TwoLevelBits>,
    delayed: BTreeMap<u64, Vec<Routed<M>>>,
}

impl<M: EngineMessage> Mailboxes<M> {
    /// Mailboxes for `live` vertices partitioned by `bounds` (ascending
    /// group boundaries, `len = groups + 1`, `bounds[0] = 0`, last entry
    /// `live`).
    pub(crate) fn new(live: usize, bounds: Vec<usize>) -> Self {
        debug_assert!(bounds.len() >= 2 && bounds[0] == 0 && bounds[bounds.len() - 1] == live);
        let groups = bounds.len() - 1;
        Mailboxes {
            cur: Inboxes::new(live, groups),
            next: Inboxes::new(live, groups),
            bounds,
            counts: vec![0; live],
            pending: (0..groups).map(|_| Vec::new()).collect(),
            split: (0..groups).map(|_| SplitScratch::default()).collect(),
            vbits: (0..groups).map(|_| TwoLevelBits::default()).collect(),
            delayed: BTreeMap::new(),
        }
    }

    /// The buffer read this round.
    pub(crate) fn cur(&self) -> &Inboxes<M> {
        &self.cur
    }

    /// The inbox dense vertex `dv` reads this round (test/inspection
    /// convenience over [`cur`](Mailboxes::cur)).
    #[cfg(test)]
    pub(crate) fn inbox(&self, dv: usize) -> &[(VertexId, M)] {
        let g = self.group_of(dv);
        let (start, len) = self.cur.spans[dv];
        &self.cur.segs[g][start..start + len]
    }

    fn group_of(&self, dv: usize) -> usize {
        self.bounds.partition_point(|&b| b <= dv) - 1
    }

    /// The raw-pointer bundle the routing epoch rebuilds `next` through.
    /// The caller must not touch this `Mailboxes` until the epoch closes.
    pub(crate) fn next_targets(&mut self) -> RouteTargets<M> {
        RouteTargets {
            segs: self.next.segs.as_mut_ptr(),
            spans: self.next.spans.as_mut_ptr(),
            active: self.next.active.as_mut_ptr(),
            counts: self.counts.as_mut_ptr(),
            pending: self.pending.as_mut_ptr(),
            split: self.split.as_mut_ptr(),
            vbits: self.vbits.as_mut_ptr(),
        }
    }

    /// Moves any batch whose delay expires at `round` into the per-group
    /// pending lists — must happen *before* fresh traffic is routed so
    /// late traffic precedes fresh traffic from the same sender after the
    /// stable sender sort.
    pub(crate) fn inject_due(&mut self, round: u64) {
        if let Some(batch) = self.delayed.remove(&round) {
            for r in batch {
                let g = self.group_of(r.0);
                self.pending[g].push(r);
            }
        }
    }

    /// Schedules a fault-delayed batch for delivery at `round`.
    pub(crate) fn schedule(&mut self, round: u64, batch: Vec<Routed<M>>) {
        self.delayed.entry(round).or_default().extend(batch);
    }

    /// Ends the routing of a round: flips the buffers. The routing epoch
    /// rebuilt every span and segment of `next`, so no clearing is needed
    /// — the old `cur` becomes the next round's scratch.
    pub(crate) fn flip(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    /// Vertices with a non-empty inbox this round: the message half of the
    /// compute epoch's frontier.
    pub(crate) fn frontier(&self) -> usize {
        self.cur.active.iter().map(Vec::len).sum()
    }

    /// The routing epoch's work besides fresh traffic: the due-delayed
    /// messages it places plus the stale spans of `next` it resets.
    pub(crate) fn route_backlog(&self) -> usize {
        let pending: usize = self.pending.iter().map(Vec::len).sum();
        pending + self.next.active.iter().map(Vec::len).sum::<usize>()
    }

    /// Whether any delayed batch is still pending (scheduled or already
    /// injected for the round being routed).
    pub(crate) fn has_pending_delays(&self) -> bool {
        !self.delayed.is_empty() || self.pending.iter().any(|p| !p.is_empty())
    }

    /// Serial twin of the worker-parallel routing epoch, for unit tests:
    /// distributes `staged` traffic (plus due-delayed pending batches)
    /// into the `next` segments group by group and finalizes every inbox.
    /// Deliberately the **comparison-sort executable spec** — a stable
    /// sort by destination, placement, then a stable per-inbox sort by
    /// original sender — that the production path, which sorts only
    /// delayed traffic, must reproduce verbatim.
    #[cfg(test)]
    pub(crate) fn route_serial(
        &mut self,
        staged: Vec<Routed<M>>,
        env: &RouteEnv<'_>,
    ) -> RouteTally {
        let groups = self.bounds.len() - 1;
        let mut buckets: Vec<Vec<Routed<M>>> = (0..groups).map(|_| Vec::new()).collect();
        for r in staged {
            let g = self.group_of(r.0);
            buckets[g].push(r);
        }
        let mut tally = RouteTally::default();
        let Mailboxes {
            next,
            bounds,
            pending,
            split,
            ..
        } = self;
        let Inboxes {
            segs,
            spans,
            active,
        } = next;
        for (g, mut fresh) in buckets.into_iter().enumerate() {
            let mut items: Vec<Routed<M>> = std::mem::take(&mut pending[g]);
            items.append(&mut fresh);
            // A stable sort by destination is the counting sort's twin:
            // per receiver, pending-then-staged order is preserved.
            items.sort_by_key(|r| r.0);
            let seg = &mut segs[g];
            seg.clear();
            active[g].clear();
            let mut iter = items.into_iter().peekable();
            let range = bounds[g]..bounds[g + 1];
            for (dv, span) in range.clone().zip(&mut spans[range]) {
                let start = seg.len();
                while iter.peek().is_some_and(|r| r.0 == dv) {
                    let (_, src, m) = iter.next().expect("peeked");
                    seg.push((src, m));
                }
                *span = (start, seg.len() - start);
                if span.1 > 0 {
                    active[g].push(dv);
                }
                // The spec's delivery order: a stable comparison sort on
                // original sender ids (placement already put pending-
                // before-fresh within each sender).
                seg[start..].sort_by_key(|&(src, _)| src);
                tally.absorb(finalize_inbox(
                    &mut seg[start..],
                    env.live[dv],
                    env,
                    &mut split[g],
                ));
            }
        }
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static LIVE: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

    fn plain_env<'a>() -> RouteEnv<'a> {
        RouteEnv {
            split: usize::MAX,
            round: 1,
            reorder: None,
            live: &LIVE,
        }
    }

    #[test]
    fn messages_visible_only_after_flip() {
        let mut mail: Mailboxes<u64> = Mailboxes::new(3, vec![0, 3]);
        mail.route_serial(vec![(2, 0, 7)], &plain_env());
        assert!(mail.inbox(2).is_empty(), "sent this round, not visible yet");
        mail.flip();
        assert_eq!(mail.inbox(2), &[(0, 7)]);
        mail.route_serial(Vec::new(), &plain_env());
        mail.flip();
        assert!(mail.inbox(2).is_empty(), "consumed after next flip");
    }

    #[test]
    fn inboxes_sorted_by_sender_stably() {
        let mut mail: Mailboxes<u64> = Mailboxes::new(4, vec![0, 4]);
        // Sender 2 then sender 0, sender 2 again: sorted to 0, 2, 2 with
        // sender 2's messages in send order.
        mail.route_serial(vec![(3, 2, 10), (3, 0, 20), (3, 2, 11)], &plain_env());
        mail.flip();
        assert_eq!(mail.inbox(3), &[(0, 20), (2, 10), (2, 11)]);
    }

    #[test]
    fn segments_pack_a_group_contiguously() {
        // Two groups split at dense 2: group 0's segment holds the inboxes
        // of vertices 0 and 1 back to back; group 1's those of 2 and 3.
        let mut mail: Mailboxes<u64> = Mailboxes::new(4, vec![0, 2, 4]);
        mail.route_serial(
            vec![(1, 3, 30), (0, 2, 20), (1, 0, 10), (3, 1, 40)],
            &plain_env(),
        );
        mail.flip();
        assert_eq!(mail.inbox(0), &[(2, 20)]);
        assert_eq!(mail.inbox(1), &[(0, 10), (3, 30)]);
        assert_eq!(mail.inbox(2), &[]);
        assert_eq!(mail.inbox(3), &[(1, 40)]);
        assert_eq!(mail.cur.segs[0], vec![(2, 20), (0, 10), (3, 30)]);
        assert_eq!(mail.cur.segs[1], vec![(1, 40)]);
        assert_eq!(
            mail.cur.spans,
            vec![(0, 1), (1, 2), (0, 0), (0, 1)],
            "span starts are relative to the group's segment"
        );
        assert_eq!(
            mail.cur.active,
            vec![vec![0, 1], vec![3]],
            "active lists index exactly the non-empty spans"
        );
    }

    #[test]
    fn delayed_batches_arrive_on_time_and_first() {
        let mut mail: Mailboxes<u64> = Mailboxes::new(2, vec![0, 2]);
        mail.schedule(3, vec![(1, 0, 99)]);
        // Rounds 1 and 2: nothing due.
        for round in 1..3u64 {
            mail.inject_due(round);
            mail.route_serial(Vec::new(), &plain_env());
            mail.flip();
            assert!(mail.inbox(1).is_empty(), "round {round}");
        }
        assert!(mail.has_pending_delays());
        // Round 3: due batch plus fresh traffic from the same sender — the
        // delayed message comes first.
        mail.inject_due(3);
        mail.route_serial(vec![(1, 0, 100)], &plain_env());
        mail.flip();
        assert_eq!(mail.inbox(1), &[(0, 99), (0, 100)]);
        assert!(!mail.has_pending_delays());
    }

    #[test]
    fn reassembly_releases_only_on_completion() {
        let mut r = Reassembly::default();
        assert!(!r.push(0, 3, &[1, 2]));
        assert!(r.in_flight());
        assert!(!r.push(1, 3, &[3, 4]));
        assert!(r.push(2, 3, &[5]));
        assert!(!r.in_flight());
        assert_eq!(r.words(), &[1, 2, 3, 4, 5]);
        r.reset();
        assert!(r.push(0, 1, &[9]), "single-frame messages complete at once");
        assert_eq!(r.words(), &[9]);
    }

    #[test]
    #[should_panic(expected = "out of sequence")]
    fn reassembly_rejects_gaps() {
        let mut r = Reassembly::default();
        r.push(0, 3, &[1]);
        r.push(2, 3, &[3]);
    }

    #[test]
    #[should_panic(expected = "before the previous one completed")]
    fn reassembly_rejects_interleaved_messages() {
        let mut r = Reassembly::default();
        r.push(0, 3, &[1]);
        r.push(0, 2, &[7]);
    }

    #[test]
    fn split_roundtrip_counts_frames_and_round_trips() {
        // u32 is not an EngineMessage; use u64's codec via the blanket
        // impls in lib.rs on a wide Vec-like payload: the gather message.
        use crate::programs::gather::NbrList;
        let mut split = SplitScratch::default();
        let msg = NbrList(vec![3, 5, 8, 13, 21]);
        let (decoded, frames) = split_roundtrip(&msg, 2, &mut split);
        assert_eq!(decoded.0, msg.0);
        assert_eq!(frames, 3, "5 words at 2 per frame");
        // The buffer and encode arena are reusable for the next message,
        // whichever edge it crosses.
        let (decoded, frames) = split_roundtrip(&NbrList(vec![1]), 2, &mut split);
        assert_eq!(decoded.0, vec![1]);
        assert_eq!(frames, 1);
        assert!(!split.reasm.in_flight());
        assert!(split.encode.capacity() >= 5, "arena capacity is retained");
    }

    #[test]
    fn finalize_inbox_splits_and_counts_without_reordering() {
        use crate::programs::gather::NbrList;
        let env = RouteEnv {
            split: 2,
            round: 1,
            reorder: None,
            live: &[],
        };
        let mut inbox = vec![
            (4usize, NbrList(vec![1, 2, 3, 4, 5])), // 3 frames at width 2
            (1, NbrList(vec![9])),                  // within budget: whole
        ];
        let tally = finalize_inbox(&mut inbox, 0, &env, &mut SplitScratch::default());
        assert_eq!(tally.fragments, 3);
        assert_eq!(tally.wire_width, 5, "delivered width drives the charge");
        // Delivery order is the routing epoch's job now: finalize must
        // leave the placed order untouched.
        assert_eq!(inbox[0].0, 4);
        assert_eq!(inbox[0].1 .0, vec![1, 2, 3, 4, 5]);
        assert_eq!(inbox[1].1 .0, vec![9]);
    }

    #[test]
    fn static_width_bound_skips_the_scan_identically() {
        // u64 carries MAX_WIDTH = Some(1): under any budget ≥ 1 the fast
        // path reports width 1 for non-empty inboxes and 0 for empty ones —
        // exactly what the scan would have found.
        let env = RouteEnv {
            split: 4,
            round: 1,
            reorder: None,
            live: &[],
        };
        let mut inbox: Vec<(VertexId, u64)> = vec![(2, 5), (0, 9)];
        let tally = finalize_inbox(&mut inbox, 0, &env, &mut SplitScratch::default());
        assert_eq!(tally.wire_width, 1);
        assert_eq!(tally.fragments, 0);
        assert_eq!(inbox, vec![(2, 5), (0, 9)], "placed order is preserved");
        let mut empty: Vec<(VertexId, u64)> = Vec::new();
        let tally = finalize_inbox(&mut empty, 0, &env, &mut SplitScratch::default());
        assert_eq!(tally.wire_width, 0, "empty inbox charges nothing");
    }

    #[test]
    fn two_level_bits_enumerates_ascending_and_drains_clean() {
        let mut bits = TwoLevelBits::default();
        assert!(!bits.any());
        bits.ensure(10_000);
        for i in [9_999usize, 0, 4_096, 63, 64, 4_095, 9_999] {
            bits.set(i);
        }
        let mut drained = Vec::new();
        bits.drain(|i| drained.push(i));
        assert_eq!(drained, vec![0, 63, 64, 4_095, 4_096, 9_999]);
        assert!(!bits.any());
        bits.drain(|_| panic!("cleared bitmap must be empty"));
        // Reusable after draining.
        bits.set(7);
        let mut again = Vec::new();
        bits.drain(|i| again.push(i));
        assert_eq!(again, vec![7]);
    }
}
