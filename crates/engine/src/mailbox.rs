//! Double-buffered mailboxes: the synchronous message fabric.
//!
//! Every payload is stored **once**: a worker group writes an outbox's one
//! payload ([`Outbox`](crate::Outbox)) as one `(sender, payload)` entry of
//! its own payload `Store`, whatever the number of receivers. Everything
//! downstream moves 8-byte references to those entries, never the payload:
//! staging pushes `(destination, slot)` per edge, and routing places
//! `(store, slot)` per delivered message.
//!
//! Inboxes are stored struct-of-arrays, per routing group: one contiguous
//! reference **segment** holds the references of the group's whole dense
//! vertex range packed back to back, and a table of `(start, len)`
//! **spans**, one per vertex of the range, says where each inbox lives
//! inside the segment. The routing epoch rebuilds a segment with a **counting sort**
//! — count per receiver, prefix-sum into spans, place each reference once
//! — so a routing epoch is O(traffic) with **no per-message allocation**:
//! segments, spans, stores and the counting scratch are reused round over
//! round. Spans and counts are `u32` — 20 bytes per vertex for the two
//! span tables and the counts; the boot checks that the live count fits,
//! and placement that a group's segment does. The counting pass additionally emits a per-group **active
//! list** — the ascending dense indices of exactly the non-empty spans —
//! nearly for free: it is the compute epoch's frontier index (only listed
//! vertices plus the driver's due wake list are stepped) and the buffer's
//! own next span-reset list, which is what makes quiescent rounds
//! O(frontier) rather than O(range).
//!
//! Two such buffers — `cur` (read this round) and `next` (rebuilt for the
//! coming round). Each buffer also holds the stores its references point
//! into, one per worker group. Each group's `next` inboxes belong to its
//! `RouteGroup`, with everything else its routing writes.
//!
//! Between the compute and routing epochs the driver hands every group's
//! payloads over by **swapping** one vector per group (`Mailboxes::adopt`,
//! nothing copied): the group's store goes into `next`, and the group gets
//! back the store `next` held two rounds ago, which it clears when it next
//! stages. The references stay where they were staged: routing group `g`
//! reads bucket `g` of every arena in place, shared with the other routing
//! groups, and each arena clears its own buckets when it next stages.
//! Routing group `g` writes only what it owns. The coming compute epoch
//! reads every payload through the same shared `&Inboxes` as its spans, and
//! a program sees its inbox as an [`Inbox`] view yielding
//! `(sender, &payload)`.
//!
//! Inboxes are indexed by the session's dense live-vertex index (see
//! [`GraphView`](crate::GraphView)); store entries carry *original* sender
//! ids, which is what programs observe and what the delivery order sorts
//! on. The strict buffer flip is what makes the execution *synchronous*: a
//! message sent in round `r` is visible in round `r + 1` and never earlier,
//! no matter how threads interleave.
//!
//! Delivery order contract: each inbox is sorted by original sender id.
//! An outbox sends a receiver one message, so one sender makes a run of
//! several only under faults, and the sort is stable within it: duplicated
//! deliveries immediately follow their original, and delayed batches due
//! the same round precede fresh traffic from the same sender because their
//! sender's group stages them first. The order is therefore a pure
//! function of the traffic, independent of shard count and thread schedule.
//! An installed [`FaultPlan::reorder`](crate::FaultPlan::reorder) rule then
//! adversarially permutes each same-sender run — seeded, shard-invariant.
//!
//! The contract is *implemented* by staging order, not by sorting. Dense
//! order is ascending original id, worker groups own ascending contiguous
//! dense ranges, each group steps (and so stages) its senders in ascending
//! order, and routing places the arenas' buckets in group order. Fresh
//! traffic therefore lands in every span already sorted by sender, each
//! duplicate right after its original. Delayed
//! batches are the one exception: their sender's group re-stages them at
//! the head of its buckets, ahead of its fresh traffic, so in a round where
//! any group re-staged, routing stable-sorts every span by sender (read
//! through the stores), which keeps each delayed batch ahead of fresh
//! traffic from the same sender.
//!
//! A fault-delayed batch is the one place a payload is copied: the staging
//! group clones each delayed message out of its store into an owned
//! `Routed` record, since the store is recycled two rounds later, and keeps
//! the records by due round. In the compute epoch before they are due, the
//! group moves each record's payload back into its store — one entry per
//! message — and its reference into its buckets, before it steps any node.
//!
//! # CONGEST accounting
//!
//! Under [`CongestMode::Split`](crate::CongestMode::Split) with budget `b`
//! a message of `w > b` words crosses an edge in `w.div_ceil(b)` frames.
//! The engine charges that where the message is stored, once the outbox's
//! faults are applied: each over-budget payload left in the store is
//! encoded through its [`WireCodec`](crate::WireCodec) into the storing
//! group's reused word buffer and decoded back (`split_roundtrip`), and
//! the decoded copy is what every receiver reads, so a codec defect shows
//! up as a wrong output; then each surviving reference charges its frames
//! to the staging group's counters. A fault-delayed message is stored
//! again when its group re-stages it, and is round-tripped and charged
//! then, like any stored payload. Frames are therefore counted per
//! delivery, as if every edge carried its own copy, and traffic a fault suppressed costs nothing, not even
//! its encoding. Faults act on *logical* messages, so fault replay is
//! identical across split and unlimited modes, and routing knows nothing
//! of the budget.
//!
//! The per-group rebuild itself runs on the workers (`pool::route_range`,
//! over the parts `Mailboxes::route_parts` splits out), or group by
//! group on the driver when the epoch is small; round-0 init traffic takes
//! the same path, so there is no separate driver-side fill.

use graphs::VertexId;

use crate::faults::reorder_inbox;
use crate::pool::RouteEnv;
use crate::program::{EngineMessage, Inbox};

/// A fault-delayed message, cloned out of its sender's store: `(destination
/// dense index, original sender id, payload)`.
pub(crate) type Routed<M> = (usize, VertexId, M);

/// A staged reference: `(destination dense index, slot in the staging
/// group's store)`. The store is implicit — the arena the reference sits
/// in.
pub(crate) type Staged = (u32, u32);

/// A placed reference: `(store, slot)` — store `g` is worker group `g`'s.
pub(crate) type Ref = (u32, u32);

/// A reusable two-level bitmap: one bit per element plus a summary bit
/// per 64-bit word, so the set bits of a sparse domain are enumerable in
/// ascending order in O(set + domain/4096) — how the routing epoch builds
/// its active lists and each group's wake queue its due lists without
/// sorting them.
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

/// One payload store: `(sender, payload)` entries written once each by a
/// worker group while it stages (or re-stages a due delayed message), and
/// read through [`Ref`]s by routing and by the next compute epoch.
/// Cleared, never shrunk, so its capacity is reused.
pub(crate) struct Store<M> {
    items: Vec<(VertexId, M)>,
}

impl<M> Default for Store<M> {
    fn default() -> Self {
        Store { items: Vec::new() }
    }
}

impl<M> Store<M> {
    /// Entries held.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// The `(sender, payload)` entry at `slot`.
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> &(VertexId, M) {
        &self.items[slot as usize]
    }

    /// Drops every entry, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.items.clear();
    }

    /// Drops the entries from `len` on — an outbox a fault suppressed.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.items.truncate(len);
    }

    /// Stores `(src, m)` and returns its slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot does not fit in 32 bits.
    pub(crate) fn put(&mut self, src: VertexId, m: M) -> u32 {
        let slot = u32::try_from(self.items.len())
            .expect("a payload store holds at most u32::MAX entries");
        self.items.push((src, m));
        slot
    }
}

impl<M: EngineMessage> Store<M> {
    /// Replaces each payload from slot `from` on that is wider than the
    /// split budget `split` by its copy round-tripped through the wire
    /// ([`split_roundtrip`], in the reused buffer `words`).
    pub(crate) fn split_from(&mut self, from: usize, split: usize, words: &mut Vec<u64>) {
        for (_, m) in &mut self.items[from..] {
            let width = m.width();
            if width > split {
                *m = split_roundtrip(m, width, words);
            }
        }
    }
}

/// The sender of the entry `r` points at.
#[inline]
pub(crate) fn sender<M>(stores: &[Store<M>], r: Ref) -> VertexId {
    stores[r.0 as usize].get(r.1).0
}

/// Ships one over-budget message of `width` words across the wire:
/// encodes it into `words`, the caller's reused buffer, and decodes it
/// back. The decoded copy is what receivers read, so a codec defect is a
/// visible output divergence, never a silent one. The frames it crosses in
/// are an accounting matter (see [`Counts::deliver`]): cutting the words
/// into them and gluing them back together would hand `decode` the same
/// words.
///
/// # Panics
///
/// Panics if the encoding is not exactly `width` words — the width honesty
/// the charge relies on — or does not decode.
pub(crate) fn split_roundtrip<M: EngineMessage>(m: &M, width: usize, words: &mut Vec<u64>) -> M {
    words.clear();
    m.encode(words);
    assert_eq!(
        words.len(),
        width,
        "a message's encoding must have exactly width() words"
    );
    M::decode(words).expect("wire codec must round-trip its own encoding")
}

/// Finalizes one freshly routed inbox — the per-inbox half of the routing
/// phase (`pool::route_range` runs it on each span of the rebuilt
/// segment): the optional seeded adversarial reorder of same-sender runs.
/// The span arrives **already in delivery order** (see the module docs),
/// so finalize sorts nothing.
pub(crate) fn finalize_inbox<M>(
    inbox: &mut [Ref],
    stores: &[Store<M>],
    receiver: VertexId,
    env: &RouteEnv<'_>,
) {
    if inbox.len() > 1 {
        if let Some(seed) = env.reorder {
            reorder_inbox(inbox, |&r| sender(stores, r), seed, env.round, receiver);
        }
    }
}

/// One group's inboxes in one buffer: the reference segment of its whole
/// dense range, one `(start, len)` span per vertex of the range (indexed by
/// offset in the range, starts relative to the segment), and its **active
/// list** — the absolute dense indices of exactly the non-empty spans,
/// ascending. Built by the routing epoch as a by-product of the counting
/// sort, the active list is both the compute epoch's frontier index (step
/// only these plus the due wake list) and the next routing's O(frontier)
/// span-reset list.
#[derive(Default)]
pub(crate) struct GroupInbox {
    pub(crate) seg: Vec<Ref>,
    pub(crate) spans: Vec<(u32, u32)>,
    pub(crate) active: Vec<usize>,
}

impl GroupInbox {
    fn new(len: usize) -> Self {
        GroupInbox {
            spans: vec![(0, 0); len],
            ..GroupInbox::default()
        }
    }
}

/// The buffer read this round: every group's inboxes, and the payload
/// stores their references point into — one per worker group. See the
/// module docs.
pub(crate) struct Inboxes<M> {
    groups: Vec<GroupInbox>,
    stores: Vec<Store<M>>,
}

impl<M> Inboxes<M> {
    /// Group `g`'s read view: its segment, spans and active list, and
    /// every store.
    pub(crate) fn group(&self, g: usize) -> GroupInboxes<'_, M> {
        let GroupInbox { seg, spans, active } = &self.groups[g];
        GroupInboxes {
            seg,
            spans,
            active,
            stores: &self.stores,
        }
    }
}

/// A compute-epoch read view of one group's inboxes: `inbox(i)` is the
/// `i`-th vertex of the group's dense range. Plain shared slices, so the
/// view is `Copy`.
pub(crate) struct GroupInboxes<'a, M> {
    pub(crate) seg: &'a [Ref],
    pub(crate) spans: &'a [(u32, u32)],
    /// Absolute dense indices of the non-empty spans, ascending — the
    /// vertices that received traffic, i.e. the message half of the round's
    /// frontier.
    pub(crate) active: &'a [usize],
    /// Every store the segment's references point into.
    pub(crate) stores: &'a [Store<M>],
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
    pub(crate) fn inbox(&self, i: usize) -> Inbox<'a, M> {
        let (start, len) = self.spans[i];
        let start = start as usize;
        Inbox::new(&self.seg[start..start + len as usize], self.stores)
    }
}

/// One routing group's state: everything its share of a routing epoch
/// writes, which the epoch hands to it as one `&mut`.
pub(crate) struct RouteGroup {
    /// The group's inboxes in the `next` buffer. On entry to a routing
    /// epoch its active list holds the spans the buffer's *previous*
    /// routing left non-empty — exactly the ones to reset; on exit, the
    /// freshly non-empty ones. Swapped with `cur`'s at the flip.
    pub(crate) inbox: GroupInbox,
    /// Marks the range offsets that receive traffic, drained ascending to
    /// rebuild the active list without sorting it.
    pub(crate) vbits: TwoLevelBits,
}

/// What the routing epoch borrows from the [`Mailboxes`]: the group
/// partition, the counting scratch, the routing groups and `next`'s stores.
pub(crate) type RouteParts<'a, M> = (
    &'a [usize],
    &'a mut [u32],
    &'a mut [RouteGroup],
    &'a [Store<M>],
);

/// The group owning dense vertex `dv` under the boundaries `bounds`.
pub(crate) fn group_of(bounds: &[usize], dv: usize) -> usize {
    bounds.partition_point(|&b| b <= dv) - 1
}

/// The engine's mailbox fabric. See module docs.
pub(crate) struct Mailboxes<M> {
    cur: Inboxes<M>,
    /// The `next` buffer's stores, laid out like `cur`'s.
    next_stores: Vec<Store<M>>,
    /// Per routing group: its `next` inboxes and routing state.
    route: Vec<RouteGroup>,
    /// Per-vertex counting-sort scratch for the routing epoch, which hands
    /// each group its range's slice. All-zeros between epochs: each
    /// routing re-zeroes exactly the entries it touched.
    counts: Vec<u32>,
    /// Dense group boundaries, ascending, `len = groups + 1`: the
    /// session's one copy of its worker-group partition, which the pool's
    /// epochs read through [`bounds`](Mailboxes::bounds).
    bounds: Vec<usize>,
}

impl<M: EngineMessage> Mailboxes<M> {
    /// Mailboxes for `live` vertices partitioned by `bounds` (ascending
    /// group boundaries, `len = groups + 1`, `bounds[0] = 0`, last entry
    /// `live`).
    ///
    /// # Panics
    ///
    /// Panics if `live` exceeds `u32::MAX`: spans, counts and references
    /// index vertices in 32 bits.
    pub(crate) fn new(live: usize, bounds: Vec<usize>) -> Self {
        debug_assert!(bounds.len() >= 2 && bounds[0] == 0 && bounds[bounds.len() - 1] == live);
        u32::try_from(live).expect("a session holds at most u32::MAX live vertices");
        let groups = bounds.len() - 1;
        let stores = || (0..groups).map(|_| Store::default()).collect();
        Mailboxes {
            cur: Inboxes {
                groups: bounds
                    .windows(2)
                    .map(|b| GroupInbox::new(b[1] - b[0]))
                    .collect(),
                stores: stores(),
            },
            next_stores: stores(),
            route: bounds
                .windows(2)
                .map(|b| RouteGroup {
                    inbox: GroupInbox::new(b[1] - b[0]),
                    vbits: TwoLevelBits::default(),
                })
                .collect(),
            counts: vec![0; live],
            bounds,
        }
    }

    /// The worker-group partition: dense boundaries, ascending, `len =
    /// groups + 1`; group `g` owns `bounds[g]..bounds[g + 1]`.
    pub(crate) fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// The buffer read this round.
    pub(crate) fn cur(&self) -> &Inboxes<M> {
        &self.cur
    }

    /// The inbox dense vertex `dv` reads this round, copied out
    /// (test/inspection convenience over [`cur`](Mailboxes::cur)).
    #[cfg(test)]
    pub(crate) fn inbox(&self, dv: usize) -> Vec<(VertexId, M)> {
        let g = group_of(&self.bounds, dv);
        let inbox = self.cur.group(g).inbox(dv - self.bounds[g]);
        inbox.iter().map(|(src, m)| (src, m.clone())).collect()
    }

    /// What the routing epoch works on: the group partition, the counting
    /// scratch and the routing groups, which it hands out group by group,
    /// and `next`'s stores, which every group reads.
    pub(crate) fn route_parts(&mut self) -> RouteParts<'_, M> {
        (
            &self.bounds,
            &mut self.counts,
            &mut self.route,
            &self.next_stores,
        )
    }

    /// Hands group `g`'s payloads to `next` by swapping `store` in; the
    /// group gets back the store `next` held — two rounds stale, for the
    /// group to clear when it next stages.
    pub(crate) fn adopt(&mut self, g: usize, store: &mut Store<M>) {
        std::mem::swap(&mut self.next_stores[g], store);
    }

    /// Ends the routing of a round: flips the buffers, group by group. The
    /// routing epoch rebuilt every span and segment of `next`, so no
    /// clearing is needed — the old `cur` becomes the next round's scratch.
    pub(crate) fn flip(&mut self) {
        for (cur, next) in self.cur.groups.iter_mut().zip(&mut self.route) {
            std::mem::swap(cur, &mut next.inbox);
        }
        std::mem::swap(&mut self.cur.stores, &mut self.next_stores);
    }

    /// Vertices with a non-empty inbox this round: the message half of the
    /// compute epoch's frontier.
    pub(crate) fn frontier(&self) -> usize {
        self.cur.groups.iter().map(|g| g.active.len()).sum()
    }

    /// The routing epoch's work besides the staged references: the stale
    /// spans of `next` it resets.
    pub(crate) fn stale_spans(&self) -> usize {
        self.route.iter().map(|r| r.inbox.active.len()).sum()
    }

    /// Serial twin of the worker-parallel routing epoch, for unit tests:
    /// stores the `due` delayed records and then the `staged` traffic in
    /// `next`'s group-0 store, distributes them into the `next` segments
    /// group by group, and finalizes every inbox. Deliberately the
    /// **comparison-sort executable spec** — a stable sort by destination,
    /// placement, then a stable per-inbox sort by original sender — that
    /// the production path, which sorts only in rounds with re-staged
    /// traffic, must reproduce verbatim.
    #[cfg(test)]
    pub(crate) fn route_serial(
        &mut self,
        due: Vec<Routed<M>>,
        staged: Vec<Routed<M>>,
        env: &RouteEnv<'_>,
    ) {
        let groups = self.bounds.len() - 1;
        let Mailboxes {
            next_stores: stores,
            route,
            bounds,
            ..
        } = self;
        stores[0].clear();
        let mut buckets: Vec<Vec<(usize, Ref)>> = (0..groups).map(|_| Vec::new()).collect();
        for (dv, src, m) in due.into_iter().chain(staged) {
            let slot = stores[0].put(src, m);
            buckets[group_of(bounds, dv)].push((dv, (0, slot)));
        }
        for (g, mut items) in buckets.into_iter().enumerate() {
            let GroupInbox { seg, spans, active } = &mut route[g].inbox;
            // A stable sort by destination is the counting sort's twin:
            // per receiver, due-then-staged order is preserved.
            items.sort_by_key(|r| r.0);
            seg.clear();
            active.clear();
            let mut iter = items.into_iter().peekable();
            for (dv, span) in (bounds[g]..bounds[g + 1]).zip(spans.iter_mut()) {
                let start = seg.len();
                while let Some((_, r)) = iter.next_if(|r| r.0 == dv) {
                    seg.push(r);
                }
                *span = (start as u32, (seg.len() - start) as u32);
                if span.1 > 0 {
                    active.push(dv);
                }
                // The spec's delivery order: a stable comparison sort on
                // original sender ids (placement already put due-before-
                // fresh within each sender).
                seg[start..].sort_by_key(|&r| sender(stores, r));
                let receiver = env.view.original(dv);
                finalize_inbox(&mut seg[start..], stores, receiver, env);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::view::GraphView;
    use graphs::Graph;
    use std::sync::OnceLock;

    /// A whole view of eight isolated vertices: receiver ids are the dense
    /// indices.
    fn view8() -> &'static GraphView<'static> {
        static GRAPH: OnceLock<Graph> = OnceLock::new();
        static VIEW: OnceLock<GraphView<'static>> = OnceLock::new();
        VIEW.get_or_init(|| GraphView::whole(GRAPH.get_or_init(|| Graph::empty(8))))
    }

    fn plain_env() -> RouteEnv<'static> {
        RouteEnv {
            round: 1,
            reorder: None,
            restaged: false,
            view: view8(),
        }
    }

    #[test]
    fn messages_visible_only_after_flip() {
        let mut mail: Mailboxes<u64> = Mailboxes::new(3, vec![0, 3]);
        mail.route_serial(Vec::new(), vec![(2, 0, 7)], &plain_env());
        assert!(mail.inbox(2).is_empty(), "sent this round, not visible yet");
        mail.flip();
        assert_eq!(mail.inbox(2), &[(0, 7)]);
        mail.route_serial(Vec::new(), Vec::new(), &plain_env());
        mail.flip();
        assert!(mail.inbox(2).is_empty(), "consumed after next flip");
    }

    #[test]
    fn inboxes_sorted_by_sender_stably() {
        let mut mail: Mailboxes<u64> = Mailboxes::new(4, vec![0, 4]);
        // Sender 2 then sender 0, sender 2 again (a duplicate): sorted to
        // 0, 2, 2 with sender 2's run in staging order.
        mail.route_serial(
            Vec::new(),
            vec![(3, 2, 10), (3, 0, 20), (3, 2, 11)],
            &plain_env(),
        );
        mail.flip();
        assert_eq!(mail.inbox(3), &[(0, 20), (2, 10), (2, 11)]);
    }

    #[test]
    fn segments_pack_a_group_contiguously() {
        // Two groups split at dense 2: group 0's segment holds the inboxes
        // of vertices 0 and 1 back to back; group 1's those of 2 and 3.
        let mut mail: Mailboxes<u64> = Mailboxes::new(4, vec![0, 2, 4]);
        mail.route_serial(
            Vec::new(),
            vec![(1, 3, 30), (0, 2, 20), (1, 0, 10), (3, 1, 40)],
            &plain_env(),
        );
        mail.flip();
        assert_eq!(mail.inbox(0), &[(2, 20)]);
        assert_eq!(mail.inbox(1), &[(0, 10), (3, 30)]);
        assert!(mail.inbox(2).is_empty());
        assert_eq!(mail.inbox(3), &[(1, 40)]);
        // The spec stores every payload in group 0's store, in staging
        // order (slots 0..4 = 30, 20, 10, 40); segments hold references.
        let [g0, g1] = &mail.cur.groups[..] else {
            panic!("two groups")
        };
        assert_eq!(g0.seg, vec![(0, 1), (0, 2), (0, 0)]);
        assert_eq!(g1.seg, vec![(0, 3)]);
        assert_eq!(
            (&g0.spans, &g1.spans),
            (&vec![(0, 1), (1, 2)], &vec![(0, 0), (0, 1)]),
            "spans are indexed by offset in the group's range, and their \
             starts are relative to the group's segment"
        );
        assert_eq!(
            (&g0.active, &g1.active),
            (&vec![0, 1], &vec![3]),
            "active lists index exactly the non-empty spans, by dense index"
        );
    }

    #[test]
    fn split_roundtrip_stores_the_decoded_copy_and_reuses_its_buffer() {
        use crate::programs::gather::NbrList;
        let mut words = Vec::new();
        let msg = NbrList(vec![3, 5, 8, 13, 21]);
        assert_eq!(split_roundtrip(&msg, 5, &mut words).0, msg.0);
        assert_eq!(split_roundtrip(&NbrList(vec![1]), 1, &mut words).0, vec![1]);
        assert!(words.capacity() >= 5, "the buffer's capacity is retained");
    }

    #[test]
    #[should_panic(expected = "exactly width() words")]
    fn split_roundtrip_rejects_a_dishonest_width() {
        use crate::programs::gather::NbrList;
        split_roundtrip(&NbrList(vec![1, 2, 3]), 2, &mut Vec::new());
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
