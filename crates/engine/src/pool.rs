//! The session's executor: staging, routing, and the typed layer
//! ([`WorkerPool`]) that runs both as epochs on an [`EnginePool`] — a
//! **two-phase round protocol**, compute then routing, with every phase
//! worker-parallel.
//!
//! The threads live in the pool (`crate::exec`), which knows nothing about
//! message or program types, so one pool can serve an
//! `EngineSession<GatherProgram>` and an `EngineSession<RulingProgram>`
//! back to back — which is exactly what a peeling pipeline does, session
//! per level. Sessions either spawn a private pool or borrow a shared
//! [`EnginePool`] via
//! [`EngineConfig::with_pool`](crate::EngineConfig::with_pool) — thread
//! spawns then happen once per *pipeline*, not once per session.
//!
//! Each round is two epochs, and each epoch is an **ownership handoff**: it
//! gives worker group `g` disjoint `&mut` parts
//! ([`EnginePool::run_groups`]) — its `ranges[g]` slice of a per-vertex
//! array and its own state — and between the epochs the driver moves state
//! from owner to owner by swapping vectors. No group reaches into another's
//! state.
//!
//! * **Compute epoch** — group `g` owns its slice of the programs and its
//!   state ([`ShardYield`]: staging arena, delayed records and wake queue),
//!   and reads its inboxes shared. It re-stages the delayed records that
//!   come due (below), pops the round's due wakes, steps its frontier
//!   (calling `on_round` and registering each stepped node's next wake),
//!   and stages outbound traffic in its arena. Each outbox's one payload is
//!   moved once into the arena's **store**, as a `(sender, payload)` entry,
//!   and each point-to-point message becomes an 8-byte `(destination,
//!   slot)` reference. References are **bucketed by destination group**:
//!   one for a vertex owned by group `b` lands in bucket `b`. No payload is
//!   cloned per edge; duplication faults push a second reference to the
//!   same slot. Once the outbox's faults are applied, split mode round-trips
//!   each over-budget payload left in the store and charges its frames per
//!   surviving reference (see the `mailbox` module's *CONGEST accounting*).
//!   A delayed outbox leaves the arena as owned records, which the group
//!   keeps by due round; in the compute epoch before they are due, before
//!   it steps any node, it stages them again into its store and buckets,
//!   where they take the path of any staged payload, split charge included.
//! * **Handoff** — the driver sums the groups' counters and swaps every
//!   arena's store into the `next` buffer (`Mailboxes::adopt`), one swap
//!   per group, nothing copied. The arena gets back a two-rounds-stale
//!   store, which it clears when it next stages. Its buckets stay where
//!   they are.
//! * **Routing epoch** — group `g` owns its slice of the counting scratch
//!   and its `RouteGroup`: its `next` inboxes and its receiver bitmap; it
//!   reads the arenas and the `next` stores shared. It rebuilds its `next`
//!   segment with a **counting sort** over bucket `g` of every arena (in
//!   ascending source group order): count per receiver, prefix-sum into
//!   the span table, and place each reference exactly once, as
//!   `(store, slot)`. Each arena clears its own buckets when it next
//!   stages, so there is one set of bucket capacity, kept by the arenas.
//!   Steady-state rounds perform no per-message allocation —
//!   stores, buckets, segments, spans, and the counting scratch persist
//!   across rounds. The next compute epoch reads every payload through the
//!   same shared `&Inboxes` it reads the spans through.
//!
//! Determinism: for any inbox, references are placed in (source group,
//! staging order) order. Groups own ascending dense ranges and step their
//! senders in ascending dense (= original id) order, so that placement
//! order *is* the delivery order — ascending sender, each duplicate right
//! after its original — with no sort at all. The one exception is
//! fault-delayed traffic, which its sender's group re-stages ahead of its
//! fresh traffic: in a round where any group re-staged, routing
//! stable-sorts every span by sender (read through the stores), which keeps
//! each delayed batch ahead of fresh traffic from the same sender. Either
//! way the delivered order is a pure function of the traffic, so worker
//! count and shard count remain pure performance knobs.
//!
//! * **Worker lifetime** — `workers - 1` OS threads are spawned when the
//!   pool is created (per session by default, once per pipeline with a
//!   shared pool) and live until the last [`EnginePool`] handle drops. The driver
//!   thread itself executes worker group 0 in both epochs, so a
//!   `workers = 1` pool spawns no threads at all and runs everything inline
//!   with zero synchronization.
//! * **Barrier protocol** — each pooled epoch is one `start`/`done`
//!   rendezvous. The driver publishes the epoch's job, crosses `start`,
//!   does its own group's share, and crosses `done`; workers park in
//!   between. The barriers order every handoff: the driver's swaps happen
//!   before `start`, and each group's writes before `done`.
//! * **Small epochs on the driver** — waking the pool costs a barrier pair
//!   whatever the epoch holds. When the driver judges an epoch's work too
//!   small to pay for that (see `driver::on_driver`), [`WorkerPool`] runs
//!   the same job for every group in group order on the driver thread
//!   (`inline` in [`EnginePool::run_groups`]) and the workers stay parked.
//!   Nothing else differs: each group's share is the same call, the panic
//!   discipline and the reentry guard are the same, and no barrier is
//!   crossed.
//! * **Panic discipline** — every job invocation runs under
//!   `catch_unwind`; a panic is recorded in the worker's panic slot, the
//!   worker still reaches the `done` barrier, and the driver resumes the
//!   unwind on its own thread. The protocol therefore never deadlocks:
//!   every participant reaches every barrier, and shutdown (which raises
//!   the flag and releases the `start` barrier once more) always joins
//!   cleanly — even while unwinding from a propagated program panic.

use std::collections::BTreeMap;
use std::ops::Range;

use graphs::VertexId;

use crate::context::NodeCtx;
use crate::exec::{EnginePool, Panic};
use crate::faults::{FaultAction, FaultPlan};
use crate::mailbox::{
    finalize_inbox, group_of, sender, GroupInbox, GroupInboxes, Inboxes, Mailboxes, RouteGroup,
    Routed, Staged, Store,
};
use crate::program::{EngineMessage, NodeProgram, Outbox};
use crate::view::GraphView;
use crate::wake::{wake_round, WakeQueue};

/// Everything a step needs besides the program and its inbox: the fault
/// plan, the session's view (contexts and the original → dense id map),
/// the group partition, and the split budget. Built by the driver once
/// per epoch; borrowed by every worker group.
pub(crate) struct StageEnv<'a> {
    /// Outbox fault schedule + duplication rule.
    pub(crate) faults: &'a FaultPlan,
    /// The session's view: each step's [`NodeCtx`] is built from it, and
    /// staging maps original ids to dense indices through it.
    pub(crate) view: &'a GraphView<'a>,
    /// Dense group boundaries, ascending, `len = groups + 1` — the
    /// mailboxes' partition ([`Mailboxes::bounds`]).
    pub(crate) bounds: &'a [usize],
    /// Fragmentation budget in words (`usize::MAX` = splitting off): once
    /// an outbox's faults are applied, each over-budget payload left in the
    /// store is round-tripped through the wire, and every delivery left is
    /// charged to the group's [`Counts`].
    pub(crate) split: usize,
    /// Frontier-sparse gating: when set, a node with an empty inbox is
    /// stepped only if its [`Activation`] hint requests the round. Cleared
    /// by [`EngineConfig::with_frontier(false)`] to force full scans.
    pub(crate) frontier: bool,
}

impl StageEnv<'_> {
    /// The worker group owning dense vertex `dv`.
    fn group_of(&self, dv: usize) -> usize {
        group_of(self.bounds, dv)
    }

    fn groups(&self) -> usize {
        self.bounds.len() - 1
    }
}

/// Everything the routing epoch needs beyond the arenas and stores: the
/// round being routed (keys the reorder coins), the adversarial reorder
/// rule, whether any group re-staged delayed traffic, and the session's
/// view (the dense → original id map).
pub(crate) struct RouteEnv<'a> {
    /// The logical round whose traffic is being routed (0 = init).
    pub(crate) round: u64,
    /// Seeded adversarial same-sender-run reorder, if installed.
    pub(crate) reorder: Option<u64>,
    /// Whether some group re-staged delayed records this round: they head
    /// their buckets, ahead of fresh traffic, so every span is stable-sorted
    /// by sender.
    pub(crate) restaged: bool,
    /// The session's view: maps each receiver's dense index to its
    /// original id, which keys the reorder coins.
    pub(crate) view: &'a GraphView<'a>,
}

/// One worker group's state: its payload store, a persistent staging
/// arena of references (bucketed by destination group) for outbound
/// traffic, its fault-delayed records, the round's observed counters, and
/// the wake queue of its dense range. Reused across rounds —
/// [`reset`](ShardYield::reset) clears the round's part without releasing
/// capacity.
///
/// Each group writes its own state on every step, and the session keeps
/// the groups' states side by side in one vector, so the state is aligned
/// to 128 bytes (x86 fetches cache lines in pairs): no two groups write to
/// one line. Without it, a 40-byte change of the struct's size cost the
/// two-group ruling-grid benchmark about 10% of its compute epoch.
#[repr(align(128))]
pub(crate) struct ShardYield<M> {
    /// Outbound references staged this round (surviving faults),
    /// `(destination, slot in store)`, bucketed by destination worker
    /// group: re-staged delayed records first, then fresh traffic. Routing
    /// group `b` reads bucket `b` in place; the next
    /// [`reset`](ShardYield::reset) clears it.
    pub(crate) buckets: Vec<Vec<Staged>>,
    /// Every payload the group sent this round, once each. The driver
    /// swaps it into the mailboxes between the epochs
    /// (`Mailboxes::adopt`) and hands back a stale one, cleared here
    /// at the next [`reset`](ShardYield::reset).
    pub(crate) store: Store<M>,
    /// The word buffer of the over-budget payloads the group round-trips
    /// once their outboxes' faults are applied.
    words: Vec<u64>,
    /// Scratch: each bucket's length when the current outbox began staging.
    starts: Vec<usize>,
    /// Fault-delayed messages by the round their receivers read them in,
    /// each batch in staging order. Kept across rounds until re-staged.
    pub(crate) delayed: BTreeMap<u64, Vec<Routed<M>>>,
    /// The round's observed counters.
    pub(crate) counts: Counts,
    /// The group's scheduled wakes: each stepped node's post-step
    /// [`Activation`](crate::Activation) hint, registered as it is
    /// stepped. Used only when `env.frontier` is set.
    wakes: WakeQueue,
    /// Scratch: the round's due list, popped from `wakes`.
    due: Vec<usize>,
}

/// One worker group's observed counters for a round; the driver sums the
/// groups' with [`add`](Counts::add).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Counts {
    /// Messages emitted (before faults).
    pub(crate) messages: usize,
    /// Messages discarded by drop faults.
    pub(crate) dropped: usize,
    /// Messages rescheduled by delay faults.
    pub(crate) delayed: usize,
    /// Delayed messages re-staged this round, ahead of fresh traffic.
    pub(crate) restaged: usize,
    /// Extra deliveries created by per-edge duplication.
    pub(crate) duplicated: usize,
    /// Messages discarded by seeded per-edge loss.
    pub(crate) lost: usize,
    /// Widest message emitted.
    pub(crate) max_width: usize,
    /// Split mode: CONGEST frames of the over-budget messages delivered,
    /// per delivery (see [`deliver`](Counts::deliver)).
    pub(crate) fragments: usize,
    /// Split mode: widest message delivered — the width that decides the
    /// round's physical cost. Charging on delivered widths keeps
    /// fault-suppressed traffic free: a dropped, crashed or lost wide
    /// message never crossed the wire.
    pub(crate) wire_width: usize,
    /// Nodes actually stepped this round — the frontier. Equals the range
    /// length when gating is off, and in round 0.
    pub(crate) stepped: usize,
    /// Stepped nodes whose halt vote flipped to "halted" this round. An
    /// unstepped node's vote cannot change (its state is untouched), so
    /// these deltas keep the driver's live halt count exact without an
    /// O(range) census.
    pub(crate) newly_halted: usize,
    /// Stepped nodes whose halt vote flipped back to "active" this round.
    pub(crate) newly_unhalted: usize,
}

impl Counts {
    /// Folds another group's counters into these.
    pub(crate) fn add(&mut self, other: &Counts) {
        self.messages += other.messages;
        self.dropped += other.dropped;
        self.delayed += other.delayed;
        self.restaged += other.restaged;
        self.duplicated += other.duplicated;
        self.lost += other.lost;
        self.max_width = self.max_width.max(other.max_width);
        self.fragments += other.fragments;
        self.wire_width = self.wire_width.max(other.wire_width);
        self.stepped += other.stepped;
        self.newly_halted += other.newly_halted;
        self.newly_unhalted += other.newly_unhalted;
    }

    /// Charges one delivery of a `width`-word message under the split
    /// budget `split`: a message over the budget crosses its edge in
    /// `width.div_ceil(split)` frames, one within it whole.
    pub(crate) fn deliver(&mut self, width: usize, split: usize) {
        self.wire_width = self.wire_width.max(width);
        if width > split {
            self.fragments += width.div_ceil(split);
        }
    }
}

impl<M> ShardYield<M> {
    /// The state of the group owning dense range `range`, with one bucket
    /// per destination worker group.
    pub(crate) fn new(groups: usize, range: Range<usize>) -> Self {
        ShardYield {
            buckets: (0..groups).map(|_| Vec::new()).collect(),
            store: Store::default(),
            words: Vec::new(),
            starts: vec![0; groups],
            delayed: BTreeMap::new(),
            counts: Counts::default(),
            wakes: WakeQueue::new(range),
            due: Vec::new(),
        }
    }

    /// Number of destination buckets.
    pub(crate) fn groups(&self) -> usize {
        self.buckets.len()
    }

    /// Clears the arena for a new round, keeping every allocation.
    fn reset(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.store.clear();
        self.counts = Counts::default();
    }

    /// References staged this round, over every bucket.
    pub(crate) fn references(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }
}

/// Steps the nodes of `programs` (one group's dense range, starting at
/// dense index `base`), building each node's context from `env.view`,
/// reading inboxes from the group's segment view and expanding outboxes
/// into `y`'s bucketed arena, applying faults.
///
/// Nodes are stepped in ascending dense order — the staging order the
/// routing epoch relies on to place every inbox in sender order.
///
/// With `env.frontier` set this is **frontier-indexed**: instead of
/// scanning the whole range, only the vertices of the inbox active list
/// (built for free by last round's routing epoch) merged with the round's
/// due list, popped from the group's own wake queue (both ascending), are
/// stepped, so quiescent-bulk rounds cost O(frontier) rather than
/// O(range). A node in neither list behaves exactly as if its `on_round`
/// had returned `Silent` without touching state — the
/// [`Activation`](crate::Activation) contract. Each stepped node's
/// post-step hint is registered in the queue as it is stepped. Both lists
/// are pure functions of shard-invariant state (the routed traffic and the
/// hints), so gated runs replay bit-identically at any shard count; with
/// the flag off, every node of the range is stepped — the historical full
/// scan — and no wake is registered.
///
/// Round 0 is the init exchange: every node of the range calls `init`
/// instead of `on_round`, with no frontier, and registers its first wake.
///
/// Before any node steps, the group re-stages its delayed records that
/// receivers read next round ([`restage`]).
///
/// Every path reports halt-vote *deltas* of the stepped nodes (an
/// unstepped node's vote cannot change, so the driver's running halt
/// count stays exact without an O(range) census).
pub(crate) fn run_range<P: NodeProgram>(
    programs: &mut [P],
    inboxes: GroupInboxes<'_, P::Message>,
    base: usize,
    round: u64,
    env: &StageEnv<'_>,
    y: &mut ShardYield<P::Message>,
) {
    y.reset();
    restage(round, env, y);
    debug_assert_eq!(inboxes.len(), programs.len());
    let mut step = |i: usize, y: &mut ShardYield<P::Message>| {
        let p = &mut programs[i];
        let was_halted = p.halted();
        y.counts.stepped += 1;
        let mut ctx = NodeCtx::at(env.view, base + i, round);
        let outbox = if round == 0 {
            p.init(&mut ctx)
        } else {
            p.on_round(&mut ctx, inboxes.inbox(i))
        };
        stage_outbox(ctx.id, outbox, ctx.neighbors, round, env, y);
        match (was_halted, p.halted()) {
            (false, true) => y.counts.newly_halted += 1,
            (true, false) => y.counts.newly_unhalted += 1,
            _ => {}
        }
        if env.frontier {
            y.wakes
                .register(base + i, wake_round(p.activation(), round));
        }
    };
    if env.frontier && round > 0 {
        let len = inboxes.len();
        let mut due = std::mem::take(&mut y.due);
        y.wakes.pop(round, &mut due);
        // Merge the two ascending lists. A due node with traffic is also on
        // the active list (active holds exactly the non-empty inboxes) and
        // is stepped once, from there.
        let mut pending = due.iter().copied().peekable();
        for &dv in inboxes.active {
            debug_assert!(dv >= base && dv - base < len);
            while let Some(d) = pending.next_if(|&d| d < dv) {
                step(d - base, y);
            }
            pending.next_if_eq(&dv);
            step(dv - base, y);
        }
        for d in pending {
            step(d - base, y);
        }
        y.due = due;
    } else {
        for i in 0..inboxes.len() {
            step(i, y);
        }
    }
}

/// Stages the group's delayed records that receivers read in round
/// `round + 1` into its freshly reset arena: each payload into the store,
/// one entry per message, and its reference into its destination group's
/// bucket, ahead of the round's fresh traffic. Like any outbox that
/// survived its faults, each is then round-tripped and charged in split
/// mode ([`charge_split`]).
fn restage<M: EngineMessage>(round: u64, env: &StageEnv<'_>, y: &mut ShardYield<M>) {
    let Some(records) = y.delayed.remove(&(round + 1)) else {
        return;
    };
    debug_assert!(
        y.store.len() == 0 && y.references() == 0,
        "the arena is reset"
    );
    y.counts.restaged += records.len();
    for (dv, src, m) in records {
        let slot = y.store.put(src, m);
        y.buckets[env.group_of(dv)].push((dv as u32, slot));
    }
    if env.split != usize::MAX {
        y.starts.fill(0);
        charge_split(0, env, y);
    }
}

/// Expands one node's outbox into the arena — each payload into the store
/// once, one reference per destination into the buckets — records its
/// width, and applies its fault action: drop truncates the outbox's
/// references and payloads, delay clones each delayed message out into an
/// owned record and then truncates likewise, loss compacts references, and
/// duplication appends a second reference to the same payload. In split
/// mode, [`charge_split`] then charges what is left.
fn stage_outbox<M: EngineMessage>(
    src: VertexId,
    outbox: Outbox<M>,
    neighbors: &[VertexId],
    round: u64,
    env: &StageEnv<'_>,
    y: &mut ShardYield<M>,
) {
    debug_assert_eq!(y.groups(), env.groups());
    if matches!(outbox, Outbox::Silent) {
        // Fast path for quiet nodes (the common late-round case): an empty
        // batch stages nothing and every fault action on it is a no-op, so
        // skip the per-bucket bookkeeping entirely.
        return;
    }
    for b in 0..y.buckets.len() {
        y.starts[b] = y.buckets[b].len();
    }
    let stored = y.store.len();
    let width = expand_into(src, outbox, neighbors, env, y);
    let batch_len: usize = y
        .buckets
        .iter_mut()
        .zip(&y.starts)
        .map(|(bucket, &s)| bucket.len() - s)
        .sum();
    y.counts.messages += batch_len;
    y.counts.max_width = y.counts.max_width.max(width);
    match env.faults.action(round, src) {
        FaultAction::Deliver => {
            // Loss first, duplication on the survivors: a lost message is
            // never duplicated. Both decisions are pure functions of the
            // traffic coordinates, so the combined perturbation replays at
            // any shard layout.
            if env.faults.loses_messages() {
                lose_batch(src, round, env, y);
            }
            if env.faults.duplicates_messages() {
                duplicate_batch(src, round, env, y);
            }
        }
        FaultAction::Drop => {
            y.counts.dropped += batch_len;
            for (b, bucket) in y.buckets.iter_mut().enumerate() {
                bucket.truncate(y.starts[b]);
            }
            y.store.truncate(stored);
        }
        FaultAction::Delay(by) => {
            // The store is recycled two rounds on, so a delayed message
            // leaves it as an owned copy — the one place a payload is
            // cloned.
            y.counts.delayed += batch_len;
            let batch = y.delayed.entry(round + 1 + by).or_default();
            for (b, bucket) in y.buckets.iter_mut().enumerate() {
                for &(dv, slot) in &bucket[y.starts[b]..] {
                    batch.push((dv as usize, src, y.store.get(slot).1.clone()));
                }
                bucket.truncate(y.starts[b]);
            }
            y.store.truncate(stored);
        }
    }
    // Checked here, not in the callee: unlimited mode must not pay a call
    // per outbox.
    if env.split != usize::MAX {
        charge_split(stored, env, y);
    }
}

/// Split mode: round-trips through the wire each over-budget payload
/// stored from slot `stored` on, and charges each reference staged since
/// `y.starts` as a delivery.
fn charge_split<M: EngineMessage>(stored: usize, env: &StageEnv<'_>, y: &mut ShardYield<M>) {
    y.store.split_from(stored, env.split, &mut y.words);
    for (bucket, &start) in y.buckets.iter().zip(&y.starts) {
        for &(_, slot) in &bucket[start..] {
            y.counts.deliver(y.store.get(slot).1.width(), env.split);
        }
    }
}

/// Removes each seeded-lost message of the current outbox's batch from its
/// bucket. Keyed on `(round, src, original dst)` — the outbox sends `dst`
/// one message — so the decision is independent of the bucket partition,
/// exactly like duplication.
fn lose_batch<M: EngineMessage>(
    src: VertexId,
    round: u64,
    env: &StageEnv<'_>,
    y: &mut ShardYield<M>,
) {
    for (bucket, &start) in y.buckets.iter_mut().zip(&y.starts) {
        // Compact the survivors in place. The write cursor never passes
        // the read position, so message `j` is still unmoved when it is
        // decided.
        let mut kept = start;
        for j in start..bucket.len() {
            let dst = env.view.original(bucket[j].0 as usize);
            if env.faults.loses(round, src, dst) {
                y.counts.lost += 1;
            } else {
                bucket.swap(kept, j);
                kept += 1;
            }
        }
        bucket.truncate(kept);
    }
}

/// Appends a second reference to each chosen message right after the
/// current outbox's batch in its bucket — the payload itself is not
/// copied. Keyed on `(round, src, original dst)`, so the decision — and
/// the delivered order, where each duplicate follows its sender's batch —
/// is independent of the bucket partition.
fn duplicate_batch<M: EngineMessage>(
    src: VertexId,
    round: u64,
    env: &StageEnv<'_>,
    y: &mut ShardYield<M>,
) {
    for (bucket, &start) in y.buckets.iter_mut().zip(&y.starts) {
        for j in start..bucket.len() {
            let r = bucket[j];
            if env
                .faults
                .duplicates(round, src, env.view.original(r.0 as usize))
            {
                bucket.push(r);
                y.counts.duplicated += 1;
            }
        }
    }
}

/// Expands an outbox into the arena: its one payload is moved into the
/// store once, whatever the number of receivers — an outbox to no live
/// neighbor stores nothing — and each point-to-point message becomes a
/// `(destination, slot)` reference appended to its destination group's
/// bucket. Returns the payload's width (0 for an empty batch).
///
/// # Panics
///
/// Panics if a unicast or multicast destination is not a (live) neighbor
/// of the sender — programs may only talk over live edges; that is the
/// LOCAL model restricted to the session's
/// [`GraphView`](crate::GraphView) — or if a multicast list is not
/// strictly ascending, which would send one edge two messages.
fn expand_into<M: EngineMessage>(
    src: VertexId,
    outbox: Outbox<M>,
    neighbors: &[VertexId],
    env: &StageEnv<'_>,
    y: &mut ShardYield<M>,
) -> usize {
    let (unicast, multicast);
    let (dsts, m) = match outbox {
        Outbox::Silent => return 0,
        Outbox::Broadcast(m) => (neighbors, m),
        Outbox::Unicast(dst, m) => {
            if neighbors.binary_search(&dst).is_err() {
                panic!("node {src} unicast to non-neighbor {dst}")
            }
            unicast = [dst];
            (&unicast[..], m)
        }
        Outbox::Multicast(dsts, m) => {
            assert!(
                dsts.windows(2).all(|w| w[0] < w[1]),
                "node {src} multicast to a list that is not strictly ascending: {dsts:?}"
            );
            if let Some(dst) = dsts.iter().find(|d| neighbors.binary_search(d).is_err()) {
                panic!("node {src} multicast to non-neighbor {dst}")
            }
            multicast = dsts;
            (&multicast[..], m)
        }
    };
    if dsts.is_empty() {
        return 0;
    }
    let width = m.width();
    let slot = y.store.put(src, m);
    for &dst in dsts {
        let dv = env.view.dense_index(dst);
        debug_assert_ne!(dv, usize::MAX, "neighbors are live by construction");
        // Dense indices fit in 32 bits: the mailboxes check it at boot.
        y.buckets[env.group_of(dv)].push((dv as u32, slot));
    }
    width
}

/// The routing epoch's per-group share: rebuild group `g`'s `next` segment
/// with a counting sort over bucket `g` of every arena (in ascending source
/// group order — the determinism contract), then finalize each span — the
/// optional adversarial reorder (see `mailbox::finalize_inbox`). `counts`
/// is the counting scratch of the group's dense range, which starts at
/// `base`.
///
/// Only 8-byte references move: a reference from source group `h` becomes
/// `(h, slot)`, and `stores` (the `next` buffer's, already swapped in) is
/// read for senders only. The arenas are read in place, never written.
///
/// Source groups hold ascending sender ranges and each stages its senders
/// in ascending order, so a span placed from fresh traffic alone is
/// already in delivery order. Re-staged delayed records head their
/// buckets and break that; in a round where any group re-staged
/// (`env.restaged`), every span is stable-sorted by sender, which keeps
/// delayed-before-fresh and duplicate-after-original within each sender.
/// Otherwise the epoch compares nothing and is O(traffic + frontier).
///
/// The sort is **frontier-sparse**: every pass walks only the vertices
/// that actually receive traffic this round, collected into the group's
/// active list as the counting pass runs. Stale spans (non-empty when
/// this buffer was last routed, two flips ago) are reset off the old
/// active list, and the counting scratch is re-zeroed entry by entry, so
/// the whole epoch is O(frontier + messages) — a quiescent round never
/// touches the bulk of the range. The invariants carried between epochs:
/// `counts` is all-zeros, and every span outside the active list is
/// `(0, 0)`.
///
/// # Panics
///
/// Panics if the group receives more than `u32::MAX` references in one
/// round: span starts are 32-bit.
fn route_range<M: EngineMessage>(
    counts: &mut [u32],
    group: &mut RouteGroup,
    g: usize,
    arenas: &[ShardYield<M>],
    stores: &[Store<M>],
    base: usize,
    env: &RouteEnv<'_>,
) {
    let RouteGroup {
        inbox: GroupInbox { seg, spans, active },
        vbits,
    } = group;
    let len = counts.len();
    debug_assert_eq!(spans.len(), len, "one span per vertex of the range");

    // Reset exactly the spans this buffer's previous routing left
    // non-empty — its active list. Every other span of the range is
    // already (0, 0), so this is the O(frontier) twin of the old
    // O(range) `spans.fill((0, 0))`.
    for &dv in active.iter() {
        spans[dv - base] = (0, 0);
    }
    active.clear();

    // Counting pass over every arena's bucket for this group, marking each
    // receiver in the group's two-level bitmap. `counts` is all-zeros on
    // entry (each routing re-zeroes what it touched).
    vbits.ensure(len);
    let mut total = 0;
    for y in arenas {
        let bucket = &y.buckets[g];
        total += bucket.len();
        for &(dv, _) in bucket {
            let i = dv as usize - base;
            counts[i] += 1;
            vbits.set(i);
        }
    }
    if !vbits.any() {
        // A quiet group: nothing to place, and the stale spans are already
        // reset — the whole epoch cost O(previous frontier).
        seg.clear();
        return;
    }
    // Span starts are 32-bit; with the total checked, no per-vertex count
    // or prefix sum below can overflow.
    u32::try_from(total).expect("a group receives at most u32::MAX messages per round");
    // The compute epoch walks the list in order; staging order feeds the
    // delivery contract, so the index must ascend like a full scan would.
    // Draining the bitmap enumerates the receivers ascending in
    // O(frontier + range/4096) — the comparison-free twin of the old
    // push-on-first-sighting + `sort_unstable`.
    vbits.drain(|i| active.push(base + i));

    // Prefix-sum the active counts into spans; the counts become
    // placement cursors.
    let mut start = 0u32;
    for &dv in active.iter() {
        let c = &mut counts[dv - base];
        spans[dv - base] = (start, *c);
        start += *c;
        *c = spans[dv - base].0;
    }

    // Placement pass, same source order as the counting pass: ascending
    // source group, each bucket in staging order. Both passes see the same
    // references, so every slot of the segment is written exactly once.
    seg.clear();
    seg.resize(total, (0, 0));
    for (h, y) in arenas.iter().enumerate() {
        for &(dv, slot) in &y.buckets[g] {
            let cursor = &mut counts[dv as usize - base];
            seg[*cursor as usize] = (h as u32, slot);
            *cursor += 1;
        }
    }

    // Finalize only the active spans — there are no other non-empty ones
    // — and restore the all-zeros counting-scratch invariant as we go.
    for &dv in active.iter() {
        let (start, len) = spans[dv - base];
        counts[dv - base] = 0;
        let span = &mut seg[start as usize..(start + len) as usize];
        if env.restaged {
            span.sort_by_key(|&r| sender(stores, r));
        } else {
            debug_assert!(
                span.windows(2)
                    .all(|w| sender(stores, w[0]) <= sender(stores, w[1])),
                "fresh traffic is placed in sender order"
            );
        }
        finalize_inbox(span, stores, env.view.original(dv), env);
    }
}

/// The typed session layer over an [`EnginePool`]: one session's
/// per-group state, and the two epochs of a round as
/// [`EnginePool::run_groups`] jobs. A session with
/// `groups < pool.workers()` leaves the surplus workers idling at the
/// barriers.
///
/// The group partition itself lives in the [`Mailboxes`] (its `bounds`);
/// every epoch reads it from there.
pub(crate) struct WorkerPool<P: NodeProgram + 'static> {
    pool: EnginePool,
    /// One state per worker *group* (index 0 = the driver's own).
    arenas: Vec<ShardYield<P::Message>>,
}

impl<P: NodeProgram + 'static> WorkerPool<P> {
    /// Wraps `pool` for a session partitioned into one worker group per
    /// dense range between consecutive `bounds` (at most `pool.workers()`
    /// of them), each with its own state (bucketed by group likewise).
    pub(crate) fn new(pool: EnginePool, bounds: &[usize]) -> Self {
        let groups = bounds.len() - 1;
        assert!(
            groups >= 1 && groups <= pool.workers(),
            "worker groups must fit the pool"
        );
        WorkerPool {
            pool,
            arenas: bounds
                .windows(2)
                .map(|b| ShardYield::new(groups, b[0]..b[1]))
                .collect(),
        }
    }

    /// Number of worker groups this session partitioned into (≤ the pool's
    /// worker count).
    pub(crate) fn workers(&self) -> usize {
        self.arenas.len()
    }

    /// Runs one **compute epoch**: group `g` steps its range's slice of
    /// `programs` against its inboxes in `inboxes`, staging traffic into
    /// its own arena — on worker `g` (group 0 on the calling thread), or
    /// every group on the calling thread with `inline`. Returns the lowest
    /// group's captured program panic, if any — the caller resumes it after
    /// the epoch is fully closed, so the *pool* stays droppable (workers
    /// re-park and join cleanly); the session layer is responsible for
    /// refusing further rounds, since the programs themselves are now
    /// partially stepped.
    pub(crate) fn execute(
        &mut self,
        programs: &mut [P],
        inboxes: &Inboxes<P::Message>,
        env: &StageEnv<'_>,
        round: u64,
        inline: bool,
    ) -> Result<(), Panic> {
        let job = |g: usize, programs: &mut [P], arena: &mut ShardYield<P::Message>| {
            run_range(programs, inboxes.group(g), env.bounds[g], round, env, arena);
        };
        self.pool
            .run_groups(inline, programs, env.bounds, &mut self.arenas, &job)
    }

    /// Runs one **routing epoch**: group `g` rebuilds its `next` inboxes
    /// from bucket `g` of every arena, read in place, and finalizes every
    /// span of its range (re-staged-traffic sort / reorder) — on worker
    /// `g`, or every group on the calling thread with `inline`. Every
    /// arena's store must have been adopted into `mail` first.
    pub(crate) fn route(
        &self,
        mail: &mut Mailboxes<P::Message>,
        env: &RouteEnv<'_>,
        inline: bool,
    ) -> Result<(), Panic> {
        let (bounds, counts, groups, stores) = mail.route_parts();
        let arenas = &self.arenas[..];
        let job = |g: usize, counts: &mut [u32], group: &mut RouteGroup| {
            route_range(counts, group, g, arenas, stores, bounds[g], env);
        };
        self.pool.run_groups(inline, counts, bounds, groups, &job)
    }

    /// Wakes standing for `round`, summed over the groups' queues.
    pub(crate) fn due_count(&self, round: u64) -> usize {
        self.arenas.iter().map(|y| y.wakes.due_count(round)).sum()
    }

    /// Registers every node's current activation hint, read after `round`,
    /// in its group's queue (groups split at `bounds`) — for when the host
    /// rewrote program state between rounds.
    pub(crate) fn rescan(&mut self, programs: &[P], bounds: &[usize], round: u64) {
        for (b, y) in bounds.windows(2).zip(&mut self.arenas) {
            for (dv, p) in (b[0]..b[1]).zip(&programs[b[0]..b[1]]) {
                y.wakes.register(dv, wake_round(p.activation(), round));
            }
        }
    }

    /// Visits every group's arena in deterministic group order (driver's
    /// group 0 first) between epochs — the driver sums counters and swaps
    /// the arena's store into the mailboxes here.
    pub(crate) fn collect_yields(&mut self, mut f: impl FnMut(usize, &mut ShardYield<P::Message>)) {
        for (g, arena) in self.arenas.iter_mut().enumerate() {
            f(g, arena);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Inbox;
    use graphs::Graph;

    #[derive(Clone, PartialEq, Debug)]
    struct W(usize);
    impl crate::program::WireCodec for W {
        fn encode(&self, out: &mut Vec<u64>) {
            out.resize(out.len() + self.0, 0);
        }
        fn decode(words: &[u64]) -> Option<Self> {
            words.iter().all(|&w| w == 0).then_some(W(words.len()))
        }
    }
    impl EngineMessage for W {
        fn width(&self) -> usize {
            self.0
        }
    }

    /// An edgeless `n`-vertex graph — its whole view maps ids as the
    /// identity (staging takes neighbor lists as arguments), so expected
    /// tuples read directly — plus one group.
    fn identity_graph(n: usize) -> (Graph, Vec<usize>) {
        (Graph::from_edges(n, []), vec![0, n])
    }

    fn env<'a>(
        faults: &'a FaultPlan,
        view: &'a GraphView<'a>,
        bounds: &'a [usize],
    ) -> StageEnv<'a> {
        StageEnv {
            faults,
            view,
            bounds,
            split: usize::MAX,
            frontier: true,
        }
    }

    /// Bucket `b`'s staged references resolved through the arena's store:
    /// `(destination, sender, payload)`, as a per-edge record would read.
    fn resolved(y: &ShardYield<W>, b: usize) -> Vec<(usize, VertexId, W)> {
        y.buckets[b]
            .iter()
            .map(|&(dv, slot)| {
                let (src, m) = y.store.get(slot);
                (dv as usize, *src, m.clone())
            })
            .collect()
    }

    #[test]
    fn expand_into_appends_and_reports_width() {
        let neighbors = [1usize, 3, 5];
        let faults = FaultPlan::new();
        let (g, bounds) = identity_graph(6);
        let view = GraphView::whole(&g);
        let e = env(&faults, &view, &bounds);
        let mut y: ShardYield<W> = ShardYield::new(1, 0..0);
        stage_outbox(0, Outbox::Broadcast(W(2)), &neighbors, 1, &e, &mut y);
        assert_eq!(y.counts.max_width, 2);
        assert_eq!(
            resolved(&y, 0),
            vec![(1, 0, W(2)), (3, 0, W(2)), (5, 0, W(2))]
        );
        assert_eq!(
            y.buckets[0],
            vec![(1, 0), (3, 0), (5, 0)],
            "one stored payload, one reference per neighbor"
        );
        stage_outbox(0, Outbox::Unicast(3, W(7)), &neighbors, 1, &e, &mut y);
        assert_eq!(y.counts.max_width, 7);
        assert_eq!(y.buckets[0].len(), 4, "appends after existing traffic");
        stage_outbox(0, Outbox::Silent, &neighbors, 1, &e, &mut y);
        stage_outbox(5, Outbox::Broadcast(W(5)), &[], 1, &e, &mut y);
        assert_eq!(y.buckets[0].len(), 4, "isolated broadcast is empty");
        assert_eq!(y.counts.messages, 4);
        assert_eq!(y.store.len(), 2, "an isolated broadcast stores nothing");
    }

    #[test]
    fn staging_partitions_by_destination_group() {
        // Two groups split at dense 3: messages to {1, 2} land in bucket 0,
        // messages to {4, 5} in bucket 1.
        let neighbors = [1usize, 2, 4, 5];
        let faults = FaultPlan::new();
        let (g, _) = identity_graph(6);
        let view = GraphView::whole(&g);
        let bounds = vec![0, 3, 6];
        let e = env(&faults, &view, &bounds);
        let mut y: ShardYield<W> = ShardYield::new(2, 0..0);
        stage_outbox(3, Outbox::Broadcast(W(1)), &neighbors, 1, &e, &mut y);
        assert_eq!(resolved(&y, 0), vec![(1, 3, W(1)), (2, 3, W(1))]);
        assert_eq!(resolved(&y, 1), vec![(4, 3, W(1)), (5, 3, W(1))]);
        assert_eq!(y.counts.messages, 4);
        assert_eq!(y.store.len(), 1, "both buckets share one payload");
    }

    #[test]
    fn stage_outbox_applies_faults_in_place() {
        let neighbors = [1usize, 2];
        let faults = FaultPlan::new().drop_outbox(0, 5).delay_outbox(0, 6, 2);
        let (g, bounds) = identity_graph(3);
        let view = GraphView::whole(&g);
        let e = env(&faults, &view, &bounds);
        let mut y: ShardYield<W> = ShardYield::new(1, 0..0);
        stage_outbox(0, Outbox::Broadcast(W(1)), &neighbors, 4, &e, &mut y);
        assert_eq!((y.counts.messages, y.buckets[0].len()), (2, 2), "delivered");
        stage_outbox(0, Outbox::Broadcast(W(1)), &neighbors, 5, &e, &mut y);
        assert_eq!(y.counts.dropped, 2, "dropped round truncates the arena");
        assert_eq!(y.buckets[0].len(), 2);
        assert_eq!(y.store.len(), 1, "and its payload");
        stage_outbox(0, Outbox::Broadcast(W(3)), &neighbors, 6, &e, &mut y);
        assert_eq!(y.counts.delayed, 2);
        assert_eq!(y.buckets[0].len(), 2, "delayed tail split out");
        assert_eq!(y.store.len(), 1, "delayed payloads leave the store");
        assert_eq!(
            y.delayed,
            BTreeMap::from([(6 + 1 + 2, vec![(1, 0, W(3)), (2, 0, W(3))])]),
            "one owned record per delayed message, kept by due round"
        );
        assert_eq!(y.counts.messages, 6, "all three outboxes were *sent*");
    }

    #[test]
    fn duplication_appends_after_the_batch_and_counts() {
        let neighbors = [1usize, 2];
        let faults = FaultPlan::new().duplicate_edges(3, 1.0);
        let (g, bounds) = identity_graph(3);
        let view = GraphView::whole(&g);
        let e = env(&faults, &view, &bounds);
        let mut y: ShardYield<W> = ShardYield::new(1, 0..0);
        stage_outbox(0, Outbox::Broadcast(W(1)), &neighbors, 1, &e, &mut y);
        assert_eq!(y.counts.messages, 2, "originals only");
        assert_eq!(y.counts.duplicated, 2, "probability 1.0 duplicates both");
        assert_eq!(
            resolved(&y, 0),
            vec![(1, 0, W(1)), (2, 0, W(1)), (1, 0, W(1)), (2, 0, W(1))]
        );
        assert_eq!(y.store.len(), 1, "duplicates reference the same payload");
    }

    #[test]
    fn loss_removes_in_place_and_counts() {
        let neighbors = [1usize, 2];
        let faults = FaultPlan::new().lose_edges(3, 1.0);
        let (g, bounds) = identity_graph(3);
        let view = GraphView::whole(&g);
        let e = env(&faults, &view, &bounds);
        let mut y: ShardYield<W> = ShardYield::new(1, 0..0);
        stage_outbox(0, Outbox::Broadcast(W(1)), &neighbors, 1, &e, &mut y);
        assert_eq!(y.counts.messages, 2, "loss does not change the sent count");
        assert_eq!(y.counts.lost, 2, "probability 1.0 loses both");
        assert!(y.buckets[0].is_empty());
    }

    #[test]
    fn split_staging_charges_frames_per_surviving_reference() {
        // Budget 2: a 5-word payload crosses each edge in 3 frames, a
        // 2-word one whole. Every reference the faults leave standing pays,
        // duplicates included; suppressed ones pay nothing.
        let neighbors = [1usize, 2, 3];
        let (g, bounds) = identity_graph(4);
        let view = GraphView::whole(&g);
        let charge = |faults: FaultPlan, outbox: Outbox<W>| {
            let e = StageEnv {
                split: 2,
                ..env(&faults, &view, &bounds)
            };
            let mut y: ShardYield<W> = ShardYield::new(1, 0..0);
            stage_outbox(0, outbox, &neighbors, 1, &e, &mut y);
            (y.counts.fragments, y.counts.wire_width)
        };
        let wide = || Outbox::Broadcast(W(5));
        assert_eq!(charge(FaultPlan::new(), wide()), (9, 5));
        let dup = FaultPlan::new().duplicate_edges(3, 1.0);
        assert_eq!(charge(dup, wide()), (18, 5), "a duplicate is a delivery");
        let lose = FaultPlan::new().lose_edges(3, 1.0);
        assert_eq!(charge(lose, wide()), (0, 0), "lost traffic is free");
        let drop = FaultPlan::new().drop_outbox(0, 1);
        assert_eq!(charge(drop, wide()), (0, 0), "dropped traffic is free");
        let delay = FaultPlan::new().delay_outbox(0, 1, 1);
        assert_eq!(charge(delay, wide()), (0, 0), "charged when it comes due");
        let multicast = Outbox::Multicast(vec![1, 3], W(5));
        assert_eq!(charge(FaultPlan::new(), multicast), (6, 5), "per reference");
    }

    /// A payload that marks itself when decoded and counts the decodes of
    /// its type, so a test sees which payloads crossed the wire and how
    /// often.
    #[derive(Clone, Debug, PartialEq)]
    struct Marked(usize, bool);
    static MARKED_DECODES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    impl crate::program::WireCodec for Marked {
        fn encode(&self, out: &mut Vec<u64>) {
            out.resize(out.len() + self.0, 0);
        }
        fn decode(words: &[u64]) -> Option<Self> {
            MARKED_DECODES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Some(Marked(words.len(), true))
        }
    }
    impl EngineMessage for Marked {
        fn width(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn split_staging_round_trips_only_the_payloads_it_keeps() {
        // The store shows which payloads crossed the wire: the over-budget
        // one that stays, never one that fits the budget or leaves with a
        // delayed outbox.
        let (g, bounds) = identity_graph(3);
        let view = GraphView::whole(&g);
        let stage = |faults: FaultPlan| {
            let e = StageEnv {
                split: 2,
                ..env(&faults, &view, &bounds)
            };
            let mut y: ShardYield<Marked> = ShardYield::new(1, 0..0);
            let wide = Outbox::Multicast(vec![1, 2], Marked(5, false));
            stage_outbox(0, wide, &[1, 2], 1, &e, &mut y);
            let narrow = Outbox::Multicast(vec![0, 2], Marked(2, false));
            stage_outbox(1, narrow, &[0, 2], 1, &e, &mut y);
            y
        };
        let y = stage(FaultPlan::new());
        let stored: Vec<&Marked> = (0..2).map(|slot| &y.store.get(slot).1).collect();
        assert_eq!(stored, [&Marked(5, true), &Marked(2, false)]);
        let y = stage(FaultPlan::new().delay_outbox(0, 1, 1));
        assert_eq!(
            y.delayed[&3],
            vec![(1, 0, Marked(5, false)), (2, 0, Marked(5, false))],
            "a delayed payload crosses when it comes due"
        );
        assert_eq!(y.store.get(0).1, Marked(2, false));
    }

    #[test]
    fn partial_loss_keeps_survivors_in_emission_order() {
        // Find a (seed, round) where exactly one of the two messages is
        // lost, and check the survivor stays, in place.
        let neighbors = [1usize, 2, 3];
        let (g, bounds) = identity_graph(4);
        let view = GraphView::whole(&g);
        let mut found = false;
        for seed in 0..64u64 {
            let faults = FaultPlan::new().lose_edges(seed, 0.5);
            let e = env(&faults, &view, &bounds);
            let mut y: ShardYield<W> = ShardYield::new(1, 0..0);
            stage_outbox(0, Outbox::Broadcast(W(1)), &neighbors, 1, &e, &mut y);
            if y.counts.lost == 1 {
                let kept: Vec<u32> = y.buckets[0].iter().map(|r| r.0).collect();
                assert_eq!(kept.len(), 2);
                assert!(kept.windows(2).all(|w| w[0] < w[1]), "order preserved");
                found = true;
                break;
            }
        }
        assert!(found, "some seed loses exactly one of three messages");
    }

    #[test]
    fn multicast_stores_one_payload_for_every_listed_neighbor() {
        // Two groups split at dense 3; node 0 multicasts to three of its
        // four neighbors, across the cut.
        let neighbors = [1usize, 2, 4, 5];
        let (g, _) = identity_graph(6);
        let view = GraphView::whole(&g);
        let bounds = vec![0, 3, 6];
        let faults = FaultPlan::new();
        let e = env(&faults, &view, &bounds);
        let mut y: ShardYield<W> = ShardYield::new(2, 0..0);
        stage_outbox(
            0,
            Outbox::Multicast(vec![1, 4, 5], W(3)),
            &neighbors,
            1,
            &e,
            &mut y,
        );
        assert_eq!(y.store.len(), 1, "one payload");
        assert_eq!(y.buckets[0], vec![(1, 0)]);
        assert_eq!(y.buckets[1], vec![(4, 0), (5, 0)], "one reference each");
        assert_eq!((y.counts.messages, y.counts.max_width), (3, 3));
        stage_outbox(
            0,
            Outbox::Multicast(Vec::new(), W(9)),
            &neighbors,
            1,
            &e,
            &mut y,
        );
        assert_eq!(y.store.len(), 1, "an empty list stores nothing");
        assert_eq!((y.references(), y.counts.max_width), (3, 3));

        // Budget 2: the 5-word payload is round-tripped once and charged
        // 3 frames per reference.
        let split = StageEnv { split: 2, ..e };
        let mut y: ShardYield<Marked> = ShardYield::new(2, 0..0);
        let before = MARKED_DECODES.load(std::sync::atomic::Ordering::Relaxed);
        let outbox = Outbox::Multicast(vec![1, 4, 5], Marked(5, false));
        stage_outbox(0, outbox, &neighbors, 1, &split, &mut y);
        let decodes = MARKED_DECODES.load(std::sync::atomic::Ordering::Relaxed) - before;
        assert_eq!(decodes, 1, "one round trip for three receivers");
        assert_eq!(y.store.get(0).1, Marked(5, true));
        assert_eq!((y.counts.fragments, y.counts.wire_width), (9, 5));
    }

    #[test]
    fn multicast_lists_must_be_strictly_ascending_live_neighbors() {
        let (g, bounds) = identity_graph(6);
        let view = GraphView::whole(&g);
        let faults = FaultPlan::new();
        let e = env(&faults, &view, &bounds);
        let panic_of = |dsts: Vec<usize>| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut y: ShardYield<W> = ShardYield::new(1, 0..0);
                stage_outbox(0, Outbox::Multicast(dsts, W(1)), &[1, 2, 4], 1, &e, &mut y);
            }))
            .expect_err("the list is refused");
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        };
        assert!(panic_of(vec![4, 1]).contains("not strictly ascending"));
        assert!(panic_of(vec![1, 1]).contains("not strictly ascending"));
        assert!(panic_of(vec![1, 3]).contains("multicast to non-neighbor 3"));
    }

    #[test]
    fn arena_reset_keeps_capacity() {
        let faults = FaultPlan::new();
        let (g, bounds) = identity_graph(5);
        let view = GraphView::whole(&g);
        let e = env(&faults, &view, &bounds);
        let mut y: ShardYield<W> = ShardYield::new(1, 0..0);
        stage_outbox(0, Outbox::Broadcast(W(1)), &[1, 2, 3, 4], 1, &e, &mut y);
        let cap = y.buckets[0].capacity();
        assert!(cap >= 4);
        y.reset();
        assert_eq!(y.buckets[0].len(), 0);
        assert_eq!(
            y.buckets[0].capacity(),
            cap,
            "reset must not release the arena"
        );
    }

    /// A silent program exchanging `W`s: the routing tests drive a real
    /// `WorkerPool<Quiet>` and fill its arenas directly.
    struct Quiet;
    impl NodeProgram for Quiet {
        type Message = W;
        fn init(&mut self, _: &mut NodeCtx<'_>) -> Outbox<W> {
            Outbox::Silent
        }
        fn on_round(&mut self, _: &mut NodeCtx<'_>, _: Inbox<'_, W>) -> Outbox<W> {
            Outbox::Silent
        }
        fn halted(&self) -> bool {
            false
        }
    }

    /// Stages round `round`'s `traffic[g]` into arena `g` the way the
    /// compute epoch stages it: the arena is reset, its delayed records due
    /// next round are re-staged, and each fresh message is stored once and
    /// referenced from its destination group's bucket.
    fn stage(
        pool: &mut WorkerPool<Quiet>,
        env: &StageEnv<'_>,
        round: u64,
        traffic: &[Vec<Routed<W>>],
    ) {
        for (y, msgs) in pool.arenas.iter_mut().zip(traffic) {
            y.reset();
            restage(round, env, y);
            for (dv, src, m) in msgs.iter().cloned() {
                let slot = y.store.put(src, m);
                y.buckets[env.group_of(dv)].push((dv as u32, slot));
            }
        }
    }

    /// The driver's side of a round after the compute epoch: swaps every
    /// arena's store into `mail`, then runs the routing epoch — pooled, or
    /// on the calling thread with `inline`.
    fn hand_over_and_route(
        pool: &mut WorkerPool<Quiet>,
        mail: &mut Mailboxes<W>,
        env: &RouteEnv<'_>,
        inline: bool,
    ) {
        pool.collect_yields(|g, y| mail.adopt(g, &mut y.store));
        pool.route(mail, env, inline)
            .expect("routing does not panic")
    }

    #[test]
    fn routing_epoch_counting_sort_matches_contract() {
        // Three vertices in group 0 (group 1 is empty); traffic from two
        // arenas staged the way the compute epoch stages it — arena 0
        // holds senders 0 and 1, arena 1 sender 2, each in ascending sender
        // order. Placement alone (arena order × staging order) is then the
        // delivery order.
        let bounds = [0, 3, 3];
        let mut mail: Mailboxes<W> = Mailboxes::new(3, bounds.to_vec());
        let mut pool = WorkerPool::new(EnginePool::new(2), &bounds);
        let traffic = [
            vec![
                (0, 0, W(1)),
                (2, 0, W(2)),
                (0, 0, W(3)),
                (1, 1, W(4)),
                (0, 1, W(5)),
            ],
            vec![(1, 2, W(6)), (0, 2, W(7))],
        ];
        let g = Graph::empty(3);
        let view = GraphView::whole(&g);
        let faults = FaultPlan::new();
        stage(&mut pool, &env(&faults, &view, &bounds), 2, &traffic);
        let env = RouteEnv {
            round: 2,
            reorder: None,
            restaged: false,
            view: &view,
        };
        hand_over_and_route(&mut pool, &mut mail, &env, false);
        assert_eq!(
            pool.arenas
                .iter()
                .map(ShardYield::references)
                .collect::<Vec<_>>(),
            [5, 2],
            "routing reads the buckets in place"
        );
        mail.flip();
        assert_eq!(mail.inbox(0), &[(0, W(1)), (0, W(3)), (1, W(5)), (2, W(7))]);
        assert_eq!(mail.inbox(1), &[(1, W(4)), (2, W(6))]);
        assert_eq!(mail.inbox(2), &[(0, W(2))]);
        // The stores swapped in: no payload moved, sender order read
        // through them.
        assert_eq!(mail.cur().group(0).inbox(0).len(), 4);
        for y in &mut pool.arenas {
            assert_eq!(y.store.len(), 0, "the arenas got empty stores back");
            let capacity = y.buckets[0].capacity();
            y.reset();
            assert_eq!(y.references(), 0, "each arena clears its own buckets");
            assert_eq!(y.buckets[0].capacity(), capacity, "and keeps them");
        }
    }

    #[test]
    fn routing_epoch_matches_the_serial_spec_on_three_groups() {
        // Three groups of unequal size on a three-worker pool, four rounds
        // of traffic with delayed records re-staged by their senders'
        // groups and the adversarial reorder on: the pooled handoff and
        // counting sort must deliver exactly what the comparison-sort spec
        // delivers, round by round. Records due at round 2 are re-staged in
        // round 1, ahead of fresh traffic from the same and lower senders.
        let bounds = [0, 3, 4, 8];
        let g = Graph::empty(8);
        let view = GraphView::whole(&g);
        let faults = FaultPlan::new();
        let stage_env = env(&faults, &view, &bounds);
        let mut mail: Mailboxes<W> = Mailboxes::new(8, bounds.to_vec());
        let mut spec: Mailboxes<W> = Mailboxes::new(8, bounds.to_vec());
        let mut pool = WorkerPool::new(EnginePool::new(3), &bounds);
        let delayed = [
            (2, vec![(5, 6, W(900)), (0, 1, W(901)), (5, 2, W(902))]),
            (3, vec![(3, 7, W(903))]),
        ];
        for (due, records) in &delayed {
            for record in records {
                let y = &mut pool.arenas[group_of(&bounds, record.1)];
                y.delayed.entry(*due).or_default().push(record.clone());
            }
        }
        for round in 1..=4u64 {
            // Senders step in ascending order, so each arena holds its own
            // group's senders ascending; a sender may message one receiver
            // twice.
            let mut traffic: Vec<Vec<Routed<W>>> = vec![Vec::new(); 3];
            let mut flat = Vec::new();
            for src in 0..8usize {
                for k in 0..(src * 7 + round as usize * 3) % 4 {
                    let dst = (src * 5 + k * 3 + round as usize) % 8;
                    let msg = (dst, src, W(100 * round as usize + 10 * src + k));
                    traffic[group_of(&bounds, src)].push(msg.clone());
                    flat.push(msg);
                }
            }
            let due: Vec<Routed<W>> = delayed
                .iter()
                .filter(|(at, _)| *at == round + 1)
                .flat_map(|(_, records)| records.clone())
                .collect();
            stage(&mut pool, &stage_env, round, &traffic);
            let restaged: usize = pool.arenas.iter().map(|y| y.counts.restaged).sum();
            assert_eq!(restaged, due.len(), "round {round}");
            let env = RouteEnv {
                round,
                reorder: Some(17),
                restaged: restaged > 0,
                view: &view,
            };
            hand_over_and_route(&mut pool, &mut mail, &env, false);
            spec.route_serial(due, flat, &env);
            mail.flip();
            spec.flip();
            for dv in 0..8 {
                assert_eq!(mail.inbox(dv), spec.inbox(dv), "round {round}, vertex {dv}");
            }
            for g in 0..3 {
                assert_eq!(
                    mail.cur().group(g).active,
                    spec.cur().group(g).active,
                    "round {round}, group {g}"
                );
            }
        }
        assert!(pool.arenas.iter().all(|y| y.delayed.is_empty()));
    }

    #[test]
    fn frontier_steps_due_and_active_senders_in_ascending_order() {
        // Star 0–1, 0–2. Sender 2 has mail (active list), sender 1 is only
        // due by a wake registered in the group's queue; both broadcast to
        // receiver 0. Staging must
        // walk the merged frontier ascending, so the bucket — and with it
        // receiver 0's inbox — lists sender 1 before sender 2.
        struct Shout;
        impl NodeProgram for Shout {
            type Message = W;
            fn init(&mut self, _: &mut NodeCtx<'_>) -> Outbox<W> {
                Outbox::Silent
            }
            fn on_round(&mut self, ctx: &mut NodeCtx<'_>, _: Inbox<'_, W>) -> Outbox<W> {
                Outbox::Broadcast(W(ctx.id))
            }
            fn halted(&self) -> bool {
                false
            }
        }
        let g = Graph::from_edges(3, [(0, 1), (0, 2)]);
        let view = GraphView::whole(&g);
        let faults = FaultPlan::new();
        let bounds = [0, 3];
        let e = env(&faults, &view, &bounds);
        let mut programs = [Shout, Shout, Shout];
        let mut store = Store::default();
        store.put(0, W(0));
        let stores = [store];
        let seg = [(0, 0)];
        let spans = [(0, 0), (0, 0), (0, 1)];
        let inboxes = GroupInboxes {
            seg: &seg,
            spans: &spans,
            active: &[2],
            stores: &stores,
        };
        let mut y: ShardYield<W> = ShardYield::new(1, 0..3);
        y.wakes.register(1, 1);
        run_range(&mut programs, inboxes, 0, 1, &e, &mut y);
        assert_eq!(y.counts.stepped, 2);
        assert_eq!(resolved(&y, 0), vec![(0, 1, W(1)), (0, 2, W(2))]);
        assert_eq!(y.wakes.due_count(1), 0, "the due wake was consumed");
        assert_eq!(y.wakes.due_count(2), 2, "both stepped nodes re-registered");
    }

    #[test]
    fn inline_epoch_runs_every_group_and_returns_the_lowest_panic() {
        use std::sync::Mutex;
        let pool = EnginePool::new(2);
        let ran = Mutex::new(Vec::new());
        let mut items = [usize::MAX; 7];
        let bounds = [0, 2, 2, 5, 7];
        let job = |g: usize, items: &mut [usize], state: &mut usize| {
            ran.lock().unwrap().push(g);
            items.fill(g);
            *state = g;
            assert!(g != 1 && g != 3, "group {g} panicked");
        };
        let mut states = [usize::MAX; 4];
        let payload = pool
            .run_groups(true, &mut items, &bounds, &mut states, &job)
            .expect_err("groups 1 and 3 panic");
        assert_eq!(
            *ran.lock().unwrap(),
            vec![0, 1, 2, 3],
            "every group, in order"
        );
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("group 1 panicked")
        );
        assert_eq!(items, [0, 0, 2, 2, 2, 3, 3], "each group got its range");
        assert_eq!(states, [0, 1, 2, 3], "and its own state");
        // The epoch closed: the guard is released and the pool still runs
        // pooled epochs.
        ran.lock().unwrap().clear();
        let mut states = [usize::MAX; 2];
        assert!(pool
            .run_groups(false, &mut items, &bounds[..3], &mut states, &job)
            .is_err());
        ran.lock().unwrap().sort_unstable();
        assert_eq!(*ran.lock().unwrap(), vec![0, 1]);
        assert_eq!(states, [0, 1]);
    }

    #[test]
    fn group_of_respects_bounds() {
        let faults = FaultPlan::new();
        let (g, _) = identity_graph(10);
        let view = GraphView::whole(&g);
        let bounds = vec![0, 4, 7, 10];
        let e = env(&faults, &view, &bounds);
        let groups: Vec<usize> = (0..10).map(|dv| e.group_of(dv)).collect();
        assert_eq!(groups, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }
}
