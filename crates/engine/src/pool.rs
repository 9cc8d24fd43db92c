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
//!   staging arena ([`ShardYield`]), and reads its inboxes shared. It walks
//!   its dense vertex range, calling `on_round` and staging outbound
//!   traffic in its arena. Each payload is moved once into the arena's
//!   **store**, as a `(sender, payload)` entry — one per `Broadcast`, one
//!   per `Unicast` or `Multi` message — and each point-to-point message
//!   becomes an 8-byte `(destination, slot)` reference. References are
//!   **bucketed by destination group**: one for a vertex owned by group `b`
//!   lands in bucket `b`. No payload is cloned per edge; duplication faults
//!   push a second reference to the same slot, and split mode round-trips
//!   an over-budget payload once, as it is stored.
//! * **Handoff** — the driver tallies fault counters, schedules
//!   fault-delayed batches, and hands every arena's round to the mailboxes
//!   (`Mailboxes::adopt`): arena `g`'s store is swapped into the `next`
//!   buffer, and its bucket `b` into routing group `b`'s inbound slot `g` —
//!   the **bucket transpose**, O(groups²) swaps, nothing copied. The arena
//!   gets back a two-rounds-stale store, which it clears when it next
//!   stages. The driver then re-stores the payloads of delayed batches
//!   that come due into the buffer's delayed store.
//! * **Routing epoch** — group `g` owns its slice of the counting scratch
//!   and its `RouteGroup`: its `next` inboxes, its inbound buckets, its
//!   pending-delayed references, its receiver bitmap and its tally; it
//!   reads the `next` stores shared. It rebuilds its `next` segment with a
//!   **counting sort** over its inbound buckets (in ascending source group
//!   order): count per receiver, prefix-sum into the span table, and place
//!   each reference exactly once, as `(store, slot)`. Once the epoch
//!   closes, the same swaps in reverse hand the drained buckets back to
//!   their arenas. Steady-state rounds perform no per-message allocation —
//!   stores, buckets, segments, spans, and the counting scratch persist
//!   across rounds. The next compute epoch reads every payload through the
//!   same shared `&Inboxes` it reads the spans through.
//!
//! Determinism: for any inbox, references are placed in (source group,
//! staging order) order. Groups own ascending dense ranges and step their
//! senders in ascending dense (= original id) order, so that placement
//! order *is* the delivery order — ascending sender, one sender's messages
//! in send order — with no sort at all. The one exception is fault-delayed
//! traffic, which is placed ahead of the fresh traffic: a group that had
//! delayed batches due stable-sorts its spans by sender (read through the
//! stores), which keeps each delayed batch ahead of fresh traffic from the
//! same sender. Either way
//! the delivered order is a pure function of the traffic, so worker count
//! and shard count remain pure performance knobs.
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

use std::collections::HashMap;
use std::ops::Range;

use graphs::VertexId;

use crate::context::NodeCtx;
use crate::driver::wake_round;
use crate::exec::{EnginePool, Panic};
use crate::faults::{FaultAction, FaultPlan};
use crate::mailbox::{
    finalize_inbox, sender, GroupInbox, GroupInboxes, Inboxes, Mailboxes, RouteGroup, RouteTally,
    Routed, SplitScratch, Staged, Store,
};
use crate::program::{EngineMessage, NodeProgram, Outbox};
use crate::view::GraphView;

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
    /// Dense group boundaries, ascending, `len = groups + 1`.
    pub(crate) bounds: &'a [usize],
    /// Fragmentation budget in words (`usize::MAX` = splitting off): an
    /// over-budget payload is round-tripped through the wire once, when it
    /// is stored.
    pub(crate) split: usize,
    /// Frontier-sparse gating: when set, a node with an empty inbox is
    /// stepped only if its [`Activation`] hint requests the round. Cleared
    /// by [`EngineConfig::with_frontier(false)`] to force full scans.
    pub(crate) frontier: bool,
}

impl StageEnv<'_> {
    /// The worker group owning dense vertex `dv`.
    fn group_of(&self, dv: usize) -> usize {
        self.bounds.partition_point(|&b| b <= dv) - 1
    }

    fn groups(&self) -> usize {
        self.bounds.len() - 1
    }
}

/// Everything the routing epoch needs beyond the arenas and stores: the
/// fragmentation budget, the round being routed (keys the reorder coins),
/// the adversarial reorder rule, and the session's view (the dense →
/// original id map).
pub(crate) struct RouteEnv<'a> {
    /// Fragmentation budget in words (`usize::MAX` = splitting off); with
    /// it on, routing tallies the frames and widths the stores kept.
    pub(crate) split: usize,
    /// The logical round whose traffic is being routed (0 = init).
    pub(crate) round: u64,
    /// Seeded adversarial same-sender-run reorder, if installed.
    pub(crate) reorder: Option<u64>,
    /// The session's view: maps each receiver's dense index to its
    /// original id, which keys the reorder coins.
    pub(crate) view: &'a GraphView<'a>,
}

/// One worker group's per-round contribution: its payload store, a
/// persistent staging arena of references (bucketed by destination group)
/// for outbound traffic, and the round's observed counters. Reused across
/// rounds — [`reset`](ShardYield::reset) clears without releasing capacity.
pub(crate) struct ShardYield<M> {
    /// Outbound references staged this round (surviving faults),
    /// `(destination, slot in store)`, bucketed by destination worker
    /// group. Bucket `b` is lent to routing group `b` for the routing epoch
    /// (`Mailboxes::transpose`) and comes back drained.
    pub(crate) buckets: Vec<Vec<Staged>>,
    /// Every payload the group sent this round, once each. The driver
    /// swaps it into the mailboxes between the epochs
    /// (`Mailboxes::adopt`) and hands back a stale one, cleared here
    /// at the next [`reset`](ShardYield::reset).
    pub(crate) store: Store<M>,
    /// The group's split-mode scratch, for payloads it round-trips as it
    /// stores them.
    split: SplitScratch,
    /// Scratch: each bucket's length when the current outbox began staging.
    starts: Vec<usize>,
    /// Scratch of the loss and duplication faults: the occurrence index of
    /// each message of the batch being decided, and the per-destination
    /// counts a `Multi` batch is indexed with (see `occurrences`).
    occ: Vec<usize>,
    seen: HashMap<usize, usize>,
    /// Fault-delayed batches: `(due round, one node's outbox)`.
    pub(crate) delayed_batches: Vec<(u64, Vec<Routed<M>>)>,
    /// Messages emitted (before faults).
    pub(crate) messages: usize,
    /// Messages discarded by drop faults.
    pub(crate) dropped: usize,
    /// Messages rescheduled by delay faults.
    pub(crate) delayed: usize,
    /// Extra deliveries created by per-edge duplication.
    pub(crate) duplicated: usize,
    /// Messages discarded by seeded per-edge loss.
    pub(crate) lost: usize,
    /// Widest message emitted.
    pub(crate) max_width: usize,
    /// Nodes actually stepped (`on_round` called) this round — the
    /// frontier. Equals the range length when gating is off.
    pub(crate) stepped: usize,
    /// Stepped nodes whose halt vote flipped to "halted" this round. An
    /// unstepped node's vote cannot change (its state is untouched), so
    /// these deltas keep the driver's live halt count exact without an
    /// O(range) census.
    pub(crate) newly_halted: usize,
    /// Stepped nodes whose halt vote flipped back to "active" this round.
    pub(crate) newly_unhalted: usize,
    /// Wake registrations of the stepped nodes, `(dense index, due
    /// round)` with `u64::MAX` = never — each node's post-step
    /// [`Activation`] hint resolved against the current round. Drained by
    /// the driver into its per-group wake queues between epochs. Filled
    /// only when `env.frontier` is set.
    pub(crate) new_wakes: Vec<(usize, u64)>,
}

impl<M> ShardYield<M> {
    /// An arena with one bucket per destination worker group.
    pub(crate) fn with_groups(groups: usize) -> Self {
        ShardYield {
            buckets: (0..groups).map(|_| Vec::new()).collect(),
            store: Store::default(),
            split: SplitScratch::default(),
            starts: vec![0; groups],
            occ: Vec::new(),
            seen: HashMap::new(),
            delayed_batches: Vec::new(),
            messages: 0,
            dropped: 0,
            delayed: 0,
            duplicated: 0,
            lost: 0,
            max_width: 0,
            stepped: 0,
            newly_halted: 0,
            newly_unhalted: 0,
            new_wakes: Vec::new(),
        }
    }

    /// Messages left in the buckets for routing: the sent ones, minus the
    /// dropped, delayed and lost ones, plus the duplicates.
    pub(crate) fn staged(&self) -> usize {
        self.messages + self.duplicated - self.dropped - self.delayed - self.lost
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
        self.delayed_batches.clear();
        self.messages = 0;
        self.dropped = 0;
        self.delayed = 0;
        self.duplicated = 0;
        self.lost = 0;
        self.max_width = 0;
        self.stepped = 0;
        self.newly_halted = 0;
        self.newly_unhalted = 0;
        self.new_wakes.clear();
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
/// (built for free by last round's routing epoch) merged with the
/// driver's `due` wake list (both ascending) are stepped, so quiescent-bulk
/// rounds cost O(frontier) rather than O(range). A node in neither list
/// behaves exactly as if its `on_round` had returned `Silent` without
/// touching state — the [`Activation`](crate::Activation) contract. Both lists are pure
/// functions of shard-invariant state (the routed traffic and the hints),
/// so gated runs replay bit-identically at any shard count; with the flag
/// off, every node of the range is stepped — the historical full scan.
///
/// Either path reports halt-vote *deltas* of the stepped nodes (an
/// unstepped node's vote cannot change, so the driver's running halt
/// count stays exact without an O(range) census); the frontier path also
/// records each stepped node's next wake request in `y.new_wakes`.
pub(crate) fn run_range<P: NodeProgram>(
    programs: &mut [P],
    inboxes: GroupInboxes<'_, P::Message>,
    due: &[usize],
    base: usize,
    round: u64,
    env: &StageEnv<'_>,
    y: &mut ShardYield<P::Message>,
) {
    y.reset();
    debug_assert_eq!(inboxes.len(), programs.len());
    // Steps local vertex `i`; returns its post-step activation hint for
    // the frontier path's wake registration.
    let mut step = |i: usize, y: &mut ShardYield<P::Message>| {
        let p = &mut programs[i];
        let was_halted = p.halted();
        y.stepped += 1;
        let mut ctx = NodeCtx::at(env.view, base + i, round);
        let outbox = p.on_round(&mut ctx, inboxes.inbox(i));
        stage_outbox(ctx.id, outbox, ctx.neighbors, round, env, y);
        match (was_halted, p.halted()) {
            (false, true) => y.newly_halted += 1,
            (true, false) => y.newly_unhalted += 1,
            _ => {}
        }
        p.activation()
    };
    if env.frontier {
        let len = inboxes.len();
        let mut step_and_wake = |i: usize, y: &mut ShardYield<P::Message>| {
            let wake = wake_round(step(i, y), round);
            y.new_wakes.push((base + i, wake));
        };
        debug_assert!(due.windows(2).all(|w| w[0] < w[1]), "due ascends");
        debug_assert!(due.iter().all(|&dv| dv >= base && dv - base < len));
        // Merge the two ascending lists. A due node with traffic is also on
        // the active list (active holds exactly the non-empty inboxes) and
        // is stepped once, from there.
        let mut due = due.iter().copied().peekable();
        for &dv in inboxes.active {
            debug_assert!(dv >= base && dv - base < len);
            while let Some(d) = due.next_if(|&d| d < dv) {
                step_and_wake(d - base, y);
            }
            due.next_if_eq(&dv);
            step_and_wake(dv - base, y);
        }
        for d in due {
            step_and_wake(d - base, y);
        }
    } else {
        for i in 0..inboxes.len() {
            step(i, y);
        }
    }
}

/// Expands one node's outbox into the arena — each payload into the store
/// once, one reference per destination into the buckets — records its
/// width, and applies its fault action: drop truncates the outbox's
/// references and payloads, delay clones each delayed message out into an
/// owned record and then truncates likewise, loss compacts references, and
/// duplication appends a second reference to the same payload.
pub(crate) fn stage_outbox<M: EngineMessage>(
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
    // Only a `Multi` outbox can name one destination twice; for the others
    // every message is its destination's first (occurrence 0).
    let repeats = matches!(outbox, Outbox::Multi(_));
    let width = expand_into(src, outbox, neighbors, env, y);
    let batch_len: usize = y
        .buckets
        .iter_mut()
        .zip(&y.starts)
        .map(|(bucket, &s)| bucket.len() - s)
        .sum();
    y.messages += batch_len;
    y.max_width = y.max_width.max(width);
    match env.faults.action(round, src) {
        FaultAction::Deliver => {
            // Loss first, duplication on the survivors: a lost message is
            // never duplicated. Both decisions are pure functions of the
            // traffic coordinates, so the combined perturbation replays at
            // any shard layout.
            if env.faults.loses_messages() {
                lose_batch(src, round, repeats, env, y);
            }
            if env.faults.duplicates_messages() {
                duplicate_batch(src, round, repeats, env, y);
            }
        }
        FaultAction::Drop => {
            y.dropped += batch_len;
            for (b, bucket) in y.buckets.iter_mut().enumerate() {
                bucket.truncate(y.starts[b]);
            }
            y.store.truncate(stored);
        }
        FaultAction::Delay(by) => {
            // The store is recycled two rounds on, so a delayed message
            // leaves it as an owned copy — the one place a payload is
            // cloned.
            y.delayed += batch_len;
            let mut batch = Vec::with_capacity(batch_len);
            for (b, bucket) in y.buckets.iter_mut().enumerate() {
                for &(dv, slot) in &bucket[y.starts[b]..] {
                    batch.push((dv as usize, src, y.store.get(slot).1.clone()));
                }
                bucket.truncate(y.starts[b]);
            }
            y.store.truncate(stored);
            y.delayed_batches.push((round + 1 + by, batch));
        }
    }
}

/// Fills `occ` with the occurrence index of each message of `batch`: how
/// many earlier messages of the batch go to the same destination. Without
/// `repeats` (a `Broadcast` or `Unicast` batch) every index is 0; a `Multi`
/// batch is counted in one pass through the reusable `seen` map. O(batch)
/// either way — the faults key their coins on these indices.
fn occurrences(
    batch: &[Staged],
    repeats: bool,
    occ: &mut Vec<usize>,
    seen: &mut HashMap<usize, usize>,
) {
    occ.clear();
    if !repeats {
        occ.resize(batch.len(), 0);
        return;
    }
    seen.clear();
    occ.extend(batch.iter().map(|r| {
        let count = seen.entry(r.0 as usize).or_insert(0);
        *count += 1;
        *count - 1
    }));
}

/// Removes each seeded-lost message of the current outbox's batch from its
/// bucket. Occurrence indices are taken over the batch as staged — per
/// destination, in emission order — so the decision is independent of the
/// bucket partition, exactly like duplication.
fn lose_batch<M: EngineMessage>(
    src: VertexId,
    round: u64,
    repeats: bool,
    env: &StageEnv<'_>,
    y: &mut ShardYield<M>,
) {
    for (b, bucket) in y.buckets.iter_mut().enumerate() {
        let start = y.starts[b];
        if start == bucket.len() {
            continue;
        }
        occurrences(&bucket[start..], repeats, &mut y.occ, &mut y.seen);
        // Compact the survivors in place. The write cursor never passes
        // the read position, so message `j` is still unmoved when it is
        // decided.
        let mut kept = start;
        for (j, &occurrence) in y.occ.iter().enumerate() {
            let dv = bucket[start + j].0 as usize;
            if env
                .faults
                .loses(round, src, env.view.original(dv), occurrence)
            {
                y.lost += 1;
            } else {
                bucket.swap(kept, start + j);
                kept += 1;
            }
        }
        bucket.truncate(kept);
    }
}

/// Appends a second reference to each chosen message right after the
/// current outbox's batch in its bucket — the payload itself is not
/// copied. Keyed on `(round, src, original dst, occurrence)`, so the
/// decision — and the delivered order, where each duplicate follows its
/// sender's batch — is independent of the bucket partition.
fn duplicate_batch<M: EngineMessage>(
    src: VertexId,
    round: u64,
    repeats: bool,
    env: &StageEnv<'_>,
    y: &mut ShardYield<M>,
) {
    for (b, bucket) in y.buckets.iter_mut().enumerate() {
        let start = y.starts[b];
        if start == bucket.len() {
            continue;
        }
        occurrences(&bucket[start..], repeats, &mut y.occ, &mut y.seen);
        let mut dups = 0;
        for (j, &occurrence) in y.occ.iter().enumerate() {
            let r = bucket[start + j];
            if env
                .faults
                .duplicates(round, src, env.view.original(r.0 as usize), occurrence)
            {
                bucket.push(r);
                dups += 1;
            }
        }
        y.duplicated += dups;
    }
}

/// Expands an outbox into the arena: each payload is moved into the store
/// once — a broadcast is one entry, whatever the degree; a broadcast to no
/// live neighbor stores nothing — and each point-to-point message becomes
/// a `(destination, slot)` reference appended to its destination group's
/// bucket. Returns the widest message in the batch (0 for an empty batch).
///
/// # Panics
///
/// Panics if a unicast/multi destination is not a (live) neighbor of the
/// sender — programs may only talk over live edges; that is the LOCAL
/// model restricted to the session's [`GraphView`](crate::GraphView).
fn expand_into<M: EngineMessage>(
    src: VertexId,
    outbox: Outbox<M>,
    neighbors: &[VertexId],
    env: &StageEnv<'_>,
    y: &mut ShardYield<M>,
) -> usize {
    let ShardYield {
        buckets,
        store,
        split,
        ..
    } = y;
    let mut push = |dst: VertexId, slot: u32| {
        let dv = env.view.dense_index(dst);
        debug_assert_ne!(dv, usize::MAX, "neighbors are live by construction");
        // Dense indices fit in 32 bits: the mailboxes check it at boot.
        buckets[env.group_of(dv)].push((dv as u32, slot));
    };
    match outbox {
        Outbox::Silent => 0,
        Outbox::Broadcast(m) => {
            if neighbors.is_empty() {
                return 0;
            }
            let width = m.width();
            let slot = store.put(src, m, width, env.split, split);
            for &dst in neighbors {
                push(dst, slot);
            }
            width
        }
        Outbox::Unicast(dst, m) => {
            if neighbors.binary_search(&dst).is_err() {
                panic!("node {src} unicast to non-neighbor {dst}")
            }
            let width = m.width();
            push(dst, store.put(src, m, width, env.split, split));
            width
        }
        Outbox::Multi(msgs) => {
            let mut batch_width = 0;
            for (dst, m) in msgs {
                if neighbors.binary_search(&dst).is_err() {
                    panic!("node {src} sent to non-neighbor {dst}")
                }
                let width = m.width();
                batch_width = batch_width.max(width);
                push(dst, store.put(src, m, width, env.split, split));
            }
            batch_width
        }
    }
}

/// The routing epoch's per-group share: rebuild the group's `next` segment
/// with a counting sort over its pending-delayed references and its
/// inbound buckets (pending first, then ascending source group — the
/// determinism contract), then finalize each span — the split-mode frame
/// tally and the optional adversarial reorder (see
/// `mailbox::finalize_inbox`). `counts` is the counting scratch of the
/// group's dense range, which starts at `base`. Returns the range's
/// [`RouteTally`] (frames delivered, widest delivered message).
///
/// Only 8-byte references move: a reference from source group `g` becomes
/// `(g, slot)`, a pending one `(groups, slot)` — the delayed store — and
/// `stores` (the `next` buffer's, already swapped in) is read for senders
/// and split tallies only.
///
/// Source groups hold ascending sender ranges and each stages its senders
/// in ascending order, so a span placed from the inbound buckets alone is
/// already in delivery order. Delayed traffic is placed first and breaks
/// that; when the pending list was non-empty, every span of the group is
/// stable-sorted by sender, which keeps delayed-before-fresh and
/// duplicate-after-original within each sender. Without due delays the
/// epoch compares nothing and is O(traffic + frontier).
///
/// The sort is **frontier-sparse**: every pass walks only the vertices
/// that actually receive traffic this round, collected into the group's
/// active list as the counting pass runs. Stale spans (non-empty when
/// this buffer was last routed, two flips ago) are reset off the old
/// active list, and the counting scratch is re-zeroed entry by entry, so
/// the whole epoch is O(frontier + messages) — a quiescent round never
/// touches the bulk of the range. The invariants carried between epochs:
/// `counts` is all-zeros, every span outside the active list is `(0, 0)`,
/// and every inbound bucket is empty once routed.
///
/// # Panics
///
/// Panics if the group receives more than `u32::MAX` references in one
/// round: span starts are 32-bit.
fn route_range<M: EngineMessage>(
    counts: &mut [u32],
    group: &mut RouteGroup,
    stores: &[Store<M>],
    base: usize,
    env: &RouteEnv<'_>,
) -> RouteTally {
    let RouteGroup {
        inbox: GroupInbox { seg, spans, active },
        inbound,
        pending,
        vbits,
        ..
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

    // Counting pass: pending-delayed traffic plus every inbound bucket,
    // marking each receiver in the group's two-level bitmap. `counts` is
    // all-zeros on entry (each routing re-zeroes what it touched).
    vbits.ensure(len);
    let mut total = 0;
    for bucket in std::iter::once(&*pending).chain(inbound.iter()) {
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
        return RouteTally::default();
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

    // Placement pass, same source order as the counting pass: pending
    // first (so delayed batches precede fresh same-sender traffic after
    // the stable sender sort), then the inbound buckets in ascending
    // source group order. Both passes see the same references, so every
    // slot of the segment is written exactly once.
    let had_pending = !pending.is_empty();
    seg.clear();
    seg.resize(total, (0, 0));
    let mut place = |dv: u32, r: (u32, u32)| {
        let cursor = &mut counts[dv as usize - base];
        seg[*cursor as usize] = r;
        *cursor += 1;
    };
    let delayed_store = inbound.len() as u32;
    for &(dv, slot) in pending.iter() {
        place(dv, (delayed_store, slot));
    }
    pending.clear();
    for (g, bucket) in inbound.iter_mut().enumerate() {
        for &(dv, slot) in bucket.iter() {
            place(dv, (g as u32, slot));
        }
        bucket.clear();
    }

    // Finalize only the active spans — there are no other non-empty ones
    // — and restore the all-zeros counting-scratch invariant as we go.
    let mut tally = RouteTally::default();
    for &dv in active.iter() {
        let (start, len) = spans[dv - base];
        counts[dv - base] = 0;
        let span = &mut seg[start as usize..(start + len) as usize];
        if had_pending {
            span.sort_by_key(|&r| sender(stores, r));
        } else {
            debug_assert!(
                span.windows(2)
                    .all(|w| sender(stores, w[0]) <= sender(stores, w[1])),
                "fresh traffic is placed in sender order"
            );
        }
        tally.absorb(finalize_inbox(span, stores, env.view.original(dv), env));
    }
    tally
}

/// The typed session layer over an [`EnginePool`]: one session's staging
/// arenas, and the two epochs of a round as [`EnginePool::run_groups`]
/// jobs. A session with `groups < pool.workers()` leaves the surplus
/// workers idling at the barriers.
pub(crate) struct WorkerPool<P: NodeProgram + 'static> {
    pool: EnginePool,
    /// One staging arena per worker *group* (index 0 = the driver's own).
    arenas: Vec<ShardYield<P::Message>>,
}

impl<P: NodeProgram + 'static> WorkerPool<P> {
    /// Wraps `pool` for a session partitioned into `groups` worker groups
    /// (`groups <= pool.workers()`), with one arena per group (bucketed
    /// likewise).
    pub(crate) fn new(pool: EnginePool, groups: usize) -> Self {
        assert!(
            groups >= 1 && groups <= pool.workers(),
            "worker groups must fit the pool"
        );
        WorkerPool {
            pool,
            arenas: (0..groups)
                .map(|_| ShardYield::with_groups(groups))
                .collect(),
        }
    }

    /// Number of worker groups this session partitioned into (≤ the pool's
    /// worker count).
    pub(crate) fn workers(&self) -> usize {
        self.arenas.len()
    }

    /// Runs one **compute epoch**: group `g` steps its `ranges[g]` slice of
    /// `programs` against its inboxes in `inboxes`, staging traffic into
    /// its own arena — on worker `g` (group 0 on the calling thread), or
    /// every group on the calling thread with `inline`. Returns the lowest
    /// group's captured program panic, if any — the caller resumes it after
    /// the epoch is fully closed, so the *pool* stays droppable (workers
    /// re-park and join cleanly); the session layer is responsible for
    /// refusing further rounds, since the programs themselves are now
    /// partially stepped.
    ///
    /// `ranges` must be disjoint ascending sub-ranges of the dense arrays,
    /// one per worker group, matching `env.bounds`; `due` is the driver's
    /// per-group scheduled-wake lists for this round (absolute dense
    /// indices, consulted only when `env.frontier` is set).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute(
        &mut self,
        programs: &mut [P],
        inboxes: &Inboxes<P::Message>,
        due: &[Vec<usize>],
        env: &StageEnv<'_>,
        round: u64,
        ranges: &[Range<usize>],
        inline: bool,
    ) -> Result<(), Panic> {
        assert_eq!(due.len(), self.arenas.len(), "one due list per group");
        let job = |g: usize, programs: &mut [P], arena: &mut ShardYield<P::Message>| {
            let base = ranges[g].start;
            run_range(programs, inboxes.group(g), &due[g], base, round, env, arena);
        };
        self.pool
            .run_groups(inline, programs, ranges, &mut self.arenas, &job)
    }

    /// Runs one **routing epoch**: group `g` rebuilds its `next` inboxes
    /// from its inbound buckets plus its pending-delayed list, and
    /// finalizes every span of `ranges[g]` (delayed-traffic sort / split
    /// tally / reorder) — on worker `g`, or every group on the calling
    /// thread with `inline`. Every arena's round must have been adopted
    /// into `mail` first; `ranges` must match the compute epoch's. Then
    /// hands the drained buckets back to the arenas. Returns the epoch's
    /// [`RouteTally`].
    pub(crate) fn route(
        &mut self,
        mail: &mut Mailboxes<P::Message>,
        ranges: &[Range<usize>],
        env: &RouteEnv<'_>,
        inline: bool,
    ) -> Result<RouteTally, Panic> {
        let (counts, groups, stores) = mail.route_parts();
        let job = |g: usize, counts: &mut [u32], group: &mut RouteGroup| {
            group.tally = route_range(counts, group, stores, ranges[g].start, env);
        };
        self.pool.run_groups(inline, counts, ranges, groups, &job)?;
        let mut total = RouteTally::default();
        for group in groups.iter() {
            total.absorb(group.tally);
        }
        // The same swaps in reverse give each drained bucket, with its
        // capacity, back to its arena: one set of bucket capacity, not a
        // second set cycling through the routing groups.
        for (g, arena) in self.arenas.iter_mut().enumerate() {
            mail.transpose(g, &mut arena.buckets);
        }
        Ok(total)
    }

    /// The driver's own staging arena (group 0), for driver-side staging
    /// outside any epoch — the round-0 init path stages here and then runs
    /// an ordinary routing epoch.
    pub(crate) fn home_arena(&mut self) -> &mut ShardYield<P::Message> {
        &mut self.arenas[0]
    }

    /// Visits every group's arena in deterministic group order (driver's
    /// group 0 first) between epochs — the driver tallies counters,
    /// collects fault-delayed batches, drains wake registrations (the group
    /// index keys the driver's per-group wake queues) and hands the arena's
    /// round to the mailboxes here.
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
        let mut y: ShardYield<W> = ShardYield::with_groups(1);
        stage_outbox(0, Outbox::Broadcast(W(2)), &neighbors, 1, &e, &mut y);
        assert_eq!(y.max_width, 2);
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
        assert_eq!(y.max_width, 7);
        assert_eq!(y.buckets[0].len(), 4, "appends after existing traffic");
        stage_outbox(0, Outbox::Silent, &neighbors, 1, &e, &mut y);
        stage_outbox(5, Outbox::Broadcast(W(5)), &[], 1, &e, &mut y);
        assert_eq!(y.buckets[0].len(), 4, "isolated broadcast is empty");
        assert_eq!(y.messages, 4);
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
        let mut y: ShardYield<W> = ShardYield::with_groups(2);
        stage_outbox(3, Outbox::Broadcast(W(1)), &neighbors, 1, &e, &mut y);
        assert_eq!(resolved(&y, 0), vec![(1, 3, W(1)), (2, 3, W(1))]);
        assert_eq!(resolved(&y, 1), vec![(4, 3, W(1)), (5, 3, W(1))]);
        assert_eq!(y.messages, 4);
        assert_eq!(y.store.len(), 1, "both buckets share one payload");
    }

    #[test]
    fn stage_outbox_applies_faults_in_place() {
        let neighbors = [1usize, 2];
        let faults = FaultPlan::new().drop_outbox(0, 5).delay_outbox(0, 6, 2);
        let (g, bounds) = identity_graph(3);
        let view = GraphView::whole(&g);
        let e = env(&faults, &view, &bounds);
        let mut y: ShardYield<W> = ShardYield::with_groups(1);
        stage_outbox(0, Outbox::Broadcast(W(1)), &neighbors, 4, &e, &mut y);
        assert_eq!((y.messages, y.buckets[0].len()), (2, 2), "delivered");
        stage_outbox(0, Outbox::Broadcast(W(1)), &neighbors, 5, &e, &mut y);
        assert_eq!(y.dropped, 2, "dropped round truncates the arena");
        assert_eq!(y.buckets[0].len(), 2);
        assert_eq!(y.store.len(), 1, "and its payload");
        stage_outbox(0, Outbox::Broadcast(W(3)), &neighbors, 6, &e, &mut y);
        assert_eq!(y.delayed, 2);
        assert_eq!(y.buckets[0].len(), 2, "delayed tail split out");
        assert_eq!(y.store.len(), 1, "delayed payloads leave the store");
        assert_eq!(y.delayed_batches.len(), 1);
        assert_eq!(y.delayed_batches[0].0, 6 + 1 + 2);
        assert_eq!(
            y.delayed_batches[0].1,
            vec![(1, 0, W(3)), (2, 0, W(3))],
            "one owned record per delayed message"
        );
        assert_eq!(y.messages, 6, "all three outboxes were *sent*");
    }

    #[test]
    fn duplication_appends_after_the_batch_and_counts() {
        let neighbors = [1usize, 2];
        let faults = FaultPlan::new().duplicate_edges(3, 1.0);
        let (g, bounds) = identity_graph(3);
        let view = GraphView::whole(&g);
        let e = env(&faults, &view, &bounds);
        let mut y: ShardYield<W> = ShardYield::with_groups(1);
        stage_outbox(0, Outbox::Broadcast(W(1)), &neighbors, 1, &e, &mut y);
        assert_eq!(y.messages, 2, "originals only");
        assert_eq!(y.duplicated, 2, "probability 1.0 duplicates both");
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
        let mut y: ShardYield<W> = ShardYield::with_groups(1);
        stage_outbox(0, Outbox::Broadcast(W(1)), &neighbors, 1, &e, &mut y);
        assert_eq!(y.messages, 2, "loss does not change the sent count");
        assert_eq!(y.lost, 2, "probability 1.0 loses both");
        assert!(y.buckets[0].is_empty());
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
            let mut y: ShardYield<W> = ShardYield::with_groups(1);
            stage_outbox(0, Outbox::Broadcast(W(1)), &neighbors, 1, &e, &mut y);
            if y.lost == 1 {
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
    fn multi_repeats_match_the_prefix_scan_under_loss_and_duplication() {
        // A Multi outbox naming targets 1 and 2 several times. Each fault
        // coin is keyed on the message's occurrence index — how many
        // earlier messages of the batch go to the same target — and the
        // spec computes it the quadratic way, by scanning the prefix.
        let neighbors = [1usize, 2, 3];
        let batch: Vec<(usize, W)> = [1, 2, 1, 3, 1, 2, 1]
            .into_iter()
            .enumerate()
            .map(|(i, dst)| (dst, W(10 + i)))
            .collect();
        let prefix_occurrence =
            |msgs: &[(usize, W)], i: usize| msgs[..i].iter().filter(|m| m.0 == msgs[i].0).count();
        let (g, _) = identity_graph(4);
        let view = GraphView::whole(&g);
        let mut repeats_decided = false;
        for seed in 0..32u64 {
            let faults = FaultPlan::new()
                .lose_edges(seed, 0.3)
                .duplicate_edges(seed + 100, 0.5);
            // Loss first, duplication on the survivors.
            let survivors: Vec<(usize, W)> = (0..batch.len())
                .filter(|&i| !faults.loses(1, 0, batch[i].0, prefix_occurrence(&batch, i)))
                .map(|i| batch[i].clone())
                .collect();
            let dups: Vec<(usize, W)> = (0..survivors.len())
                .filter(|&i| {
                    faults.duplicates(1, 0, survivors[i].0, prefix_occurrence(&survivors, i))
                })
                .map(|i| survivors[i].clone())
                .collect();
            repeats_decided |= survivors.len() < batch.len() && !dups.is_empty();
            // One group, and two groups splitting target 1 from 2 and 3:
            // each bucket holds its survivors, then its duplicates.
            for bounds in [vec![0, 4], vec![0, 2, 4]] {
                let e = env(&faults, &view, &bounds);
                let mut y: ShardYield<W> = ShardYield::with_groups(bounds.len() - 1);
                stage_outbox(0, Outbox::Multi(batch.clone()), &neighbors, 1, &e, &mut y);
                assert_eq!(y.lost, batch.len() - survivors.len(), "seed {seed}");
                assert_eq!(y.duplicated, dups.len(), "seed {seed}");
                for b in 0..bounds.len() - 1 {
                    let mine = |m: &&(usize, W)| e.group_of(m.0) == b;
                    let expect: Vec<(usize, W)> = survivors
                        .iter()
                        .filter(mine)
                        .chain(dups.iter().filter(mine))
                        .cloned()
                        .collect();
                    let got: Vec<(usize, W)> = resolved(&y, b)
                        .into_iter()
                        .map(|(dv, _, m)| (dv, m))
                        .collect();
                    assert_eq!(got, expect, "seed {seed}, bucket {b} of {bounds:?}");
                }
            }
        }
        assert!(repeats_decided, "some seed both loses and duplicates");
    }

    #[test]
    fn arena_reset_keeps_capacity() {
        let faults = FaultPlan::new();
        let (g, bounds) = identity_graph(5);
        let view = GraphView::whole(&g);
        let e = env(&faults, &view, &bounds);
        let mut y: ShardYield<W> = ShardYield::with_groups(1);
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

    /// Stages `traffic[g]` into arena `g` the way the compute epoch stages
    /// it: the arena is reset, each message stored once and referenced from
    /// its destination group's bucket.
    fn stage(pool: &mut WorkerPool<Quiet>, bounds: &[usize], traffic: &[Vec<Routed<W>>]) {
        for (y, msgs) in pool.arenas.iter_mut().zip(traffic) {
            y.reset();
            for (dv, src, m) in msgs.iter().cloned() {
                let slot = y.store.put(src, m, 1, usize::MAX, &mut y.split);
                let b = bounds.partition_point(|&b| b <= dv) - 1;
                y.buckets[b].push((dv as u32, slot));
            }
        }
    }

    /// The driver's side of a round after the compute epoch: hands every
    /// arena's round to `mail` (store swap and bucket transpose), then
    /// runs the routing epoch — pooled, or on the calling thread with
    /// `inline`.
    fn hand_over_and_route(
        pool: &mut WorkerPool<Quiet>,
        mail: &mut Mailboxes<W>,
        bounds: &[usize],
        env: &RouteEnv<'_>,
        inline: bool,
    ) -> RouteTally {
        pool.collect_yields(|g, y| mail.adopt(g, &mut y.store, &mut y.buckets));
        let ranges: Vec<Range<usize>> = bounds.windows(2).map(|b| b[0]..b[1]).collect();
        pool.route(mail, &ranges, env, inline)
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
        let mut pool = WorkerPool::new(EnginePool::new(2), 2);
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
        stage(&mut pool, &bounds, &traffic);
        let g = Graph::empty(3);
        let view = GraphView::whole(&g);
        let env = RouteEnv {
            split: usize::MAX,
            round: 2,
            reorder: None,
            view: &view,
        };
        let tally = hand_over_and_route(&mut pool, &mut mail, &bounds, &env, false);
        assert_eq!(tally.fragments, 0);
        for y in &pool.arenas {
            assert!(
                y.buckets.iter().all(Vec::is_empty),
                "routing drains every bucket and hands it back"
            );
        }
        assert!(
            pool.arenas[0].buckets[0].capacity() >= 5,
            "with its capacity, to the arena it came from"
        );
        mail.flip();
        assert_eq!(mail.inbox(0), &[(0, W(1)), (0, W(3)), (1, W(5)), (2, W(7))]);
        assert_eq!(mail.inbox(1), &[(1, W(4)), (2, W(6))]);
        assert_eq!(mail.inbox(2), &[(0, W(2))]);
        // The stores swapped in: no payload moved, sender order read
        // through them.
        assert_eq!(mail.cur().group(0).inbox(0).len(), 4);
        for y in &pool.arenas {
            assert_eq!(y.store.len(), 0, "the arenas got empty stores back");
        }
    }

    #[test]
    fn delayed_batch_precedes_fresh_same_sender() {
        // Delayed traffic is placed ahead of fresh traffic, so its group
        // sorts by sender. A delay-fault batch from sender 1 due this round
        // must land *ahead of* fresh round traffic from the same sender 1,
        // while a lower fresh sender still sorts ahead of both.
        let bounds = [0, 2];
        let mut mail: Mailboxes<W> = Mailboxes::new(2, bounds.to_vec());
        mail.schedule(5, vec![(0, 1, W(7))]);
        assert_eq!(mail.inject_due(5, usize::MAX), 1);
        let mut pool = WorkerPool::new(EnginePool::new(1), 1);
        stage(&mut pool, &bounds, &[vec![(0, 0, W(6)), (0, 1, W(8))]]);
        let g = Graph::empty(2);
        let view = GraphView::whole(&g);
        let env = RouteEnv {
            split: usize::MAX,
            round: 5,
            reorder: None,
            view: &view,
        };
        hand_over_and_route(&mut pool, &mut mail, &bounds, &env, true);
        mail.flip();
        assert_eq!(mail.inbox(0), &[(0, W(6)), (1, W(7)), (1, W(8))]);
    }

    #[test]
    fn routing_epoch_matches_the_serial_spec_on_three_groups() {
        // Three groups of unequal size on a three-worker pool, four rounds
        // of traffic with delayed batches coming due and the adversarial
        // reorder on: the pooled handoff and counting sort must deliver
        // exactly what the comparison-sort spec delivers, round by round.
        let bounds = [0, 3, 4, 8];
        let g = Graph::empty(8);
        let view = GraphView::whole(&g);
        let group_of = |v: usize| bounds.partition_point(|&b| b <= v) - 1;
        let mut mail: Mailboxes<W> = Mailboxes::new(8, bounds.to_vec());
        let mut spec: Mailboxes<W> = Mailboxes::new(8, bounds.to_vec());
        let mut pool = WorkerPool::new(EnginePool::new(3), 3);
        for m in [&mut mail, &mut spec] {
            m.schedule(2, vec![(5, 6, W(900)), (0, 1, W(901)), (5, 2, W(902))]);
            m.schedule(3, vec![(3, 7, W(903))]);
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
                    traffic[group_of(src)].push(msg.clone());
                    flat.push(msg);
                }
            }
            let env = RouteEnv {
                split: usize::MAX,
                round,
                reorder: Some(17),
                view: &view,
            };
            assert_eq!(
                mail.inject_due(round, usize::MAX),
                spec.inject_due(round, usize::MAX)
            );
            stage(&mut pool, &bounds, &traffic);
            hand_over_and_route(&mut pool, &mut mail, &bounds, &env, false);
            spec.route_serial(flat, &env);
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
        assert!(!mail.has_pending_delays());
    }

    #[test]
    fn frontier_steps_due_and_active_senders_in_ascending_order() {
        // Star 0–1, 0–2. Sender 2 has mail (active list), sender 1 is only
        // due by a wake hint; both broadcast to receiver 0. Staging must
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
        store.put(0, W(0), 0, usize::MAX, &mut SplitScratch::default());
        let stores = [store];
        let seg = [(0, 0)];
        let spans = [(0, 0), (0, 0), (0, 1)];
        let inboxes = GroupInboxes {
            seg: &seg,
            spans: &spans,
            active: &[2],
            stores: &stores,
        };
        let mut y: ShardYield<W> = ShardYield::with_groups(1);
        run_range(&mut programs, inboxes, &[1], 0, 1, &e, &mut y);
        assert_eq!(y.stepped, 2);
        assert_eq!(resolved(&y, 0), vec![(0, 1, W(1)), (0, 2, W(2))]);
    }

    #[test]
    fn inline_epoch_runs_every_group_and_returns_the_lowest_panic() {
        use std::sync::Mutex;
        let pool = EnginePool::new(2);
        let ran = Mutex::new(Vec::new());
        let mut items = [usize::MAX; 7];
        let ranges = [0..2, 2..2, 2..5, 5..7];
        let job = |g: usize, items: &mut [usize], state: &mut usize| {
            ran.lock().unwrap().push(g);
            items.fill(g);
            *state = g;
            assert!(g != 1 && g != 3, "group {g} panicked");
        };
        let mut states = [usize::MAX; 4];
        let payload = pool
            .run_groups(true, &mut items, &ranges, &mut states, &job)
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
            .run_groups(false, &mut items, &ranges[..2], &mut states, &job)
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
