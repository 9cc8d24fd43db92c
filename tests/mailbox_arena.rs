//! Steady-state rounds must not allocate per message.
//!
//! The SoA mailbox layout exists for exactly one reason: a routing epoch at
//! n = 10⁶ cannot afford a heap allocation per delivered message. Inboxes
//! are `(start, len)` spans into one contiguous per-group segment rebuilt
//! by counting sort; staging arenas and segments keep their capacity across
//! rounds, and so does the word buffer split mode encodes each over-budget
//! payload into once, as it is stored. The observable consequence: once
//! capacities have warmed up, the number of heap *allocations* per round is
//! independent of how many messages move.
//!
//! This test installs a counting `#[global_allocator]` and compares the
//! allocation count of identical steady-state phases at two sizes two
//! orders of magnitude apart. Per-message allocations would show up ~10⁵
//! times over; the assertion leaves slack only for per-round constants
//! (metrics rows, phase bookkeeping).
//!
//! The same allocator also counts requested bytes, which pins what a
//! session keeps per live vertex when it boots, and it bounds a whole
//! ruling-forest run — the pipeline's hot loop — per delivered message. A message type whose
//! `Clone` is counted pins the other half of the layout: a payload is
//! stored once per broadcast and only ever referenced per edge. Last, it
//! pins the host side's breadth-first searches: a ball or a component
//! search on a reused `graphs::Bfs` costs bytes in proportion to what it
//! visits, not to `n`, and the sequential ruling forest and ball gather
//! make a pinned number of allocations of at least n/8 bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use engine::{
    engine_ruling_forest, EngineConfig, EngineMessage, EngineMetrics, EngineSession, FaultPlan,
    Inbox, NodeCtx, NodeProgram, Outbox, Stop, WireCodec,
};
use graphs::{gen, Bfs, VertexSet};
use local_model::RoundLedger;

/// Counts allocations and requested bytes while the gate is up. The
/// steady-state tests read the count (growth doublings are amortized, a
/// per-message `Vec` is not); the boot test reads the bytes, where a
/// `realloc` adds only its growth.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
/// Allocations (and reallocations) whose resulting block has at least
/// `LARGE_MIN` bytes.
static LARGE: AtomicUsize = AtomicUsize::new(0);
static LARGE_MIN: AtomicUsize = AtomicUsize::new(usize::MAX);

/// The counters are process-wide, so the tests of this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Counts one allocation of `bytes` new bytes whose block is `size` bytes.
fn count(bytes: usize, size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes, Ordering::Relaxed);
        if size >= LARGE_MIN.load(Ordering::Relaxed) {
            LARGE.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()), new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Every node broadcasts its id every round: 2 messages per vertex per
/// round on a cycle, all one word wide.
struct Chatter;

impl NodeProgram for Chatter {
    type Message = usize;

    fn init(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<usize> {
        Outbox::Broadcast(ctx.id)
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, usize>) -> Outbox<usize> {
        assert_eq!(inbox.len(), 2, "cycle neighbors both spoke");
        Outbox::Broadcast(ctx.id)
    }

    fn halted(&self) -> bool {
        false
    }
}

/// A six-word fixed-size payload: wider than the Split(4) budget, so every
/// broadcast is encoded into its group's word buffer and decoded back as it
/// is stored, and every delivery is charged two frames, while the decode
/// lands on the stack, never the heap.
#[derive(Clone, Copy, PartialEq, Debug)]
struct WidePing([u64; 6]);

impl WireCodec for WidePing {
    fn encode(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(&self.0);
    }

    fn decode(words: &[u64]) -> Option<Self> {
        words.try_into().ok().map(WidePing)
    }
}

impl EngineMessage for WidePing {
    fn width(&self) -> usize {
        6
    }
}

/// Broadcasts a six-word stamp every round: with a Split(4) budget every
/// delivery fragments into two frames, exercising the per-group word
/// buffer each round.
struct WideChatter;

impl NodeProgram for WideChatter {
    type Message = WidePing;

    fn init(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<WidePing> {
        Outbox::Broadcast(WidePing([ctx.id as u64; 6]))
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, WidePing>) -> Outbox<WidePing> {
        assert_eq!(inbox.len(), 2, "cycle neighbors both spoke");
        for (src, m) in inbox {
            assert_eq!(m.0, [src as u64; 6], "the codec must round-trip");
        }
        Outbox::Broadcast(WidePing([ctx.id as u64; 6]))
    }

    fn halted(&self) -> bool {
        false
    }
}

/// Runs `rounds` warm-up rounds (capacity growth happens here, uncounted),
/// then `rounds` steady-state rounds under the allocation counter; returns
/// the steady-state count and the session's metrics.
fn steady_state_allocs<P: NodeProgram + 'static>(
    n: usize,
    rounds: u64,
    mk: impl Fn() -> P + Copy,
) -> (usize, EngineMetrics) {
    let _turn = serial();
    let g = gen::cycle(n);
    // Split(4) keeps the CONGEST accounting on in both rows. `Chatter`'s
    // one-word messages fit the budget; `WideChatter`'s six-word ones are
    // round-tripped through the codec and fragment on every delivery.
    let config = EngineConfig::default().with_shards(1).congest_split(4);
    let mut session = EngineSession::new(&g, None, config, |_| mk());
    session.run_phase("warmup", Stop::Rounds(rounds));
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    session.run_phase("steady", Stop::Rounds(rounds));
    COUNTING.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), session.into_parts().1)
}

#[test]
fn steady_state_rounds_allocate_independently_of_message_count() {
    let rounds = 12;
    let small_n = 64;
    let large_n = 8192;
    let (small, _) = steady_state_allocs(small_n, rounds, || Chatter);
    let (large, metrics) = steady_state_allocs(large_n, rounds, || Chatter);
    // One-word messages fit the Split(4) budget: nothing fragments, and
    // every round costs one physical round.
    assert_eq!(metrics.total_fragments(), 0);
    assert_eq!(metrics.total_physical_rounds(), metrics.total_rounds());
    // The large run moves (large_n - small_n) * 2 * rounds ≈ 195k more
    // messages than the small one. Per-message (or even per-vertex)
    // allocation anywhere on the deliver path would blow this bound by
    // orders of magnitude; the slack covers per-round bookkeeping noise.
    let slack = 64;
    assert!(
        large <= small + slack,
        "steady-state rounds must not allocate per message: \
         {small} allocs at n={small_n} vs {large} at n={large_n} \
         (allowed slack {slack})"
    );
}

#[test]
fn split_fragmentation_rounds_allocate_independently_of_message_count() {
    let rounds = 12;
    let small_n = 64;
    let large_n = 8192;
    let (small, _) = steady_state_allocs(small_n, rounds, || WideChatter);
    let (large, metrics) = steady_state_allocs(large_n, rounds, || WideChatter);
    // The run really fragments: six words at a budget of four cross every
    // edge in two frames, init round included.
    assert_eq!(metrics.total_fragments(), 2 * metrics.total_messages());
    assert!(metrics.per_round().iter().all(|r| r.physical_rounds == 2));
    // The large run round-trips ~98k more six-word broadcasts through the
    // codec and charges ~195k more fragmented deliveries under the Split(4)
    // budget. The per-group word buffer warmed up before counting started,
    // so the steady-state allocation count must stay flat in n.
    let slack = 64;
    assert!(
        large <= small + slack,
        "split-path rounds must not allocate per fragmented message: \
         {small} allocs at n={small_n} vs {large} at n={large_n} \
         (allowed slack {slack})"
    );
}

/// Sends nothing at init, so booting it allocates session state only —
/// no staged or routed traffic.
struct Quiet;

impl NodeProgram for Quiet {
    type Message = usize;

    fn init(&mut self, _: &mut NodeCtx<'_>) -> Outbox<usize> {
        Outbox::Silent
    }

    fn on_round(&mut self, _: &mut NodeCtx<'_>, _: Inbox<'_, usize>) -> Outbox<usize> {
        Outbox::Silent
    }

    fn halted(&self) -> bool {
        false
    }
}

/// Bytes requested per vertex while booting a [`Quiet`] session on
/// `cycle(n)` (every vertex live) over `mask` under `config`.
fn boot_bytes_per_vertex(n: usize, mask: Option<&VertexSet>, config: EngineConfig) -> f64 {
    let _turn = serial();
    let g = gen::cycle(n);
    BYTES.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let session = EngineSession::new(&g, mask, config, |_| Quiet);
    COUNTING.store(false, Ordering::SeqCst);
    let per_vertex = BYTES.load(Ordering::SeqCst) as f64 / n as f64;
    drop(session);
    per_vertex
}

#[test]
fn session_boot_keeps_no_per_vertex_contexts_or_reassembly_maps() {
    // Booting a whole-graph session allocates its mailbox spans and
    // counting scratch (32-bit: 2 × 8 B of spans and 4 B of counts) and
    // wake queue per live vertex (about 39 B on this input), plus
    // per-group constants; its view is the identity and stores no id
    // tables. Word-sized spans and counts (20 B more), the two id tables
    // (16 B), a per-edge sender-rank table (4 B per directed edge plus
    // 4 B per vertex, 12 B here), a stored context (72 B) or a
    // reassembly map (24 B) per vertex would take it past the bound.
    let n = 100_000;
    let config = EngineConfig::default().with_shards(1).with_workers(1);
    let per_vertex = boot_bytes_per_vertex(n, None, config);
    let bound = 45.0;
    assert!(
        per_vertex < bound,
        "session boot requested {per_vertex:.1} B per live vertex (bound {bound})"
    );
}

#[test]
fn masked_session_boot_keeps_its_id_tables_and_compacted_rows() {
    // A mask that keeps every vertex boots the same session state as the
    // whole view (about 39 B per live vertex) plus what a masked view
    // stores: the two id tables (8 B each), the compacted CSR (8 B of
    // offsets and 16 B of packed neighbors on a cycle) and its copy of the
    // mask (1 bit). The dense → original table and the packed rows grow
    // by doubling, to 131072 and 262144 entries here (7.5 B more), so the
    // total is about 86 B. A third 8-byte table or a second copy of the offsets would
    // take it past the bound.
    let n = 100_000;
    let full = VertexSet::from_iter_with_universe(n, 0..n);
    let config = EngineConfig::default().with_shards(1).with_workers(1);
    let per_vertex = boot_bytes_per_vertex(n, Some(&full), config);
    let bound = 92.0;
    assert!(
        per_vertex < bound,
        "masked session boot requested {per_vertex:.1} B per live vertex (bound {bound})"
    );
}

/// Clones of [`Stamp`] made anywhere in the process.
static CLONES: AtomicUsize = AtomicUsize::new(0);

/// A one-word payload whose `Clone` is counted: the engine may copy a
/// payload only to move a fault-delayed message out of its store.
#[derive(Debug, PartialEq)]
struct Stamp(usize);

impl Clone for Stamp {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Ordering::Relaxed);
        Stamp(self.0)
    }
}

impl WireCodec for Stamp {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.0 as u64);
    }

    fn decode(words: &[u64]) -> Option<Self> {
        match words {
            [w] => Some(Stamp(*w as usize)),
            _ => None,
        }
    }
}

impl EngineMessage for Stamp {}

/// Broadcasts its id every round and checks each stamp it receives names
/// its sender, reading the payloads in place.
struct Stamper;

impl NodeProgram for Stamper {
    type Message = Stamp;

    fn init(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<Stamp> {
        Outbox::Broadcast(Stamp(ctx.id))
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, Stamp>) -> Outbox<Stamp> {
        for (src, m) in inbox {
            assert_eq!(m.0, src, "a stamp names its sender");
        }
        Outbox::Broadcast(Stamp(ctx.id))
    }

    fn halted(&self) -> bool {
        false
    }
}

/// Runs [`Stamper`] for `rounds` rounds on `cycle(n)` under `faults`, at
/// two shards and two workers (big enough that epochs run pooled);
/// returns the clones made and the metrics.
fn stamped_run(n: usize, rounds: u64, faults: FaultPlan) -> (usize, EngineMetrics) {
    let _turn = serial();
    let g = gen::cycle(n);
    let config = EngineConfig::default()
        .with_shards(2)
        .with_workers(2)
        .with_faults(faults);
    CLONES.store(0, Ordering::SeqCst);
    let mut session = EngineSession::new(&g, None, config, |_| Stamper);
    session.run_phase("stamp", Stop::Rounds(rounds));
    let clones = CLONES.load(Ordering::SeqCst);
    let (_, metrics, _) = session.into_parts();
    (clones, metrics)
}

#[test]
fn broadcasts_store_one_payload_and_clone_only_delayed_messages() {
    let n = 8192;
    let rounds = 6;
    // Every vertex broadcasts at init and in every round.
    let steps = n * (rounds as usize + 1);

    // Fault-free: one stored payload per broadcasting step, one reference
    // per live edge end, and not a single clone.
    let (clones, m) = stamped_run(n, rounds, FaultPlan::new());
    assert_eq!(clones, 0, "fault-free broadcasts must not clone payloads");
    assert_eq!(m.total_payloads(), steps, "one payload per broadcast");
    assert_eq!(m.total_messages(), 2 * steps, "one message per live degree");
    for r in m.per_round() {
        assert_eq!((r.payloads, r.messages), (n, 2 * n), "round {}", r.round);
    }

    // Duplicating every message adds references, not payloads.
    let (clones, m) = stamped_run(n, rounds, FaultPlan::new().duplicate_edges(3, 1.0));
    assert_eq!(clones, 0, "a duplicate is a second reference");
    assert_eq!(m.total_duplicated(), m.total_messages());
    assert_eq!(m.total_payloads(), steps);

    // A delayed outbox leaves its store as one owned copy per message,
    // re-stored once each when it comes due.
    let delayed_nodes: Vec<usize> = (0..n).step_by(97).collect();
    let plan = delayed_nodes
        .iter()
        .fold(FaultPlan::new(), |plan, &v| plan.delay_outbox(v, 2, 1));
    let (clones, m) = stamped_run(n, rounds, plan);
    assert_eq!(m.total_delayed(), 2 * delayed_nodes.len());
    assert_eq!(clones, m.total_delayed(), "one clone per delayed message");
    assert_eq!(
        m.total_payloads(),
        steps - delayed_nodes.len() + m.total_delayed(),
        "delayed outboxes leave their store and are re-stored per message"
    );
}

/// Allocations per delivered message of one whole `engine_ruling_forest`
/// run on `grid(side, side)` for a seeded random half of the vertices, at
/// `shards` shards: session boot, every ruling, claim and prune round, and
/// the forest read-out, divided by the messages the run delivered.
fn ruling_allocs_per_message(side: usize, shards: usize) -> f64 {
    let _turn = serial();
    let g = gen::grid(side, side);
    let subset: Vec<usize> = g
        .vertices()
        .filter(|&v| rand::mix64(7, v as u64) & 1 == 0)
        .collect();
    let config = EngineConfig::default().with_shards(shards).with_workers(2);
    let mut ledger = RoundLedger::new();
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let (forest, metrics) = engine_ruling_forest(&g, None, &subset, 6, config, &mut ledger);
    COUNTING.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert!(!forest.roots.is_empty());
    allocs as f64 / metrics.total_messages() as f64
}

#[test]
fn ruling_rounds_allocate_a_small_fraction_per_message() {
    // A ruling step merges its inbox's token lists into its own sorted
    // list, staging the fresh prefixes in that list's tail, and forwards
    // them in an inline list of up to four prefixes; a claim step picks
    // its claim straight from the inbox. A step allocates only when its
    // own list outgrows its capacity or it forwards five or more prefixes;
    // the rest is session boot and per-round bookkeeping. That measures
    // about 0.06 allocations per delivered message at both shard counts.
    // Collecting each inbox's token slices or claims into a `Vec`,
    // returning the fresh prefixes in a new `Vec` and owning each
    // message's list on the heap cost about 0.8.
    for shards in [1usize, 4] {
        let per_message = ruling_allocs_per_message(64, shards);
        let bound = 0.075;
        assert!(
            per_message < bound,
            "shards {shards}: {per_message:.3} allocations per delivered message (bound {bound})"
        );
    }
}

/// Bytes requested while `f` runs.
fn bytes_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    BYTES.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (BYTES.load(Ordering::SeqCst), out)
}

#[test]
fn bfs_balls_and_seeding_searches_allocate_what_they_visit() {
    // On apollonian(10⁵) a fresh distance or mark vector is 800 kB, which
    // each ball and each seeding search used to fill. On a warm `Bfs`, a
    // radius-2 ball requests its sorted output (8 B per member) plus any
    // growth of the visit order (at most 16 B per member); the seeding
    // search of a small rich component (bounded at ⌊r/2⌋, r = 8, from its
    // smallest member) requests only that growth.
    let _turn = serial();
    let n = 100_000;
    let g = gen::apollonian(n, 7);
    let mut bfs = Bfs::new(n);
    bfs.run(&g, [0], 1, |_| true);
    for center in [n / 2, n - 1, 31_337] {
        let (bytes, ball) = bytes_during(|| bfs.ball(&g, center, 2, None));
        assert!(
            bytes <= 32 * ball.len(),
            "radius-2 ball of {center}: {bytes} B for {} members",
            ball.len()
        );
        // The rich set holds one component, this ball: every member lies
        // within 2 + 2 ≤ ⌊r/2⌋ steps of every other, through the center.
        let rich = VertexSet::from_iter_with_universe(n, ball);
        let rep = rich.iter().next().unwrap();
        let (bytes, reached) =
            bytes_during(|| bfs.run(&g, [rep], 8 / 2, |w| rich.contains(w)).len());
        assert_eq!(reached, rich.len(), "the search covers the component");
        assert!(
            bytes <= 32 * reached,
            "seeding search from {rep}: {bytes} B for {reached} members"
        );
    }
}

/// Allocations of at least `min` bytes while `f` runs.
fn large_allocs_during<T>(min: usize, f: impl FnOnce() -> T) -> (usize, T) {
    LARGE.store(0, Ordering::SeqCst);
    LARGE_MIN.store(min, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    LARGE_MIN.store(usize::MAX, Ordering::SeqCst);
    (LARGE.load(Ordering::SeqCst), out)
}

#[test]
fn sequential_ruling_and_gather_keep_no_per_round_tables() {
    // The sequential ruling set and ball gather search with one reused
    // `Bfs` instead of flooding over n-length tables of per-vertex lists.
    // On `grid(200, 200)` each case's allocations of at least n/8 bytes
    // are pinned, so a per-round or per-level n-length table shows up: a
    // whole ruling forest (random half, α = 6) makes 34, mostly growth of
    // the `Bfs` visit order and the claiming BFS's frontier lists plus the
    // forest's own arrays; 16 balls of radius 3 make 2, the `Bfs` arrays.
    let _turn = serial();
    let g = gen::grid(200, 200);
    let n = g.n();
    let subset: Vec<usize> = g
        .vertices()
        .filter(|&v| rand::mix64(7, v as u64) & 1 == 0)
        .collect();
    let mut ledger = RoundLedger::new();
    let (large, forest) = large_allocs_during(n / 8, || {
        local_model::ruling_forest(&g, None, &subset, 6, &mut ledger)
    });
    assert!(!forest.roots.is_empty());
    assert_eq!(large, 34, "allocations of ≥ n/8 B, ruling forest");

    // Interior centers, rows 10, 21, …, 175 of column 100.
    let centers: Vec<usize> = (0..16).map(|i| (10 + 11 * i) * 200 + 100).collect();
    let (large, balls) = large_allocs_during(n / 8, || {
        local_model::gather_balls(&g, None, &centers, 3, &mut ledger)
    });
    assert!(balls.iter().all(|b| b.len() == 25));
    assert_eq!(large, 2, "allocations of ≥ n/8 B, ball gather");
}
