//! Steady-state rounds must not allocate per message.
//!
//! The SoA mailbox layout exists for exactly one reason: a routing epoch at
//! n = 10⁶ cannot afford a heap allocation per delivered message. Inboxes
//! are `(start, len)` spans into one contiguous per-group segment rebuilt
//! by counting sort; staging arenas and segments keep their capacity across
//! rounds; the `MAX_WIDTH` fast path skips the split-mode width scan for
//! one-word messages. The observable consequence: once capacities have
//! warmed up, the number of heap *allocations* per round is independent of
//! how many messages move.
//!
//! This test installs a counting `#[global_allocator]` and compares the
//! allocation count of identical steady-state phases at two sizes two
//! orders of magnitude apart. Per-message allocations would show up ~10⁵
//! times over; the assertion leaves slack only for per-round constants
//! (metrics rows, phase bookkeeping).
//!
//! The same allocator also counts requested bytes, which pins what a
//! session keeps per live vertex when it boots.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use engine::{
    EngineConfig, EngineMessage, EngineSession, NodeCtx, NodeProgram, Outbox, Stop, WireCodec,
};
use graphs::gen;

/// Counts allocations and requested bytes while the gate is up. The
/// steady-state tests read the count (growth doublings are amortized, a
/// per-message `Vec` is not); the boot test reads the bytes, where a
/// `realloc` adds only its growth.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

/// The counters are process-wide, so the tests of this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Every node broadcasts its id every round: 2 messages per vertex per
/// round on a cycle, all on the one-word (`usize`, `MAX_WIDTH = Some(1)`)
/// fast path.
struct Chatter;

impl NodeProgram for Chatter {
    type Message = usize;

    fn init(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<usize> {
        Outbox::Broadcast(ctx.id)
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[(usize, usize)]) -> Outbox<usize> {
        assert_eq!(inbox.len(), 2, "cycle neighbors both spoke");
        Outbox::Broadcast(ctx.id)
    }

    fn halted(&self) -> bool {
        false
    }
}

/// A six-word fixed-size payload: wider than the Split(4) budget, so every
/// delivery runs the real fragmentation path — encode into the routing
/// worker's arena, chop into `(seq, total)` frames, reassemble per edge —
/// while the decode lands on the stack, never the heap.
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
    const MAX_WIDTH: Option<usize> = Some(6);
}

/// Broadcasts a six-word stamp every round: with a Split(4) budget every
/// delivery fragments into two frames, exercising the per-group encode
/// arena and reassembly buffer each round.
struct WideChatter;

impl NodeProgram for WideChatter {
    type Message = WidePing;

    fn init(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<WidePing> {
        Outbox::Broadcast(WidePing([ctx.id as u64; 6]))
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[(usize, WidePing)]) -> Outbox<WidePing> {
        assert_eq!(inbox.len(), 2, "cycle neighbors both spoke");
        for (src, m) in inbox {
            assert_eq!(m.0, [*src as u64; 6], "reassembly must round-trip");
        }
        Outbox::Broadcast(WidePing([ctx.id as u64; 6]))
    }

    fn halted(&self) -> bool {
        false
    }
}

/// Runs `rounds` warm-up rounds (capacity growth happens here, uncounted),
/// then `rounds` steady-state rounds under the allocation counter; returns
/// the steady-state count.
fn steady_state_allocs<P: NodeProgram + 'static>(
    n: usize,
    rounds: u64,
    mk: impl Fn() -> P + Copy,
) -> usize {
    let _turn = serial();
    let g = gen::cycle(n);
    // Split(4) keeps the CONGEST accounting on in both rows. For `Chatter`
    // (usize, `MAX_WIDTH = Some(1)`) the static bound fits the budget, so
    // the width scan is skipped entirely; for `WideChatter` (six words)
    // every delivery takes the full fragmentation path.
    let config = EngineConfig::default().with_shards(1).congest_split(4);
    let mut session = EngineSession::new(&g, config, |_| mk());
    session.run_phase("warmup", Stop::Rounds(rounds));
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    session.run_phase("steady", Stop::Rounds(rounds));
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_rounds_allocate_independently_of_message_count() {
    let rounds = 12;
    let small_n = 64;
    let large_n = 8192;
    let small = steady_state_allocs(small_n, rounds, || Chatter);
    let large = steady_state_allocs(large_n, rounds, || Chatter);
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
    let small = steady_state_allocs(small_n, rounds, || WideChatter);
    let large = steady_state_allocs(large_n, rounds, || WideChatter);
    // Every one of the large run's ~195k extra deliveries encodes, chops,
    // and reassembles a six-word message under the Split(4) budget. The
    // per-group encode arena and reassembly buffer warmed up before
    // counting started, so the steady-state allocation count must stay
    // flat in n.
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

    fn on_round(&mut self, _: &mut NodeCtx<'_>, _: &[(usize, usize)]) -> Outbox<usize> {
        Outbox::Silent
    }

    fn halted(&self) -> bool {
        false
    }
}

#[test]
fn session_boot_keeps_no_per_vertex_contexts_or_reassembly_maps() {
    // Booting a session allocates its view tables, mailbox spans and wake
    // queue per live vertex (about 75 B on this input), plus per-group
    // constants. A per-edge sender-rank table (4 B per directed edge plus
    // 4 B per vertex, 12 B here), a stored context (72 B) or a reassembly
    // map (24 B) per vertex would take it past the bound.
    let _turn = serial();
    let n = 100_000;
    let g = gen::cycle(n);
    let config = EngineConfig::default().with_shards(1).with_workers(1);
    BYTES.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let session = EngineSession::new(&g, config, |_| Quiet);
    COUNTING.store(false, Ordering::SeqCst);
    let per_vertex = BYTES.load(Ordering::SeqCst) as f64 / n as f64;
    drop(session);
    let bound = 84.0;
    assert!(
        per_vertex < bound,
        "session boot requested {per_vertex:.1} B per live vertex (bound {bound})"
    );
}
