//! Pool sharing must actually share: with one [`EnginePool`] threaded
//! through a pipeline, the process-wide thread-spawn counter
//! ([`engine::worker_threads_spawned`]) stays flat no matter how many
//! sessions — or peeling levels — run on it, and every observable stays
//! bit-identical to private-pool sessions.
//!
//! The counter is process-global, so this file holds a single `#[test]`:
//! its deltas would race against any concurrently running session-spawning
//! test in the same binary.

use distributed_coloring::{list_color_sparse, ListAssignment, SparseColoringConfig};
use engine::{EngineConfig, EnginePool, EngineSession, Inbox, NodeCtx, NodeProgram, Outbox, Stop};
use graphs::gen;

/// Max-id gossip (`usize` messages) — one of the two session types the
/// shared core must serve back to back.
struct Gossip {
    best: usize,
}

impl NodeProgram for Gossip {
    type Message = usize;

    fn init(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<usize> {
        self.best = ctx.id;
        Outbox::Broadcast(ctx.id)
    }

    fn on_round(&mut self, _: &mut NodeCtx<'_>, inbox: Inbox<'_, usize>) -> Outbox<usize> {
        self.best = inbox.iter().map(|(_, &m)| m).fold(self.best, usize::max);
        Outbox::Broadcast(self.best)
    }

    fn halted(&self) -> bool {
        false
    }
}

/// Running-sum echo (`u64` messages) — a *different* message type than
/// [`Gossip`]'s, so reuse exercises the type-erased core, not a lucky
/// monomorphization.
struct WideEcho {
    sum: u64,
}

impl NodeProgram for WideEcho {
    type Message = u64;

    fn init(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<u64> {
        Outbox::Broadcast(ctx.id as u64)
    }

    fn on_round(&mut self, _: &mut NodeCtx<'_>, inbox: Inbox<'_, u64>) -> Outbox<u64> {
        self.sum += inbox.iter().map(|(_, &m)| m).sum::<u64>();
        Outbox::Broadcast(self.sum)
    }

    fn halted(&self) -> bool {
        false
    }
}

fn gossip_run(g: &graphs::Graph, config: EngineConfig) -> (Vec<usize>, u64) {
    let mut sess = EngineSession::new(g, None, config, |_| Gossip { best: 0 });
    sess.run_phase("gossip", Stop::Rounds(6));
    let bests = sess.programs().iter().map(|p| p.best).collect();
    let (_, metrics, _) = sess.into_parts();
    (bests, metrics.total_messages() as u64)
}

fn echo_run(g: &graphs::Graph, config: EngineConfig) -> (Vec<u64>, u64) {
    let mut sess = EngineSession::new(g, None, config, |_| WideEcho { sum: 0 });
    sess.run_phase("echo", Stop::Rounds(5));
    let sums = sess.programs().iter().map(|p| p.sum).collect();
    let (_, metrics, _) = sess.into_parts();
    (sums, metrics.total_messages() as u64)
}

#[test]
fn shared_pool_keeps_thread_spawns_flat_and_results_identical() {
    let g = gen::grid(12, 12);

    // Reference observables from private-pool sessions (these spawn
    // threads; measured deltas start after them).
    let private = EngineConfig::default().with_shards(8).with_workers(3);
    let gossip_ref = gossip_run(&g, private.clone());
    let echo_ref = echo_run(&g, private);

    // One pool, many sessions of alternating program types: the spawn
    // delta is exactly the pool's threads, paid once up front.
    let base = engine::worker_threads_spawned();
    let pool = EnginePool::new(3);
    assert_eq!(engine::worker_threads_spawned() - base, 2);
    assert_eq!(pool.workers(), 3);
    let shared = EngineConfig::default().with_shards(8).with_pool(&pool);
    for _ in 0..4 {
        assert_eq!(gossip_run(&g, shared.clone()), gossip_ref);
        assert_eq!(echo_run(&g, shared.clone()), echo_ref);
    }
    assert_eq!(
        engine::worker_threads_spawned() - base,
        2,
        "sessions sharing a pool must not spawn threads of their own"
    );

    // The full Theorem 1.3 pipeline: every peeling level runs several
    // internal engine sessions, all on one pipeline-owned pool — the spawn
    // delta per run is the pool size, independent of the level count. The
    // worker cap of 4 makes that pool spawn 3 threads on any core count, so
    // a sub-session that rebuilds its config instead of cloning the
    // caller's shows up as extra spawns on every machine.
    let mut level_counts = Vec::new();
    for n in [60usize, 400] {
        let g = gen::apollonian(n, 9);
        let lists = ListAssignment::uniform(g.n(), 6);
        let config = SparseColoringConfig {
            engine_shards: Some(4),
            engine: EngineConfig::default().with_workers(4),
            ..SparseColoringConfig::default()
        };
        let base = engine::worker_threads_spawned();
        let outcome = list_color_sparse(&g, &lists, 6, config).expect("runs");
        let coloring = outcome.coloring().expect("planar ⇒ no K7");
        assert!(graphs::is_proper(&g, &coloring.colors));
        level_counts.push(coloring.stats.alive_sizes.len());
        assert_eq!(
            engine::worker_threads_spawned() - base,
            3,
            "a peeling run must spawn exactly one pool (n = {n})"
        );
    }
    // A caller-provided pool serves the whole run: it spawns nothing.
    let g = gen::apollonian(60, 9);
    let config = SparseColoringConfig {
        engine_shards: Some(4),
        engine: EngineConfig::default().with_pool(&pool),
        ..SparseColoringConfig::default()
    };
    let base = engine::worker_threads_spawned();
    list_color_sparse(&g, &ListAssignment::uniform(g.n(), 6), 6, config).expect("runs");
    assert_eq!(
        engine::worker_threads_spawned() - base,
        0,
        "a run on the caller's pool must not spawn threads"
    );
    assert!(
        level_counts[1] >= level_counts[0],
        "the larger workload should not peel fewer levels: {level_counts:?}"
    );
}
