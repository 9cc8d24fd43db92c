//! Worker-pool lifecycle: the persistent executor must survive everything a
//! session can throw at it — reuse across phases and runs, node-program
//! panics mid-round, fault injection — and never change a single observable
//! while doing so. Workers are forced past the hardware parallelism
//! (`EngineConfig::workers`) so these tests exercise real pooled threads
//! even on single-core CI runners. Epochs with little work run on the
//! driver thread instead, so the pooled cases use graphs large enough to
//! wake the pool, and `RoundMetrics::driver_epochs` shows which ran where.

use std::panic::{catch_unwind, AssertUnwindSafe};

use engine::{
    engine_randomized_list_coloring, Activation, EngineConfig, EnginePool, EngineSession,
    FaultPlan, Inbox, NodeCtx, NodeProgram, Outbox, Stop,
};
use graphs::gen;
use local_model::RoundLedger;

/// Forwards the largest id seen so far; never volunteers to halt, so phases
/// are driven by fixed round budgets — the multi-phase reuse workload.
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

/// Panics (on one vertex) at a chosen round, round 0 being `init` — the
/// clean-shutdown workload.
struct PanicAt {
    round: u64,
    vertex: usize,
}

impl PanicAt {
    fn step(&self, ctx: &NodeCtx<'_>) -> Outbox<usize> {
        assert!(
            !(ctx.round == self.round && ctx.id == self.vertex),
            "injected node-program panic at round {} vertex {}",
            self.round,
            self.vertex
        );
        Outbox::Silent
    }
}

impl NodeProgram for PanicAt {
    type Message = usize;

    fn init(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<usize> {
        self.step(ctx)
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, _: Inbox<'_, usize>) -> Outbox<usize> {
        self.step(ctx)
    }

    fn halted(&self) -> bool {
        false
    }
}

/// `Gossip` at 8 shards and `workers` worker groups, on `pool` if given,
/// else on a private pool.
fn gossip_session<'g>(
    g: &'g graphs::Graph,
    workers: usize,
    pool: Option<&EnginePool>,
) -> EngineSession<'g, Gossip> {
    EngineSession::new(g, None, config(workers, pool), |_| Gossip { best: 0 })
}

fn config(workers: usize, pool: Option<&EnginePool>) -> EngineConfig {
    let config = EngineConfig::default().with_shards(8).with_workers(workers);
    match pool {
        Some(pool) => config.with_pool(pool),
        None => config,
    }
}

#[test]
fn session_reuse_across_many_phases_on_one_pool() {
    // One pool, many phases and inspection points: the workers must stay
    // parked-and-ready across the whole session lifetime, and the staged
    // arenas must not leak traffic between phases.
    let g = gen::random_tree(300, 42);
    let mut pooled = gossip_session(&g, 4, None);
    let mut inline = gossip_session(&g, 1, None);
    assert_eq!(pooled.workers(), 4);
    assert_eq!(inline.workers(), 1);
    for phase in ["wave-1", "wave-2", "wave-3", "wave-4"] {
        let rp = pooled.run_phase(phase, Stop::Rounds(5));
        let ri = inline.run_phase(phase, Stop::Rounds(5));
        assert_eq!(rp.rounds, 5);
        assert_eq!(rp.messages, ri.messages, "phase {phase}");
        // Between-phase inspection: driver-side access while workers park.
        let pooled_best: Vec<usize> = pooled.programs().iter().map(|p| p.best).collect();
        let inline_best: Vec<usize> = inline.programs().iter().map(|p| p.best).collect();
        assert_eq!(pooled_best, inline_best, "phase {phase}");
    }
    assert_eq!(pooled.rounds(), 20);
    assert_eq!(
        pooled.metrics().message_counts(),
        inline.metrics().message_counts()
    );
    // The host-side seam still works with a live pool.
    pooled.for_each_program(|v, p| p.best = v);
    pooled.run_phase("wave-5", Stop::Rounds(3));
}

#[test]
fn sequential_sessions_reuse_fresh_pools_cleanly() {
    // Session-per-run (the benches' pattern): every session spawns and joins
    // its own pool; runs must not interfere.
    let g = gen::grid(12, 12);
    let mut fingerprints = Vec::new();
    for _ in 0..3 {
        let mut sess = gossip_session(&g, 3, None);
        sess.run_phase("wave", Stop::Rounds(8));
        let (programs, metrics, _) = sess.into_parts();
        fingerprints.push((
            programs.iter().map(|p| p.best).collect::<Vec<_>>(),
            metrics.message_counts(),
        ));
    }
    assert_eq!(fingerprints[0], fingerprints[1]);
    assert_eq!(fingerprints[0], fingerprints[2]);
}

#[test]
fn idle_sessions_shut_down_without_running_a_round() {
    // Spawned pools must join even if no phase (or nothing at all) ran.
    let g = gen::path(64);
    let sess = EngineSession::new(
        &g,
        None,
        EngineConfig::default().with_shards(8).with_workers(8),
        |_| Gossip { best: 0 },
    );
    drop(sess);
    let mut sess = EngineSession::new(
        &g,
        None,
        EngineConfig::default().with_shards(8).with_workers(8),
        |_| Gossip { best: 0 },
    );
    sess.run_phase("one", Stop::Rounds(1));
    // into_parts is the other shutdown path.
    let (_, metrics, _) = sess.into_parts();
    assert_eq!(metrics.total_rounds(), 1);
}

/// Runs `PanicAt` on `g` (8 shards) at each worker count, on a private
/// pool and on a shared [`EnginePool`] borrowed through `with_pool`: the
/// panic at round 3 on `vertex` must propagate, poison the session and
/// leave the pool droppable and the machine reusable — a shared pool must
/// then run a recovery session exactly as a private pool does. Returns the
/// driver-epoch counts of the two rounds before the panic — the panicking
/// round's compute epoch has the same work (every node steps every round),
/// so they show whether the panic landed in a pooled or a driver-run epoch.
fn panic_propagates(g: &graphs::Graph, vertex: usize) -> Vec<u8> {
    let mut counts = Vec::new();
    for (workers, shared) in [1usize, 2, 8]
        .into_iter()
        .flat_map(|w| [(w, false), (w, true)])
    {
        let pool = shared.then(|| EnginePool::new(workers));
        let mut sess = EngineSession::new(g, None, config(workers, pool.as_ref()), |_| PanicAt {
            round: 3,
            vertex,
        });
        let r = sess.run_phase("warmup", Stop::Rounds(2));
        assert_eq!(r.rounds, 2, "pre-panic rounds run normally");
        let caught = catch_unwind(AssertUnwindSafe(|| {
            sess.run_phase("doomed", Stop::AllHalted);
        }));
        let payload = caught.expect_err("round 3 must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic payload is the assert message");
        assert!(
            msg.contains("injected node-program panic"),
            "workers={workers}: panic payload must survive the pool: {msg}"
        );
        // The aborted round was rolled back, the session poisoned: state is
        // partially stepped, so reuse must refuse loudly, not replay
        // garbage. Inspection still works.
        assert!(sess.poisoned());
        assert_eq!(sess.rounds(), 2, "aborted round must not be counted");
        assert_eq!(
            sess.metrics().total_rounds(),
            2,
            "no metrics record for the aborted round"
        );
        let reuse = catch_unwind(AssertUnwindSafe(|| {
            sess.run_phase("after-poison", Stop::Rounds(1));
        }));
        let poison_msg = reuse.expect_err("poisoned session must refuse to step");
        let named = poison_msg
            .downcast_ref::<&str>()
            .map(|m| m.contains("poisoned"))
            .or_else(|| {
                poison_msg
                    .downcast_ref::<String>()
                    .map(|m| m.contains("poisoned"))
            });
        assert_eq!(
            named,
            Some(true),
            "workers={workers}: reuse must name the poisoning"
        );
        let round_counts: Vec<u8> = sess
            .metrics()
            .per_round()
            .iter()
            .map(|r| r.driver_epochs)
            .collect();
        if counts.is_empty() {
            counts = round_counts;
        } else {
            assert_eq!(round_counts, counts, "workers={workers} shared={shared}");
        }
        // The epoch closed before the unwind resumed: dropping the session
        // (joining a private pool) must not hang or double-panic...
        drop(sess);
        // ...and the machine must be reusable afterwards.
        assert_recovers(g, workers, pool.as_ref());
    }
    counts
}

/// A fresh `Gossip` session on `pool` (or a private one) after a panic runs
/// normally; on a shared pool it must match a private pool's run exactly.
fn assert_recovers(g: &graphs::Graph, workers: usize, pool: Option<&EnginePool>) {
    let mut fresh = gossip_session(g, workers, pool);
    let report = fresh.run_phase("recovery", Stop::Rounds(2));
    assert_eq!(report.rounds, 2, "workers={workers}");
    if pool.is_some() {
        let mut private = gossip_session(g, workers, None);
        private.run_phase("recovery", Stop::Rounds(2));
        let best = |s: &EngineSession<'_, Gossip>| -> Vec<usize> {
            s.programs().iter().map(|p| p.best).collect()
        };
        assert_eq!(best(&fresh), best(&private), "workers={workers}");
        assert_eq!(
            fresh.metrics().message_counts(),
            private.metrics().message_counts(),
            "workers={workers}: the shared pool survives the panic intact"
        );
        assert_eq!(
            fresh.metrics().total_messages(),
            private.metrics().total_messages(),
            "workers={workers}: init traffic included"
        );
    }
}

#[test]
fn node_program_panic_propagates_and_pool_shuts_down_cleanly() {
    // 200 silent nodes: both epochs of every round run on the driver.
    let counts = panic_propagates(&gen::path(200), 137);
    assert_eq!(counts, vec![2, 2]);
}

#[test]
fn node_program_panic_in_a_pooled_epoch_propagates() {
    // 4000 nodes stepping every round: the compute epoch — where the panic
    // is raised — wakes the pool; the silent routing epoch does not.
    let counts = panic_propagates(&gen::path(4000), 3137);
    assert_eq!(counts, vec![1, 1]);
}

#[test]
fn init_panic_propagates_out_of_new() {
    // 4000 nodes: the init compute epoch wakes the pool at workers ≥ 2,
    // and vertex 3999 sits in the last worker group at every worker count.
    let g = gen::path(4000);
    for (workers, shared) in [1usize, 2, 4]
        .into_iter()
        .flat_map(|w| [(w, false), (w, true)])
    {
        let pool = shared.then(|| EnginePool::new(workers));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            EngineSession::new(&g, None, config(workers, pool.as_ref()), |_| PanicAt {
                round: 0,
                vertex: 3999,
            })
        }));
        let Err(payload) = caught else {
            panic!("workers={workers} shared={shared}: init must panic");
        };
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic payload is the assert message");
        assert!(
            msg.contains("injected node-program panic at round 0 vertex 3999"),
            "workers={workers} shared={shared}: {msg}"
        );
        assert_recovers(&g, workers, pool.as_ref());
    }
}

#[test]
fn round_zero_faults_replay_in_pooled_init_epochs() {
    // Every node broadcasts at init, and a round-0 drop, a round-0 delay,
    // per-edge duplication and per-edge loss all hit that exchange. With
    // 3000 live vertices both init epochs have work to wake the pool, so at
    // workers ≥ 2 the faults are applied inside pooled epochs.
    let g = gen::random_regular(3000, 4, 5);
    let faults = FaultPlan::new()
        .drop_outbox(2999, 0)
        .drop_outbox(17, 0)
        .delay_outbox(1500, 0, 2)
        .delay_outbox(2400, 0, 1)
        .duplicate_edges(3, 0.1)
        .lose_edges(4, 0.1);
    let run = |shards: usize, workers: usize| {
        let config = EngineConfig::default()
            .with_shards(shards)
            .with_workers(workers)
            .with_faults(faults.clone());
        let mut sess = EngineSession::new(&g, None, config, |_| Gossip { best: 0 });
        sess.run_phase("gossip", Stop::Rounds(6));
        let (programs, m, _) = sess.into_parts();
        let [init] = m.inits() else {
            panic!("one init entry per session");
        };
        assert_eq!((init.round, init.stepped, init.live), (0, 3000, 3000));
        assert_eq!(&*init.phase, "init");
        let init_counts = (
            init.messages,
            init.dropped,
            init.delayed,
            init.duplicated,
            init.lost,
            init.payloads,
            init.max_width,
            init.driver_epochs,
        );
        let totals = [
            m.total_messages(),
            m.total_dropped(),
            m.total_delayed(),
            m.total_duplicated(),
            m.total_lost(),
            m.total_payloads(),
            m.total_fragments(),
            m.total_driver_epochs(),
            m.max_width(),
        ];
        let best: Vec<usize> = programs.iter().map(|p| p.best).collect();
        (best, m.message_counts(), totals, init_counts)
    };
    let baseline = run(1, 1);
    let init = baseline.3;
    assert_eq!(init.0, 4 * 3000, "every node broadcast at init");
    assert_eq!(init.1, 8, "two dropped broadcasts of degree 4");
    assert_eq!(init.2, 8, "two delayed broadcasts of degree 4");
    assert!(
        init.3 > 0 && init.4 > 0,
        "duplication and loss fire at init"
    );
    assert_eq!(init.7, 0, "both init epochs wake the pool");
    for shards in [1usize, 2, 8] {
        for workers in [1usize, 2, 4] {
            assert_eq!(
                run(shards, workers),
                baseline,
                "shards = {shards}, workers = {workers}"
            );
        }
    }
}

/// Randomized list coloring of a random 4-regular graph on `n` vertices,
/// under drop and delay faults, at 16 shards and each worker count: the
/// colorings, per-round traffic, fault tallies and driver-epoch counts
/// must replay. Returns the worker-1 run's metrics.
fn faults_replay(n: usize) -> engine::EngineMetrics {
    let g = gen::random_regular(n, 4, 9);
    let lists: Vec<Vec<usize>> = g
        .vertices()
        .map(|v| (0..g.degree(v) + 1).collect())
        .collect();
    let mut faults = FaultPlan::new();
    for round in 1..40u64 {
        faults = faults.drop_outbox((7 * round as usize) % n, round);
        if round % 2 == 0 {
            faults = faults.delay_outbox((13 * round as usize) % n, round, 2);
        }
    }
    let run = |workers: usize| {
        let mut ledger = RoundLedger::new();
        let (out, metrics) = engine_randomized_list_coloring(
            &g,
            None,
            &lists,
            9,
            10_000,
            EngineConfig::default()
                .with_shards(16)
                .with_workers(workers)
                .with_faults(faults.clone()),
            &mut ledger,
        );
        assert!(out.complete);
        let driver_epochs: Vec<u8> = metrics
            .per_round()
            .iter()
            .map(|r| r.driver_epochs)
            .collect();
        let key = (
            out.colors,
            metrics.message_counts(),
            metrics.total_dropped(),
            metrics.total_delayed(),
            ledger.total(),
            driver_epochs,
        );
        (key, metrics)
    };
    let (baseline, metrics) = run(1);
    assert!(baseline.2 > 0, "drop faults must actually fire");
    assert!(baseline.3 > 0, "delay faults must actually fire");
    assert!(graphs::is_proper(&g, &baseline.0));
    for workers in [2usize, 4, 16] {
        assert_eq!(run(workers).0, baseline, "workers = {workers}");
    }
    metrics
}

#[test]
fn fault_plans_are_worker_count_invariant_under_the_pool() {
    // Drop/delay faults perturb the run identically whether the executor is
    // inline or an oversubscribed pool: colorings, per-round traffic, and
    // fault tallies all replay.
    faults_replay(400);
}

#[test]
fn fault_plans_replay_when_faults_land_in_pooled_epochs() {
    // 4000 vertices: the early rounds carry enough work to wake the pool
    // in both epochs, so a drop and a delay fault fire inside them.
    let metrics = faults_replay(4000);
    let pooled = |r: &&engine::RoundMetrics| r.driver_epochs == 0;
    assert!(
        metrics
            .per_round()
            .iter()
            .filter(pooled)
            .any(|r| r.dropped > 0),
        "a drop fault fires in a fully pooled round"
    );
    assert!(
        metrics
            .per_round()
            .iter()
            .filter(pooled)
            .any(|r| r.delayed > 0),
        "a delay fault fires in a fully pooled round"
    );
}

#[test]
fn driver_epoch_counts_are_shard_and_worker_invariant() {
    // Randomized coloring's early rounds are dense and its tail is sparse,
    // so one run has both pooled and driver-run epochs. Which is which
    // depends only on the work, never on the executor's shape.
    let g = gen::random_regular(3000, 4, 5);
    let lists: Vec<Vec<usize>> = g
        .vertices()
        .map(|v| (0..g.degree(v) + 1).collect())
        .collect();
    let run = |shards: usize, workers: usize| {
        let (out, metrics) = engine_randomized_list_coloring(
            &g,
            None,
            &lists,
            3,
            10_000,
            EngineConfig::default()
                .with_shards(shards)
                .with_workers(workers),
            &mut RoundLedger::new(),
        );
        assert!(out.complete);
        let per_round: Vec<u8> = metrics
            .per_round()
            .iter()
            .map(|r| r.driver_epochs)
            .collect();
        (
            metrics.total_driver_epochs(),
            metrics.inits()[0].driver_epochs,
            per_round,
        )
    };
    let baseline = run(1, 1);
    let epochs = 2 * (baseline.2.len() + 1);
    assert!(baseline.0 > 0, "some epochs run on the driver");
    assert!(baseline.0 < epochs, "some epochs wake the pool");
    for shards in [1usize, 2, 8] {
        for workers in [1usize, 2, 4] {
            assert_eq!(
                run(shards, workers),
                baseline,
                "shards = {shards}, workers = {workers}"
            );
        }
    }
}

/// Registers a `WakeAt(STALE_WAKE)` alarm after `init`, then supersedes it
/// with `OnMessage` when round 1's traffic steps it: every alarm is stale
/// before its round comes.
struct StaleAlarm {
    heard: bool,
}

const STALE_WAKE: u64 = 10;

impl NodeProgram for StaleAlarm {
    type Message = usize;

    fn init(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<usize> {
        Outbox::Broadcast(ctx.id)
    }

    fn on_round(&mut self, _: &mut NodeCtx<'_>, _: Inbox<'_, usize>) -> Outbox<usize> {
        self.heard = true;
        Outbox::Silent
    }

    fn halted(&self) -> bool {
        false
    }

    fn activation(&self) -> Activation {
        if self.heard {
            Activation::OnMessage
        } else {
            Activation::WakeAt(STALE_WAKE)
        }
    }
}

#[test]
fn superseded_wakes_do_not_wake_the_pool() {
    // 3000 alarms for round 10, all superseded in round 1: round 10 has no
    // work, so both its epochs run on the driver. A wake queue that counted
    // the stale entries would pool its compute epoch (3000 ≥ 1024 units).
    // Pinned: init pools both epochs, round 1 pools its compute epoch
    // (every node hears two neighbors), round 2 its routing epoch (it
    // resets round 1's 3000 spent inboxes), and every other epoch of
    // rounds 1–12 runs on the driver: 1 + 1 + 2·10 = 22.
    let g = gen::cycle(3000);
    for shards in [1usize, 4] {
        let config = EngineConfig::default().with_shards(shards);
        let mut sess = EngineSession::new(&g, None, config, |_| StaleAlarm { heard: false });
        sess.run_phase("alarms", Stop::Rounds(12));
        let metrics = sess.metrics();
        assert_eq!(metrics.per_round()[0].stepped, 3000, "shards = {shards}");
        let alarm_round = &metrics.per_round()[STALE_WAKE as usize - 1];
        assert_eq!(alarm_round.stepped, 0, "shards = {shards}");
        assert_eq!(alarm_round.driver_epochs, 2, "shards = {shards}");
        assert_eq!(metrics.total_driver_epochs(), 22, "shards = {shards}");
    }
}
