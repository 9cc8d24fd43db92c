//! The engine driver: shard-parallel, round-synchronized execution on a
//! persistent worker pool, over a (possibly masked) [`GraphView`].
//!
//! One [`EngineSession`] runs one network of [`NodeProgram`]s — one program
//! per **live** vertex of its view. With [`EngineConfig::with_mask`] the
//! session restricts itself to an induced subgraph: masked-out vertices get
//! no program, no mailbox, no RNG stream, and no ledger charge, and edges
//! with a dead endpoint do not exist. Determinism stays keyed on *original*
//! vertex ids (contexts, inboxes, RNG streams, fault plans), so a masked
//! run is bit-identical to the sequential masked primitives at any shard
//! count. Worker threads are spawned **once**, when the session boots, and
//! park on a reusable barrier between epochs (see the `pool` module). Each
//! round has **two worker-parallel phases**; before each, the driver
//! counts the phase's work, and a phase below `DRIVER_EPOCH_WORK` runs on
//! the driver thread alone, group by group, leaving the workers parked:
//!
//! 1. **Compute** — every worker group walks its dense vertex range,
//!    calling `on_round` with the inbox routed last round and staging
//!    outbound traffic in its own arena: each payload once into the
//!    group's store, one 8-byte reference per destination into buckets by
//!    destination group; faults (deliver / drop / delay / duplicate)
//!    apply, and each message's width is recorded, as traffic is staged.
//! 2. **Route** — after the driver tallies counters, swaps every group's
//!    store into the `next` mailbox buffer and (re)schedules fault-delayed
//!    batches, every worker counting-sorts its own bucket of every arena
//!    into its group's contiguous reference segment (spans per vertex, no
//!    per-message allocation). Groups stage their senders in
//!    ascending id order and are drained in group order, so each span
//!    lands in the deterministic sender order as placed; only a group with
//!    fault-delayed traffic due sorts its spans. The buffers then flip.
//!    Routing runs on the workers unless it is small — its wall time is
//!    recorded per round ([`RoundMetrics::route_wall`]), measured from the
//!    moment the compute epoch closes so the driver-side drain, batch
//!    scheduling, and wake bookkeeping between the epochs are charged to
//!    the routing epoch too.
//!
//! Determinism: program state is touched only by its owning worker group,
//! inboxes are delivered in ascending original-sender order, programs that
//! draw randomness seed their own stream with `node_rng(seed, original
//! id)`, and fault plans are keyed by `(round, original node)` — so
//! colorings, round counts, and per-round message counts are bit-identical
//! across shard counts, worker counts, and thread schedules, masked or not.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use graphs::{Graph, VertexId, VertexSet};
use local_model::RoundLedger;

use crate::context::NodeCtx;
use crate::exec::EnginePool;
use crate::faults::FaultPlan;
use crate::mailbox::{Mailboxes, TwoLevelBits};
use crate::metrics::{EngineMetrics, RoundMetrics};
use crate::pool::{stage_outbox, RouteEnv, StageEnv, WorkerPool};
use crate::program::{Activation, NodeProgram};
use crate::shard::ShardPlan;
use crate::view::GraphView;

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

/// Epoch work below which the driver runs every group's share itself, in
/// group order, and leaves the workers parked — see [`on_driver`].
///
/// Calibrated on a 2-core x86-64 box at 2 shards, best of 7 runs: a
/// pooled epoch costs ~15 µs more than the same empty epoch on the driver
/// (31.2 µs against 1.35 µs per empty round of two epochs). A 4-regular
/// broadcast program costs 154 ns per stepped vertex on one thread and
/// 97 ns pooled on two, and routing costs 31.3 ns per message on one
/// thread and 21.0 ns pooled. Pooling pays from ~260 stepped vertices
/// (~1000 staged messages) in a compute epoch and from ~1450 messages in a
/// routing epoch, so one constant of 1024 sits just below the routing
/// break-even and errs towards the driver for compute epochs, where a
/// 1024-vertex epoch loses at most ~45 µs. A colorbench sweep over 256,
/// 1024 and 4096 (medians of three 30 s runs) gave planar6 294, 226 and
/// 248 ms, and ruling-grid 957, 1056 and 1052 ms, inside that workload's
/// run-to-run spread of 735–1184 ms.
const DRIVER_EPOCH_WORK: usize = 1024;

/// Whether an epoch of `work` units runs on the driver thread alone. Work
/// is counted in vertices for a compute epoch (frontier plus due wakes, or
/// every live vertex without gating) and in messages for a routing epoch
/// (staged, due-delayed, and stale spans to reset). Every term is the same
/// at any shard and worker count, so the choice is too, and outputs stay
/// bit-identical by construction: the same per-group job runs either way.
fn on_driver(work: usize) -> bool {
    work < DRIVER_EPOCH_WORK
}

/// The ledger phase the extra physical rounds of
/// [`CongestMode::Split`] are charged to — kept separate from the logical
/// phases so split-mode ledgers reconcile against the sequential twins:
/// `total() − phase_total(SPLIT_PHASE)` equals the unlimited-width charge.
pub const SPLIT_PHASE: &str = "congest-split";

/// How the engine treats message widths against a CONGEST bandwidth budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CongestMode {
    /// No budget: widths are recorded, never enforced. A run is
    /// CONGEST-safe at width `w` exactly when
    /// [`EngineMetrics::max_width`] ≤ `w` (the init round included).
    #[default]
    Unlimited,
    /// Automatic fragmentation: over-budget messages are encoded through
    /// their [`WireCodec`](crate::WireCodec), chopped into frames of at
    /// most the budget's words, delivered over consecutive **virtual
    /// rounds**, and reassembled at the receiver. One logical round costs
    /// `ceil(w / budget)` physical rounds, where `w` is the widest message
    /// *delivered* that round (fault-suppressed traffic never crosses the
    /// wire and costs nothing); the surplus is charged to the
    /// [`SPLIT_PHASE`] ledger phase and reported via
    /// [`RoundMetrics::physical_rounds`] / [`RoundMetrics::fragments`].
    Split(usize),
}

impl CongestMode {
    /// The routing-side fragmentation budget, if splitting is on.
    pub(crate) fn split_width(self) -> Option<usize> {
        match self {
            CongestMode::Split(w) => Some(w),
            CongestMode::Unlimited => None,
        }
    }

    /// Physical rounds one logical round with widest message `max_width`
    /// costs under this mode (always ≥ 1).
    pub(crate) fn physical_rounds(self, max_width: usize) -> u64 {
        match self {
            CongestMode::Split(w) => (max_width.div_ceil(w) as u64).max(1),
            CongestMode::Unlimited => 1,
        }
    }
}

/// Engine tuning knobs. All fields are plain data; cloning a config and
/// rerunning reproduces a run exactly.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Logical shard count; 0 means one shard per available CPU.
    pub shards: usize,
    /// Worker-thread cap: the session spawns `min(workers, shards)` worker
    /// groups (one of which is the driver thread itself); 0 means one per
    /// available CPU. Purely a performance knob — results are bit-identical
    /// for any value.
    pub workers: usize,
    /// Global seed: by convention, seeds the per-node streams
    /// ([`node_rng`](crate::node_rng)) of programs that draw randomness.
    pub seed: u64,
    /// Hard cap on total **logical** rounds across all phases of a session.
    pub max_rounds: u64,
    /// Outbox fault schedule (empty by default).
    pub faults: FaultPlan,
    /// Active-set mask: `Some` restricts the session to the induced
    /// subgraph on these vertices (see [`GraphView`]). `None` runs the
    /// whole graph.
    pub mask: Option<VertexSet>,
    /// CONGEST bandwidth treatment: record widths only, or split
    /// over-budget messages across virtual rounds. See [`CongestMode`].
    pub congest: CongestMode,
    /// Frontier-sparse rounds (default `true`): skip the `on_round` step of
    /// nodes with an empty inbox whose [`Activation`] hint does not request
    /// the round. Results are bit-identical when programs keep the
    /// activation contract; `false` forces the full scan, which exists only
    /// as the oracle of the frontier equivalence tests.
    pub frontier: bool,
    /// Shared worker pool: `Some` makes the session borrow these threads
    /// instead of spawning its own — see [`EnginePool`]. When set, the pool
    /// supersedes `workers` as the worker-group cap.
    pub pool: Option<EnginePool>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 1,
            workers: 0,
            seed: 0,
            max_rounds: 100_000,
            faults: FaultPlan::new(),
            mask: None,
            congest: CongestMode::Unlimited,
            frontier: true,
            pool: None,
        }
    }
}

impl EngineConfig {
    /// Sets the logical shard count (0 = one per available CPU).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the worker-thread cap (0 = one per available CPU). Values above
    /// the hardware parallelism are honored — useful for exercising the
    /// pooled executor on small machines — but never exceed the shard count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the global seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the total round cap.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Installs a fault schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Restricts the session to the induced subgraph on `mask` (cloned into
    /// the config — configs stay plain, cloneable data). The mask's
    /// universe must match the graph the session later runs over.
    #[must_use]
    pub fn with_mask(mut self, mask: &VertexSet) -> Self {
        self.mask = Some(mask.clone());
        self
    }

    /// Enables automatic message splitting ([`CongestMode::Split`]): wider
    /// messages are fragmented into ≤ `words`-word frames delivered over
    /// consecutive virtual rounds and reassembled at the receiver, with the
    /// extra physical rounds charged to the [`SPLIT_PHASE`] ledger phase.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    #[must_use]
    pub fn congest_split(mut self, words: usize) -> Self {
        assert!(words >= 1, "a CONGEST budget must allow at least one word");
        self.congest = CongestMode::Split(words);
        self
    }

    /// Sets the CONGEST mode directly.
    #[must_use]
    pub fn with_congest(mut self, mode: CongestMode) -> Self {
        self.congest = mode;
        self
    }

    /// Enables or disables frontier-sparse rounds (default on). With
    /// `false` every node steps every round regardless of traffic or its
    /// [`Activation`] hint. The full scan exists only as the reference side
    /// of the frontier equivalence tests; no benchmark or suite runs it.
    #[must_use]
    pub fn with_frontier(mut self, frontier: bool) -> Self {
        self.frontier = frontier;
        self
    }

    /// Shares `pool`'s worker threads with this session instead of spawning
    /// a private set — the per-pipeline amortization knob: a peeling loop
    /// spawns one [`EnginePool`] and threads it through every level's
    /// config, so thread creation is a constant cost regardless of level
    /// count. Purely a performance knob — results are bit-identical with or
    /// without sharing.
    #[must_use]
    pub fn with_pool(mut self, pool: &EnginePool) -> Self {
        self.pool = Some(pool.clone());
        self
    }

    /// Worker groups a private-pool session over `n` live vertices runs
    /// with — the size a caller-owned [`EnginePool`] needs to serve every
    /// session of a pipeline at full width.
    pub fn workers_for(&self, n: usize) -> usize {
        self.resolve_workers(self.resolve_shards(n))
    }

    fn resolve_shards(&self, n: usize) -> usize {
        let requested = if self.shards == 0 {
            available_cpus()
        } else {
            self.shards
        };
        requested.clamp(1, n.max(1))
    }

    /// Worker groups for a resolved shard count: explicit caps are honored
    /// (so tests can force real threads on small machines); the automatic
    /// default never oversubscribes the hardware.
    fn resolve_workers(&self, shards: usize) -> usize {
        let cap = if self.workers == 0 {
            available_cpus()
        } else {
            self.workers
        };
        cap.clamp(1, shards)
    }
}

fn available_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// When a phase ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stop {
    /// Run until every node votes to halt (or the session round cap trips).
    AllHalted,
    /// Run exactly this many rounds — the host knows the phase length, as
    /// LOCAL algorithms with offline round bounds do.
    Rounds(u64),
}

/// What one phase did.
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// Phase name (also the ledger phase the rounds were charged to).
    pub phase: String,
    /// Logical rounds executed in this phase.
    pub rounds: u64,
    /// Physical rounds spent on the wire: equals
    /// [`rounds`](PhaseReport::rounds) outside [`CongestMode::Split`];
    /// under splitting each logical round costs `ceil(max_width / budget)`
    /// virtual rounds, and the surplus is charged to the [`SPLIT_PHASE`]
    /// ledger phase.
    pub physical_rounds: u64,
    /// Messages sent in this phase.
    pub messages: usize,
    /// False iff the session round cap interrupted a [`Stop::AllHalted`]
    /// phase before every node halted.
    pub converged: bool,
}

/// A running network: programs, mailboxes, the worker pool, and both
/// books of account, all indexed by the view's dense live-vertex order. Create with [`EngineSession::new`], drive with
/// [`run_phase`](EngineSession::run_phase), inspect or
/// [`into_parts`](EngineSession::into_parts) when done. Dropping the session
/// (or dismantling it) parks, releases, and joins the pool's threads.
pub struct EngineSession<'g, P: NodeProgram + 'static> {
    /// The active set. Every step builds its node's [`NodeCtx`] from it.
    view: GraphView<'g>,
    config: EngineConfig,
    plan: ShardPlan,
    /// One contiguous dense vertex range per worker group, ascending,
    /// aligned to shard boundaries.
    groups: Vec<std::ops::Range<usize>>,
    /// `groups` as flat boundaries (`len = groups + 1`), for the staging
    /// path's destination-group lookup.
    bounds: Vec<usize>,
    pool: WorkerPool<P>,
    programs: Vec<P>,
    mail: Mailboxes<P::Message>,
    metrics: EngineMetrics,
    ledger: RoundLedger,
    round: u64,
    /// Running count of nodes currently voting to halt, maintained from the
    /// per-round halt deltas the workers report (an unstepped node's vote
    /// cannot change), so the [`Stop::AllHalted`] check and the
    /// `active_nodes` metric are O(1) instead of an O(n) census.
    halted: usize,
    /// Per dense vertex: the wake-queue round this node's latest
    /// registration targets (`u64::MAX` = none). The dedup/invalidation
    /// key: a queue entry fires only while it still matches, and is
    /// consumed (set to `MAX`) when it does.
    next_wake: Vec<u64>,
    /// Per worker group: scheduled wakes, bucketed by due round. Fed by the
    /// workers' post-step [`Activation`] hints (via `ShardYield::new_wakes`)
    /// and the boot/`for_each_program` rescans; drained into `due` at the
    /// round's start. Empty when `config.frontier` is off.
    wakes: Vec<BTreeMap<u64, Vec<usize>>>,
    /// Per worker group: this round's validated due list (absolute dense
    /// indices), handed to the compute epoch alongside the inbox active
    /// lists. Ascending, like the active lists, so the compute epoch can
    /// step its frontier in dense order.
    due: Vec<Vec<usize>>,
    /// Per worker group: the bitmap `due` is drained through (indexed
    /// relative to the group's range start). Wake buckets fill in
    /// registration order; draining the bitmap hands out the due list
    /// ascending without a comparison sort.
    due_bits: Vec<TwoLevelBits>,
    /// Recycled wake-bucket vectors, so steady-state queue churn (one
    /// bucket per round for `EveryRound` programs) allocates nothing.
    spare: Vec<Vec<usize>>,
    /// Set when a node-program panic unwound out of a round: program state
    /// is partially stepped and the round was rolled back, so continuing
    /// would silently break the replay contract. Further stepping refuses
    /// loudly; read-only inspection and `into_parts` still work.
    poisoned: bool,
}

impl<'g, P: NodeProgram + 'static> EngineSession<'g, P> {
    /// Boots a network over `graph` (restricted to `config.mask` if set):
    /// builds one program per live vertex (`factory` is called in ascending
    /// original-id order), spawns the session's persistent worker pool,
    /// runs every program's `init`, and routes the initial outboxes into
    /// round 1's inboxes.
    ///
    /// `init` traffic is charged zero rounds (see [`NodeProgram::init`]);
    /// fault rules for round 0 apply to it.
    ///
    /// # Panics
    ///
    /// Panics if `config.mask` has a universe other than `graph.n()`.
    pub fn new(
        graph: &'g Graph,
        config: EngineConfig,
        mut factory: impl FnMut(&NodeCtx<'_>) -> P,
    ) -> Self {
        let view = GraphView::new(graph, config.mask.as_ref());
        let live = view.live_count();
        let plan = ShardPlan::for_view(&view, config.resolve_shards(live));
        // A shared pool fixes the worker-group budget (its thread count);
        // otherwise the session sizes — and below spawns — its own.
        let pool_workers = config
            .pool
            .as_ref()
            .map(|p| p.workers().min(plan.shards()).max(1))
            .unwrap_or_else(|| config.resolve_workers(plan.shards()));
        let groups = plan.group_ranges(pool_workers);
        let bounds: Vec<usize> = groups.iter().map(|r| r.start).chain([live]).collect();
        let mut pool = WorkerPool::new(
            config
                .pool
                .clone()
                .unwrap_or_else(|| EnginePool::new(groups.len())),
            groups.len(),
        );
        // Dense order is ascending original id: the factory's contract.
        let mut programs: Vec<P> = (0..live)
            .map(|dv| factory(&NodeCtx::at(&view, dv, 0)))
            .collect();

        // Round 0: init every node and route the initial knowledge
        // exchange. Staging runs on the driver into the pool's group-0
        // arena (bucketed by destination group, like any round); routing
        // then runs as an ordinary routing epoch, pooled unless small.
        let mut mail = Mailboxes::new(live, bounds.clone());
        let mut metrics = EngineMetrics::default();
        let split = config.congest.split_width().unwrap_or(usize::MAX);
        let (sent, dropped, delayed, duplicated, lost, max_width, staged, stored) = {
            let env = StageEnv {
                faults: &config.faults,
                view: &view,
                bounds: &bounds,
                split,
                frontier: config.frontier,
            };
            let y = pool.home_arena();
            for (dv, p) in programs.iter_mut().enumerate() {
                let mut ctx = NodeCtx::at(&view, dv, 0);
                let outbox = p.init(&mut ctx);
                stage_outbox(ctx.id, outbox, ctx.neighbors, 0, &env, y);
            }
            for (due, batch) in y.delayed_batches.drain(..) {
                mail.schedule(due, batch);
            }
            let stored = y.store.len();
            mail.adopt(0, &mut y.store, &mut y.buckets);
            (
                y.messages,
                y.dropped,
                y.delayed,
                y.duplicated,
                y.lost,
                y.max_width,
                y.staged(),
                stored,
            )
        };
        let restored = mail.inject_due(1, split);
        let init_inline = on_driver(staged + mail.route_backlog());
        let init_tally = match pool.route(
            &mut mail,
            &groups,
            &RouteEnv {
                split,
                round: 0,
                reorder: config.faults.reorder_seed(),
                view: &view,
            },
            init_inline,
        ) {
            Ok(tally) => tally,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        metrics.record_init(
            sent,
            dropped,
            delayed,
            duplicated,
            lost,
            max_width,
            init_tally.fragments,
        );
        metrics.init_payloads = stored + restored;
        metrics.init_driver_epochs = usize::from(init_inline);
        mail.flip();

        // Boot the frontier bookkeeping off the post-init program state:
        // the running halt count, and one wake registration per node (round
        // base 1 — the first round that can fire).
        let halted = programs.iter().filter(|p| NodeProgram::halted(*p)).count();
        let mut next_wake = vec![u64::MAX; live];
        let mut wakes: Vec<BTreeMap<u64, Vec<usize>>> =
            (0..groups.len()).map(|_| BTreeMap::new()).collect();
        if config.frontier {
            for (g, range) in groups.iter().enumerate() {
                for dv in range.clone() {
                    let wake = wake_round(programs[dv].activation(), 0);
                    if wake != u64::MAX {
                        next_wake[dv] = wake;
                        wakes[g].entry(wake).or_default().push(dv);
                    }
                }
            }
        }
        let due = (0..groups.len()).map(|_| Vec::new()).collect();
        let due_bits = (0..groups.len()).map(|_| TwoLevelBits::default()).collect();

        EngineSession {
            view,
            config,
            plan,
            groups,
            bounds,
            pool,
            programs,
            mail,
            metrics,
            ledger: RoundLedger::new(),
            round: 0,
            halted,
            next_wake,
            wakes,
            due,
            due_bits,
            spare: Vec::new(),
            poisoned: false,
        }
    }

    /// Runs rounds under `phase` until `stop` is satisfied, then charges the
    /// executed rounds to the ledger under `phase`.
    ///
    /// # Panics
    ///
    /// Panics immediately on a [`poisoned`](EngineSession::poisoned)
    /// session — program state is partially stepped, so even a zero-round
    /// phase could report converged state that never existed.
    pub fn run_phase(&mut self, phase: &str, stop: Stop) -> PhaseReport {
        assert!(
            !self.poisoned,
            "EngineSession is poisoned: a node program panicked mid-round, \
             so program state is partially stepped and no further phases can \
             run; rebuild the session"
        );
        let start_round = self.round;
        let start_msgs = self.metrics.total_messages();
        let start_physical = self.metrics.total_physical_rounds();
        let label: Arc<str> = Arc::from(phase);
        let mut converged = true;
        match stop {
            Stop::Rounds(k) => {
                for _ in 0..k {
                    if self.round >= self.config.max_rounds {
                        converged = false;
                        break;
                    }
                    self.step_round(&label);
                }
            }
            Stop::AllHalted => loop {
                // O(1): the running halt count is maintained from worker
                // deltas — see the `halted` field.
                if self.halted == self.programs.len() {
                    break;
                }
                if self.round >= self.config.max_rounds {
                    converged = false;
                    break;
                }
                self.step_round(&label);
            },
        }
        let rounds = self.round - start_round;
        self.ledger.charge(phase, rounds);
        let physical_rounds = self.metrics.total_physical_rounds() - start_physical;
        // Split mode stretched some logical rounds into several physical
        // ones; charge the surplus honestly, under its own ledger phase so
        // the logical charges stay reconcilable with the sequential twins.
        if physical_rounds > rounds {
            self.ledger.charge(SPLIT_PHASE, physical_rounds - rounds);
        }
        PhaseReport {
            phase: phase.to_owned(),
            rounds,
            physical_rounds,
            messages: self.metrics.total_messages() - start_msgs,
            converged,
        }
    }

    /// Host-side hook between phases: mutate every live program, in
    /// ascending **original** vertex order (the id passed to `f`). This is
    /// the "synchronizer" seam multi-phase algorithms use to switch modes
    /// without spending communication rounds.
    pub fn for_each_program(&mut self, mut f: impl FnMut(VertexId, &mut P)) {
        for (dv, p) in self.programs.iter_mut().enumerate() {
            f(self.view.original(dv), p);
        }
        // The hook may have rewritten any program's state: recount the halt
        // votes and re-register every activation hint. Queue entries the
        // rescan supersedes are invalidated at fire time by the `next_wake`
        // match, so nothing needs removing here.
        self.halted = self.programs.iter().filter(|p| p.halted()).count();
        if self.config.frontier {
            let round = self.round;
            for (g, range) in self.groups.iter().enumerate() {
                for dv in range.clone() {
                    let wake = wake_round(self.programs[dv].activation(), round);
                    if self.next_wake[dv] == wake {
                        continue;
                    }
                    self.next_wake[dv] = wake;
                    if wake != u64::MAX {
                        self.wakes[g]
                            .entry(wake)
                            .or_insert_with(|| self.spare.pop().unwrap_or_default())
                            .push(dv);
                    }
                }
            }
        }
    }

    /// The graph this session runs over (unrestricted).
    pub fn graph(&self) -> &'g Graph {
        self.view.graph()
    }

    /// The active-set view this session runs over.
    pub fn view(&self) -> &GraphView<'g> {
        &self.view
    }

    /// The live programs, in ascending original-id (dense) order. Use
    /// [`view`](EngineSession::view) to map positions back to original ids;
    /// for unmasked sessions the position *is* the original id, and the
    /// view stores no table for it.
    pub fn programs(&self) -> &[P] {
        &self.programs
    }

    /// Observed per-round metrics so far.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// LOCAL rounds charged so far, phase by phase.
    pub fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }

    /// Total rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Number of logical shards this session runs with.
    pub fn shards(&self) -> usize {
        self.plan.shards()
    }

    /// Number of worker groups executing those shards (spawned threads + the
    /// driver thread itself). At most [`shards`](EngineSession::shards);
    /// capped by the hardware unless [`EngineConfig::workers`] forces more.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// True while fault-delayed batches are still undelivered.
    pub fn has_pending_delays(&self) -> bool {
        self.mail.has_pending_delays()
    }

    /// True once a node-program panic unwound out of a round: program state
    /// is partially stepped, further `run_phase` calls panic immediately,
    /// and only inspection / [`into_parts`](EngineSession::into_parts)
    /// remain meaningful.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Dismantles the session into programs (dense live order), metrics,
    /// and ledger, shutting the worker pool down.
    pub fn into_parts(self) -> (Vec<P>, EngineMetrics, RoundLedger) {
        (self.programs, self.metrics, self.ledger)
    }

    /// Executes one synchronized round: compute epoch ∥ worker groups →
    /// driver bookkeeping (counters, fault-delay scheduling) → routing
    /// epoch ∥ worker groups → buffer flip. Either epoch runs on the driver
    /// alone when its work is below [`DRIVER_EPOCH_WORK`].
    ///
    /// # Panics
    ///
    /// Resumes any panic raised by a node program, after the round's epoch
    /// is fully closed — the pool survives and later shuts down cleanly.
    /// The round is rolled back (metrics, ledger, and mailboxes are
    /// untouched by the aborted round) and the session is **poisoned**:
    /// program state is partially stepped, so any further `run_phase` call
    /// panics immediately instead of silently replaying garbage. Read-only
    /// accessors and [`into_parts`](EngineSession::into_parts) keep working
    /// on a poisoned session.
    fn step_round(&mut self, phase: &Arc<str>) {
        debug_assert!(!self.poisoned, "run_phase must refuse poisoned sessions");
        self.round += 1;
        let round = self.round;
        let started = Instant::now();
        // The round-start activity census, O(1) off the running halt count.
        let live = self.programs.len();
        let active_nodes = live - self.halted;

        // Assemble this round's due wake lists: pop the round's bucket per
        // group and keep only entries whose registration still stands —
        // superseded ones are invalidated here, at fire time, and a firing
        // entry is consumed (its node re-registers after its step). The
        // survivors pass through the group's bitmap, so each list ascends.
        if self.config.frontier {
            for (g, due) in self.due.iter_mut().enumerate() {
                due.clear();
                if let Some(mut bucket) = self.wakes[g].remove(&round) {
                    let range = &self.groups[g];
                    let bits = &mut self.due_bits[g];
                    bits.ensure(range.len());
                    for &dv in &bucket {
                        if self.next_wake[dv] == round {
                            self.next_wake[dv] = u64::MAX;
                            bits.set(dv - range.start);
                        }
                    }
                    bits.drain(|i| due.push(range.start + i));
                    bucket.clear();
                    self.spare.push(bucket);
                }
            }
        }

        let split = self.config.congest.split_width().unwrap_or(usize::MAX);
        let env = StageEnv {
            faults: &self.config.faults,
            view: &self.view,
            bounds: &self.bounds,
            split,
            frontier: self.config.frontier,
        };
        let compute_inline = on_driver(if self.config.frontier {
            self.mail.frontier() + self.due.iter().map(Vec::len).sum::<usize>()
        } else {
            live
        });
        if let Err(payload) = self.pool.execute(
            &mut self.programs,
            self.mail.cur(),
            &self.due,
            &env,
            round,
            &self.groups,
            compute_inline,
        ) {
            self.poisoned = true;
            self.round -= 1;
            std::panic::resume_unwind(payload);
        }

        // The routing epoch starts when the compute epoch closes: the
        // driver-side arena drain, delay scheduling, and wake bookkeeping
        // below all feed the rebuild of `next`, so `route_wall` charges
        // them too — `--max-route-frac` judges the whole epoch.
        let route_started = Instant::now();
        let mut messages = 0;
        let mut dropped = 0;
        let mut delayed = 0;
        let mut duplicated = 0;
        let mut lost = 0;
        let mut max_width = 0;
        let mut staged = 0;
        let mut payloads = 0;
        let mut stepped = 0;
        let mut newly_halted = 0;
        let mut newly_unhalted = 0;
        let mail = &mut self.mail;
        let next_wake = &mut self.next_wake;
        let wakes = &mut self.wakes;
        let spare = &mut self.spare;
        let frontier = self.config.frontier;
        self.pool.collect_yields(|g, y| {
            messages += y.messages;
            dropped += y.dropped;
            delayed += y.delayed;
            duplicated += y.duplicated;
            lost += y.lost;
            max_width = max_width.max(y.max_width);
            staged += y.staged();
            stepped += y.stepped;
            newly_halted += y.newly_halted;
            newly_unhalted += y.newly_unhalted;
            for (due, batch) in y.delayed_batches.drain(..) {
                mail.schedule(due, batch);
            }
            payloads += y.store.len();
            mail.adopt(g, &mut y.store, &mut y.buckets);
            if frontier {
                // Register each stepped node's next wake. Group `g`'s arena
                // holds only its own range, so the group index is the
                // bucket-queue key — no per-node group lookup.
                for (dv, wake) in y.new_wakes.drain(..) {
                    if next_wake[dv] == wake {
                        continue;
                    }
                    next_wake[dv] = wake;
                    if wake != u64::MAX {
                        wakes[g]
                            .entry(wake)
                            .or_insert_with(|| spare.pop().unwrap_or_default())
                            .push(dv);
                    }
                }
            }
        });
        self.halted = self.halted + newly_halted - newly_unhalted;
        payloads += self.mail.inject_due(round + 1, split);
        let route_inline = on_driver(staged + self.mail.route_backlog());

        let route_env = RouteEnv {
            split,
            round,
            reorder: self.config.faults.reorder_seed(),
            view: &self.view,
        };
        let tally = match self
            .pool
            .route(&mut self.mail, &self.groups, &route_env, route_inline)
        {
            Ok(tally) => tally,
            Err(payload) => {
                // Routing is engine code, not program code — a panic here is
                // a bug, but the epoch still closed, so poison and propagate.
                self.poisoned = true;
                self.round -= 1;
                std::panic::resume_unwind(payload);
            }
        };
        self.mail.flip();
        let route_wall = route_started.elapsed();

        self.metrics.push(RoundMetrics {
            round,
            phase: Arc::clone(phase),
            messages,
            dropped,
            delayed,
            duplicated,
            lost,
            payloads,
            max_width,
            // Charged on *delivered* widths: traffic a fault suppressed
            // never crossed the wire, so it costs no virtual rounds.
            physical_rounds: self.config.congest.physical_rounds(tally.wire_width),
            fragments: tally.fragments,
            active_nodes,
            live,
            stepped,
            active_frac: if live == 0 {
                1.0
            } else {
                stepped as f64 / live as f64
            },
            driver_epochs: u8::from(compute_inline) + u8::from(route_inline),
            wall: started.elapsed(),
            route_wall,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{EngineMessage, Inbox, Outbox, WireCodec};
    use graphs::gen;

    /// Floods the maximum id seen so far; halts once its value is stable for
    /// a round. Converges in eccentricity+1 rounds; every run is a pure
    /// function of the graph.
    struct MaxFlood {
        value: u64,
        changed: bool,
    }

    impl NodeProgram for MaxFlood {
        type Message = u64;

        fn init(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<u64> {
            self.value = ctx.id as u64;
            Outbox::Broadcast(self.value)
        }

        fn on_round(&mut self, _ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, u64>) -> Outbox<u64> {
            let best = inbox.iter().map(|(_, &m)| m).max().unwrap_or(0);
            self.changed = best > self.value;
            if self.changed {
                self.value = best;
                Outbox::Broadcast(self.value)
            } else {
                Outbox::Silent
            }
        }

        fn halted(&self) -> bool {
            !self.changed
        }
    }

    fn new_flood(g: &graphs::Graph, config: EngineConfig) -> EngineSession<'_, MaxFlood> {
        EngineSession::new(g, config, |_| MaxFlood {
            value: 0,
            changed: true,
        })
    }

    fn flood(g: &graphs::Graph, config: EngineConfig) -> (Vec<u64>, u64, Vec<usize>) {
        let mut sess = new_flood(g, config);
        let report = sess.run_phase("flood", Stop::AllHalted);
        assert!(report.converged);
        let counts = sess.metrics().message_counts();
        let (programs, _, ledger) = sess.into_parts();
        let values = programs.iter().map(|p| p.value).collect();
        (values, ledger.phase_total("flood"), counts)
    }

    #[test]
    fn flood_reaches_everyone() {
        let g = gen::path(20);
        let (values, rounds, _) = flood(&g, EngineConfig::default());
        assert!(values.iter().all(|&v| v == 19));
        // The path's eccentricity from vertex 19 is 19; one extra round to
        // notice stability.
        assert!((19..=21).contains(&rounds), "rounds = {rounds}");
    }

    #[test]
    fn shard_count_does_not_change_anything() {
        let g = gen::random_tree(200, 11);
        let baseline = flood(&g, EngineConfig::default().with_shards(1));
        for shards in [2, 3, 8, 0] {
            let run = flood(&g, EngineConfig::default().with_shards(shards));
            assert_eq!(run, baseline, "shards = {shards}");
        }
    }

    #[test]
    fn worker_count_does_not_change_anything() {
        let g = gen::random_tree(150, 3);
        let baseline = flood(&g, EngineConfig::default().with_shards(8).with_workers(1));
        for workers in [2, 3, 8, 0] {
            let run = flood(
                &g,
                EngineConfig::default().with_shards(8).with_workers(workers),
            );
            assert_eq!(run, baseline, "workers = {workers}");
        }
    }

    #[test]
    fn workers_capped_by_shards_and_forceable_past_cpus() {
        let g = gen::path(40);
        let sess = new_flood(&g, EngineConfig::default().with_shards(4).with_workers(64));
        assert_eq!(sess.shards(), 4);
        assert_eq!(sess.workers(), 4, "explicit cap clamps to shards only");
        let inline = new_flood(&g, EngineConfig::default().with_workers(1));
        assert_eq!(inline.workers(), 1);
    }

    #[test]
    fn messages_have_one_round_latency() {
        // On a 2-path the init broadcasts cross during round 0 and arrive
        // with round 1: node 0 adopts 1 and rebroadcasts (1 message), node 1
        // hears nothing better and goes quiet. Round 2 is the quiet round
        // that lets node 0's vote flip; then the phase ends.
        let g = gen::path(2);
        let (values, rounds, counts) = flood(&g, EngineConfig::default());
        assert_eq!(values, vec![1, 1]);
        assert_eq!(rounds, 2);
        assert_eq!(counts, vec![1, 0]);
    }

    #[test]
    fn round_cap_interrupts_and_reports() {
        let g = gen::cycle(50);
        let mut sess = new_flood(&g, EngineConfig::default().with_max_rounds(3));
        let report = sess.run_phase("flood", Stop::AllHalted);
        assert!(!report.converged);
        assert_eq!(report.rounds, 3);
        assert_eq!(sess.ledger().phase_total("flood"), 3);
    }

    #[test]
    fn fixed_round_phases_charge_exactly() {
        let g = gen::grid(4, 4);
        let mut sess = new_flood(&g, EngineConfig::default());
        let r = sess.run_phase("warmup", Stop::Rounds(2));
        assert_eq!(r.rounds, 2);
        assert_eq!(sess.ledger().phase_total("warmup"), 2);
        assert_eq!(sess.rounds(), 2);
    }

    #[test]
    fn masked_session_runs_only_the_induced_subgraph() {
        // Path 0-…-9 masked to {0, 1, 2, 3, 7, 8, 9}: two components. The
        // flood converges to each component's max (3 and 9); vertices 4-6
        // never run, and no message crosses the cut.
        let g = gen::path(10);
        let mask = VertexSet::from_iter_with_universe(10, [0, 1, 2, 3, 7, 8, 9]);
        for shards in [1usize, 2, 4] {
            let mut sess = new_flood(
                &g,
                EngineConfig::default().with_mask(&mask).with_shards(shards),
            );
            assert_eq!(sess.programs().len(), 7, "one program per live vertex");
            assert!(sess.view().live().eq([0, 1, 2, 3, 7, 8, 9]));
            let report = sess.run_phase("flood", Stop::AllHalted);
            assert!(report.converged);
            let values = sess
                .view()
                .scatter(u64::MAX, sess.programs().iter().map(|p| p.value));
            assert_eq!(
                values,
                vec![3, 3, 3, 3, u64::MAX, u64::MAX, u64::MAX, 9, 9, 9],
                "shards = {shards}"
            );
        }
    }

    #[test]
    fn masked_runs_are_shard_invariant() {
        let g = gen::random_tree(150, 5);
        let mask = VertexSet::from_iter_with_universe(150, (0..150).filter(|v| v % 3 != 0));
        let base = flood(&g, EngineConfig::default().with_mask(&mask).with_shards(1));
        for shards in [2usize, 5, 8] {
            let run = flood(
                &g,
                EngineConfig::default().with_mask(&mask).with_shards(shards),
            );
            assert_eq!(run, base, "shards = {shards}");
        }
    }

    #[test]
    fn empty_mask_session_is_inert() {
        let g = gen::path(5);
        let mask = VertexSet::new(5);
        let mut sess = new_flood(&g, EngineConfig::default().with_mask(&mask));
        assert_eq!(sess.programs().len(), 0);
        let report = sess.run_phase("flood", Stop::AllHalted);
        assert!(report.converged);
        assert_eq!(report.rounds, 0, "no live vertex, no rounds");
    }

    #[test]
    fn for_each_program_reports_original_ids() {
        let g = gen::path(6);
        let mask = VertexSet::from_iter_with_universe(6, [1, 4, 5]);
        let mut sess = new_flood(&g, EngineConfig::default().with_mask(&mask));
        let mut seen = Vec::new();
        sess.for_each_program(|v, _| seen.push(v));
        assert_eq!(seen, vec![1, 4, 5]);
    }

    #[test]
    fn flood_width_certifies_congest_safety() {
        let g = gen::path(12);
        let mut sess = new_flood(&g, EngineConfig::default());
        let report = sess.run_phase("flood", Stop::AllHalted);
        assert!(report.converged);
        assert_eq!(
            sess.metrics().max_width(),
            1,
            "a 1-word flood is CONGEST-safe at 1 word, init round included"
        );
    }

    #[test]
    fn wide_messages_record_their_width_per_round() {
        struct Wide;
        #[derive(Clone)]
        struct Words(usize);
        impl WireCodec for Words {
            fn encode(&self, out: &mut Vec<u64>) {
                out.resize(out.len() + self.0, 0);
            }
            fn decode(words: &[u64]) -> Option<Self> {
                Some(Words(words.len()))
            }
        }
        impl EngineMessage for Words {
            fn width(&self) -> usize {
                self.0
            }
        }
        impl NodeProgram for Wide {
            type Message = Words;
            fn init(&mut self, _: &mut NodeCtx<'_>) -> Outbox<Words> {
                Outbox::Silent
            }
            fn on_round(&mut self, ctx: &mut NodeCtx<'_>, _: Inbox<'_, Words>) -> Outbox<Words> {
                // Width grows with the round: r words in round r.
                Outbox::Broadcast(Words(ctx.round as usize))
            }
            fn halted(&self) -> bool {
                false
            }
        }
        let g = gen::path(6);
        let mut sess = EngineSession::new(&g, EngineConfig::default(), |_| Wide);
        sess.run_phase("ok", Stop::Rounds(2));
        sess.run_phase("wider", Stop::Rounds(1));
        let widths: Vec<usize> = sess
            .metrics()
            .per_round()
            .iter()
            .map(|r| r.max_width)
            .collect();
        assert_eq!(widths, [1, 2, 3]);
        // Safe at 3 words, not at 2: the width is recorded, never enforced.
        assert_eq!(sess.metrics().max_width(), 3);
        assert!(!sess.poisoned());
    }

    /// Broadcasts a growing list every round — width r at round r — so a
    /// split budget is exceeded from round `budget + 1` on. The payload is
    /// the node's id repeated, so a codec defect would corrupt `seen`.
    struct Chunky {
        rounds: u64,
        seen: usize,
    }

    #[derive(Clone, PartialEq, Debug)]
    struct IdList(Vec<u64>);
    impl WireCodec for IdList {
        fn encode(&self, out: &mut Vec<u64>) {
            out.extend_from_slice(&self.0);
        }
        fn decode(words: &[u64]) -> Option<Self> {
            (!words.is_empty()).then(|| IdList(words.to_vec()))
        }
    }
    impl EngineMessage for IdList {
        fn width(&self) -> usize {
            self.0.len()
        }
    }

    impl NodeProgram for Chunky {
        type Message = IdList;
        fn init(&mut self, _: &mut NodeCtx<'_>) -> Outbox<IdList> {
            Outbox::Silent
        }
        fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, IdList>) -> Outbox<IdList> {
            for (src, IdList(words)) in inbox {
                assert!(words.iter().all(|&w| w == src as u64), "payload corrupted");
                self.seen += words.len();
            }
            if ctx.round <= self.rounds {
                Outbox::Broadcast(IdList(vec![ctx.id as u64; ctx.round as usize]))
            } else {
                Outbox::Silent
            }
        }
        fn halted(&self) -> bool {
            false
        }
    }

    #[test]
    fn split_mode_charges_physical_rounds_and_replays_unlimited_outputs() {
        let g = gen::cycle(10);
        let run = |config: EngineConfig| {
            let mut sess = EngineSession::new(&g, config, |_| Chunky { rounds: 4, seen: 0 });
            sess.run_phase("chunky", Stop::Rounds(5));
            let ledger_total = sess.ledger().total();
            let split_total = sess.ledger().phase_total(SPLIT_PHASE);
            let (programs, metrics, _) = sess.into_parts();
            let seen: Vec<usize> = programs.iter().map(|p| p.seen).collect();
            (seen, metrics, ledger_total, split_total)
        };
        let unlimited = run(EngineConfig::default());
        assert_eq!(unlimited.1.total_physical_rounds(), 5);
        assert_eq!(unlimited.1.total_fragments(), 0);
        assert_eq!(unlimited.3, 0);

        for shards in [1usize, 2, 4] {
            let split = run(EngineConfig::default()
                .with_shards(shards)
                .with_workers(shards)
                .congest_split(2));
            assert_eq!(split.0, unlimited.0, "shards={shards}: outputs diverged");
            // Rounds 1..=5 deliver widths 1..=4 (round 5 routes round 4's
            // sends… widths observed per round r are r for r ≤ 4, then 0):
            // physical = ceil(1/2)+ceil(2/2)+ceil(3/2)+ceil(4/2)+1 = 7.
            assert_eq!(split.1.total_rounds(), 5, "logical rounds unchanged");
            assert_eq!(split.1.total_physical_rounds(), 7, "shards={shards}");
            assert_eq!(split.3, 2, "surplus charged to {SPLIT_PHASE}");
            assert_eq!(split.2, unlimited.2 + 2, "total = logical + split surplus");
            // Widths 3 and 4 exceed the budget on every edge: rounds 4 and
            // 5 fragment all 20 deliveries into 2 frames each.
            assert_eq!(split.1.total_fragments(), 80, "shards={shards}");
            assert_eq!(split.1.max_width(), 4, "logical widths still recorded");
        }
    }

    #[test]
    fn fault_suppressed_traffic_costs_no_physical_rounds() {
        // Crash every node before its first wide send: nothing ever crosses
        // the wire, so a Split(1) run charges no virtual-round surplus even
        // though wide messages were *emitted* (and counted as dropped).
        let g = gen::cycle(4);
        let mut faults = FaultPlan::new();
        for v in 0..4 {
            faults = faults.crash(v, 0);
        }
        let mut sess = EngineSession::new(
            &g,
            EngineConfig::default().congest_split(1).with_faults(faults),
            |_| Chunky { rounds: 3, seen: 0 },
        );
        let report = sess.run_phase("chunky", Stop::Rounds(4));
        assert_eq!(report.rounds, 4);
        assert_eq!(
            report.physical_rounds, 4,
            "suppressed traffic must not be charged"
        );
        assert_eq!(sess.ledger().phase_total(SPLIT_PHASE), 0);
        assert_eq!(sess.metrics().total_fragments(), 0);
        assert!(sess.metrics().total_dropped() > 0, "the sends were real");
        assert!(
            sess.metrics().max_width() > 1,
            "emitted widths still recorded"
        );
    }

    #[test]
    fn split_report_exposes_physical_rounds() {
        let g = gen::path(6);
        let mut sess = EngineSession::new(&g, EngineConfig::default().congest_split(1), |_| {
            Chunky { rounds: 3, seen: 0 }
        });
        let report = sess.run_phase("chunky", Stop::Rounds(4));
        assert_eq!(report.rounds, 4);
        // Widths 1, 2, 3 then silence: 1 + 2 + 3 + 1 physical rounds.
        assert_eq!(report.physical_rounds, 7);
        assert_eq!(sess.ledger().phase_total("chunky"), 4);
        assert_eq!(sess.ledger().phase_total(SPLIT_PHASE), 3);
    }

    #[test]
    fn reorder_fault_keeps_flood_outcome_and_replays() {
        let g = gen::random_tree(120, 9);
        let clean = flood(&g, EngineConfig::default());
        let run = |shards: usize| {
            flood(
                &g,
                EngineConfig::default()
                    .with_shards(shards)
                    .with_workers(shards)
                    .with_faults(FaultPlan::new().reorder(5)),
            )
        };
        let base = run(1);
        assert_eq!(base.0, clean.0, "max-flood is order-insensitive");
        for shards in [2usize, 4] {
            assert_eq!(run(shards), base, "shards = {shards}");
        }
    }

    #[test]
    fn crash_stop_silences_a_node_forever() {
        // Path 0-1-2-3-4: crash node 2 at round 0 (before init): the max id
        // 4 can never cross it, and every suppressed outbox counts dropped.
        let g = gen::path(5);
        let mut sess = new_flood(
            &g,
            EngineConfig::default()
                .with_faults(FaultPlan::new().crash(2, 0))
                .with_max_rounds(10),
        );
        sess.run_phase("flood", Stop::AllHalted);
        let values: Vec<u64> = sess.programs().iter().map(|p| p.value).collect();
        assert_eq!(values[0], 1, "id 4 must not have crossed the crash");
        assert_eq!(values[1], 1);
        assert_eq!(values[3], 4);
        assert!(
            sess.metrics().total_dropped() >= 2,
            "init broadcast dropped"
        );
    }

    #[test]
    fn drop_fault_partitions_the_flood() {
        // Path 0-1-2-3: drop everything nodes 2 and 3 ever send; the max id
        // 3 can never cross to the left half.
        let mut faults = FaultPlan::new();
        for r in 0..20 {
            faults = faults.drop_outbox(3, r).drop_outbox(2, r);
        }
        let g = gen::path(4);
        let mut sess = new_flood(
            &g,
            EngineConfig::default()
                .with_faults(faults)
                .with_max_rounds(10),
        );
        sess.run_phase("flood", Stop::AllHalted);
        let values: Vec<u64> = sess.programs().iter().map(|p| p.value).collect();
        assert_eq!(values[0], 1, "id 3 must not have crossed the faulted cut");
        assert_eq!(values[1], 1);
        // The init broadcasts of node 2 (to 1 and 3) and node 3 (to 2) were
        // dropped: 3 messages.
        assert_eq!(sess.metrics().total_dropped(), 3);
    }

    #[test]
    fn drop_fault_mid_run_is_observed_and_survivable() {
        // Drop node 2's round-1 rebroadcast on a 6-path: 2 messages lost,
        // the flood still completes because later waves re-cover the edge.
        let g = gen::path(6);
        let (values, _, _) = flood(&g, EngineConfig::default());
        assert!(values.iter().all(|&v| v == 5));
        let mut sess = new_flood(
            &g,
            EngineConfig::default().with_faults(FaultPlan::new().drop_outbox(2, 1)),
        );
        let report = sess.run_phase("flood", Stop::AllHalted);
        assert!(report.converged);
        assert_eq!(sess.metrics().total_dropped(), 2);
        assert!(sess.programs().iter().all(|p| p.value == 5));
    }

    #[test]
    fn delay_fault_slows_but_preserves_outcome() {
        let g = gen::path(6);
        let fast = flood(&g, EngineConfig::default());
        let slow = flood(
            &g,
            EngineConfig::default().with_faults(FaultPlan::new().delay_outbox(5, 0, 4)),
        );
        assert_eq!(slow.0, fast.0, "all nodes still learn the max");
        assert!(
            slow.1 > fast.1,
            "delay must cost rounds: {} vs {}",
            slow.1,
            fast.1
        );
    }

    #[test]
    fn duplication_fault_is_counted_and_replayable() {
        let g = gen::random_tree(80, 7);
        let run = |shards: usize| {
            let cfg = EngineConfig::default()
                .with_shards(shards)
                .with_workers(shards)
                .with_faults(FaultPlan::new().duplicate_edges(11, 0.4));
            let mut sess = new_flood(&g, cfg);
            let report = sess.run_phase("flood", Stop::AllHalted);
            assert!(report.converged, "duplicated floods still converge");
            let dup = sess.metrics().total_duplicated();
            let (programs, metrics, _) = sess.into_parts();
            (
                programs.iter().map(|p| p.value).collect::<Vec<_>>(),
                metrics.message_counts(),
                dup,
            )
        };
        let base = run(1);
        assert!(base.2 > 0, "p = 0.4 must duplicate something");
        assert!(base.0.iter().all(|&v| v == 79), "flood is dup-idempotent");
        for shards in [2usize, 4, 8] {
            assert_eq!(run(shards), base, "shards = {shards}");
        }
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn unicast_to_stranger_panics() {
        struct Chatty;
        impl NodeProgram for Chatty {
            type Message = u64;
            fn init(&mut self, _: &mut NodeCtx<'_>) -> Outbox<u64> {
                Outbox::Silent
            }
            fn on_round(&mut self, ctx: &mut NodeCtx<'_>, _: Inbox<'_, u64>) -> Outbox<u64> {
                Outbox::Unicast((ctx.id + 2) % ctx.n, 1)
            }
            fn halted(&self) -> bool {
                false
            }
        }
        let g = gen::path(5);
        let mut sess = EngineSession::new(&g, EngineConfig::default(), |_| Chatty);
        sess.run_phase("x", Stop::Rounds(1));
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn unicast_to_masked_out_neighbor_panics() {
        // Vertex 1's graph neighbor 0 is masked out: for this session the
        // edge does not exist, so the unicast is a LOCAL violation.
        struct CallDead;
        impl NodeProgram for CallDead {
            type Message = u64;
            fn init(&mut self, _: &mut NodeCtx<'_>) -> Outbox<u64> {
                Outbox::Silent
            }
            fn on_round(&mut self, ctx: &mut NodeCtx<'_>, _: Inbox<'_, u64>) -> Outbox<u64> {
                if ctx.id == 1 {
                    Outbox::Unicast(0, 1)
                } else {
                    Outbox::Silent
                }
            }
            fn halted(&self) -> bool {
                false
            }
        }
        let g = gen::path(4);
        let mask = VertexSet::from_iter_with_universe(4, [1, 2, 3]);
        let mut sess =
            EngineSession::new(&g, EngineConfig::default().with_mask(&mask), |_| CallDead);
        sess.run_phase("x", Stop::Rounds(1));
    }

    #[test]
    fn metrics_track_rounds_and_activity() {
        let g = gen::path(10);
        let mut sess = new_flood(&g, EngineConfig::default());
        sess.run_phase("flood", Stop::AllHalted);
        let m = sess.metrics();
        assert_eq!(m.total_rounds(), sess.rounds());
        assert!(m.per_round()[0].active_nodes == 10);
        assert!(m.total_messages() > 0);
        assert_eq!(m.max_width(), 1);
        assert!(m.total_route_wall() <= m.total_wall());
    }
}
