//! The engine driver: shard-parallel, round-synchronized execution on a
//! persistent worker pool, over a (possibly masked) [`GraphView`].
//!
//! One [`EngineSession`] runs one network of [`NodeProgram`]s — one program
//! per **live** vertex of its view. The session's vertex set is an input of
//! [`EngineSession::new`], like the `mask` of every sequential primitive:
//! given one, the session restricts itself to the induced subgraph —
//! masked-out vertices get no program, no mailbox, no RNG stream, and no
//! ledger charge, and edges with a dead endpoint do not exist. Determinism
//! stays keyed on *original* vertex ids (contexts, inboxes, RNG streams,
//! fault plans), so a masked run is bit-identical to the sequential masked
//! primitives at any shard count. The session cuts its live vertices once
//! into [`EngineConfig::workers_for`] contiguous, edge-mass-balanced worker
//! groups. Worker threads are spawned **once**, when the session boots, and
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
//!    Before it steps anyone, a group stages again the fault-delayed
//!    messages it holds that are due next round.
//!    Each group also owns its wake queue (the `wake` module): it pops the
//!    round's due wakes and registers each stepped node's next one.
//! 2. **Route** — after the driver sums the groups' counters and swaps
//!    every group's store into the `next` mailbox buffer, every worker
//!    counting-sorts its own bucket of every arena, read in place, into
//!    its group's contiguous reference segment (spans per vertex, no
//!    per-message allocation). Groups stage their senders in ascending id
//!    order and are read in group order, so each span lands in the
//!    deterministic sender order as placed; only a round in which some
//!    group re-staged fault-delayed traffic sorts the spans. The buffers
//!    then flip. Routing runs on the workers unless it is small — its wall
//!    time is recorded per round ([`RoundMetrics::route_wall`]), measured
//!    from the moment the compute epoch closes so the driver's sums and
//!    swaps between the epochs are charged to the routing epoch too.
//!
//! Round 0 is the LOCAL model's free knowledge exchange and runs through
//! the same two epochs: [`EngineSession::new`] steps every live node's
//! [`init`](NodeProgram::init) (no frontier), registers each node's first
//! wake off its post-init hint, and routes the result into round 1's
//! inboxes. It is charged no ledger round and is recorded as the
//! session's [`EngineMetrics::inits`] entry.
//!
//! Determinism: program state is touched only by its owning worker group,
//! inboxes are delivered in ascending original-sender order, programs that
//! draw randomness seed their own stream with `node_rng(seed, original
//! id)`, and fault plans are keyed by `(round, original node)` — so
//! colorings, round counts, and per-round message counts are bit-identical
//! across shard counts, worker counts, and thread schedules, masked or not.

use std::sync::Arc;
use std::time::Instant;

use graphs::{Graph, VertexId, VertexSet};
use local_model::RoundLedger;

use crate::context::NodeCtx;
use crate::exec::{EnginePool, Panic};
use crate::faults::FaultPlan;
use crate::mailbox::Mailboxes;
use crate::metrics::{EngineMetrics, RoundMetrics};
use crate::pool::{Counts, RouteEnv, StageEnv, WorkerPool};
use crate::program::NodeProgram;
use crate::shard::group_bounds;
use crate::view::GraphView;

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
/// is counted in vertices for a compute epoch (the inbox frontier plus the
/// wakes standing for the round in the groups' queues, or every live
/// vertex without gating and in round 0) and in references for a routing
/// epoch (those staged in the arenas' buckets, re-staged delayed ones
/// included, plus the stale spans to reset). Every
/// term is the same at any shard and worker count, so the choice is too,
/// and outputs stay bit-identical by construction: the same per-group job
/// runs either way.
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
    /// Automatic fragmentation at a budget of at least one word: a message
    /// of `w` words over the budget crosses each edge in `ceil(w / budget)`
    /// frames over consecutive **virtual rounds**. Each such message is
    /// round-tripped through its [`WireCodec`](crate::WireCodec) once, as
    /// it is stored, and receivers read the decoded copy. One logical round
    /// costs `ceil(w / budget)` physical rounds, where `w` is the widest
    /// message *delivered* that round (fault-suppressed traffic never
    /// crosses the wire and costs nothing); the surplus is charged to the
    /// [`SPLIT_PHASE`] ledger phase and reported via
    /// [`RoundMetrics::physical_rounds`] / [`RoundMetrics::fragments`].
    Split(usize),
}

impl CongestMode {
    /// The fragmentation budget in words, if splitting is on.
    pub fn split_width(self) -> Option<usize> {
        match self {
            CongestMode::Split(w) => Some(w),
            CongestMode::Unlimited => None,
        }
    }

    /// Physical rounds one logical round whose widest delivered message is
    /// `wire_width` words costs under this mode (always ≥ 1).
    pub(crate) fn physical_rounds(self, wire_width: usize) -> u64 {
        match self {
            CongestMode::Split(w) => (wire_width.div_ceil(w) as u64).max(1),
            CongestMode::Unlimited => 1,
        }
    }
}

/// Engine tuning knobs. All fields are plain data; cloning a config and
/// rerunning reproduces a run exactly.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker-group count a session asks for; 0 means one per available
    /// CPU. See [`workers_for`](EngineConfig::workers_for).
    pub shards: usize,
    /// Worker-thread cap: the session runs at most `workers` worker groups
    /// (one of which is the driver thread itself); 0 means one per
    /// available CPU. Purely a performance knob — results are bit-identical
    /// for any value.
    pub workers: usize,
    /// Hard cap on total **logical** rounds across all phases of a session.
    pub max_rounds: u64,
    /// Outbox fault schedule (empty by default).
    pub faults: FaultPlan,
    /// CONGEST bandwidth treatment: record widths only, or split
    /// over-budget messages across virtual rounds. See [`CongestMode`].
    pub congest: CongestMode,
    /// Frontier-sparse rounds (default `true`): skip the `on_round` step of
    /// nodes with an empty inbox whose [`Activation`](crate::Activation)
    /// hint does not request the round. Results are bit-identical when
    /// programs keep the activation contract; `false` forces the full scan,
    /// which exists only as the oracle of the frontier equivalence tests.
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
            max_rounds: 100_000,
            faults: FaultPlan::new(),
            congest: CongestMode::Unlimited,
            frontier: true,
            pool: None,
        }
    }
}

impl EngineConfig {
    /// Sets the worker-group count (0 = one per available CPU).
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

    /// Enables automatic message splitting ([`CongestMode::Split`]): wider
    /// messages cross each edge in ≤ `words`-word frames over consecutive
    /// virtual rounds, with the extra physical rounds charged to the
    /// [`SPLIT_PHASE`] ledger phase. A budget of zero words is refused
    /// when the session boots ([`EngineSession::new`]).
    #[must_use]
    pub fn congest_split(mut self, words: usize) -> Self {
        self.congest = CongestMode::Split(words);
        self
    }

    /// Enables or disables frontier-sparse rounds (default on). With
    /// `false` every node steps every round regardless of traffic or its
    /// [`Activation`](crate::Activation) hint. The full scan exists only as
    /// the reference side of the frontier equivalence tests; no benchmark
    /// or suite runs it.
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

    /// Worker groups a session over `n` live vertices runs with: `shards`,
    /// capped by the shared pool's size when one is set and by `workers`
    /// otherwise, and by `n`, so no group is empty. Explicit caps are
    /// honored (so tests can force real threads on small machines); the
    /// automatic default never oversubscribes the hardware. Without a pool
    /// this is also the size a caller-owned [`EnginePool`] needs to serve
    /// every session of a pipeline at full width.
    pub fn workers_for(&self, n: usize) -> usize {
        let cap = match &self.pool {
            Some(pool) => pool.workers(),
            None => or_cpus(self.workers),
        };
        or_cpus(self.shards).min(cap).clamp(1, n.max(1))
    }
}

/// `knob`, or one per available CPU when it is 0.
fn or_cpus(knob: usize) -> usize {
    if knob == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        knob
    }
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
    /// under splitting each logical round costs `ceil(w / budget)` virtual
    /// rounds, where `w` is the widest message delivered that round (see
    /// [`RoundMetrics::physical_rounds`]), and the surplus is charged to the
    /// [`SPLIT_PHASE`] ledger phase.
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
    /// Set when a node-program panic unwound out of a round: program state
    /// is partially stepped and the round was rolled back, so continuing
    /// would silently break the replay contract. Further stepping refuses
    /// loudly; read-only inspection and `into_parts` still work.
    poisoned: bool,
}

impl<'g, P: NodeProgram + 'static> EngineSession<'g, P> {
    /// Boots a network over `graph`, restricted to the induced subgraph on
    /// `mask` if one is given: builds one program per live vertex
    /// (`factory` is called in ascending original-id order), cuts the live
    /// vertices into worker groups, spawns the session's persistent worker
    /// pool (or borrows the shared one), and runs round 0 — every
    /// program's `init`, through the same compute and routing epochs as any
    /// later round — which routes the initial outboxes into round 1's
    /// inboxes.
    ///
    /// Round 0 is charged zero rounds (see [`NodeProgram::init`]); fault
    /// rules for round 0 apply to it, and it is recorded, timed like any
    /// round, as the session's [`EngineMetrics::inits`] entry.
    ///
    /// # Panics
    ///
    /// Panics if `mask` has a universe other than `graph.n()` or
    /// `config.congest` is `Split(0)`, and resumes a panic raised by a
    /// program's `init` once its epoch closes.
    pub fn new(
        graph: &'g Graph,
        mask: Option<&VertexSet>,
        config: EngineConfig,
        mut factory: impl FnMut(&NodeCtx<'_>) -> P,
    ) -> Self {
        assert_ne!(
            config.congest,
            CongestMode::Split(0),
            "a CONGEST budget must allow at least one word"
        );
        let view = GraphView::new(graph, mask);
        let live = view.live_count();
        // The group partition as flat boundaries, kept by the mailboxes.
        let bounds = group_bounds(&view, config.workers_for(live));
        let pool = WorkerPool::new(
            config
                .pool
                .clone()
                .unwrap_or_else(|| EnginePool::new(bounds.len() - 1)),
            &bounds,
        );
        // Dense order is ascending original id: the factory's contract.
        let programs: Vec<P> = (0..live)
            .map(|dv| factory(&NodeCtx::at(&view, dv, 0)))
            .collect();
        let mut session = EngineSession {
            mail: Mailboxes::new(live, bounds),
            halted: programs.iter().filter(|p| p.halted()).count(),
            view,
            config,
            pool,
            programs,
            metrics: EngineMetrics::default(),
            ledger: RoundLedger::new(),
            round: 0,
            poisoned: false,
        };
        // Round 0 runs every `init` through the ordinary round path.
        if let Err(payload) = session.run_round(0, &Arc::from("init")) {
            std::panic::resume_unwind(payload);
        }
        session
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
    /// without spending communication rounds. Since `f` may rewrite any
    /// program's state, the halt votes are recounted and every node's
    /// activation hint is registered afresh; to only read results, zip
    /// [`view`](EngineSession::view)`().live()` with
    /// [`programs`](EngineSession::programs) instead.
    pub fn for_each_program(&mut self, mut f: impl FnMut(VertexId, &mut P)) {
        for (dv, p) in self.programs.iter_mut().enumerate() {
            f(self.view.original(dv), p);
        }
        self.halted = self.programs.iter().filter(|p| p.halted()).count();
        if self.config.frontier {
            self.pool
                .rescan(&self.programs, self.mail.bounds(), self.round);
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

    /// Number of worker groups this session runs with (spawned threads +
    /// the driver thread itself): [`EngineConfig::workers_for`] its live
    /// vertex count.
    pub fn workers(&self) -> usize {
        self.pool.workers()
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

    /// Executes the next round under `phase`.
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
        let round = self.round + 1;
        if let Err(payload) = self.run_round(round, phase) {
            self.poisoned = true;
            std::panic::resume_unwind(payload);
        }
        self.round = round;
    }

    /// Runs one synchronized round — round 0 is the init exchange: compute
    /// epoch ∥ worker groups → driver bookkeeping (counter sums, store
    /// swaps) → routing epoch ∥ worker groups → buffer flip, then
    /// records the round's metrics. Either epoch runs on the driver alone
    /// when its work is below [`DRIVER_EPOCH_WORK`]. Returns the panic
    /// payload of a node program (or of routing) once its epoch has closed,
    /// before anything is recorded.
    fn run_round(&mut self, round: u64, phase: &Arc<str>) -> Result<(), Panic> {
        let started = Instant::now();
        // The round-start activity census, O(1) off the running halt count.
        let live = self.programs.len();
        let active_nodes = live - self.halted;

        let split = self.config.congest.split_width().unwrap_or(usize::MAX);
        let env = StageEnv {
            faults: &self.config.faults,
            view: &self.view,
            bounds: self.mail.bounds(),
            split,
            frontier: self.config.frontier,
        };
        // Round 0 steps every live node, like a round without gating.
        let compute_inline = on_driver(if self.config.frontier && round > 0 {
            self.mail.frontier() + self.pool.due_count(round)
        } else {
            live
        });
        self.pool.execute(
            &mut self.programs,
            self.mail.cur(),
            &env,
            round,
            compute_inline,
        )?;

        // The routing epoch starts when the compute epoch closes: the
        // store swaps below feed the rebuild of `next`, so `route_wall`
        // charges them too — the lab's `route-frac` budget judges the whole
        // epoch.
        let route_started = Instant::now();
        let mut counts = Counts::default();
        let (mut payloads, mut staged) = (0, 0);
        let mail = &mut self.mail;
        self.pool.collect_yields(|g, y| {
            counts.add(&y.counts);
            payloads += y.store.len();
            staged += y.references();
            mail.adopt(g, &mut y.store);
        });
        self.halted = self.halted + counts.newly_halted - counts.newly_unhalted;
        let route_inline = on_driver(staged + self.mail.stale_spans());

        let route_env = RouteEnv {
            round,
            reorder: self.config.faults.reorder_seed(),
            restaged: counts.restaged > 0,
            view: &self.view,
        };
        // Routing is engine code, not program code — a panic here is a bug,
        // but the epoch still closed, so the caller can propagate it alike.
        self.pool.route(&mut self.mail, &route_env, route_inline)?;
        self.mail.flip();
        let route_wall = route_started.elapsed();

        self.metrics.push(RoundMetrics {
            round,
            phase: Arc::clone(phase),
            messages: counts.messages,
            dropped: counts.dropped,
            delayed: counts.delayed,
            duplicated: counts.duplicated,
            lost: counts.lost,
            payloads,
            max_width: counts.max_width,
            // Charged on *delivered* widths: traffic a fault suppressed
            // never crossed the wire, so it costs no virtual rounds.
            physical_rounds: self.config.congest.physical_rounds(counts.wire_width),
            fragments: counts.fragments,
            active_nodes,
            live,
            stepped: counts.stepped,
            active_frac: if live == 0 {
                1.0
            } else {
                counts.stepped as f64 / live as f64
            },
            driver_epochs: u8::from(compute_inline) + u8::from(route_inline),
            wall: started.elapsed(),
            route_wall,
        });
        Ok(())
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
        new_masked_flood(g, None, config)
    }

    fn new_masked_flood<'g>(
        g: &'g graphs::Graph,
        mask: Option<&VertexSet>,
        config: EngineConfig,
    ) -> EngineSession<'g, MaxFlood> {
        EngineSession::new(g, mask, config, |_| MaxFlood {
            value: 0,
            changed: true,
        })
    }

    fn flood(g: &graphs::Graph, config: EngineConfig) -> (Vec<u64>, u64, Vec<usize>) {
        masked_flood(g, None, config)
    }

    fn masked_flood(
        g: &graphs::Graph,
        mask: Option<&VertexSet>,
        config: EngineConfig,
    ) -> (Vec<u64>, u64, Vec<usize>) {
        let mut sess = new_masked_flood(g, mask, config);
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
        assert_eq!(sess.workers(), 4, "explicit cap clamps to shards only");
        let inline = new_flood(&g, EngineConfig::default().with_workers(1));
        assert_eq!(inline.workers(), 1);
    }

    #[test]
    fn group_partition_is_pinned() {
        // The worker-group cut is a performance choice, but colorbench's
        // inputs keep theirs across refactors: a 4-shard plan on 2 workers
        // splits the grid at its middle row and the Apollonian graph at a
        // fixed edge-mass point, private pool or shared.
        let bounds =
            |g: &graphs::Graph, config: EngineConfig| new_flood(g, config).mail.bounds().to_vec();
        let config = || EngineConfig::default().with_shards(4).with_workers(2);
        let grid = gen::grid(200, 200);
        assert_eq!(bounds(&grid, config()), [0, 20000, 40000]);
        let apollonian = gen::apollonian(20_000, 1);
        assert_eq!(bounds(&apollonian, config()), [0, 5766, 20000]);
        let pool = EnginePool::new(2);
        let shared = EngineConfig::default().with_shards(4).with_pool(&pool);
        assert_eq!(bounds(&apollonian, shared), [0, 5766, 20000]);
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
            let mut sess =
                new_masked_flood(&g, Some(&mask), EngineConfig::default().with_shards(shards));
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
        let base = masked_flood(&g, Some(&mask), EngineConfig::default().with_shards(1));
        for shards in [2usize, 5, 8] {
            let run = masked_flood(&g, Some(&mask), EngineConfig::default().with_shards(shards));
            assert_eq!(run, base, "shards = {shards}");
        }
    }

    #[test]
    fn empty_mask_session_is_inert() {
        let g = gen::path(5);
        let mask = VertexSet::new(5);
        let mut sess = new_masked_flood(&g, Some(&mask), EngineConfig::default());
        assert_eq!(sess.programs().len(), 0);
        let report = sess.run_phase("flood", Stop::AllHalted);
        assert!(report.converged);
        assert_eq!(report.rounds, 0, "no live vertex, no rounds");
    }

    #[test]
    fn for_each_program_reports_original_ids() {
        let g = gen::path(6);
        let mask = VertexSet::from_iter_with_universe(6, [1, 4, 5]);
        let mut sess = new_masked_flood(&g, Some(&mask), EngineConfig::default());
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
        let mut sess = EngineSession::new(&g, None, EngineConfig::default(), |_| Wide);
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
            let mut sess = EngineSession::new(&g, None, config, |_| Chunky { rounds: 4, seen: 0 });
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
            None,
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
    fn split_accounting_under_faults_counts_exact_deliveries() {
        // Chunky on a 10-cycle under Split(2): round r broadcasts width r
        // for r ≤ 4, so rounds 3 and 4 deliver over-budget messages of 2
        // frames each. Loss removes deliveries and duplication adds them,
        // frame for frame; a delayed wide outbox is charged in the round
        // it is delivered, not the round it was sent.
        let g = gen::cycle(10);
        let run = |faults: FaultPlan, shards: usize| {
            let mut sess = EngineSession::new(
                &g,
                None,
                EngineConfig::default()
                    .with_shards(shards)
                    .congest_split(2)
                    .with_faults(faults),
                |_| Chunky { rounds: 4, seen: 0 },
            );
            sess.run_phase("chunky", Stop::Rounds(6));
            let m = sess.metrics();
            let per_round: Vec<u64> = m.per_round().iter().map(|r| r.physical_rounds).collect();
            (m.total_fragments(), m.total_physical_rounds(), per_round)
        };
        // (plan, total fragments, per-round physical rounds). Fault-free,
        // rounds 3 and 4 each fragment 20 deliveries into 40 frames.
        let cases = [
            // 30% of the deliveries are lost: 30 of the 40 wide ones arrive.
            (FaultPlan::new().lose_edges(5, 0.3), 60, [1, 1, 2, 2, 1, 1]),
            // 8 wide deliveries are duplicated, and the copies pay too.
            (
                FaultPlan::new().duplicate_edges(5, 0.3),
                96,
                [1, 1, 2, 2, 1, 1],
            ),
            // Node 3's width-4 round-4 outbox arrives a round late: its 4
            // frames move to round 5, whose traffic is otherwise silent.
            (
                FaultPlan::new().delay_outbox(3, 4, 1),
                80,
                [1, 1, 2, 2, 2, 1],
            ),
        ];
        for (faults, fragments, physical) in cases {
            for shards in [1usize, 2] {
                let total: u64 = physical.iter().sum();
                assert_eq!(
                    run(faults.clone(), shards),
                    (fragments, total, physical.to_vec()),
                    "{faults:?}, shards={shards}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn zero_word_budget_is_refused_at_boot() {
        let g = gen::path(4);
        let config = EngineConfig {
            congest: CongestMode::Split(0),
            ..EngineConfig::default()
        };
        new_flood(&g, config);
    }

    #[test]
    fn split_report_exposes_physical_rounds() {
        let g = gen::path(6);
        let mut sess =
            EngineSession::new(&g, None, EngineConfig::default().congest_split(1), |_| {
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
        let mut sess = EngineSession::new(&g, None, EngineConfig::default(), |_| Chatty);
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
        let mut sess = EngineSession::new(&g, Some(&mask), EngineConfig::default(), |_| CallDead);
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
