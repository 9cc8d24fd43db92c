//! # engine — a sharded, message-passing LOCAL-model execution runtime
//!
//! The seed crates *simulate* LOCAL algorithms: sequential functions iterate
//! over vertices and charge rounds to a [`local_model::RoundLedger`] by
//! analysis. This crate *executes* them: explicit per-node programs exchange
//! messages in synchronized rounds, run in parallel across vertex shards,
//! and every round bound is **observed**, not hand-computed — the move the
//! distributed-coloring literature (Barenboim–Elkin, Ghaffari-style
//! runtimes) assumes when it states round and message complexity.
//!
//! Pieces:
//!
//! * [`NodeProgram`] — per-vertex state machine:
//!   [`init`](NodeProgram::init) / [`on_round`](NodeProgram::on_round)
//!   (inbox → outbox + state transition) / [`halted`](NodeProgram::halted)
//!   vote.
//! * [`GraphView`] — the active-set abstraction: a graph plus an optional
//!   [`VertexSet`](graphs::VertexSet) mask, the `mask` argument of
//!   [`EngineSession::new`]. Masked sessions run the induced subgraph
//!   only — dead vertices get no program, mailbox, RNG stream, or ledger
//!   charge — while every
//!   observable stays keyed on original vertex ids, so masked runs match
//!   the sequential masked primitives bit for bit.
//! * [`EngineSession`] — the driver: cuts the view once into contiguous,
//!   edge-mass-balanced worker groups, executes them on a **persistent
//!   worker pool** (threads spawned once per session or shared across
//!   sessions through an [`EnginePool`], parked on reusable barriers, staging
//!   outbound traffic in per-worker arenas — each payload stored once, one
//!   8-byte reference per edge, bucketed by destination group — see the
//!   `pool` module internals), routes the references through
//!   double-buffered **struct-of-arrays mailboxes** (one contiguous
//!   reference segment per worker group plus one `(start, len)` span per
//!   vertex, rebuilt by counting sort — zero per-message allocation) in a
//!   second **worker-parallel routing phase**, hands each program its
//!   inbox as an [`Inbox`] view of `(sender, &payload)` pairs, and records
//!   [`EngineMetrics`]
//!   (messages, max width,
//!   active nodes, wall and routing time) alongside a
//!   [`RoundLedger`](local_model::RoundLedger). [`EngineConfig::shards`]
//!   and [`EngineConfig::workers`] are pure performance knobs: any
//!   combination replays the same run.
//! * Determinism — a program that draws randomness owns its stream,
//!   seeded with [`node_rng`]`(seed, node id)` in its factory, so the
//!   stream depends on `(seed, node id)` only; inboxes are delivered in
//!   ascending original-sender order (worker groups stage their senders in
//!   ascending id order and routing concatenates groups in order, so only
//!   fault-delayed traffic is ever sorted), so randomized programs replay
//!   **bit-identically regardless of shard count**.
//! * [`FaultPlan`] — drop or delay a node's outbox at a chosen round, or
//!   duplicate / lose individual messages with seeded per-edge rules
//!   ([`FaultPlan::duplicate_edges`], [`FaultPlan::lose_edges`]), without
//!   the program's knowledge.
//! * CONGEST accounting — every message carries a typed wire format
//!   ([`WireCodec`]: encode to / decode from word frames), and
//!   [`CongestMode`] decides what the recorded
//!   [`EngineMessage::width`]s mean: under [`CongestMode::Unlimited`] they
//!   are only recorded, and a run is CONGEST-safe at width `w` exactly when
//!   [`EngineMetrics::max_width`] ≤ `w` (the init round included);
//!   [`CongestMode::Split`]
//!   ([`EngineConfig::congest_split`]) sends each wide message over every
//!   edge in budget-sized frames over consecutive virtual rounds, with the
//!   extra physical rounds charged to the [`SPLIT_PHASE`] ledger phase and
//!   counted in [`EngineMetrics`] (`physical_rounds`, `fragments`).
//! * [`programs`] — ports of the repository's algorithms onto the engine,
//!   each equivalence-tested against its sequential twin.
//!
//! # Examples
//!
//! ```
//! use engine::{EngineConfig, EngineSession, Inbox, NodeCtx, NodeProgram, Outbox, Stop};
//! use graphs::gen;
//!
//! // Every node learns its neighborhood's max id in one round.
//! struct MaxOfNeighbors {
//!     best: usize,
//!     done: bool,
//! }
//! impl NodeProgram for MaxOfNeighbors {
//!     type Message = usize;
//!     fn init(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<usize> {
//!         self.best = ctx.id;
//!         Outbox::Broadcast(ctx.id)
//!     }
//!     fn on_round(&mut self, _: &mut NodeCtx<'_>, inbox: Inbox<'_, usize>) -> Outbox<usize> {
//!         self.best = inbox.iter().map(|(_, &m)| m).fold(self.best, usize::max);
//!         self.done = true;
//!         Outbox::Silent
//!     }
//!     fn halted(&self) -> bool {
//!         self.done
//!     }
//! }
//!
//! let g = gen::cycle(8);
//! let mut sess = EngineSession::new(&g, None, EngineConfig::default().with_shards(2), |_| {
//!     MaxOfNeighbors { best: 0, done: false }
//! });
//! let report = sess.run_phase("max", Stop::AllHalted);
//! assert!(report.converged);
//! assert_eq!(report.rounds, 1);
//! assert_eq!(sess.programs()[0].best, 7); // neighbors of 0 on the cycle: 1 and 7
//! ```
//!
//! Raw-pointer code is confined to one private module, `exec`, which holds
//! the thread pool and the primitive that hands each worker group disjoint
//! `&mut` parts of an epoch; the compiler rejects it anywhere else.

#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod context;
pub mod driver;
#[allow(unsafe_code)]
mod exec;
pub mod faults;
pub mod mailbox;
pub mod metrics;
pub(crate) mod pool;
pub mod program;
pub mod programs;
mod shard;
pub mod view;
mod wake;

pub use context::{node_rng, NodeCtx};
pub use driver::{CongestMode, EngineConfig, EngineSession, PhaseReport, Stop, SPLIT_PHASE};
pub use exec::EnginePool;
pub use faults::{FaultAction, FaultPlan};
pub use metrics::{EngineMetrics, RoundMetrics};
pub use program::{Activation, EngineMessage, Inbox, InboxIter, NodeProgram, Outbox, WireCodec};
pub use programs::{
    engine_classification_gather, engine_cole_vishkin_3color, engine_degree_plus_one_coloring,
    engine_detect_clique, engine_gather_balls, engine_h_partition, engine_layered_greedy,
    engine_randomized_list_coloring, engine_ruling_forest,
};
pub use view::GraphView;

/// Total worker threads spawned by engine pools since process start — the
/// observable a pipeline test pins to prove pool *sharing* actually shares:
/// with one [`EnginePool`] threaded through every session, the delta across
/// a peeling run stays at the pool's size instead of growing per level.
pub fn worker_threads_spawned() -> usize {
    exec::SPAWNED.load(std::sync::atomic::Ordering::Relaxed)
}

/// `usize` is a first-class message: several programs exchange bare ids or
/// colors. The wire format is the value itself, one word.
impl WireCodec for usize {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(*self as u64);
    }

    fn decode(words: &[u64]) -> Option<Self> {
        match words {
            [w] => Some(*w as usize),
            _ => None,
        }
    }
}

impl EngineMessage for usize {}

/// `u64` is likewise a first-class one-word message.
impl WireCodec for u64 {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(*self);
    }

    fn decode(words: &[u64]) -> Option<Self> {
        match words {
            [w] => Some(*w),
            _ => None,
        }
    }
}

impl EngineMessage for u64 {}
