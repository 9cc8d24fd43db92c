//! Ports of the repository's LOCAL algorithms onto the engine.
//!
//! Each port is a genuine message-passing re-implementation — per-node
//! state, explicit messages, no global reads — paired with an adapter
//! function whose signature mirrors the sequential original and whose
//! output (coloring/partition **and** ledger totals) is equivalence-tested
//! against it:
//!
//! * [`engine_cole_vishkin_3color`] ↔ [`local_model::cole_vishkin_3color`]
//! * [`engine_h_partition`] ↔ [`local_model::h_partition`]
//! * [`engine_randomized_list_coloring`] ↔
//!   [`local_model::randomized_list_coloring`] (mask-aware)
//! * [`engine_degree_plus_one_coloring`] ↔
//!   [`local_model::degree_plus_one_coloring`] (mask-aware; the per-level
//!   coloring Theorem 1.3's peel loop runs on the engine)
//! * [`engine_gather_balls`] ↔ [`local_model::gather_balls`], plus the
//!   rich/poor + ball-flood session behind Theorem 1.3's classification
//!   ([`engine_classification_gather`])
//! * [`engine_detect_clique`] ↔ [`local_model::detect_clique`] (§3's
//!   two-round handshake as two engine rounds)
//! * [`engine_ruling_forest`] ↔ [`local_model::ruling_forest`]
//! * [`engine_layered_greedy`] ↔ the sequential layered greedy of
//!   Lemma 3.2 (`distributed_coloring::extend`), sharing its slot schedule
//!   via [`layered_slots`]
//!
//! Together the last four retire the last sequential phases inside an
//! engine-mode Theorem 1.3 run: with `engine_shards` set, classification,
//! clique detection, ruling forests, per-level coloring (each forest's
//! Cole–Vishkin pass included), and the layered greedy all execute as
//! engine sessions, every one a clone of the caller's
//! `SparseColoringConfig::engine` with only its mask set.
//!
//! # Worst-case logical message widths
//!
//! Every message type carries a [`WireCodec`](crate::WireCodec) whose
//! encoding is exactly [`width`](crate::EngineMessage::width) words
//! (property-tested in `tests/engine_equivalence.rs`), so these bounds are
//! the wire budgets that decide whether a program is CONGEST-safe as it
//! stands (its run's [`EngineMetrics::max_width`](crate::EngineMetrics::max_width)
//! fits the budget) or needs [`CongestMode::Split`](crate::CongestMode::Split):
//!
//! | Program | Message | Worst-case logical width |
//! |---|---|---|
//! | [`CvProgram`] | `usize` color | **1** |
//! | [`SweepProgram`] | `usize` color | **1** |
//! | [`LayeredGreedyProgram`] | `usize` color | **1** |
//! | [`HPartitionProgram`] | `Peeled` | **1** |
//! | [`RandomizedProgram`] | `ColorMsg` | **1** |
//! | [`GatherProgram`] | `GatherMsg::Ball` | **\|B^r(v)\|** — the fresh ball members forwarded in one hop, up to the whole radius-`r` ball (Θ(d^r) on degree-`d` rich subgraphs) |
//! | [`CliqueProgram`] | `NbrList` | **deg(v)** — the full live adjacency list (≤ d in Theorem 1.3's rich scope) |
//! | [`RulingProgram`] | `RulingMsg::Tokens` | **fresh prefixes per level round** — up to the surviving ruler count of one bit level's group (claim/keep rounds are width 1); held in a [`TokenList`](ruling::TokenList), inline up to four prefixes, so the width is unchanged by where the list lives |
//!
//! The constant-width programs are CONGEST-safe at one word as they stand;
//! the gather, clique, and ruling floods are the `Vec`-payload traffic that
//! dominates Theorem 1.3 and the reason split mode exists.
//!
//! # Payloads are stored once
//!
//! Programs own plain payloads (`Vec`s included) and read their inbox
//! through an [`Inbox`](crate::Inbox) view that borrows each payload in
//! place. The engine stores each payload once per `Broadcast` and hands
//! every receiver a reference to it, so the width of a broadcast costs
//! memory and time once, not once per edge; a `Multi` or `Unicast`
//! message is stored once per message. That is why the floods prefer
//! `Broadcast` whenever the recipients are every live neighbor:
//! [`GatherProgram`] forwards fresh ball members as a broadcast when every
//! neighbor is rich (`Multi` only to a strict rich subset), and
//! [`RulingProgram`] broadcasts its token lists and claims.
//!
//! # Worst-case frontier sizes
//!
//! Programs opt into frontier-sparse rounds by returning a non-default
//! [`Activation`](crate::Activation) hint; the driver then skips `on_round`
//! for hinted nodes with an empty inbox. The gain is bounded by how fast a
//! program's frontier actually shrinks, and the worst case is always the
//! full live set — gating degrades to a full scan (`O(n)` stepped nodes
//! per round), never below it:
//!
//! * [`GatherProgram`] / [`CliqueProgram`]: every round floods every live
//!   node until the radius is exhausted, so the frontier stays at `n` for
//!   the whole session; `OnMessage` only trims the post-completion tail.
//! * [`RulingProgram`]: the frontier is the surviving-ruler set plus every
//!   node still receiving tokens — worst case `n` on a star-like level,
//!   decaying with the ruler count on bounded-degree inputs.
//! * [`LayeredGreedyProgram`]: `WakeAt` wakes exactly one (depth, class)
//!   layer per slot round, so the per-round frontier is the largest layer —
//!   worst case `n` when the layering is flat (e.g. a single depth).
//! * [`HPartitionProgram`]: `EveryRound` until its first step, then
//!   `OnMessage` — round 1 steps all `n` nodes, every later round only the
//!   unpeeled nodes that hear a neighbor peel.
//! * [`CvProgram`]: `EveryRound` over a session masked to the forest's
//!   members, so the frontier is the member count by declaration — `n`
//!   only for a spanning forest; every member broadcasts every round.
//! * `EveryRound` programs [`RandomizedProgram`] and [`SweepProgram`]: the
//!   frontier is the session's live set by declaration; they broadcast
//!   every round, so there is nothing to skip.
//!
//! Wake-queue contract for `WakeAt` programs: the engine re-reads the
//! activation hint after every step and keeps only the **latest** reading,
//! so a `WakeAt(r)` is a single-shot alarm — it steps the node once at
//! round `r` (or earlier, if traffic arrives first), and the program must
//! return a fresh `WakeAt` from that step to schedule the next slot.
//! [`LayeredGreedyProgram`] does exactly this: each layer step registers
//! the next `(depth, class)` slot round, so between slots the node costs
//! the scheduler one bucket-queue entry and zero compute. A hint must be a
//! pure function of program state (it is re-derived on rescans), never of
//! wall-clock or shard placement.
//!
//! [`RoundMetrics::active_frac`](crate::RoundMetrics) reports the realized
//! ratio per round.

pub mod cole_vishkin;
pub mod gather;
pub mod h_partition;
pub mod layered;
pub mod randomized;
pub mod ruling;
pub mod sweep;

pub use cole_vishkin::{engine_cole_vishkin_3color, CvProgram};
pub use gather::{
    engine_classification_gather, engine_detect_clique, engine_gather_balls, CliqueProgram,
    GatherProgram,
};
pub use h_partition::{engine_h_partition, HPartitionProgram};
pub use layered::{engine_layered_greedy, layered_slot, layered_slots, LayeredGreedyProgram};
pub use randomized::{engine_randomized_list_coloring, RandomizedProgram};
pub use ruling::{engine_ruling_forest, RulingProgram};
pub use sweep::{engine_coloring_by_forest_merge, engine_degree_plus_one_coloring, SweepProgram};
