//! The node-program abstraction: what one vertex runs.
//!
//! A [`NodeProgram`] is the per-vertex half of a LOCAL-model algorithm:
//! private state, an [`init`](NodeProgram::init) hook that may publish the
//! node's initial knowledge, an [`on_round`](NodeProgram::on_round) step
//! mapping last round's inbox to this round's outbox, and a
//! [`halted`](NodeProgram::halted) vote. The engine owns synchronization,
//! routing, sharding, and accounting; programs never see anything beyond
//! their own neighborhood — which is exactly the LOCAL model's promise.
//!
//! Messages additionally carry a **wire format** ([`WireCodec`]): every
//! payload encodes to, and decodes from, a sequence of abstract machine
//! words. The codec is what turns the LOCAL-model runtime into a CONGEST
//! one — under [`CongestMode::Split`](crate::CongestMode::Split) an
//! over-budget message crosses each edge in budget-sized frames over
//! consecutive virtual rounds, and the engine charges those extra rounds.

use std::fmt;

use graphs::VertexId;

use crate::context::NodeCtx;
use crate::mailbox::{Ref, Store};

/// The typed wire format of a message: how it serializes into CONGEST word
/// frames.
///
/// The engine uses the codec whenever a message must actually cross a
/// bandwidth-limited edge — [`CongestMode::Split`](crate::CongestMode::Split)
/// encodes every over-budget message once, as it is stored, and stores the
/// decoded copy that receivers read. The contract every implementation
/// must keep:
///
/// * **Round trip** — `decode(encode(m)) == Some(m)` for every message the
///   program can emit.
/// * **Width honesty** — the encoding has exactly
///   [`EngineMessage::width`] words, so the recorded width *is* the wire
///   cost (property-tested in `tests/engine_equivalence.rs` for every
///   program message type, and asserted on every message split mode
///   round-trips).
pub trait WireCodec: Sized {
    /// Appends the message's word frames to `out`.
    fn encode(&self, out: &mut Vec<u64>);

    /// Rebuilds a message from the exact word sequence
    /// [`encode`](WireCodec::encode) produced. `None` marks a malformed
    /// word sequence — a codec bug, never a valid run.
    fn decode(words: &[u64]) -> Option<Self>;

    /// Convenience: the encoding as a fresh vector.
    fn encode_to_vec(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// A message payload moved between nodes by the engine.
///
/// [`width`](EngineMessage::width) is the abstract size of the message in
/// words; the engine records the per-round maximum so experiments can report
/// *observed* message-size bounds (CONGEST-style accounting) next to round
/// counts. The default of 1 fits constant-size messages. The width must
/// equal the [`WireCodec`] encoding's word count (except that zero-word
/// encodings report width 1 — a message exists even when it carries no
/// payload).
///
/// Messages are `'static`: they outlive the round that produced them (they
/// sit in the payload stores and the fault-delay queues), so they may not
/// borrow from the graph or the session. `Clone` is needed only to copy a
/// fault-delayed message out of its store: an outbox's payload is stored
/// once, whatever the number of receivers, and receivers borrow it.
pub trait EngineMessage: Clone + Send + Sync + WireCodec + 'static {
    /// Abstract message size in words.
    fn width(&self) -> usize {
        1
    }
}

/// What a node emits at the end of a round: one payload, at most one message per edge.
#[derive(Clone, Debug)]
pub enum Outbox<M> {
    /// Nothing this round.
    Silent,
    /// The same message to every live neighbor (the LOCAL-model default).
    Broadcast(M),
    /// One message to one live neighbor.
    Unicast(VertexId, M),
    /// The same message to the listed live neighbors, strictly ascending
    /// (staging panics otherwise); an empty list sends nothing.
    Multicast(Vec<VertexId>, M),
}

impl<M> Outbox<M> {
    /// Number of point-to-point messages this outbox expands to, given the
    /// sender's degree.
    pub fn fanout(&self, degree: usize) -> usize {
        match self {
            Outbox::Silent => 0,
            Outbox::Broadcast(_) => degree,
            Outbox::Unicast(..) => 1,
            Outbox::Multicast(dsts, _) => dsts.len(),
        }
    }
}

/// A node's inbox for one round: the messages its neighbors sent in the
/// previous round, as `(sender, &message)` pairs in delivery order —
/// ascending original sender id, a sender recurring only under duplication
/// or delay faults (see [`NodeProgram::on_round`]).
///
/// A view, not a container: the engine stores each payload once — one
/// entry per outbox, not one per edge — and an inbox is a run of
/// references to those entries. [`iter`](Inbox::iter) (or `for (src, m) in
/// inbox`) borrows each payload in place; a program that needs one past
/// the round clones it itself.
pub struct Inbox<'a, M> {
    refs: &'a [Ref],
    stores: &'a [Store<M>],
}

impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Inbox<'_, M> {}

impl<'a, M> Inbox<'a, M> {
    /// The inbox made of `refs` into `stores`.
    pub(crate) fn new(refs: &'a [Ref], stores: &'a [Store<M>]) -> Self {
        Inbox { refs, stores }
    }

    /// Number of messages delivered.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether no message arrived.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// The `(sender, &message)` pairs, in delivery order.
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter {
            refs: self.refs.iter(),
            stores: self.stores,
        }
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = (VertexId, &'a M);
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

impl<M: fmt::Debug> fmt::Debug for Inbox<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The iterator of an [`Inbox`]: `(sender, &message)` in delivery order.
pub struct InboxIter<'a, M> {
    refs: std::slice::Iter<'a, Ref>,
    stores: &'a [Store<M>],
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (VertexId, &'a M);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let &(store, slot) = self.refs.next()?;
        let (src, m) = self.stores[store as usize].get(slot);
        Some((*src, m))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.refs.size_hint()
    }
}

/// When a node wants its `on_round` step, **beyond** message arrival.
///
/// The engine always steps a node whose inbox is non-empty. `Activation`
/// is the node's standing request for the empty-inbox case — the hint
/// that lets frontier-sparse rounds skip the quiescent bulk of the graph
/// (see [`NodeProgram::activation`]). A skipped step is semantically an
/// `on_round` that would have returned [`Outbox::Silent`] without touching
/// state, so the hint is purely an optimization *when the program keeps
/// that contract*; the engine cannot check it, but
/// [`EngineConfig::with_frontier(false)`](crate::EngineConfig::with_frontier)
/// forces full scans so equivalence tests can.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Step every round regardless of traffic — the conservative default;
    /// a program that never overrides [`NodeProgram::activation`] runs
    /// exactly as it always did.
    EveryRound,
    /// Step only when a message arrives. Right for nodes that are done (a
    /// step is a no-op) or purely reactive (an empty-inbox step reads
    /// nothing and changes nothing).
    OnMessage,
    /// Step when a message arrives **or** once `round >= the given round`
    /// — for programs with an offline schedule (a peeling level, a
    /// color-class slot, a flood deadline) that must fire on time even if
    /// no neighbor speaks first.
    ///
    /// Wake-queue contract: the hint is re-read after **every** step (and
    /// after every [`for_each_program`](crate::EngineSession::for_each_program)
    /// rescan), and only the latest reading stands — returning
    /// `WakeAt(r)` registers one future wake at `r` (a past `r` collapses
    /// to the next round; the node was stepped on time, so only the future
    /// matters), and any earlier registration is superseded. A wake fires
    /// the node exactly once at round `r` even if its inbox is empty; to
    /// fire again the program must return a fresh `WakeAt` from that step.
    WakeAt(u64),
}

/// The per-vertex program executed by the engine.
///
/// Synchronous semantics: in every round the engine steps every node whose
/// inbox is non-empty or whose [`activation`](NodeProgram::activation)
/// hint requests the round — with the default hint
/// ([`Activation::EveryRound`]) that is **every** node, halted or not —
/// passing the messages its neighbors sent in the previous round as an
/// [`Inbox`] sorted by sender id. A node skipped by its own hint behaves
/// exactly as if its `on_round` had returned [`Outbox::Silent`] without
/// touching state.
/// [`halted`](NodeProgram::halted)
/// is a *vote*: the engine ends a [`Stop::AllHalted`](crate::Stop::AllHalted)
/// phase once every node votes to halt; a node may keep participating after
/// voting (its vote is re-read every round). This mirrors the LOCAL model,
/// where all processors run in lockstep and termination is a global event.
pub trait NodeProgram: Send {
    /// Message type this program exchanges.
    type Message: EngineMessage;

    /// Called once before the first round, with an empty network.
    ///
    /// The returned outbox is delivered in round 1 and charged **zero**
    /// rounds: it models the standard LOCAL assumption that nodes start
    /// knowing their neighbors' identifiers (equivalently, a free port-number
    /// exchange at wake-up).
    fn init(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<Self::Message>;

    /// One synchronous round: previous round's inbox in, outbox out.
    ///
    /// `inbox` yields `(sender, &message)` pairs sorted by sender id; the
    /// order is deterministic and independent of the shard count. The
    /// payloads are borrowed from the engine's per-round stores — one stored
    /// copy per outbox, shared by every receiver — and are valid for this
    /// call only.
    fn on_round(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        inbox: Inbox<'_, Self::Message>,
    ) -> Outbox<Self::Message>;

    /// The node's current halt vote.
    fn halted(&self) -> bool;

    /// The node's standing wake-up request for rounds in which **no
    /// message arrives** (a non-empty inbox always steps the node). Read
    /// after every step of the node (`init` included) and at every
    /// [`for_each_program`](crate::EngineSession::for_each_program)
    /// rescan, and only the latest reading stands (see
    /// [`Activation::WakeAt`]); must be a pure function of program state,
    /// so it is shard-invariant like everything else.
    ///
    /// Overriding this is the frontier-sparse contract: whenever the hint
    /// lets the engine skip a round, that round's `on_round` **would have
    /// returned [`Outbox::Silent`] without changing state**. The default
    /// keeps the engine's historical behavior of stepping everyone.
    fn activation(&self) -> Activation {
        Activation::EveryRound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Unit;
    impl WireCodec for Unit {
        fn encode(&self, out: &mut Vec<u64>) {
            out.push(0);
        }
        fn decode(words: &[u64]) -> Option<Self> {
            (words == [0]).then_some(Unit)
        }
    }
    impl EngineMessage for Unit {}

    #[test]
    fn fanout_counts() {
        assert_eq!(Outbox::<Unit>::Silent.fanout(5), 0);
        assert_eq!(Outbox::Broadcast(Unit).fanout(5), 5);
        assert_eq!(Outbox::Unicast(3, Unit).fanout(5), 1);
        assert_eq!(Outbox::Multicast(vec![0, 1], Unit).fanout(5), 2);
    }

    #[test]
    fn default_width_is_one() {
        assert_eq!(Unit.width(), 1);
    }

    #[test]
    fn codec_round_trips() {
        assert_eq!(Unit.encode_to_vec(), vec![0]);
        assert_eq!(Unit::decode(&[0]), Some(Unit));
        assert_eq!(Unit::decode(&[1]), None);
        assert_eq!(Unit::decode(&[]), None);
    }
}
