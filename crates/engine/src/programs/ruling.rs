//! The (α, β)-ruling forest construction as a message-passing node program
//! — the scaffolding phase of the paper's Lemma 3.2, executed.
//!
//! [`RulingProgram`] runs three stages back to back in one masked session,
//! deriving its schedule purely from the round number (no host seams):
//!
//! 1. **Ruling levels** (rounds `1 ..= α·bits`, charged `"ruling-set"`):
//!    bit level `b` spans α rounds. In its first round every surviving
//!    ruler whose bit `b` is 0 injects a token tagged with its identifier
//!    prefix `id >> (b+1)`; tokens flood `g[mask]` one hop per round for
//!    α − 1 hops ([`local_model::merge_fresh`] — the same step the
//!    sequential [`local_model::ruling_set`] simulates); a ruler whose bit
//!    `b` is 1 drops out on receiving a token of its own prefix. In the
//!    **final** level round the surviving rulers become roots and
//!    broadcast their first claim, so the claiming BFS below reaches
//!    distance β in β rounds — exactly the sequential claim depth.
//! 2. **Claiming** (β rounds, charged `"ruling-forest-claim"`): an
//!    unclaimed vertex adopts the smallest `(root, sender)` claim it hears
//!    ([`local_model::claim_choice`], the shared tie-break) and forwards
//!    its own claim the same round.
//! 3. **Pruning** (β rounds, charged `"ruling-forest-prune"`): subset
//!    vertices and roots mark themselves kept; `Keep` climbs each parent
//!    chain one hop per round, marking exactly the root-to-subset chains —
//!    the set the sequential prune walks centrally.
//!
//! [`engine_ruling_forest`] is the adapter with the sequential signature:
//! same [`RulingForest`], same ledger charges, at any shard count.

use graphs::{Graph, VertexId, VertexSet};
use local_model::{claim_choice, merge_fresh, ruling_beta, ruling_bits, RoundLedger, RulingForest};

use crate::context::NodeCtx;
use crate::driver::{EngineConfig, EngineSession, Stop};
use crate::metrics::EngineMetrics;
use crate::program::{Activation, EngineMessage, Inbox, NodeProgram, Outbox, WireCodec};

/// Ruling-construction traffic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RulingMsg {
    /// Fresh prefix tokens of one bit level (tagged so a stray token can
    /// never leak into the wrong level).
    Tokens {
        /// The bit level these tokens belong to.
        bit: usize,
        /// The fresh prefixes (sorted).
        prefixes: TokenList,
    },
    /// "I belong to this root's tree" — the claiming BFS frontier.
    Claim {
        /// The claimed root.
        root: VertexId,
    },
    /// "You are on a kept chain" — the pruning walk, sent parent-ward.
    Keep,
}

/// How many prefixes a [`TokenList`] stores without a heap allocation.
const INLINE_TOKENS: usize = 4;

/// The prefix list of one [`RulingMsg::Tokens`]: up to four prefixes live
/// inline, a longer list spills to a `Vec`. Most token messages carry one
/// or two prefixes (on a random half of a 200 × 200 grid at α = 6, 98.7%
/// of them carry at most four), so a typical message owns no heap memory.
///
/// A list only grows, and it spills exactly when its fifth prefix
/// arrives, so the representation is canonical: inline exactly when it
/// holds at most four prefixes. Equality compares the prefixes.
#[derive(Clone)]
pub struct TokenList(Tokens);

#[derive(Clone)]
enum Tokens {
    Inline {
        len: u8,
        items: [usize; INLINE_TOKENS],
    },
    Spilled(Vec<usize>),
}

impl TokenList {
    /// The empty list (inline).
    pub const fn new() -> Self {
        TokenList(Tokens::Inline {
            len: 0,
            items: [0; INLINE_TOKENS],
        })
    }

    /// Appends one prefix, spilling to the heap on the fifth.
    pub fn push(&mut self, prefix: usize) {
        match &mut self.0 {
            Tokens::Inline { len, items } if (*len as usize) < INLINE_TOKENS => {
                items[*len as usize] = prefix;
                *len += 1;
            }
            Tokens::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_TOKENS);
                spilled.extend_from_slice(items);
                spilled.push(prefix);
                self.0 = Tokens::Spilled(spilled);
            }
            Tokens::Spilled(list) => list.push(prefix),
        }
    }

    /// Whether the prefixes live on the heap (exactly when there are more
    /// than four).
    pub fn spilled(&self) -> bool {
        matches!(self.0, Tokens::Spilled(_))
    }
}

impl Default for TokenList {
    fn default() -> Self {
        TokenList::new()
    }
}

impl std::ops::Deref for TokenList {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        match &self.0 {
            Tokens::Inline { len, items } => &items[..*len as usize],
            Tokens::Spilled(list) => list,
        }
    }
}

impl AsRef<[usize]> for TokenList {
    fn as_ref(&self) -> &[usize] {
        self
    }
}

impl Extend<usize> for TokenList {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        let mut iter = iter.into_iter();
        while !self.spilled() {
            match iter.next() {
                Some(prefix) => self.push(prefix),
                None => return,
            }
        }
        if let Tokens::Spilled(list) = &mut self.0 {
            list.extend(iter);
        }
    }
}

impl FromIterator<usize> for TokenList {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut list = TokenList::new();
        list.extend(iter);
        list
    }
}

impl PartialEq for TokenList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for TokenList {}

impl std::fmt::Debug for TokenList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Wire layout of [`RulingMsg`]: every word carries a 2-bit tag in its top
/// bits. `Tokens` packs `(bit, prefix)` into each word — one word per
/// prefix — so the wire cost is exactly [`EngineMessage::width`]; `Claim`
/// and `Keep` are single words.
const TAG_SHIFT: u32 = 62;
const TAG_TOKENS: u64 = 0b00;
const TAG_CLAIM: u64 = 0b01;
const TAG_KEEP: u64 = 0b10;
const TAG_EMPTY_TOKENS: u64 = 0b11;
/// `Tokens` words: bits 48..62 hold the bit level, bits 0..48 the prefix.
const BIT_SHIFT: u32 = 48;
const PREFIX_MASK: u64 = (1 << BIT_SHIFT) - 1;
const BIT_MASK: u64 = (1 << (TAG_SHIFT - BIT_SHIFT)) - 1;
const PAYLOAD_MASK: u64 = (1 << TAG_SHIFT) - 1;

fn token_word(tag: u64, bit: usize, prefix: u64) -> u64 {
    debug_assert!((bit as u64) <= BIT_MASK, "bit level exceeds the wire field");
    debug_assert!(prefix <= PREFIX_MASK, "prefix exceeds the wire field");
    (tag << TAG_SHIFT) | ((bit as u64) << BIT_SHIFT) | prefix
}

impl WireCodec for RulingMsg {
    fn encode(&self, out: &mut Vec<u64>) {
        match self {
            RulingMsg::Tokens { bit, prefixes } if prefixes.is_empty() => {
                out.push(token_word(TAG_EMPTY_TOKENS, *bit, 0));
            }
            RulingMsg::Tokens { bit, prefixes } => {
                out.extend(
                    prefixes
                        .iter()
                        .map(|&p| token_word(TAG_TOKENS, *bit, p as u64)),
                );
            }
            RulingMsg::Claim { root } => {
                debug_assert!((*root as u64) <= PAYLOAD_MASK);
                out.push((TAG_CLAIM << TAG_SHIFT) | *root as u64);
            }
            RulingMsg::Keep => out.push(TAG_KEEP << TAG_SHIFT),
        }
    }

    fn decode(words: &[u64]) -> Option<Self> {
        let first = *words.first()?;
        match first >> TAG_SHIFT {
            TAG_TOKENS => {
                let bit = ((first >> BIT_SHIFT) & BIT_MASK) as usize;
                let prefixes = words
                    .iter()
                    .map(|&w| {
                        (w >> TAG_SHIFT == TAG_TOKENS
                            && ((w >> BIT_SHIFT) & BIT_MASK) as usize == bit)
                            .then_some((w & PREFIX_MASK) as usize)
                    })
                    .collect::<Option<TokenList>>()?;
                Some(RulingMsg::Tokens { bit, prefixes })
            }
            TAG_CLAIM if words.len() == 1 => Some(RulingMsg::Claim {
                root: (first & PAYLOAD_MASK) as VertexId,
            }),
            TAG_KEEP if words == [TAG_KEEP << TAG_SHIFT] => Some(RulingMsg::Keep),
            TAG_EMPTY_TOKENS if words.len() == 1 && first & PREFIX_MASK == 0 => {
                Some(RulingMsg::Tokens {
                    bit: ((first >> BIT_SHIFT) & BIT_MASK) as usize,
                    prefixes: TokenList::new(),
                })
            }
            _ => None,
        }
    }
}

impl EngineMessage for RulingMsg {
    fn width(&self) -> usize {
        match self {
            RulingMsg::Tokens { prefixes, .. } => prefixes.len().max(1),
            RulingMsg::Claim { .. } | RulingMsg::Keep => 1,
        }
    }
}

/// Per-node state of the ruling-forest construction.
#[derive(Clone, Debug)]
pub struct RulingProgram {
    alpha: usize,
    bits: usize,
    in_subset: bool,
    /// Still a ruler candidate (subset vertices start true; bit levels may
    /// drop them).
    ruler: bool,
    /// Prefix tokens seen at the current bit level (sorted; cleared when a
    /// new level starts).
    seen: Vec<usize>,
    root_of: usize,
    parent: usize,
    dist: usize,
    keep: bool,
    /// Next round whose step this node needs even without traffic — the
    /// frontier-sparse wake schedule, recomputed after every step (see
    /// [`RulingProgram::next_wake`]).
    wake: u64,
}

impl RulingProgram {
    fn new(alpha: usize, bits: usize, in_subset: bool) -> Self {
        RulingProgram {
            alpha,
            bits,
            in_subset,
            ruler: in_subset,
            seen: Vec::new(),
            root_of: usize::MAX,
            parent: usize::MAX,
            dist: usize::MAX,
            keep: false,
            wake: 1,
        }
    }

    /// The claim and prune budget `β = α · bits` ([`ruling_beta`]),
    /// computed rather than stored per node.
    fn beta(&self) -> usize {
        self.alpha * self.bits
    }

    /// Whether this node survived as a ruling-set member (a tree root).
    pub fn is_root(&self) -> bool {
        self.ruler
    }

    /// `(parent, root, depth)` if this node is on a kept chain.
    pub fn tree_entry(&self) -> Option<(VertexId, VertexId, usize)> {
        self.keep.then_some((self.parent, self.root_of, self.dist))
    }

    fn on_rule_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: Inbox<'_, RulingMsg>,
        b: usize,
        k: usize,
    ) -> Outbox<RulingMsg> {
        if k == 1 {
            self.seen.clear();
        }
        let incoming = inbox.iter().filter_map(|(_, m)| match m {
            RulingMsg::Tokens { bit, prefixes } if *bit == b => Some(&prefixes[..]),
            _ => None,
        });
        // The fresh prefixes are built straight into the message's inline
        // list: a step allocates nothing unless it forwards five or more.
        let mut fresh = TokenList::new();
        merge_fresh(&mut self.seen, incoming, &mut fresh);
        let prefix = ctx.id >> (b + 1);
        if self.ruler && (ctx.id >> b) & 1 == 1 && self.seen.binary_search(&prefix).is_ok() {
            // A kept ruler of this node's own group is within distance
            // < α: drop out.
            self.ruler = false;
        }
        if k == 1 && self.ruler && (ctx.id >> b) & 1 == 0 {
            // Source injection: announce the group prefix (only useful when
            // a propagation round exists to deliver it).
            if let Err(at) = self.seen.binary_search(&prefix) {
                self.seen.insert(at, prefix);
            }
            fresh = std::iter::once(prefix).collect();
        }
        let last_level_round = b + 1 == self.bits && k == self.alpha;
        if last_level_round {
            // The ruling set is final: survivors crown themselves roots and
            // seed the claiming BFS so round 1 of the claim phase already
            // claims distance-1 vertices (the sequential BFS depth).
            if self.ruler {
                self.root_of = ctx.id;
                self.parent = ctx.id;
                self.dist = 0;
                return Outbox::Broadcast(RulingMsg::Claim { root: ctx.id });
            }
            return Outbox::Silent;
        }
        if k < self.alpha && !fresh.is_empty() {
            // A token arriving in level round k has traveled k − 1 hops;
            // forwarding keeps it within the α − 1 budget.
            return Outbox::Broadcast(RulingMsg::Tokens {
                bit: b,
                prefixes: fresh,
            });
        }
        Outbox::Silent
    }

    fn on_claim_round(&mut self, inbox: Inbox<'_, RulingMsg>, k: usize) -> Outbox<RulingMsg> {
        if self.root_of != usize::MAX {
            return Outbox::Silent;
        }
        let claims = inbox.iter().filter_map(|(src, m)| match m {
            RulingMsg::Claim { root } => Some((*root, src)),
            _ => None,
        });
        if let Some((root, parent)) = claim_choice(claims) {
            self.root_of = root;
            self.parent = parent;
            self.dist = k;
            if k < self.beta() {
                // Claims forwarded in the final round could never be
                // processed — the sequential BFS stops at distance β too.
                return Outbox::Broadcast(RulingMsg::Claim { root });
            }
        }
        Outbox::Silent
    }

    fn on_prune_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: Inbox<'_, RulingMsg>,
        k: usize,
    ) -> Outbox<RulingMsg> {
        let heard_keep = inbox.iter().any(|(_, m)| matches!(m, RulingMsg::Keep));
        if k == 1 {
            // Roots and claimed subset vertices are kept unconditionally;
            // each subset vertex starts its chain's climb.
            if self.ruler {
                self.keep = true;
            }
            if self.in_subset && self.root_of != usize::MAX {
                self.keep = true;
                if self.parent != ctx.id {
                    return Outbox::Unicast(self.parent, RulingMsg::Keep);
                }
            }
            return Outbox::Silent;
        }
        if heard_keep && !self.keep {
            self.keep = true;
            if self.parent != ctx.id && self.parent != usize::MAX {
                return Outbox::Unicast(self.parent, RulingMsg::Keep);
            }
        }
        Outbox::Silent
    }

    /// The next round strictly after `r` whose step this node needs even
    /// when no message arrives — every other round's step is a pure
    /// `Silent` (tokens, claims, and `Keep` all arrive as traffic, which
    /// always wakes a node). Three kinds of scheduled work exist:
    ///
    /// * the first round of the next bit level, where stale tokens must be
    ///   cleared (`seen` non-empty) and surviving rulers may inject;
    /// * the final level round, where surviving rulers crown themselves
    ///   roots and seed the claiming BFS;
    /// * the first pruning round, where roots and claimed subset vertices
    ///   mark themselves kept and start the chain climbs.
    ///
    /// `u64::MAX` once every remaining step is message-driven.
    fn next_wake(&self, r: usize) -> u64 {
        let rule_rounds = self.alpha * self.bits;
        let mut wake = u64::MAX;
        if r < rule_rounds && (self.ruler || !self.seen.is_empty()) {
            let level = r / self.alpha + usize::from(!r.is_multiple_of(self.alpha));
            if level < self.bits {
                wake = wake.min((level * self.alpha + 1) as u64);
            }
        }
        if self.ruler && r < rule_rounds {
            wake = wake.min(rule_rounds as u64);
        }
        let prune_start = rule_rounds + self.beta() + 1;
        if (self.ruler || self.in_subset) && r < prune_start {
            wake = wake.min(prune_start as u64);
        }
        wake
    }
}

impl NodeProgram for RulingProgram {
    type Message = RulingMsg;

    fn init(&mut self, _ctx: &mut NodeCtx<'_>) -> Outbox<RulingMsg> {
        self.wake = self.next_wake(0);
        Outbox::Silent
    }

    fn on_round(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        inbox: Inbox<'_, RulingMsg>,
    ) -> Outbox<RulingMsg> {
        let r = ctx.round as usize;
        let rule_rounds = self.alpha * self.bits;
        let out = if r <= rule_rounds {
            let b = (r - 1) / self.alpha;
            let k = (r - 1) % self.alpha + 1;
            self.on_rule_round(ctx, inbox, b, k)
        } else if r <= rule_rounds + self.beta() {
            self.on_claim_round(inbox, r - rule_rounds)
        } else if r <= rule_rounds + 2 * self.beta() {
            self.on_prune_round(ctx, inbox, r - rule_rounds - self.beta())
        } else {
            Outbox::Silent
        };
        self.wake = self.next_wake(r);
        out
    }

    fn halted(&self) -> bool {
        self.keep
    }

    /// Kept nodes are done (every later step is a pure `Silent`); everyone
    /// else sleeps until the next scheduled round — tokens, claims, and
    /// `Keep` climbs arrive as traffic and wake their receivers on their
    /// own. This is what collapses the long claim/prune tails from `O(n)`
    /// steps per round to the BFS frontier.
    fn activation(&self) -> Activation {
        if self.keep {
            Activation::OnMessage
        } else {
            Activation::WakeAt(self.wake)
        }
    }
}

/// Engine twin of [`local_model::ruling_forest`]: the full construction
/// executed as message passing over `g[mask]` — identical
/// [`RulingForest`] (roots, parents, depths, membership) and identical
/// ledger charges (`"ruling-set"`, `"ruling-forest-claim"`,
/// `"ruling-forest-prune"`) at any shard count.
///
/// # Panics
///
/// Panics if `alpha == 0` or some `subset` vertex is outside the mask,
/// like the sequential twin.
pub fn engine_ruling_forest(
    g: &Graph,
    mask: Option<&VertexSet>,
    subset: &[VertexId],
    alpha: usize,
    mut config: EngineConfig,
    ledger: &mut RoundLedger,
) -> (RulingForest, EngineMetrics) {
    assert!(alpha >= 1, "alpha must be at least 1");
    let n = g.n();
    for &u in subset {
        assert!(
            mask.is_none_or(|m| m.contains(u)),
            "subset vertex {u} outside mask"
        );
    }
    let bits = ruling_bits(n);
    let beta = ruling_beta(n, alpha);
    let subset_set = VertexSet::from_iter_with_universe(n, subset.iter().copied());
    config.mask = mask.cloned();
    let faults_free = config.faults.is_empty();
    let mut sess = EngineSession::new(g, config, |ctx| {
        RulingProgram::new(alpha, bits, subset_set.contains(ctx.id))
    });
    let mut executed = 0;
    for _ in 0..bits {
        executed += sess
            .run_phase("ruling-set", Stop::Rounds(alpha as u64))
            .rounds;
    }
    executed += sess
        .run_phase("ruling-forest-claim", Stop::Rounds(beta as u64))
        .rounds;
    executed += sess
        .run_phase("ruling-forest-prune", Stop::Rounds(beta as u64))
        .rounds;
    assert_eq!(
        executed,
        (alpha * bits + 2 * beta) as u64,
        "max_rounds interrupted the ruling construction"
    );

    let mut roots = Vec::new();
    let mut parent = vec![usize::MAX; n];
    let mut root_of = vec![usize::MAX; n];
    let mut depth = vec![usize::MAX; n];
    sess.for_each_program(|v, p| {
        if p.is_root() {
            roots.push(v);
        }
        if let Some((pa, root, d)) = p.tree_entry() {
            parent[v] = pa;
            root_of[v] = root;
            depth[v] = d;
        }
    });
    if faults_free {
        for &u in subset {
            debug_assert_ne!(
                root_of[u],
                usize::MAX,
                "ruling-set domination must reach {u} within beta"
            );
        }
    }
    let (_, metrics, run_ledger) = sess.into_parts();
    ledger.absorb(run_ledger);
    (
        RulingForest {
            roots,
            parent,
            root_of,
            depth,
            alpha,
        },
        metrics,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;
    use local_model::ruling_forest;

    fn assert_forests_match(
        g: &Graph,
        mask: Option<&VertexSet>,
        subset: &[VertexId],
        alpha: usize,
        label: &str,
    ) {
        let mut seq_ledger = RoundLedger::new();
        let seq = ruling_forest(g, mask, subset, alpha, &mut seq_ledger);
        for shards in [1usize, 2, 8] {
            let mut eng_ledger = RoundLedger::new();
            let (rf, _) = engine_ruling_forest(
                g,
                mask,
                subset,
                alpha,
                EngineConfig::default().with_shards(shards),
                &mut eng_ledger,
            );
            assert_eq!(rf.roots, seq.roots, "{label} shards={shards}: roots");
            assert_eq!(rf.parent, seq.parent, "{label} shards={shards}: parents");
            assert_eq!(rf.root_of, seq.root_of, "{label} shards={shards}: root_of");
            assert_eq!(rf.depth, seq.depth, "{label} shards={shards}: depth");
            assert_eq!(
                eng_ledger.total(),
                seq_ledger.total(),
                "{label} shards={shards}: ledger totals"
            );
            for phase in ["ruling-set", "ruling-forest-claim", "ruling-forest-prune"] {
                assert_eq!(
                    eng_ledger.phase_total(phase),
                    seq_ledger.phase_total(phase),
                    "{label} shards={shards}: {phase}"
                );
            }
        }
    }

    #[test]
    fn matches_sequential_on_paths_grids_trees() {
        let every_path: Vec<usize> = (0..64).collect();
        assert_forests_match(&gen::path(64), None, &every_path, 4, "path");
        let g = gen::grid(9, 9);
        let subset: Vec<usize> = (0..g.n()).step_by(3).collect();
        assert_forests_match(&g, None, &subset, 5, "grid");
        let t = gen::random_tree(80, 11);
        let subset: Vec<usize> = (0..80).step_by(2).collect();
        assert_forests_match(&t, None, &subset, 6, "tree");
    }

    #[test]
    fn matches_sequential_under_masks() {
        let g = gen::path(30);
        let mut mask = VertexSet::full(30);
        mask.remove(15);
        let subset: Vec<usize> = (0..30).filter(|&v| v != 15).collect();
        assert_forests_match(&g, Some(&mask), &subset, 4, "split path");

        let g = gen::triangular(5, 5);
        let mask = VertexSet::from_iter_with_universe(g.n(), (0..g.n()).filter(|v| v % 4 != 2));
        let subset: Vec<usize> = mask.iter().step_by(2).collect();
        assert_forests_match(&g, Some(&mask), &subset, 3, "masked triangular");
    }

    #[test]
    fn ruling_codec_round_trips() {
        use crate::program::WireCodec;
        let mut msgs = vec![
            RulingMsg::Tokens {
                bit: 13,
                prefixes: [0, 5, 1 << 20].into_iter().collect(),
            },
            RulingMsg::Claim { root: 9217 },
            RulingMsg::Keep,
        ];
        // Token lists on both sides of the inline/spill boundary.
        for len in [0usize, 1, 4, 5, 48] {
            msgs.push(RulingMsg::Tokens {
                bit: len % 7,
                prefixes: (0..len).map(|i| 3 * i + 1).collect(),
            });
        }
        for msg in msgs {
            let words = msg.encode_to_vec();
            assert_eq!(words.len(), crate::EngineMessage::width(&msg), "{msg:?}");
            let decoded = RulingMsg::decode(&words);
            if let Some(RulingMsg::Tokens { prefixes, .. }) = &decoded {
                // Decoding yields the canonical form, the one a list built
                // by pushes has: inline exactly when it fits.
                assert_eq!(prefixes.spilled(), prefixes.len() > INLINE_TOKENS);
            }
            assert_eq!(decoded, Some(msg));
        }
        // Mixed-level token frames are malformed, not silently merged.
        let a = RulingMsg::Tokens {
            bit: 1,
            prefixes: [4].into_iter().collect(),
        }
        .encode_to_vec();
        let b = RulingMsg::Tokens {
            bit: 2,
            prefixes: [4].into_iter().collect(),
        }
        .encode_to_vec();
        assert_eq!(RulingMsg::decode(&[a[0], b[0]]), None);
    }

    #[test]
    fn split_mode_ruling_matches_unlimited() {
        let g = gen::grid(7, 7);
        let subset: Vec<usize> = (0..g.n()).step_by(2).collect();
        let alpha = 4;
        let mut base_ledger = RoundLedger::new();
        let (base, _) = engine_ruling_forest(
            &g,
            None,
            &subset,
            alpha,
            EngineConfig::default(),
            &mut base_ledger,
        );
        for shards in [1usize, 2] {
            let mut ledger = RoundLedger::new();
            let (rf, metrics) = engine_ruling_forest(
                &g,
                None,
                &subset,
                alpha,
                EngineConfig::default().with_shards(shards).congest_split(1),
                &mut ledger,
            );
            assert_eq!(rf.roots, base.roots, "shards={shards}");
            assert_eq!(rf.parent, base.parent, "shards={shards}");
            assert_eq!(rf.root_of, base.root_of, "shards={shards}");
            assert_eq!(rf.depth, base.depth, "shards={shards}");
            assert!(metrics.total_fragments() > 0, "token floods fragment");
            assert_eq!(
                ledger.total() - ledger.phase_total(crate::SPLIT_PHASE),
                base_ledger.total(),
                "split ledgers reconcile against the unlimited charge"
            );
        }
    }

    #[test]
    fn ruling_rounds_step_only_their_frontier() {
        // A ruling node is stepped only when it hears a message or its
        // `WakeAt` slot comes due, so the summed node-steps of one run are
        // a deterministic count of the frontier's work: 163,434 on this
        // input at any shard count. Stepping every live node every round
        // (an `EveryRound` activation, or the full scan) costs 884,736.
        const STEPPED_BOUND: usize = 180_000;
        let g = gen::grid(64, 64);
        let subset: Vec<usize> = g
            .vertices()
            .filter(|&v| rand::mix64(7, v as u64) & 1 == 0)
            .collect();
        let mut counts = Vec::new();
        for shards in [1usize, 4] {
            let mut ledger = RoundLedger::new();
            let config = EngineConfig::default().with_shards(shards);
            let (forest, metrics) = engine_ruling_forest(&g, None, &subset, 6, config, &mut ledger);
            assert!(!forest.roots.is_empty());
            counts.push(metrics.per_round().iter().map(|r| r.stepped).sum::<usize>());
        }
        assert_eq!(counts[0], counts[1], "shard-invariant node-steps");
        assert!(
            counts[0] <= STEPPED_BOUND,
            "ruling node-steps {} exceed {STEPPED_BOUND}",
            counts[0]
        );
    }

    #[test]
    fn singleton_and_empty_subsets() {
        let g = gen::cycle(10);
        assert_forests_match(&g, None, &[7], 3, "singleton");
        assert_forests_match(&g, None, &[], 3, "empty");
    }

    #[test]
    fn alpha_one_keeps_every_subset_vertex_a_root() {
        let g = gen::grid(4, 4);
        let subset: Vec<usize> = (0..g.n()).collect();
        assert_forests_match(&g, None, &subset, 1, "alpha=1");
    }
}
