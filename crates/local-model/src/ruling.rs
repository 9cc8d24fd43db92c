//! (α, β)-ruling sets and ruling forests (Awerbuch–Goldberg–Luby–Plotkin
//! \[3\]), the scaffolding of the paper's Lemma 3.2.
//!
//! A *(α, β)-ruling forest* with respect to `U` is a family of disjoint
//! rooted trees covering `U`, whose roots are pairwise at distance ≥ α and
//! whose depth is ≤ β. The deterministic construction splits by identifier
//! bits, processed **bottom-up**: at level `b`, every group of surviving
//! rulers sharing the identifier prefix above bit `b` merges — rulers whose
//! bit `b` is 0 flood a prefix-tagged token to distance α−1, and rulers
//! whose bit `b` is 1 drop out when a token of their own group reaches
//! them. Each of the `⌈log₂ n⌉` levels costs α rounds of token flooding,
//! giving a `(α, α·⌈log₂ n⌉)`-ruling set in `O(α log n)` rounds, exactly as
//! the paper uses it.
//!
//! The sequential functions here compute what those rounds decide
//! without simulating them: a bit level is one reused [`Bfs`] per prefix
//! group ([`ruling_set`]), and [`layered_greedy`] visits each slot vertex
//! once, in slot order. Only the claiming BFS runs level by level, because
//! its tie-break [`claim_choice`] reads the whole previous level. The
//! engine ports (`engine::programs::ruling::RulingProgram`,
//! `engine::LayeredGreedyProgram`) run the rounds as `NodeProgram`s: token
//! floods by [`crate::gather::merge_fresh`], claims by [`claim_choice`],
//! and the layered schedule, list form and pick ([`layered_slot`],
//! [`layered_list`], [`layered_pick`]). The equivalence tests in
//! `tests/engine_equivalence.rs` are what tie both sides to the same
//! rulers, forests, colors and round charges.

use std::cmp::Reverse;

use crate::ledger::RoundLedger;
use graphs::{Bfs, Graph, VertexId, VertexSet, UNREACHABLE};

/// Number of identifier-bit levels both substrates process (and charge):
/// `⌈log₂ n⌉` with a floor of 1.
pub fn ruling_bits(n: usize) -> usize {
    let lead = usize::BITS - n.next_power_of_two().trailing_zeros().max(1);
    (usize::BITS - lead) as usize
}

/// The forest depth bound `β = α · ⌈log₂ n⌉` (floored at one level) used by
/// the claiming and pruning phases — the round budget both substrates
/// spend, and charge, for each of them. Defined via [`ruling_bits`] so the
/// level count and the depth bound can never drift apart.
pub fn ruling_beta(n: usize, alpha: usize) -> usize {
    alpha * ruling_bits(n)
}

/// The deterministic claim choice of one vertex in one BFS round: among the
/// `(root, claiming neighbor)` pairs heard this round, the smallest pair
/// wins. Shared by the sequential claiming simulation and the engine's
/// `RulingProgram`, so ties break identically on both substrates.
pub fn claim_choice(
    claims: impl IntoIterator<Item = (VertexId, VertexId)>,
) -> Option<(VertexId, VertexId)> {
    claims.into_iter().min()
}

/// The (depth, class) slot handled in 1-based round `round` of the layered
/// greedy ([`layered_greedy`]): depths count down from `max_depth`, classes
/// count up within each depth.
#[inline]
pub fn layered_slot(round: usize, max_depth: usize, class_count: usize) -> (usize, usize) {
    debug_assert!(round >= 1 && round <= max_depth * class_count);
    (
        max_depth - (round - 1) / class_count,
        (round - 1) % class_count,
    )
}

/// A tree vertex's list as the layered greedy keeps it: sorted, without
/// duplicates.
pub fn layered_list(list: &[usize]) -> Vec<usize> {
    let mut list = list.to_vec();
    list.sort_unstable();
    list.dedup();
    list
}

/// The slot pick: the smallest color left in a vertex's live list (its
/// [`layered_list`] minus the colors its scope neighbors committed). The
/// parent is still uncolored at the vertex's slot, so a color is left
/// (Observation 5.1).
#[inline]
pub fn layered_pick(live: &[usize]) -> usize {
    *live
        .first()
        .expect("Observation 5.1: parent uncolored ⇒ free color")
}

/// The strike on a sorted live list: a neighbor committed `c`, so `c`
/// leaves the list (absent colors are ignored). One rule for every sorted
/// live list: the layered greedy's on both substrates, and the host-side
/// lists of Lemma 3.2 and Theorem 1.1.
#[inline]
pub fn strike_sorted(live: &mut Vec<usize>, c: usize) {
    if let Ok(pos) = live.binary_search(&c) {
        live.remove(pos);
    }
}

/// Computes an `(alpha, alpha·⌈log₂ n⌉)`-ruling set of `subset` in
/// `g[mask]`.
///
/// Guarantees: returned vertices are pairwise at distance ≥ `alpha` in
/// `g[mask]`, and every vertex of `subset` is within `alpha·⌈log₂ n⌉` of a
/// returned vertex *in its own masked component*.
///
/// Bit level `b` decides what its α rounds of prefix-token flooding
/// decide, by search: for each group of surviving rulers sharing the
/// prefix `v >> (b + 1)`, one multi-source [`Bfs`] from the group's bit-0
/// rulers, through `g[mask]` to depth α − 1, finds the group's bit-1
/// rulers that drop out. One reused search serves every group and level.
///
/// Charges `alpha` rounds per identifier-bit level.
pub fn ruling_set(
    g: &Graph,
    mask: Option<&VertexSet>,
    subset: &[VertexId],
    alpha: usize,
    ledger: &mut RoundLedger,
) -> Vec<VertexId> {
    assert!(alpha >= 1, "alpha must be at least 1");
    let bits = ruling_bits(g.n());
    let mut rulers = subset.to_vec();
    rulers.sort_unstable();
    rulers.dedup();
    let in_mask = |v: VertexId| mask.is_none_or(|m| m.contains(v));
    let mut bfs = Bfs::new(g.n());
    let mut dropped = Vec::new();
    for b in 0..bits {
        // Sorted rulers sharing a prefix are contiguous, bit-0 ones first.
        for group in rulers.chunk_by(|&u, &v| u >> (b + 1) == v >> (b + 1)) {
            let split = group.partition_point(|&v| (v >> b) & 1 == 0);
            let (sources, ones) = group.split_at(split);
            if sources.is_empty() || ones.is_empty() {
                continue;
            }
            bfs.run(g, sources.iter().copied(), alpha - 1, in_mask);
            dropped.extend(ones.iter().filter(|&&v| bfs.depth(v) != UNREACHABLE));
        }
        rulers.retain(|v| dropped.binary_search(v).is_err());
        dropped.clear();
    }
    ledger.charge("ruling-set", (alpha as u64) * (bits as u64));
    rulers
}

/// An (α, β)-ruling forest: disjoint rooted trees covering a target subset.
#[derive(Clone, Debug)]
pub struct RulingForest {
    /// Tree roots (the ruling set), sorted.
    pub roots: Vec<VertexId>,
    /// `parent[v]`: parent in the tree, `v` for roots, `usize::MAX` for
    /// vertices not in any tree.
    pub parent: Vec<usize>,
    /// `root_of[v]`: the root of `v`'s tree (`usize::MAX` outside).
    pub root_of: Vec<usize>,
    /// `depth[v]`: distance to the root within the tree.
    pub depth: Vec<usize>,
    /// The spacing parameter α the forest was built with.
    pub alpha: usize,
}

impl RulingForest {
    /// All tree members (sorted).
    pub fn members(&self) -> Vec<VertexId> {
        (0..self.parent.len())
            .filter(|&v| self.parent[v] != usize::MAX)
            .collect()
    }

    /// Maximum tree depth.
    pub fn max_depth(&self) -> usize {
        self.members()
            .into_iter()
            .map(|v| self.depth[v])
            .max()
            .unwrap_or(0)
    }
}

/// Builds an `(alpha, alpha·⌈log₂ n⌉)`-ruling forest with respect to
/// `subset` in `g[mask]` (paper's Lemma 3.2 uses `alpha = 2c·log n`).
///
/// Trees consist of the shortest-path parent chains from each `subset`
/// vertex to its nearest ruler (ties by smaller ruler id, then smaller
/// claiming-neighbor id — see [`claim_choice`]), so every tree vertex lies
/// on a path from a `subset` vertex to a root. Rounds: the ruling-set
/// construction plus `β` rounds of claiming BFS plus `β` rounds of chain
/// marking.
///
/// # Panics
///
/// Panics if some `subset` vertex is outside the mask.
///
/// # Examples
///
/// ```
/// use local_model::{ruling_forest, RoundLedger};
/// use graphs::gen;
/// let g = gen::path(64);
/// let every: Vec<usize> = (0..64).collect();
/// let mut ledger = RoundLedger::new();
/// let rf = ruling_forest(&g, None, &every, 4, &mut ledger);
/// assert!(!rf.roots.is_empty());
/// // Roots pairwise ≥ 4 apart on the path.
/// for w in rf.roots.windows(2) {
///     assert!(w[1] - w[0] >= 4);
/// }
/// ```
pub fn ruling_forest(
    g: &Graph,
    mask: Option<&VertexSet>,
    subset: &[VertexId],
    alpha: usize,
    ledger: &mut RoundLedger,
) -> RulingForest {
    let n = g.n();
    for &u in subset {
        assert!(
            mask.is_none_or(|m| m.contains(u)),
            "subset vertex {u} outside mask"
        );
    }
    let roots = ruling_set(g, mask, subset, alpha, ledger);
    let beta = ruling_beta(n, alpha);

    // Claiming BFS from all roots simultaneously, one level per round: the
    // vertices claimed in round d − 1 announce `(their root, their id)`,
    // and an unclaimed vertex joins the smallest announcement it hears
    // ([`claim_choice`] — deterministic tie-breaking).
    let mut dist = vec![usize::MAX; n];
    let mut root_of = vec![usize::MAX; n];
    let mut parent = vec![usize::MAX; n];
    let mut frontier: Vec<VertexId> = Vec::new();
    for &r in &roots {
        dist[r] = 0;
        root_of[r] = r;
        parent[r] = r;
        frontier.push(r);
    }
    // Per-vertex claim buffers, allocated once and cleared per touched
    // vertex, so every round costs only the frontier's edge neighborhood;
    // the touched and next-frontier lists keep their capacity too.
    let mut claims: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); n];
    let mut touched: Vec<VertexId> = Vec::new();
    let mut next: Vec<VertexId> = Vec::new();
    for d in 1..=beta {
        if frontier.is_empty() {
            break;
        }
        for &u in &frontier {
            for &w in g.neighbors(u) {
                if dist[w] == usize::MAX && mask.is_none_or(|m| m.contains(w)) {
                    if claims[w].is_empty() {
                        touched.push(w);
                    }
                    claims[w].push((root_of[u], u));
                }
            }
        }
        for w in touched.drain(..) {
            if let Some((root, p)) = claim_choice(claims[w].iter().copied()) {
                dist[w] = d;
                root_of[w] = root;
                parent[w] = p;
                next.push(w);
            }
            claims[w].clear();
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    ledger.charge("ruling-forest-claim", beta as u64);

    // Prune to parent chains from subset vertices.
    let mut keep = VertexSet::new(n);
    for &u in subset {
        debug_assert_ne!(
            root_of[u],
            usize::MAX,
            "ruling-set domination must reach {u} within beta"
        );
        let mut v = u;
        while keep.insert(v) && parent[v] != v {
            v = parent[v];
        }
    }
    for &r in &roots {
        keep.insert(r);
    }
    ledger.charge("ruling-forest-prune", beta as u64);
    let mut depth = vec![usize::MAX; n];
    for v in 0..n {
        if !keep.contains(v) {
            parent[v] = usize::MAX;
            root_of[v] = usize::MAX;
        } else {
            depth[v] = dist[v];
        }
    }
    RulingForest {
        roots,
        parent,
        root_of,
        depth,
        alpha,
    }
}

/// Lemma 3.2's layered greedy (step 4 of `distributed_coloring::extend`):
/// colors the ruling-forest `scope` leaves-to-roots, one (depth, class)
/// slot per round ([`layered_slot`]). In its slot a vertex takes its
/// [`layered_pick`] and its uncolored scope neighbors strike that color. A
/// slot is one class of a proper coloring of `g[scope]`, so its vertices
/// pick independently, and visiting the slot vertices once, sorted by
/// (depth descending, class ascending), commits what the rounds commit.
///
/// `lists` are the host-reduced lists (only scope entries are read),
/// `depth` and `classes` the forest depth and class of each vertex. Charges
/// `"layered-coloring"` `max_depth · class_count` rounds. Returns the
/// committed colors, `usize::MAX` outside the scope and at depth-0 roots.
/// The engine twin is `engine::engine_layered_greedy`.
///
/// # Panics
///
/// Panics if a slot vertex has no color left (see [`layered_pick`]).
pub fn layered_greedy(
    g: &Graph,
    scope: &VertexSet,
    lists: &[Vec<usize>],
    depth: &[usize],
    classes: &[usize],
    class_count: usize,
    ledger: &mut RoundLedger,
) -> Vec<usize> {
    let n = g.n();
    assert_eq!(lists.len(), n);
    let mut live: Vec<Vec<usize>> = vec![Vec::new(); n];
    for v in scope.iter() {
        live[v] = layered_list(&lists[v]);
    }
    let max_depth = scope.iter().map(|v| depth[v]).max().unwrap_or(0);
    // Depth-0 roots get no slot.
    let mut slotted: Vec<VertexId> = scope
        .iter()
        .filter(|&v| depth[v] >= 1 && classes[v] < class_count)
        .collect();
    slotted.sort_unstable_by_key(|&v| (Reverse(depth[v]), classes[v], v));
    let mut color = vec![usize::MAX; n];
    for v in slotted {
        let c = layered_pick(&live[v]);
        color[v] = c;
        for &w in g.neighbors(v) {
            if scope.contains(w) && color[w] == usize::MAX {
                strike_sorted(&mut live[w], c);
            }
        }
    }
    ledger.charge(
        "layered-coloring",
        (max_depth as u64) * (class_count as u64),
    );
    color
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{bfs_distances, gen};

    fn check_spacing(g: &Graph, mask: Option<&VertexSet>, rulers: &[VertexId], alpha: usize) {
        for &r in rulers {
            let dist = bfs_distances(g, r, mask);
            for &s in rulers {
                if s != r {
                    assert!(
                        dist[s] >= alpha,
                        "rulers {r},{s} at distance {} < {alpha}",
                        dist[s]
                    );
                }
            }
        }
    }

    /// The set of vertices within distance ≤ `radius` of `sources` in
    /// `g[mask]` (test oracle for domination).
    fn within_distance(
        g: &Graph,
        mask: Option<&VertexSet>,
        sources: &[VertexId],
        radius: usize,
    ) -> VertexSet {
        let mut out = VertexSet::new(g.n());
        for &s in sources {
            for v in graphs::ball(g, s, radius, mask) {
                out.insert(v);
            }
        }
        out
    }

    #[test]
    fn ruling_set_on_path() {
        let g = gen::path(200);
        let every: Vec<usize> = (0..200).collect();
        let mut ledger = RoundLedger::new();
        let rulers = ruling_set(&g, None, &every, 5, &mut ledger);
        assert!(!rulers.is_empty());
        check_spacing(&g, None, &rulers, 5);
        assert!(ledger.total() > 0);
    }

    #[test]
    fn ruling_set_on_grid_spacing_and_domination() {
        let g = gen::grid(15, 15);
        let every: Vec<usize> = (0..g.n()).collect();
        let mut ledger = RoundLedger::new();
        let alpha = 4;
        let rulers = ruling_set(&g, None, &every, alpha, &mut ledger);
        check_spacing(&g, None, &rulers, alpha);
        // Domination within alpha * ceil(log2 n).
        let beta = alpha * ((g.n() as f64).log2().ceil() as usize);
        let near = within_distance(&g, None, &rulers, beta);
        for v in 0..g.n() {
            assert!(near.contains(v), "vertex {v} not dominated");
        }
    }

    #[test]
    fn ruling_charge_uses_bit_levels() {
        let g = gen::path(100);
        let every: Vec<usize> = (0..100).collect();
        let mut ledger = RoundLedger::new();
        ruling_set(&g, None, &every, 3, &mut ledger);
        assert_eq!(
            ledger.phase_total("ruling-set"),
            3 * ruling_bits(100) as u64
        );
    }

    #[test]
    fn ruling_forest_structure() {
        for (g, alpha) in [
            (gen::grid(12, 12), 6usize),
            (gen::forest_union(600, 2, 3), 4),
            (gen::forest_union(600, 2, 3), 16),
            (gen::random_regular(600, 3, 4), 4),
            (gen::random_regular(600, 3, 4), 16),
        ] {
            let subset: Vec<usize> = (0..g.n()).step_by(3).collect();
            let mut ledger = RoundLedger::new();
            let rf = ruling_forest(&g, None, &subset, alpha, &mut ledger);
            check_spacing(&g, None, &rf.roots, alpha);
            // Every subset vertex is in a tree; depth consistency.
            for &u in &subset {
                assert_ne!(rf.root_of[u], usize::MAX, "subset vertex {u} uncovered");
                // Walk to root.
                let mut v = u;
                let mut steps = 0;
                while rf.parent[v] != v {
                    let p = rf.parent[v];
                    assert_eq!(rf.depth[p] + 1, rf.depth[v], "depth mismatch at {v}");
                    assert_eq!(rf.root_of[p], rf.root_of[v]);
                    v = p;
                    steps += 1;
                    assert!(steps <= rf.max_depth() + 1);
                }
                assert_eq!(v, rf.root_of[u]);
            }
            let bits = (g.n() as f64).log2().ceil() as usize;
            assert!(rf.max_depth() <= alpha * bits);
        }
    }

    #[test]
    fn trees_are_vertex_disjoint() {
        let g = gen::random_tree(150, 4);
        let subset: Vec<usize> = (0..150).step_by(2).collect();
        let mut ledger = RoundLedger::new();
        let rf = ruling_forest(&g, None, &subset, 8, &mut ledger);
        // root_of is a function: each member belongs to exactly one tree —
        // and tree edges stay within the tree by construction (checked via
        // parent consistency above). Verify member counts add up.
        let total: usize = rf
            .roots
            .iter()
            .map(|&r| rf.root_of.iter().filter(|&&x| x == r).count())
            .sum();
        assert_eq!(total, rf.members().len());
    }

    #[test]
    fn masked_ruling_respects_components() {
        // Two disjoint paths inside one graph via mask.
        let g = gen::path(30);
        let mut mask = VertexSet::full(30);
        mask.remove(15); // split
        let subset: Vec<usize> = (0..30).filter(|&v| v != 15).collect();
        let mut ledger = RoundLedger::new();
        let rf = ruling_forest(&g, Some(&mask), &subset, 4, &mut ledger);
        // Both halves need at least one root.
        assert!(rf.roots.iter().any(|&r| r < 15));
        assert!(rf.roots.iter().any(|&r| r > 15));
        for &u in &subset {
            assert_ne!(rf.root_of[u], usize::MAX);
            // Tree stays on u's side.
            assert_eq!(rf.root_of[u] < 15, u < 15);
        }
    }

    /// [`layered_list`]: sorted, duplicates dropped.
    #[test]
    fn layered_list_sorts_and_deduplicates() {
        assert_eq!(layered_list(&[5, 1, 5, 3, 1]), vec![1, 3, 5]);
        assert_eq!(layered_list(&[]), Vec::<usize>::new());
    }

    /// [`layered_pick`]: the smallest live color.
    #[test]
    fn layered_pick_takes_the_smallest_live_color() {
        assert_eq!(layered_pick(&[2, 4, 9]), 2);
        assert_eq!(layered_pick(&[7]), 7);
    }

    #[test]
    #[should_panic(expected = "Observation 5.1")]
    fn layered_pick_refuses_an_empty_list() {
        layered_pick(&[]);
    }

    /// [`strike_sorted`]: on every sorted list and every color, present or
    /// not, the result is the list without that color, still sorted.
    #[test]
    fn strike_sorted_removes_exactly_the_struck_color() {
        let list = vec![1, 3, 4, 8, 9];
        for c in 0..=10 {
            let mut live = list.clone();
            strike_sorted(&mut live, c);
            let expected: Vec<usize> = list.iter().copied().filter(|&x| x != c).collect();
            assert_eq!(live, expected, "strike {c}");
        }
        let mut live = vec![];
        strike_sorted(&mut live, 0);
        assert!(live.is_empty());
    }

    /// [`layered_greedy`] on ruling forests of random planar graphs with
    /// `(deg+1)` lists: every non-root tree vertex takes a color of its
    /// list, adjacent ones differ, roots and non-members stay uncolored,
    /// and the charge is one round per slot.
    #[test]
    fn layered_greedy_colors_ruling_forests_properly() {
        for seed in 0..4u64 {
            let g = gen::apollonian(300, seed);
            let subset: Vec<usize> = (0..g.n()).step_by(3).collect();
            let mut ledger = RoundLedger::new();
            let rf = ruling_forest(&g, None, &subset, 4, &mut ledger);
            let scope = VertexSet::from_iter_with_universe(g.n(), rf.members());
            let classes = crate::degree_plus_one_coloring(&g, Some(&scope), &mut ledger);
            let class_count = scope.iter().map(|v| classes[v] + 1).max().unwrap_or(1);
            let lists: Vec<Vec<usize>> = g
                .vertices()
                .map(|v| {
                    let deg = g
                        .neighbors(v)
                        .iter()
                        .filter(|&&w| scope.contains(w))
                        .count();
                    (v % 4..v % 4 + deg + 1).rev().collect()
                })
                .collect();
            let mut ledger = RoundLedger::new();
            let color = layered_greedy(
                &g,
                &scope,
                &lists,
                &rf.depth,
                &classes,
                class_count,
                &mut ledger,
            );
            for v in g.vertices() {
                if scope.contains(v) && rf.depth[v] >= 1 {
                    assert!(lists[v].contains(&color[v]), "seed {seed}: vertex {v}");
                } else {
                    assert_eq!(color[v], usize::MAX, "seed {seed}: vertex {v}");
                }
            }
            for (u, v) in g.edges() {
                if color[u] != usize::MAX {
                    assert_ne!(color[u], color[v], "seed {seed}: edge ({u},{v})");
                }
            }
            assert_eq!(
                ledger.phase_total("layered-coloring"),
                (rf.max_depth() * class_count) as u64
            );
        }
    }

    #[test]
    fn singleton_subset() {
        let g = gen::cycle(10);
        let mut ledger = RoundLedger::new();
        let rf = ruling_forest(&g, None, &[7], 3, &mut ledger);
        assert_eq!(rf.roots, vec![7]);
        assert_eq!(rf.depth[7], 0);
    }
}
