//! Color-space reduction: from forest 3-colorings to a `(Δ+1)`-coloring.
//!
//! The merge-reduce scheme (Goldberg–Plotkin–Shannon \[17\] / Panconesi–Rizzi
//! style): maintain a proper coloring of the union of the first `j` forests;
//! to merge forest `j+1`, take the product with its Cole–Vishkin 3-coloring
//! (proper on the enlarged union) and sweep the product classes from the
//! top, recoloring each class greedily into `0..target`. Classes are
//! independent sets of the union, so each sweep step is one LOCAL round.
//!
//! [`forest_merge`] is the host loop of that scheme, and [`MergeRounds`] its
//! communication: this crate computes each class sweep in one pass over the
//! swept vertices, the engine crate runs it round by round in a session
//! (`engine::engine_degree_plus_one_coloring`). Both sweeps pick colors
//! with [`smallest_free`], and the equivalence tests tie their colors.

use std::cmp::Reverse;

use crate::cole_vishkin::{cole_vishkin_3color, RootedForest};
use crate::forests::Orientation;
use crate::ledger::RoundLedger;
use graphs::{Graph, VertexId, VertexSet};

/// The smallest color of `0..k` missing from `used` — the greedy choice of
/// every sweep in this crate and in its engine ports. `None` when all `k`
/// colors are used.
#[inline]
pub fn smallest_free(k: usize, used: &[usize]) -> Option<usize> {
    (0..k).find(|c| !used.contains(c))
}

/// The communication of one [`forest_merge`]: how a forest gets 3-colored
/// and how one merge's class sweep runs.
pub trait MergeRounds {
    /// 3-colors `forest`: colors in `0..3` for members, `usize::MAX`
    /// elsewhere, with its rounds charged as [`cole_vishkin_3color`] does.
    fn three_color(&mut self, forest: &RootedForest, ledger: &mut RoundLedger) -> Vec<usize>;

    /// Recolors the classes `current_colors − 1` down to `target` of the
    /// proper coloring `color` of the union graph `union_adj` into
    /// `0..target`, each vertex taking the [`smallest_free`] color among its
    /// union neighbors'. It takes one round per class plus one announce
    /// round, charged as `"class-sweep"`. `members` lists the masked
    /// vertices; `current_colors > target`.
    fn sweep(
        &mut self,
        members: &[VertexId],
        union_adj: &[Vec<VertexId>],
        color: &mut [usize],
        current_colors: usize,
        target: usize,
        ledger: &mut RoundLedger,
    );
}

/// [`MergeRounds`] computed sequentially.
struct Sequential;

impl MergeRounds for Sequential {
    fn three_color(&mut self, forest: &RootedForest, ledger: &mut RoundLedger) -> Vec<usize> {
        cole_vishkin_3color(forest, ledger)
    }

    fn sweep(
        &mut self,
        members: &[VertexId],
        union_adj: &[Vec<VertexId>],
        color: &mut [usize],
        current_colors: usize,
        target: usize,
        ledger: &mut RoundLedger,
    ) {
        // Each class is independent in the union, and a recolored vertex
        // lands below every class still to be swept, so one pass over the
        // swept vertices, classes from the top, commits what the rounds do.
        let mut swept: Vec<VertexId> = members
            .iter()
            .copied()
            .filter(|&v| (target..current_colors).contains(&color[v]))
            .collect();
        swept.sort_unstable_by_key(|&v| (Reverse(color[v]), v));
        let mut used = Vec::new();
        for v in swept {
            used.clear();
            used.extend(union_adj[v].iter().map(|&w| color[w]));
            color[v] =
                smallest_free(target, &used).expect("target exceeds degree, a free color exists");
        }
        ledger.charge("class-sweep", (current_colors - target + 1) as u64);
    }
}

/// The merge-reduce host loop over `g[mask]`: decomposes the masked graph
/// into rooted forests via the acyclic `priority` orientation, 3-colors
/// each forest, grows the union adjacency, forms the product colors and
/// sweeps them back into `0..target` whenever they exceed it. `target`
/// defaults to the masked maximum degree plus one. `rounds` runs the
/// communication.
///
/// # Panics
///
/// Panics if `target` does not exceed the masked maximum degree — a free
/// color could run out.
///
/// Returns `color[v] ∈ 0..target` for masked vertices, `usize::MAX`
/// elsewhere.
pub fn forest_merge(
    g: &Graph,
    mask: Option<&VertexSet>,
    priority: &[usize],
    target: Option<usize>,
    rounds: &mut impl MergeRounds,
    ledger: &mut RoundLedger,
) -> Vec<usize> {
    let n = g.n();
    assert_eq!(priority.len(), n);
    let in_mask = |v: VertexId| mask.is_none_or(|m| m.contains(v));
    let members: Vec<VertexId> = (0..n).filter(|&v| in_mask(v)).collect();
    let max_deg = members
        .iter()
        .map(|&v| g.neighbors(v).iter().filter(|&&w| in_mask(w)).count())
        .max()
        .unwrap_or(0);
    let target = target.unwrap_or(max_deg + 1);
    assert!(
        target > max_deg,
        "target ({target}) must exceed the masked maximum degree ({max_deg})"
    );

    let orientation = Orientation::by_priority(g, mask, priority);
    let forests = orientation.forest_decomposition(mask, ledger);

    let mut color = vec![usize::MAX; n];
    // Union adjacency grows as forests merge.
    let mut union_adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    // Every forest spans the masked vertices, so the first one colors all.
    let mut current_colors = 1usize;
    for (fi, forest) in forests.iter().enumerate() {
        let f3 = rounds.three_color(forest, ledger);
        for &v in &members {
            let p = forest.parent(v);
            if p != v {
                union_adj[v].push(p);
                union_adj[p].push(v);
            }
        }
        if fi == 0 {
            for &v in &members {
                color[v] = f3[v];
            }
            current_colors = 3;
        } else {
            // Product coloring: 3 * old + forest color; proper on the union.
            for &v in &members {
                color[v] = 3 * color[v] + f3[v];
            }
            current_colors *= 3;
        }
        if current_colors > target {
            rounds.sweep(
                &members,
                &union_adj,
                &mut color,
                current_colors,
                target,
                ledger,
            );
        }
        let used = members.iter().map(|&v| color[v] + 1).max().unwrap_or(0);
        current_colors = current_colors.min(target).max(used);
    }
    if forests.is_empty() {
        // Edgeless subgraph: everyone takes color 0.
        for &v in &members {
            color[v] = 0;
        }
    }
    debug_assert!(members.iter().all(|&v| color[v] < target));
    color
}

/// Computes a proper `target`-coloring of `g[mask]` by decomposing into
/// rooted forests (via the given acyclic `priority`), 3-coloring each with
/// Cole–Vishkin, and merge-reducing — [`forest_merge`], sequentially.
///
/// # Panics
///
/// Panics if `target <= max_degree(g[mask])` — a free color could run out.
///
/// Round complexity: `O(#forests · (target + log* n))`; with the identity
/// priority this is the classic `O(Δ² + log* n)` of Panconesi–Rizzi, the
/// "(d+1)-coloring computed deterministically" step the paper takes
/// from \[17\] in Lemma 3.2.
///
/// Returns `color[v] ∈ 0..target` for masked vertices, `usize::MAX`
/// elsewhere.
///
/// # Examples
///
/// ```
/// use local_model::{degree_plus_one_coloring, RoundLedger};
/// use graphs::gen;
/// let g = gen::random_regular(30, 4, 7);
/// let mut ledger = RoundLedger::new();
/// let col = degree_plus_one_coloring(&g, None, &mut ledger);
/// for (u, v) in g.edges() {
///     assert_ne!(col[u], col[v]);
/// }
/// assert!(col.iter().all(|&c| c < 5));
/// ```
pub fn coloring_by_forest_merge(
    g: &Graph,
    mask: Option<&VertexSet>,
    priority: &[usize],
    target: usize,
    ledger: &mut RoundLedger,
) -> Vec<usize> {
    forest_merge(g, mask, priority, Some(target), &mut Sequential, ledger)
}

/// The classic `(Δ+1)`-coloring of `g[mask]` in `O(Δ² + log* n)` rounds
/// (orientation by id). See [`coloring_by_forest_merge`].
pub fn degree_plus_one_coloring(
    g: &Graph,
    mask: Option<&VertexSet>,
    ledger: &mut RoundLedger,
) -> Vec<usize> {
    forest_merge(g, mask, &vec![0; g.n()], None, &mut Sequential, ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    fn assert_proper_masked(g: &Graph, mask: Option<&VertexSet>, col: &[usize], bound: usize) {
        for (u, v) in g.edges() {
            let inu = mask.is_none_or(|m| m.contains(u));
            let inv = mask.is_none_or(|m| m.contains(v));
            if inu && inv {
                assert_ne!(col[u], col[v], "edge ({u},{v})");
            }
        }
        for (v, &c) in col.iter().enumerate() {
            if mask.is_none_or(|m| m.contains(v)) {
                assert!(c < bound, "vertex {v}: color {c} out of bound {bound}");
            } else {
                assert_eq!(c, usize::MAX, "vertex {v}");
            }
        }
    }

    #[test]
    fn colors_regular_graphs() {
        for (n, d, seed) in [(20, 3, 1), (40, 4, 2), (60, 6, 3)] {
            let g = gen::random_regular(n, d, seed);
            let mut ledger = RoundLedger::new();
            let col = degree_plus_one_coloring(&g, None, &mut ledger);
            assert_proper_masked(&g, None, &col, d + 1);
            assert!(ledger.total() > 0);
        }
    }

    #[test]
    fn colors_grid() {
        let g = gen::grid(8, 8);
        let mut ledger = RoundLedger::new();
        let col = degree_plus_one_coloring(&g, None, &mut ledger);
        assert_proper_masked(&g, None, &col, 5);
    }

    #[test]
    fn colors_masked_subgraph() {
        let g = gen::complete(8);
        let mask = VertexSet::from_iter_with_universe(8, [0, 2, 4, 6]);
        let mut ledger = RoundLedger::new();
        let col = degree_plus_one_coloring(&g, Some(&mask), &mut ledger);
        assert_proper_masked(&g, Some(&mask), &col, 4);
    }

    #[test]
    fn edgeless_graph_single_color() {
        let g = Graph::empty(5);
        let mut ledger = RoundLedger::new();
        let col = degree_plus_one_coloring(&g, None, &mut ledger);
        assert!(col.iter().all(|&c| c == 0));
    }

    #[test]
    fn custom_target_above_degree() {
        let g = gen::cycle(9);
        let mut ledger = RoundLedger::new();
        let col = coloring_by_forest_merge(&g, None, &[0; 9], 4, &mut ledger);
        assert_proper_masked(&g, None, &col, 4);
    }

    #[test]
    #[should_panic]
    fn target_at_degree_panics() {
        let g = gen::cycle(9);
        let mut ledger = RoundLedger::new();
        coloring_by_forest_merge(&g, None, &[0; 9], 2, &mut ledger);
    }

    /// [`forest_merge`]: every sweep starts from a product coloring that is
    /// proper on the union so far and below `current_colors`, and leaves a
    /// proper coloring below `target`.
    #[test]
    fn every_sweep_starts_from_a_proper_product_coloring() {
        struct Checked(usize);
        fn assert_proper(members: &[VertexId], adj: &[Vec<VertexId>], color: &[usize], k: usize) {
            for &v in members {
                assert!(color[v] < k, "vertex {v}: color {} ≥ {k}", color[v]);
                assert!(adj[v].iter().all(|&w| color[w] != color[v]), "vertex {v}");
            }
        }
        impl MergeRounds for Checked {
            fn three_color(&mut self, f: &RootedForest, ledger: &mut RoundLedger) -> Vec<usize> {
                Sequential.three_color(f, ledger)
            }

            fn sweep(
                &mut self,
                members: &[VertexId],
                adj: &[Vec<VertexId>],
                color: &mut [usize],
                current_colors: usize,
                target: usize,
                ledger: &mut RoundLedger,
            ) {
                assert_proper(members, adj, color, current_colors);
                Sequential.sweep(members, adj, color, current_colors, target, ledger);
                assert_proper(members, adj, color, target);
                self.0 += 1;
            }
        }
        let regular = [(40, 4, 2), (60, 6, 3), (80, 8, 4)]
            .map(|(n, d, seed)| (gen::random_regular(n, d, seed), vec![0; n]));
        // A triangulation oriented by reversed id: here union edges join
        // vertices whose old colors differ while their forest colors make
        // a narrower product (such as `2·old + f`) collide.
        let planar = (gen::apollonian(40, 0), (0..40).rev().collect());
        for (g, priority) in regular.into_iter().chain([planar]) {
            let mut checked = Checked(0);
            let col = forest_merge(
                &g,
                None,
                &priority,
                None,
                &mut checked,
                &mut RoundLedger::new(),
            );
            assert_proper_masked(&g, None, &col, g.max_degree() + 1);
            assert!(checked.0 > 0, "n={}: some merge swept", g.n());
        }
    }

    /// [`smallest_free`]: never returns a used color, returns the smallest
    /// unused one, and `None` exactly when all `k` are used — over every
    /// subset of `0..6`, with a duplicate and an out-of-range color.
    #[test]
    fn smallest_free_never_returns_a_used_color() {
        for k in 0..7usize {
            for subset in 0..64u32 {
                let mut used: Vec<usize> = (0..6).filter(|&c| subset >> c & 1 == 1).collect();
                used.extend(used.first().copied());
                used.push(usize::MAX);
                match smallest_free(k, &used) {
                    Some(c) => {
                        assert!(c < k && !used.contains(&c), "k={k} used={used:?}: {c}");
                        assert!((0..c).all(|d| used.contains(&d)), "{c} is not the smallest");
                    }
                    None => assert!((0..k).all(|d| used.contains(&d)), "k={k} used={used:?}"),
                }
            }
        }
    }

    #[test]
    fn round_complexity_scales_with_degree_not_n() {
        // For fixed degree, rounds should grow (at most) like log* n — i.e.
        // barely at all. Compare n=64 and n=4096 paths.
        let small = gen::path(64);
        let large = gen::path(4096);
        let mut ls = RoundLedger::new();
        let mut ll = RoundLedger::new();
        degree_plus_one_coloring(&small, None, &mut ls);
        degree_plus_one_coloring(&large, None, &mut ll);
        assert!(ll.total() <= ls.total() + 4, "rounds must not grow with n");
    }
}
