//! Cole–Vishkin 3-coloring of rooted forests in `O(log* n)` rounds.
//!
//! The classic deterministic symmetry-breaking primitive (Goldberg–Plotkin–
//! Shannon \[17\] use the same bit technique): starting from the `O(log n)`-bit
//! unique identifiers, each iteration shrinks colors from `B` bits to
//! `⌈log₂ B⌉ + 1` bits by encoding the lowest bit position where a vertex's
//! color differs from its parent's; once six colors remain, three shift-down
//! rounds remove colors 5, 4, 3.
//!
//! Each simulated round only reads the parent's state from the previous
//! round, so this is a faithful LOCAL execution; rounds are charged to the
//! ledger as they run. The per-vertex rules — [`cv_shrink`],
//! [`cv_shift_down`], [`cv_recolor`] — are shared with the engine port
//! (`engine::CvProgram`), which applies them to the colors it hears.

use crate::ledger::RoundLedger;
use crate::reduce::smallest_free;
use graphs::VertexId;

/// A rooted forest over vertices `0..n`, described by parent pointers.
///
/// `parent[v] == v` marks a root; `parent[v] == usize::MAX` marks a vertex
/// that is not part of the forest (it is ignored entirely).
#[derive(Clone, Debug)]
pub struct RootedForest {
    parent: Vec<usize>,
}

impl RootedForest {
    /// Wraps parent pointers. See type-level docs for conventions.
    ///
    /// # Panics
    ///
    /// Panics if some `parent[v]` is neither `usize::MAX`, `v`, nor a valid
    /// member vertex, or if the parent pointers contain a cycle.
    pub fn new(parent: Vec<usize>) -> Self {
        let n = parent.len();
        for (v, &p) in parent.iter().enumerate() {
            if p == usize::MAX {
                continue;
            }
            assert!(p < n, "parent of {v} out of range");
            assert_ne!(parent[p], usize::MAX, "parent of {v} not in forest");
        }
        // Cycle check by pointer-jumping.
        let f = RootedForest { parent };
        for v in 0..n {
            if f.parent[v] == usize::MAX {
                continue;
            }
            let mut steps = 0usize;
            let mut u = v;
            while f.parent[u] != u {
                u = f.parent[u];
                steps += 1;
                assert!(steps <= n, "cycle detected in parent pointers");
            }
        }
        f
    }

    /// Number of vertices in the ambient id space.
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// Parent pointer (see conventions on [`RootedForest`]).
    pub fn parent(&self, v: VertexId) -> usize {
        self.parent[v]
    }

    /// Whether `v` belongs to the forest.
    pub fn contains(&self, v: VertexId) -> bool {
        self.parent[v] != usize::MAX
    }

    /// Iterator over member vertices.
    pub fn members(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.n()).filter(|&v| self.contains(v))
    }

    /// Children lists (computed; `O(n)`).
    pub fn children(&self) -> Vec<Vec<VertexId>> {
        let mut ch = vec![Vec::new(); self.n()];
        for v in self.members() {
            let p = self.parent[v];
            if p != v {
                ch[p].push(v);
            }
        }
        ch
    }
}

/// One shrink step: a member of color `my` whose parent has color `parent`
/// (`None` at a root, which compares against a fixed differing value) takes
/// `2·i + bit`, where `i` is the lowest bit position at which the two colors
/// differ and `bit` is `my`'s bit there. Parent and child stay distinct:
/// either their positions differ, or the bits at the shared position do.
#[inline]
pub fn cv_shrink(my: usize, parent: Option<usize>) -> usize {
    let other = parent.unwrap_or(usize::from(my == 0));
    debug_assert_ne!(my, other, "proper coloring invariant");
    let i = (my ^ other).trailing_zeros() as usize;
    2 * i + ((my >> i) & 1)
}

/// The shift-down step: a non-root adopts its parent's color, a root
/// (`parent == None`) the smallest of the six colors other than its own
/// `my`. Afterwards all children of a vertex share one color.
#[inline]
pub fn cv_shift_down(my: usize, parent: Option<usize>) -> usize {
    parent.unwrap_or_else(|| smallest_free(6, &[my]).expect("six colors available"))
}

/// The recolor step after a shift-down: a member of the eliminated class
/// takes the smallest color of `{0, 1, 2}` that is neither its parent's nor
/// its children's (one shared color after the shift; `None` when absent).
#[inline]
pub fn cv_recolor(parent: Option<usize>, child: Option<usize>) -> usize {
    let constraints = [parent.unwrap_or(usize::MAX), child.unwrap_or(usize::MAX)];
    smallest_free(3, &constraints).expect("three colors, two constraints")
}

/// 3-colors a rooted forest in `O(log* n)` LOCAL rounds (charged to
/// `ledger` under `"cole-vishkin"` and `"shift-down"`).
///
/// Every round applies [`cv_shrink`], [`cv_shift_down`] or [`cv_recolor`]
/// to each member, reading only the previous round's colors.
///
/// Returns `color[v] ∈ {0,1,2}` for members, `usize::MAX` for non-members.
///
/// # Examples
///
/// ```
/// use local_model::{cole_vishkin_3color, RootedForest, RoundLedger};
/// // A path rooted at 0: 0 <- 1 <- 2 <- 3 <- 4.
/// let f = RootedForest::new(vec![0, 0, 1, 2, 3]);
/// let mut ledger = RoundLedger::new();
/// let col = cole_vishkin_3color(&f, &mut ledger);
/// for v in 1..5 {
///     assert_ne!(col[v], col[f.parent(v)]);
///     assert!(col[v] < 3);
/// }
/// ```
pub fn cole_vishkin_3color(forest: &RootedForest, ledger: &mut RoundLedger) -> Vec<usize> {
    let n = forest.n();
    let up = |v: VertexId| Some(forest.parent(v)).filter(|&p| p != v);
    // Initial colors: unique ids.
    let mut color: Vec<usize> = (0..n).collect();
    for (v, c) in color.iter_mut().enumerate() {
        if !forest.contains(v) {
            *c = usize::MAX;
        }
    }
    // CV iterations until at most 6 colors (values 0..6).
    let mut cv_rounds = 0u64;
    while forest.members().any(|v| color[v] >= 6) {
        let prev = color.clone();
        for v in forest.members() {
            color[v] = cv_shrink(prev[v], up(v).map(|p| prev[p]));
        }
        cv_rounds += 1;
        debug_assert!(cv_rounds <= 64 + 4, "CV must converge in log* rounds");
    }
    ledger.charge("cole-vishkin", cv_rounds);

    // Eliminate colors 5, 4, 3, two rounds each: shift down, then recolor
    // the target class, whose members are pairwise non-adjacent.
    let children = forest.children();
    for target in (3..6).rev() {
        let prev = color.clone();
        for v in forest.members() {
            color[v] = cv_shift_down(prev[v], up(v).map(|p| prev[p]));
        }
        let prev = color.clone();
        for v in forest.members() {
            if prev[v] == target {
                let child = children[v].first().map(|&c| prev[c]);
                color[v] = cv_recolor(up(v).map(|p| prev[p]), child);
            }
        }
        ledger.charge("shift-down", 2);
    }
    color
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    fn forest_from_bfs(g: &graphs::Graph, root: usize) -> RootedForest {
        let parents = graphs::bfs_parents(g, root, None);
        RootedForest::new(parents)
    }

    fn assert_proper_3(f: &RootedForest, col: &[usize]) {
        for v in f.members() {
            assert!(col[v] < 3, "color of {v} is {}", col[v]);
            let p = f.parent(v);
            if p != v {
                assert_ne!(col[v], col[p], "edge ({v},{p}) monochromatic");
            }
        }
    }

    #[test]
    fn colors_long_path() {
        let g = gen::path(1000);
        let f = forest_from_bfs(&g, 0);
        let mut ledger = RoundLedger::new();
        let col = cole_vishkin_3color(&f, &mut ledger);
        assert_proper_3(&f, &col);
        // log* of anything practical is tiny.
        assert!(ledger.phase_total("cole-vishkin") <= 8);
        assert_eq!(ledger.phase_total("shift-down"), 6);
    }

    #[test]
    fn colors_binary_tree() {
        let g = gen::binary_tree(9);
        let f = forest_from_bfs(&g, 0);
        let mut ledger = RoundLedger::new();
        let col = cole_vishkin_3color(&f, &mut ledger);
        assert_proper_3(&f, &col);
    }

    #[test]
    fn colors_random_trees() {
        for seed in 0..5 {
            let g = gen::random_tree(300, seed);
            let f = forest_from_bfs(&g, 0);
            let mut ledger = RoundLedger::new();
            let col = cole_vishkin_3color(&f, &mut ledger);
            assert_proper_3(&f, &col);
        }
    }

    #[test]
    fn handles_multi_tree_forest_with_nonmembers() {
        // Two stars and two excluded vertices.
        let mut parent = vec![usize::MAX; 8];
        parent[0] = 0;
        parent[1] = 0;
        parent[2] = 0;
        parent[3] = 3;
        parent[4] = 3;
        parent[5] = 3;
        let f = RootedForest::new(parent);
        let mut ledger = RoundLedger::new();
        let col = cole_vishkin_3color(&f, &mut ledger);
        assert_proper_3(&f, &col);
        assert_eq!(col[6], usize::MAX);
        assert_eq!(col[7], usize::MAX);
    }

    #[test]
    fn singleton_forest() {
        let f = RootedForest::new(vec![0]);
        let mut ledger = RoundLedger::new();
        let col = cole_vishkin_3color(&f, &mut ledger);
        assert!(col[0] < 3);
    }

    /// [`cv_shrink`]: a child and its parent stay distinct after one step,
    /// over every triple of distinct-adjacent 6-bit colors and at roots,
    /// and a 6-bit color shrinks below 12.
    #[test]
    fn shrink_keeps_parent_and_child_distinct() {
        for my in 0..64usize {
            for child in (0..64).filter(|&c| c != my) {
                let below = cv_shrink(child, Some(my));
                assert_ne!(below, cv_shrink(my, None), "root {my}, child {child}");
                for parent in (0..64).filter(|&p| p != my) {
                    let mine = cv_shrink(my, Some(parent));
                    assert!(mine < 12, "shrink({my}, {parent}) = {mine}");
                    assert_ne!(below, mine, "{child} -> {my} -> {parent}");
                }
            }
        }
    }

    /// [`cv_shift_down`]: a non-root takes its parent's color, a root a
    /// different color of `0..6`.
    #[test]
    fn shift_down_adopts_the_parent_and_moves_roots() {
        for my in 0..6 {
            let root = cv_shift_down(my, None);
            assert!(root < 6 && root != my, "root {my} -> {root}");
            for parent in 0..6 {
                assert_eq!(cv_shift_down(my, Some(parent)), parent);
            }
        }
    }

    /// [`cv_recolor`]: lands in `0..3` and avoids both constraints.
    #[test]
    fn recolor_lands_in_three_colors_avoiding_both_constraints() {
        let options = || (0..6).map(Some).chain([None]);
        for parent in options() {
            for child in options() {
                let c = cv_recolor(parent, child);
                assert!(c < 3, "recolor({parent:?}, {child:?}) = {c}");
                assert_ne!(Some(c), parent);
                assert_ne!(Some(c), child);
            }
        }
    }

    #[test]
    #[should_panic]
    fn cycle_in_parents_panics() {
        RootedForest::new(vec![1, 0]);
    }
}
