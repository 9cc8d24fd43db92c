//! Vertex sharding: how the network is split across worker threads.
//!
//! Shards are contiguous, near-equal ranges of the session's **dense**
//! live-vertex index (see [`GraphView`]) — for an unmasked session that is
//! the vertex-id range itself, and dense order always ascends in original
//! id. Contiguity matters three times: worker threads walk cache-friendly
//! slices; shard ranges tile the dense index space, so the routing epoch
//! can hand each worker one contiguous block of spans; and because the
//! ranges ascend, staging each group's senders in ascending order and
//! draining the groups in order places every inbox in ascending
//! original-sender order (see `mailbox`). Delivery order therefore does
//! not depend on the partition at all.

use std::ops::Range;

use crate::view::GraphView;

/// A partition of `0..n` into contiguous shards with sizes differing by at
/// most one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// Splits `n` vertices into `shards` contiguous ranges.
    ///
    /// `shards` is clamped to `1..=max(n, 1)` so tiny graphs never produce
    /// empty worker threads.
    pub fn contiguous(n: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, n.max(1));
        let base = n / shards;
        let extra = n % shards;
        let mut bounds = Vec::with_capacity(shards + 1);
        bounds.push(0);
        for s in 0..shards {
            let size = base + usize::from(s < extra);
            bounds.push(bounds[s] + size);
        }
        debug_assert_eq!(*bounds.last().unwrap(), n);
        ShardPlan { bounds }
    }

    /// Splits a view's live vertices into `shards` contiguous dense ranges
    /// balanced by **edge mass** — each vertex weighs `deg + 1`, so skewed
    /// families (apollonian hubs, random-tree roots) stop concentrating
    /// their CSR work in one hot shard. Ranges stay contiguous and ascend
    /// in dense id, so this is a pure rebalancing of `contiguous`: every
    /// determinism argument (stable sender order, group-ordered drains)
    /// holds unchanged, and shard *placement* remains a performance knob.
    ///
    /// Every shard is non-empty (cut points are strictly ascending), so the
    /// clamping contract of [`contiguous`](ShardPlan::contiguous) carries
    /// over.
    pub fn for_view(view: &GraphView<'_>, shards: usize) -> Self {
        let n = view.live_count();
        let shards = shards.clamp(1, n.max(1));
        if shards == 1 || n == 0 {
            return ShardPlan::contiguous(n, shards);
        }
        let total: usize = (0..n).map(|dv| view.neighbors(dv).len() + 1).sum();
        let mut bounds = Vec::with_capacity(shards + 1);
        bounds.push(0);
        let mut acc = 0usize;
        let mut next_cut = 1usize;
        for dv in 0..n {
            acc += view.neighbors(dv).len() + 1;
            // Cut once the running mass crosses the next ideal boundary
            // (`acc / total >= next_cut / shards`, in integers), but never
            // so late that the remaining vertices cannot give every later
            // shard at least one, and never twice at the same vertex.
            while next_cut < shards
                && acc * shards >= total * next_cut
                && dv < n - (shards - next_cut)
                && dv + 1 > bounds[next_cut - 1]
            {
                bounds.push(dv + 1);
                next_cut += 1;
            }
        }
        // Mass exhausted with cuts to spare (heavy tail vertex): fill the
        // remaining cuts with the latest legal positions, one vertex each.
        while next_cut < shards {
            bounds.push(n - (shards - next_cut));
            next_cut += 1;
        }
        bounds.push(n);
        debug_assert_eq!(bounds.len(), shards + 1);
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        ShardPlan { bounds }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of vertices partitioned.
    pub fn n(&self) -> usize {
        *self.bounds.last().unwrap()
    }

    /// The vertex range owned by shard `s`.
    pub fn range(&self, s: usize) -> Range<usize> {
        self.bounds[s]..self.bounds[s + 1]
    }

    /// Iterator over all shard ranges in order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.shards()).map(|s| self.range(s))
    }

    /// Groups the shards into `groups` contiguous vertex ranges (one per
    /// worker of the pooled executor), balanced to within one shard and
    /// aligned to shard boundaries. `groups` is clamped to
    /// `1..=shards()` — a worker never owns a fraction of a shard, and no
    /// worker is left without one.
    ///
    /// The ranges ascend in vertex id, so draining per-worker staging
    /// arenas in group order reproduces the sequential vertex walk.
    pub fn group_ranges(&self, groups: usize) -> Vec<std::ops::Range<usize>> {
        let shards = self.shards();
        let groups = groups.clamp(1, shards.max(1));
        let base = shards / groups;
        let extra = shards % groups;
        let mut out = Vec::with_capacity(groups);
        let mut s = 0;
        for g in 0..groups {
            let take = base + usize::from(g < extra);
            let start = self.bounds[s];
            s += take;
            out.push(start..self.bounds[s]);
        }
        debug_assert_eq!(s, shards);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{gen, Graph};

    #[test]
    fn for_view_balances_edge_mass_on_a_star() {
        // star(7): hub 0 (weight 8) + 7 leaves (weight 2 each), total 22.
        let g = gen::star(7);
        let view = GraphView::new(&g, None);
        let plan = ShardPlan::for_view(&view, 2);
        let masses: Vec<usize> = plan
            .ranges()
            .map(|r| r.map(|dv| view.neighbors(dv).len() + 1).sum::<usize>())
            .collect();
        assert_eq!(masses.iter().sum::<usize>(), 22);
        // A vertex-count split ([0,4,8]) puts mass 14 in shard 0; the
        // edge-mass split cuts earlier.
        assert_eq!(masses, vec![12, 10]);
    }

    #[test]
    fn for_view_matches_contiguous_on_uniform_degrees() {
        let g = gen::cycle(12);
        let view = GraphView::new(&g, None);
        for shards in [1usize, 2, 3, 4, 6] {
            assert_eq!(
                ShardPlan::for_view(&view, shards),
                ShardPlan::contiguous(12, shards),
                "shards = {shards}"
            );
        }
    }

    #[test]
    fn for_view_covers_everything_with_nonempty_shards() {
        // The last graph is a star with the hub at the END: its mass is
        // exhausted before all cuts are placed, exercising the tail fill.
        let graphs = [
            gen::star(40),
            gen::random_tree(97, 3),
            gen::complete(9),
            gen::path(5),
            Graph::from_edges(5, [(4usize, 0usize), (4, 1), (4, 2), (4, 3)]),
        ];
        for g in &graphs {
            let view = GraphView::new(g, None);
            for shards in [1usize, 2, 3, 8, 16, 64, 200] {
                let plan = ShardPlan::for_view(&view, shards);
                assert_eq!(plan.n(), g.n());
                assert_eq!(plan.shards(), shards.clamp(1, g.n().max(1)));
                let mut prev = 0;
                for r in plan.ranges() {
                    assert_eq!(r.start, prev, "contiguous (n={}, k={shards})", g.n());
                    assert!(!r.is_empty(), "empty shard (n={}, k={shards})", g.n());
                    prev = r.end;
                }
                assert_eq!(prev, g.n());
            }
        }
    }

    #[test]
    fn covers_all_vertices_without_overlap() {
        for n in [0usize, 1, 2, 7, 8, 100] {
            for k in [1usize, 2, 3, 8, 200] {
                let plan = ShardPlan::contiguous(n, k);
                let mut covered = 0;
                let mut prev_end = 0;
                for r in plan.ranges() {
                    assert_eq!(r.start, prev_end, "ranges must be contiguous");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(covered, n, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn sizes_balanced_within_one() {
        let plan = ShardPlan::contiguous(10, 3);
        let sizes: Vec<usize> = plan.ranges().map(|r| r.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
    }

    #[test]
    fn clamps_shard_count() {
        assert_eq!(ShardPlan::contiguous(3, 100).shards(), 3);
        assert_eq!(ShardPlan::contiguous(3, 0).shards(), 1);
        assert_eq!(ShardPlan::contiguous(0, 4).shards(), 1);
    }

    #[test]
    fn group_ranges_cover_all_vertices_on_shard_boundaries() {
        for (n, shards) in [(100usize, 8usize), (7, 3), (50, 16), (0, 4), (1, 1)] {
            let plan = ShardPlan::contiguous(n, shards);
            for groups in [1usize, 2, 3, 8, 100] {
                let ranges = plan.group_ranges(groups);
                assert!(!ranges.is_empty());
                assert!(ranges.len() <= plan.shards());
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, n);
                let mut prev_end = 0;
                for r in &ranges {
                    assert_eq!(r.start, prev_end, "contiguous groups");
                    prev_end = r.end;
                    // Each boundary is a shard boundary.
                    assert!(
                        plan.ranges().any(|s| s.start == r.start),
                        "group start {} off shard boundary (n={n} shards={shards})",
                        r.start
                    );
                }
            }
        }
    }

    #[test]
    fn group_ranges_balance_shards_within_one() {
        let plan = ShardPlan::contiguous(80, 8);
        let ranges = plan.group_ranges(3);
        // 8 shards of 10 vertices over 3 groups: 3/3/2 shards.
        let sizes: Vec<usize> = ranges.iter().map(std::ops::Range::len).collect();
        assert_eq!(sizes, vec![30, 30, 20]);
    }
}
