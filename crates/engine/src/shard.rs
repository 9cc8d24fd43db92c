//! The worker-group partition: how a session's vertices are split across
//! worker threads.
//!
//! Groups are contiguous ranges of the session's **dense** live-vertex
//! index (see [`GraphView`]) — for an unmasked session that is the
//! vertex-id range itself, and dense order always ascends in original id.
//! Contiguity matters three times: worker threads walk cache-friendly
//! slices; the ranges tile the dense index space, so the routing epoch can
//! hand each worker one contiguous block of spans; and because the ranges
//! ascend, staging each group's senders in ascending order and draining
//! the groups in order places every inbox in ascending original-sender
//! order (see `mailbox`). Delivery order therefore does not depend on the
//! partition at all.

use crate::view::GraphView;

/// Splits a view's live vertices into `groups` contiguous dense ranges
/// balanced by **edge mass** — each vertex weighs `deg + 1`, so skewed
/// families (apollonian hubs, random-tree roots) stop concentrating their
/// CSR work in one hot group — and returns the flat boundaries: group `g`
/// owns `bounds[g]..bounds[g + 1]`, `bounds[0] = 0` and the last entry is
/// the live count. On uniform degrees the cut is the near-equal split.
///
/// `groups` is clamped to `1..=max(live, 1)` and every group is non-empty
/// (cut points ascend strictly), so tiny sessions never park an idle
/// worker. The placement is a performance choice only: every determinism
/// argument (stable sender order, group-ordered drains) holds for any cut.
pub(crate) fn group_bounds(view: &GraphView<'_>, groups: usize) -> Vec<usize> {
    let n = view.live_count();
    let groups = groups.clamp(1, n.max(1));
    let mut bounds = Vec::with_capacity(groups + 1);
    bounds.push(0);
    if groups > 1 {
        let total: usize = (0..n).map(|dv| view.neighbors(dv).len() + 1).sum();
        let mut acc = 0usize;
        let mut next_cut = 1usize;
        for dv in 0..n {
            acc += view.neighbors(dv).len() + 1;
            // Cut once the running mass crosses the next ideal boundary
            // (`acc / total >= next_cut / groups`, in integers), but never
            // so late that the remaining vertices cannot give every later
            // group at least one, and never twice at the same vertex.
            while next_cut < groups
                && acc * groups >= total * next_cut
                && dv < n - (groups - next_cut)
                && dv + 1 > bounds[next_cut - 1]
            {
                bounds.push(dv + 1);
                next_cut += 1;
            }
        }
        // Mass exhausted with cuts to spare (heavy tail vertex): fill the
        // remaining cuts with the latest legal positions, one vertex each.
        while next_cut < groups {
            bounds.push(n - (groups - next_cut));
            next_cut += 1;
        }
    }
    bounds.push(n);
    debug_assert_eq!(bounds.len(), groups + 1);
    debug_assert!(n == 0 || bounds.windows(2).all(|w| w[0] < w[1]));
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{gen, Graph, VertexSet};

    fn bounds_of(g: &Graph, groups: usize) -> Vec<usize> {
        group_bounds(&GraphView::new(g, None), groups)
    }

    #[test]
    fn balances_edge_mass_on_a_star() {
        // star(7): hub 0 (weight 8) + 7 leaves (weight 2 each), total 22.
        let g = gen::star(7);
        let view = GraphView::new(&g, None);
        let bounds = group_bounds(&view, 2);
        let masses: Vec<usize> = bounds
            .windows(2)
            .map(|b| (b[0]..b[1]).map(|dv| view.neighbors(dv).len() + 1).sum())
            .collect();
        assert_eq!(masses.iter().sum::<usize>(), 22);
        // A vertex-count split ([0,4,8]) puts mass 14 in group 0; the
        // edge-mass split cuts earlier.
        assert_eq!(masses, vec![12, 10]);
    }

    #[test]
    fn for_view_matches_contiguous_on_uniform_degrees() {
        // On uniform degrees the edge-mass cut is the near-equal split.
        let g = gen::cycle(12);
        for groups in [1usize, 2, 3, 4, 6] {
            let even: Vec<usize> = (0..=groups).map(|i| i * 12 / groups).collect();
            assert_eq!(bounds_of(&g, groups), even, "groups = {groups}");
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
            gen::path(1),
            Graph::from_edges(5, [(4usize, 0usize), (4, 1), (4, 2), (4, 3)]),
        ];
        for g in &graphs {
            for groups in [1usize, 2, 3, 8, 16, 64, 200] {
                let bounds = bounds_of(g, groups);
                assert_eq!(bounds.len() - 1, groups.clamp(1, g.n()));
                assert_eq!(bounds[0], 0);
                assert_eq!(*bounds.last().unwrap(), g.n());
                assert!(
                    bounds.windows(2).all(|b| b[0] < b[1]),
                    "empty group (n={}, k={groups}): {bounds:?}",
                    g.n()
                );
            }
        }
    }

    #[test]
    fn covers_all_vertices_without_overlap() {
        for n in [0usize, 1, 2, 7, 8, 100] {
            let g = gen::path(n);
            for groups in [1usize, 2, 3, 8, 200] {
                let bounds = bounds_of(&g, groups);
                assert_eq!(bounds[0], 0);
                assert!(bounds.windows(2).all(|b| b[0] <= b[1]), "n={n} k={groups}");
                let covered: usize = bounds.windows(2).map(|b| b[1] - b[0]).sum();
                assert_eq!(covered, n, "n={n} k={groups}");
            }
        }
    }

    #[test]
    fn sizes_balanced_within_one() {
        let sizes: Vec<usize> = bounds_of(&gen::cycle(10), 3)
            .windows(2)
            .map(|b| b[1] - b[0])
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4), "{sizes:?}");
    }

    #[test]
    fn clamps_shard_count() {
        assert_eq!(bounds_of(&gen::path(3), 100), [0, 1, 2, 3]);
        assert_eq!(bounds_of(&gen::path(3), 0), [0, 3]);
        // No live vertex: one empty group.
        let g = gen::path(4);
        let empty = GraphView::new(&g, Some(&VertexSet::new(4)));
        assert_eq!(group_bounds(&empty, 4), [0, 0]);
    }
}
