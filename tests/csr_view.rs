//! CSR adjacency vs the adjacency the rest of the stack iterates.
//!
//! The engine's hot path reads neighbor lists out of flat CSR buffers: the
//! graph's own `offsets`/`packed` pair for whole-graph sessions, and
//! `GraphView`'s compacted live-vertex CSR for masked sessions. Both must be
//! **order-identical** to the reference adjacency — `Graph::neighbors`
//! filtered by the mask — because inbox order, RNG-free tie-breaks, and the
//! LOCAL-model port numbering all key off neighbor list order. A layout
//! refactor that reorders a single row would silently change colorings.
//!
//! Property-tested over every family in the `gen` registry, with masks of
//! varying density (including empty and full).

use engine::GraphView;
use graphs::{gen, VertexSet};
use proptest::prelude::*;
use rand::mix64;

/// The reference adjacency: the graph's own rows, mask-filtered, order
/// preserved.
fn filtered(g: &graphs::Graph, v: usize, mask: &VertexSet) -> Vec<usize> {
    g.neighbors(v)
        .iter()
        .copied()
        .filter(|&w| mask.contains(w))
        .collect()
}

/// A deterministic pseudo-random mask keeping roughly `keep_of_4 / 4` of
/// the vertices.
fn random_mask(n: usize, seed: u64, keep_of_4: u64) -> VertexSet {
    VertexSet::from_iter_with_universe(n, (0..n).filter(|&v| mix64(seed, v as u64) % 4 < keep_of_4))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whole-graph views answer straight from the graph's CSR: identity on
    /// every row of every registry family. They store no id tables, so the
    /// identity id contract is pinned here for every vertex: dense index =
    /// original id both ways, every vertex live, and `scatter` hands the
    /// dense values back in place.
    #[test]
    fn whole_view_rows_are_identical(n in 8usize..160, seed in 0u64..500) {
        for name in gen::family_names() {
            let g = gen::build_family(name, n, seed).unwrap();
            let view = GraphView::whole(&g);
            prop_assert_eq!(view.live_count(), g.n());
            prop_assert!(view.live().eq(0..g.n()), "{}: live ids", name);
            for dv in 0..g.n() {
                prop_assert_eq!(
                    view.neighbors(dv), g.neighbors(dv),
                    "{}: whole-view row {} diverges", name, dv
                );
                prop_assert_eq!(view.original(dv), dv);
                prop_assert_eq!(view.dense_of(dv), Some(dv));
                prop_assert!(view.contains(dv));
            }
            let values: Vec<u64> = (0..g.n()).map(|v| mix64(seed, v as u64)).collect();
            prop_assert_eq!(view.scatter(u64::MAX, values.iter().copied()), values);
        }
    }

    /// Masked views' compacted CSR rows equal the mask-filtered reference
    /// adjacency, element for element, on every registry family.
    #[test]
    fn masked_view_rows_match_filtered_adjacency(
        n in 8usize..160,
        seed in 0u64..500,
        keep_of_4 in 1u64..=4,
    ) {
        for name in gen::family_names() {
            let g = gen::build_family(name, n, seed).unwrap();
            let mask = random_mask(g.n(), seed ^ 0xc5, keep_of_4);
            let view = GraphView::masked(&g, &mask);
            prop_assert_eq!(view.live_count(), mask.iter().count());
            for (dv, v) in view.live().enumerate() {
                let expect = filtered(&g, v, &mask);
                prop_assert_eq!(
                    view.neighbors(dv), &expect[..],
                    "{}: masked row for original vertex {} diverges", name, v
                );
            }
        }
    }
}

#[test]
fn empty_and_full_masks_are_the_degenerate_rows() {
    for name in gen::family_names() {
        let g = gen::build_family(name, 40, 3).unwrap();
        let empty = VertexSet::new(g.n());
        assert_eq!(GraphView::masked(&g, &empty).live_count(), 0, "{name}");
        let full = VertexSet::from_iter_with_universe(g.n(), 0..g.n());
        let view = GraphView::masked(&g, &full);
        for dv in 0..g.n() {
            assert_eq!(view.neighbors(dv), g.neighbors(dv), "{name}: row {dv}");
        }
    }
}
