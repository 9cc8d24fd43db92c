//! `GraphView` — the engine's active-set abstraction: a graph plus an
//! optional vertex mask, compacted for dense per-vertex indexing.
//!
//! The sequential primitives in `local-model` all take `Option<&VertexSet>`;
//! this type is the engine-side twin. A view over a masked graph exposes the
//! **live** vertices (the mask members) as a dense range `0..live_count()`,
//! so sessions allocate programs and mailboxes only for live vertices —
//! masked-out nodes never get a program, a mailbox, an RNG stream, or a
//! ledger charge. Everything observable stays keyed on the *original*
//! [`VertexId`]: contexts report original ids, neighbor lists hold
//! original ids, inboxes are sorted by original sender id, and RNG streams
//! derive from `(seed, original id)` — which is what makes a masked
//! engine run bit-identical to the sequential masked primitives at any
//! shard count.
//!
//! Neighbor lists are filtered to live vertices: an edge with a masked-out
//! endpoint does not exist for the session, so a broadcast never reaches a
//! dead vertex and a unicast to one is a LOCAL-model violation (panics like
//! any other non-neighbor send).
//!
//! # Vertex ordering
//!
//! The dense index is additionally an internal **placement knob**: with
//! [`VertexOrder::Locality`] the live vertices are relabeled by a seeded
//! deterministic RCM-style order ([`graphs::locality_order`]) so that
//! graph-adjacent vertices share cache lines and shard spans become
//! neighborhoods instead of arbitrary id ranges. The permutation follows
//! the exact playbook mask compaction proved: every observable — context
//! ids, neighbor lists, inbox sender order, `(seed, original id)` RNG
//! streams, fault keys, [`scatter`](GraphView::scatter) output — stays
//! keyed on *original* ids, so a relabeled run is bit-identical to an
//! identity-order run at every shard count. Code that must walk vertices
//! in ascending original order (program factories, host hooks) uses
//! [`ascending`](GraphView::ascending) instead of the dense range.

use graphs::{Graph, VertexId, VertexSet};

/// How a session maps live vertices onto the dense index — a pure
/// performance knob: results are bit-identical for every variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum VertexOrder {
    /// Dense index ascends in original vertex id (the historical layout).
    #[default]
    Identity,
    /// Seeded deterministic RCM-style relabeling: BFS layers packed
    /// contiguously, low-degree periphery first, reversed — adjacent
    /// vertices land at nearby dense indices, so worker shards walk
    /// cache-contiguous neighborhoods.
    Locality,
}

/// A graph restricted to an optional vertex mask, with a dense live-vertex
/// index. See the module docs.
pub struct GraphView<'g> {
    graph: &'g Graph,
    mask: Option<VertexSet>,
    /// How the dense index orders the live vertices.
    order: VertexOrder,
    /// Dense index → original id (ascending under
    /// [`VertexOrder::Identity`]; permuted under
    /// [`VertexOrder::Locality`]).
    live: Vec<VertexId>,
    /// Original id → dense index (`usize::MAX` for masked-out vertices).
    dense: Vec<usize>,
    /// Masked or relabeled case: a compacted CSR over the live vertices —
    /// row `dv`'s filtered neighbors (original ids, sorted) live at
    /// `packed[offsets[dv]..offsets[dv + 1]]`. Both vecs stay empty for
    /// identity whole-graph views, which borrow the graph's own CSR.
    offsets: Vec<usize>,
    packed: Vec<VertexId>,
    /// Locality case only: dense indices in ascending **original**-id
    /// order (`asc[k]` = dense index of the k-th smallest live original
    /// id). Empty when the dense order itself ascends.
    asc: Vec<usize>,
}

impl<'g> GraphView<'g> {
    /// A view of the whole graph: every vertex live, adjacency borrowed.
    pub fn whole(graph: &'g Graph) -> Self {
        let n = graph.n();
        GraphView {
            graph,
            mask: None,
            order: VertexOrder::Identity,
            live: (0..n).collect(),
            dense: (0..n).collect(),
            offsets: Vec::new(),
            packed: Vec::new(),
            asc: Vec::new(),
        }
    }

    /// A view of `graph` restricted to `mask`.
    ///
    /// # Panics
    ///
    /// Panics if the mask's universe differs from the graph's vertex count.
    pub fn masked(graph: &'g Graph, mask: &VertexSet) -> Self {
        assert_eq!(
            mask.universe(),
            graph.n(),
            "mask universe must match the graph"
        );
        let n = graph.n();
        let live: Vec<VertexId> = mask.iter().collect();
        let mut dense = vec![usize::MAX; n];
        for (dv, &v) in live.iter().enumerate() {
            dense[v] = dv;
        }
        // Compact the live rows of the graph's CSR into one flat pair of
        // arrays: a single pass over the masked adjacency, no per-vertex
        // allocations, and the same cache-friendly layout `Graph` itself
        // uses.
        let mut offsets = Vec::with_capacity(live.len() + 1);
        offsets.push(0);
        let mut packed = Vec::new();
        for &v in &live {
            packed.extend(
                graph
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&w| mask.contains(w)),
            );
            offsets.push(packed.len());
        }
        GraphView {
            graph,
            mask: Some(mask.clone()),
            order: VertexOrder::Identity,
            live,
            dense,
            offsets,
            packed,
            asc: Vec::new(),
        }
    }

    /// Builds a view from an optional mask (the `Option<&VertexSet>`
    /// convention of the sequential primitives).
    pub fn new(graph: &'g Graph, mask: Option<&VertexSet>) -> Self {
        match mask {
            None => GraphView::whole(graph),
            Some(m) => GraphView::masked(graph, m),
        }
    }

    /// Builds a view with an explicit [`VertexOrder`]:
    /// [`VertexOrder::Locality`] relabels the live vertices by the seeded
    /// RCM-style order (see the module docs), materializing a permuted
    /// compacted CSR; [`VertexOrder::Identity`] is exactly
    /// [`new`](GraphView::new).
    pub fn with_order(
        graph: &'g Graph,
        mask: Option<&VertexSet>,
        order: VertexOrder,
        seed: u64,
    ) -> Self {
        let mut view = GraphView::new(graph, mask);
        if order == VertexOrder::Locality && view.live_count() > 1 {
            view.relabel(seed);
        }
        view
    }

    /// Relabels the live vertices in place by the seeded locality order,
    /// rebuilding the dense tables and materializing the permuted CSR
    /// (row order follows the new dense index; row *contents* stay
    /// original ids, ascending — the neighbor-list contract is untouched).
    fn relabel(&mut self, seed: u64) {
        let n = self.live.len();
        // The permutation runs over the current (identity-compacted) dense
        // index: `perm[pos]` = the old dense index placed at `pos`.
        let perm = graphs::locality_order(n, seed, |dv, buf| {
            buf.extend(self.neighbors(dv).iter().map(|&w| self.dense[w]));
        });
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut packed = Vec::with_capacity(if self.offsets.is_empty() {
            (0..n).map(|dv| self.neighbors(dv).len()).sum()
        } else {
            self.packed.len()
        });
        for &od in &perm {
            packed.extend_from_slice(self.neighbors(od));
            offsets.push(packed.len());
        }
        let live: Vec<VertexId> = perm.iter().map(|&od| self.live[od]).collect();
        for (pos, &v) in live.iter().enumerate() {
            self.dense[v] = pos;
        }
        // `asc[k]`: where the k-th smallest original id (= old dense k)
        // landed — the inverse permutation.
        let mut asc = vec![0usize; n];
        for (pos, &od) in perm.iter().enumerate() {
            asc[od] = pos;
        }
        self.order = VertexOrder::Locality;
        self.live = live;
        self.offsets = offsets;
        self.packed = packed;
        self.asc = asc;
    }

    /// The dense-index ordering this view was built with.
    pub fn order(&self) -> VertexOrder {
        self.order
    }

    /// Dense indices in ascending **original**-id order — the iteration
    /// order for anything whose contract is "ascending original id"
    /// (program factories, [`for_each_program`]
    /// hooks). The identity of `0..live_count()` unless the view is
    /// relabeled.
    ///
    /// [`for_each_program`]: crate::EngineSession::for_each_program
    pub fn ascending(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.live.len()).map(move |k| if self.asc.is_empty() { k } else { self.asc[k] })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The mask, if this view is restricted.
    pub fn mask(&self) -> Option<&VertexSet> {
        self.mask.as_ref()
    }

    /// Whether this view restricts the graph.
    pub fn is_masked(&self) -> bool {
        self.mask.is_some()
    }

    /// Original vertex count of the underlying graph.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Number of live vertices.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Dense index → original id table (ascending under
    /// [`VertexOrder::Identity`]; permuted under
    /// [`VertexOrder::Locality`] — use [`ascending`](GraphView::ascending)
    /// when original-id order matters).
    pub fn live(&self) -> &[VertexId] {
        &self.live
    }

    /// The original id of dense index `dv`.
    pub fn original(&self, dv: usize) -> VertexId {
        self.live[dv]
    }

    /// The dense index of original vertex `v`, if live.
    pub fn dense_of(&self, v: VertexId) -> Option<usize> {
        let dv = self.dense[v];
        (dv != usize::MAX).then_some(dv)
    }

    /// Original id → dense index table (`usize::MAX` outside the mask).
    pub(crate) fn dense_table(&self) -> &[usize] {
        &self.dense
    }

    /// Whether original vertex `v` is live.
    pub fn contains(&self, v: VertexId) -> bool {
        self.dense[v] != usize::MAX
    }

    /// Live neighbors (original ids, sorted ascending) of dense index `dv`.
    /// Whole views answer straight from the graph's CSR; masked views from
    /// the compacted live-vertex CSR.
    pub fn neighbors(&self, dv: usize) -> &[VertexId] {
        if self.offsets.is_empty() {
            self.graph.neighbors(self.live[dv])
        } else {
            &self.packed[self.offsets[dv]..self.offsets[dv + 1]]
        }
    }

    /// Scatters dense-indexed values back to an original-indexed vector,
    /// filling masked-out positions with `fill`. The adapter idiom for
    /// returning per-vertex outputs with the sequential shape.
    pub fn scatter<T: Clone>(&self, fill: T, values: impl IntoIterator<Item = T>) -> Vec<T> {
        let mut out = vec![fill; self.n()];
        let mut count = 0;
        for (dv, value) in values.into_iter().enumerate() {
            out[self.live[dv]] = value;
            count += 1;
        }
        assert_eq!(count, self.live_count(), "one value per live vertex");
        out
    }
}

/// Per-directed-edge **sender ranks**: for every live edge `u → v`, the
/// position of `u` in `v`'s (ascending-original, live-filtered) neighbor
/// list. Precomputed once per session in O(m), the table lets the staging
/// path attach each message's final inbox position key in O(1), which is
/// what makes the routing epoch's two-pass counting sort reproduce the
/// stable sort-by-original-sender delivery order with **no comparison
/// sorts** (see `mailbox`). Rank order ≡ original-sender order per
/// receiver because neighbor lists ascend in original id.
///
/// Storage is CSR-aligned with the view's adjacency — one `u32` per
/// directed edge plus one per vertex — so the per-program memory cost is
/// `4·(adjacency entries + live vertices + 1)` bytes.
pub(crate) struct SenderRanks {
    /// Per dense sender: start of its rank row (prefix degrees).
    offsets: Vec<u32>,
    /// `ranks[offsets[sv] + i]`: sender `sv`'s rank at its `i`-th
    /// neighbor's inbox.
    ranks: Vec<u32>,
}

impl SenderRanks {
    /// Builds the table for `view` in one O(m) pass: senders are visited
    /// in ascending **original** order, so each receiver's counter hands
    /// out ranks 0, 1, … exactly in its neighbor-list order. The counters
    /// are indexed by original id — one transient word per vertex of the
    /// graph, zero-allocated so pages no live vertex touches cost nothing —
    /// which spares every directed edge a lookup in the dense table.
    pub(crate) fn build(view: &GraphView<'_>) -> Self {
        let live = view.live_count();
        let mut offsets = Vec::with_capacity(live + 1);
        offsets.push(0u32);
        let mut total = 0usize;
        for dv in 0..live {
            total += view.neighbors(dv).len();
            assert!(
                u32::try_from(total).is_ok(),
                "adjacency too large for the u32 rank table"
            );
            offsets.push(total as u32);
        }
        let mut ranks = vec![0u32; total];
        let mut counter = vec![0u32; view.n()];
        for sv in view.ascending() {
            let base = offsets[sv] as usize;
            for (i, &dst) in view.neighbors(sv).iter().enumerate() {
                let c = &mut counter[dst];
                ranks[base + i] = *c;
                *c += 1;
            }
        }
        SenderRanks { offsets, ranks }
    }

    /// The rank of dense sender `sv`'s message to its `i`-th live
    /// neighbor: the sender's ascending-original position among that
    /// receiver's neighbors.
    #[inline]
    pub(crate) fn rank(&self, sv: usize, i: usize) -> u32 {
        self.ranks[self.offsets[sv] as usize + i]
    }

    /// A test-only table where every rank is the sender's dense index
    /// (valid for identity layouts: monotone in original id per receiver),
    /// sized so any sender may address up to `n` neighbors.
    #[cfg(test)]
    pub(crate) fn by_src(n: usize) -> Self {
        SenderRanks {
            offsets: (0..=n).map(|v| (v * n) as u32).collect(),
            ranks: (0..n)
                .flat_map(|v| std::iter::repeat_n(v as u32, n))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    #[test]
    fn whole_view_is_identity() {
        let g = gen::cycle(6);
        let view = GraphView::whole(&g);
        assert_eq!(view.live_count(), 6);
        assert!(!view.is_masked());
        for v in 0..6 {
            assert_eq!(view.original(v), v);
            assert_eq!(view.dense_of(v), Some(v));
            assert_eq!(view.neighbors(v), g.neighbors(v));
        }
    }

    #[test]
    fn masked_view_compacts_and_filters() {
        // Cycle 0-1-2-3-4-5, mask {0, 2, 3, 5}: edges (2,3) and (5,0) live.
        let g = gen::cycle(6);
        let mask = VertexSet::from_iter_with_universe(6, [0, 2, 3, 5]);
        let view = GraphView::masked(&g, &mask);
        assert_eq!(view.live(), &[0, 2, 3, 5]);
        assert_eq!(view.dense_of(2), Some(1));
        assert_eq!(view.dense_of(1), None);
        assert!(view.contains(5));
        assert!(!view.contains(4));
        assert_eq!(view.neighbors(0), &[5], "0's live neighbor is only 5");
        assert_eq!(view.neighbors(1), &[3], "2's live neighbor is only 3");
        assert_eq!(view.neighbors(2), &[2], "3's live neighbor is only 2");
    }

    #[test]
    fn scatter_restores_original_indexing() {
        let g = gen::path(5);
        let mask = VertexSet::from_iter_with_universe(5, [1, 3]);
        let view = GraphView::masked(&g, &mask);
        let out = view.scatter(usize::MAX, [10, 30]);
        assert_eq!(out, vec![usize::MAX, 10, usize::MAX, 30, usize::MAX]);
    }

    #[test]
    fn empty_mask_yields_no_live_vertices() {
        let g = gen::path(4);
        let mask = VertexSet::new(4);
        let view = GraphView::masked(&g, &mask);
        assert_eq!(view.live_count(), 0);
        assert_eq!(view.scatter(0usize, []), vec![0; 4]);
    }

    #[test]
    #[should_panic(expected = "universe")]
    fn mismatched_mask_universe_panics() {
        let g = gen::path(4);
        let mask = VertexSet::new(5);
        GraphView::masked(&g, &mask);
    }

    #[test]
    fn locality_view_permutes_but_keeps_observables_original() {
        let g = gen::random_tree(60, 5);
        let view = GraphView::with_order(&g, None, VertexOrder::Locality, 7);
        assert_eq!(view.order(), VertexOrder::Locality);
        assert_eq!(view.live_count(), 60);
        // live is a permutation of 0..60 and dense is its inverse.
        let mut seen = [false; 60];
        for dv in 0..60 {
            let v = view.original(dv);
            assert!(!seen[v]);
            seen[v] = true;
            assert_eq!(view.dense_of(v), Some(dv));
            // Neighbor rows carry original ids, ascending, matching the
            // graph's own row for this vertex.
            assert_eq!(view.neighbors(dv), g.neighbors(v));
        }
        // ascending() walks original ids 0, 1, 2, … regardless of layout.
        let asc: Vec<VertexId> = view.ascending().map(|dv| view.original(dv)).collect();
        assert_eq!(asc, (0..60).collect::<Vec<_>>());
        // scatter lands values at original positions.
        let out = view.scatter(usize::MAX, (0..60).map(|dv| view.original(dv)));
        assert_eq!(out, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn locality_view_composes_with_masks() {
        let g = gen::grid(5, 6);
        let mask = VertexSet::from_iter_with_universe(30, (0..30).filter(|v| v % 7 != 0));
        let identity = GraphView::new(&g, Some(&mask));
        let view = GraphView::with_order(&g, Some(&mask), VertexOrder::Locality, 3);
        assert_eq!(view.live_count(), identity.live_count());
        let asc: Vec<VertexId> = view.ascending().map(|dv| view.original(dv)).collect();
        assert_eq!(
            asc,
            identity.live().to_vec(),
            "same live set, original order"
        );
        for dv in 0..view.live_count() {
            let v = view.original(dv);
            let idv = identity.dense_of(v).unwrap();
            assert_eq!(view.neighbors(dv), identity.neighbors(idv), "v = {v}");
        }
    }

    #[test]
    fn sender_ranks_match_neighbor_positions() {
        let g = gen::random_tree(40, 9);
        let mask = VertexSet::from_iter_with_universe(40, (0..40).filter(|v| v % 5 != 0));
        for (mask, order) in [
            (None, VertexOrder::Identity),
            (None, VertexOrder::Locality),
            (Some(&mask), VertexOrder::Identity),
            (Some(&mask), VertexOrder::Locality),
        ] {
            let view = GraphView::with_order(&g, mask, order, 11);
            let ranks = SenderRanks::build(&view);
            for sv in 0..view.live_count() {
                let src = view.original(sv);
                for (i, &dst) in view.neighbors(sv).iter().enumerate() {
                    let rv = view.dense_of(dst).unwrap();
                    let expect = view
                        .neighbors(rv)
                        .binary_search(&src)
                        .expect("sender is the receiver's neighbor");
                    assert_eq!(
                        ranks.rank(sv, i) as usize,
                        expect,
                        "rank({src} → {dst}), order {order:?}"
                    );
                }
            }
        }
    }
}
