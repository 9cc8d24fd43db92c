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
//! # Dense order
//!
//! Dense indices ascend in original id (mask members are enumerated in
//! ascending order), so "ascending dense index" and "ascending original
//! id" are the same walk. The engine leans on that: worker groups own
//! contiguous ascending dense ranges and stage their senders in ascending
//! order, which is what puts every inbox in original-sender order without
//! a sort (see `mailbox`).

use graphs::{Graph, VertexId, VertexSet};

/// A graph restricted to an optional vertex mask, with a dense live-vertex
/// index. See the module docs.
pub struct GraphView<'g> {
    graph: &'g Graph,
    mask: Option<VertexSet>,
    /// Dense index → original id, ascending.
    live: Vec<VertexId>,
    /// Original id → dense index (`usize::MAX` for masked-out vertices).
    dense: Vec<usize>,
    /// Masked case: a compacted CSR over the live vertices — row `dv`'s
    /// filtered neighbors (original ids, sorted) live at
    /// `packed[offsets[dv]..offsets[dv + 1]]`. Both vecs stay empty for
    /// whole-graph views, which borrow the graph's own CSR.
    offsets: Vec<usize>,
    packed: Vec<VertexId>,
}

impl<'g> GraphView<'g> {
    /// A view of the whole graph: every vertex live, adjacency borrowed.
    pub fn whole(graph: &'g Graph) -> Self {
        let n = graph.n();
        GraphView {
            graph,
            mask: None,
            live: (0..n).collect(),
            dense: (0..n).collect(),
            offsets: Vec::new(),
            packed: Vec::new(),
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
            live,
            dense,
            offsets,
            packed,
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

    /// Dense index → original id table (ascending).
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
}
