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
//! # Identity views
//!
//! A whole-graph view stores nothing per vertex: every vertex is live, the
//! dense index *is* the original id, and adjacency is the graph's own CSR.
//! Each id query branches once on whether the view is masked and answers
//! the identity without a table read — which matters because staging maps
//! every destination of every message to its dense index. Only masked
//! views build the dense ↔ original tables and a compacted CSR of their
//! live rows.
//!
//! Masked views still read `dense[dst]` once per staged message. A CSR of
//! dense neighbor ids would avoid it at 4–8 B per live edge; no `colorbench`
//! workload runs a masked session large enough for that table to fall out
//! of cache, so they keep the lookup.
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
    /// The mask and its tables; `None` for a whole-graph (identity) view.
    masked: Option<Masked>,
}

/// What a masked view stores beyond the graph: the mask, the id tables,
/// and a compacted CSR over the live vertices.
struct Masked {
    set: VertexSet,
    /// Dense index → original id, ascending.
    live: Vec<VertexId>,
    /// Original id → dense index (`usize::MAX` for masked-out vertices).
    dense: Vec<usize>,
    /// Row `dv`'s filtered neighbors (original ids, sorted) live at
    /// `packed[offsets[dv]..offsets[dv + 1]]`.
    offsets: Vec<usize>,
    packed: Vec<VertexId>,
}

impl<'g> GraphView<'g> {
    /// A view of the whole graph: every vertex live, dense index = original
    /// id, adjacency borrowed. Allocates nothing per vertex.
    pub fn whole(graph: &'g Graph) -> Self {
        GraphView {
            graph,
            masked: None,
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
            masked: Some(Masked {
                set: mask.clone(),
                live,
                dense,
                offsets,
                packed,
            }),
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
        self.masked.as_ref().map(|m| &m.set)
    }

    /// Whether this view restricts the graph.
    pub fn is_masked(&self) -> bool {
        self.masked.is_some()
    }

    /// Original vertex count of the underlying graph.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Number of live vertices.
    pub fn live_count(&self) -> usize {
        match &self.masked {
            None => self.graph.n(),
            Some(m) => m.live.len(),
        }
    }

    /// The live vertices' original ids, in dense (ascending) order.
    pub fn live(&self) -> impl ExactSizeIterator<Item = VertexId> + '_ {
        (0..self.live_count()).map(|dv| self.original(dv))
    }

    /// The original id of dense index `dv`.
    ///
    /// # Panics
    ///
    /// Panics if `dv` is not below [`live_count`](GraphView::live_count).
    pub fn original(&self, dv: usize) -> VertexId {
        match &self.masked {
            None => {
                assert!(dv < self.graph.n(), "dense index {dv} out of range");
                dv
            }
            Some(m) => m.live[dv],
        }
    }

    /// The dense index of original vertex `v`, if live.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the graph.
    pub fn dense_of(&self, v: VertexId) -> Option<usize> {
        match &self.masked {
            None => {
                assert!(v < self.graph.n(), "vertex {v} out of range");
                Some(v)
            }
            Some(m) => {
                let dv = m.dense[v];
                (dv != usize::MAX).then_some(dv)
            }
        }
    }

    /// The dense index of original vertex `v`, which the caller knows is
    /// live (`usize::MAX` if a masked view has it masked out): the lookup
    /// staging does for every destination of every message.
    pub(crate) fn dense_index(&self, v: VertexId) -> usize {
        match &self.masked {
            None => {
                debug_assert!(v < self.graph.n(), "vertex {v} out of range");
                v
            }
            Some(m) => m.dense[v],
        }
    }

    /// Whether original vertex `v` is live.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the graph.
    pub fn contains(&self, v: VertexId) -> bool {
        self.dense_of(v).is_some()
    }

    /// Live neighbors (original ids, sorted ascending) of dense index `dv`.
    /// Whole views answer straight from the graph's CSR; masked views from
    /// the compacted live-vertex CSR.
    pub fn neighbors(&self, dv: usize) -> &[VertexId] {
        match &self.masked {
            None => self.graph.neighbors(dv),
            Some(m) => &m.packed[m.offsets[dv]..m.offsets[dv + 1]],
        }
    }

    /// Scatters dense-indexed values back to an original-indexed vector,
    /// filling masked-out positions with `fill`. The adapter idiom for
    /// returning per-vertex outputs with the sequential shape.
    pub fn scatter<T: Clone>(&self, fill: T, values: impl IntoIterator<Item = T>) -> Vec<T> {
        let (out, count) = match &self.masked {
            None => {
                let out: Vec<T> = values.into_iter().collect();
                let count = out.len();
                (out, count)
            }
            Some(m) => {
                let mut out = vec![fill; self.n()];
                let mut count = 0;
                for (dv, value) in values.into_iter().enumerate() {
                    out[m.live[dv]] = value;
                    count += 1;
                }
                (out, count)
            }
        };
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
        assert!(view.live().eq(0..6));
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
        assert_eq!(view.live().collect::<Vec<_>>(), [0, 2, 3, 5]);
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
