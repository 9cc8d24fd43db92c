//! Per-node execution context: the knowledge a LOCAL processor wakes up with.

use graphs::VertexId;
use rand::rngs::StdRng;

use crate::view::GraphView;

/// What a node knows while running: its identifier, its neighborhood, the
/// global vertex count, and the current round.
///
/// In a masked session (see [`GraphView`]) everything here keeps the
/// **original** vertex numbering: `id` is the original id and `neighbors`
/// lists the node's *live* neighbors by original id (edges to masked-out
/// vertices do not exist) — so a masked program observes exactly what the
/// sequential masked primitives compute with.
///
/// The engine builds a context from its view for every step and drops it
/// afterwards, so a context holds no state between rounds. A program that
/// draws randomness owns its stream: it seeds a [`StdRng`] field with
/// [`node_rng`]`(seed, ctx.id)` in its factory (see
/// [`RandomizedProgram`](crate::programs::RandomizedProgram)). The stream
/// depends on `(seed, original id)` only — never on the shard layout, the
/// worker-pool size, or the thread schedule — so randomized programs replay
/// bit-identically across any shard and worker count.
pub struct NodeCtx<'g> {
    /// This node's unique identifier (original, even under a mask).
    pub id: VertexId,
    /// Number of nodes in the full network (the LOCAL model's global `n`,
    /// not the live count).
    pub n: usize,
    /// Sorted live-neighbor identifiers (original ids).
    pub neighbors: &'g [VertexId],
    /// Current round: 0 during [`init`](crate::NodeProgram::init), then 1, 2, …
    pub round: u64,
}

impl<'g> NodeCtx<'g> {
    /// The context of dense vertex `dv` of `view` at `round`.
    pub(crate) fn at(view: &'g GraphView<'_>, dv: usize, round: u64) -> Self {
        NodeCtx {
            id: view.original(dv),
            n: view.n(),
            neighbors: view.neighbors(dv),
            round,
        }
    }

    /// Degree of this node.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }
}

/// The per-node random stream for `(seed, node)` — the engine's determinism
/// contract. Delegates to [`local_model::per_vertex_rng`] so the engine and
/// the sequential implementations can never drift apart: replay parity is
/// definitional, not coincidental.
pub fn node_rng(seed: u64, node: VertexId) -> StdRng {
    local_model::per_vertex_rng(seed, node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn node_streams_are_stable_and_distinct() {
        let draw = |seed, node| {
            let mut r = node_rng(seed, node);
            (0..8)
                .map(|_| r.gen_range(0u64..1 << 40))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 3), draw(7, 3));
        assert_ne!(draw(7, 3), draw(7, 4));
        assert_ne!(draw(7, 3), draw(8, 3));
    }

    #[test]
    fn ctx_exposes_neighborhood() {
        let g = graphs::gen::path(4);
        let mask = graphs::VertexSet::from_iter_with_universe(4, [0, 1, 3]);
        let view = GraphView::masked(&g, &mask);
        let ctx = NodeCtx::at(&view, 1, 5);
        assert_eq!((ctx.id, ctx.n, ctx.round), (1, 4, 5));
        assert_eq!(ctx.neighbors, &[0], "masked-out neighbor 2 is gone");
        assert_eq!(ctx.degree(), 1);
    }
}
