//! Breadth-first machinery: distances, balls, components, bipartiteness.
//!
//! Everything here optionally restricts the graph to a [`VertexSet`] mask,
//! because the paper constantly works inside induced subgraphs (`G[R]`,
//! `G[S]`, peeled residual graphs) and materializing each would be wasteful.
//!
//! There is one search, [`Bfs`]; every function here is a short call into
//! it. A [`Bfs`] is scratch that its caller owns: it is sized once for `n`,
//! and each [`Bfs::run`] first clears only what the previous run touched,
//! so a run costs what it visits, not `n`. Callers that search many times
//! over one graph (a peeling level's balls, a coloring state's components)
//! keep one [`Bfs`] for all of them; the free functions here build a fresh
//! one per call.

use crate::graph::{Graph, VertexId};
use crate::vertex_set::VertexSet;

/// Distance type for BFS results; `usize::MAX` encodes "unreachable".
pub const UNREACHABLE: usize = usize::MAX;

/// Membership in an optional mask (`None` admits every vertex).
fn within(mask: Option<&VertexSet>) -> impl Fn(VertexId) -> bool + '_ {
    move |v| mask.is_none_or(|m| m.contains(v))
}

/// Reusable breadth-first search scratch: per-vertex depth and parent
/// marks plus the visit order, which doubles as the FIFO queue.
///
/// # Examples
///
/// ```
/// use graphs::{Bfs, Graph};
/// let p = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
/// let mut bfs = Bfs::new(p.n());
/// assert_eq!(bfs.run(&p, [2], 1, |_| true), &[2, 1, 3]);
/// assert_eq!(bfs.parent(3), 2);
/// // The next run forgets the previous one.
/// assert_eq!(bfs.run(&p, [0], usize::MAX, |v| v != 2), &[0, 1]);
/// assert_eq!(bfs.depth(3), graphs::UNREACHABLE);
/// ```
#[derive(Clone, Debug)]
pub struct Bfs {
    depth: Vec<usize>,
    parent: Vec<VertexId>,
    order: Vec<VertexId>,
}

impl Bfs {
    /// Scratch for searches over graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        Bfs {
            depth: vec![UNREACHABLE; n],
            parent: vec![UNREACHABLE; n],
            order: Vec::new(),
        }
    }

    /// Searches from `sources` (depth 0, each its own parent; repeats and
    /// sources that `admit` rejects are skipped) through vertices that
    /// `admit` accepts, expanding no vertex at depth `radius`. Returns the
    /// visit order: FIFO discovery order, neighbors in adjacency order.
    ///
    /// Clears the previous run's marks first, touching only its vertices.
    pub fn run(
        &mut self,
        g: &Graph,
        sources: impl IntoIterator<Item = VertexId>,
        radius: usize,
        admit: impl Fn(VertexId) -> bool,
    ) -> &[VertexId] {
        for &v in &self.order {
            self.depth[v] = UNREACHABLE;
            self.parent[v] = UNREACHABLE;
        }
        self.order.clear();
        for s in sources {
            if self.depth[s] == UNREACHABLE && admit(s) {
                self.depth[s] = 0;
                self.parent[s] = s;
                self.order.push(s);
            }
        }
        let mut head = 0;
        while let Some(&u) = self.order.get(head) {
            head += 1;
            // Depths never decrease along the order: the rest sit at `radius`.
            if self.depth[u] == radius {
                break;
            }
            for &w in g.neighbors(u) {
                if self.depth[w] == UNREACHABLE && admit(w) {
                    self.depth[w] = self.depth[u] + 1;
                    self.parent[w] = u;
                    self.order.push(w);
                }
            }
        }
        &self.order
    }

    /// The last run's visit order.
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// `v`'s depth in the last run (`UNREACHABLE` if it was not visited).
    pub fn depth(&self, v: VertexId) -> usize {
        self.depth[v]
    }

    /// `v`'s BFS-tree parent in the last run (a source is its own parent;
    /// `UNREACHABLE` if `v` was not visited).
    pub fn parent(&self, v: VertexId) -> VertexId {
        self.parent[v]
    }

    /// The ball `B^r(center)` within an optional mask, sorted — see [`ball`].
    pub fn ball(
        &mut self,
        g: &Graph,
        center: VertexId,
        radius: usize,
        mask: Option<&VertexSet>,
    ) -> Vec<VertexId> {
        let mut out = self.run(g, [center], radius, within(mask)).to_vec();
        out.sort_unstable();
        out
    }
}

/// Single-source BFS distances within an optional vertex mask.
///
/// Vertices outside `mask` (when given) are unreachable. If `source` itself
/// is outside the mask, everything is unreachable.
///
/// # Examples
///
/// ```
/// use graphs::{Graph, bfs_distances};
/// let p = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// let d = bfs_distances(&p, 0, None);
/// assert_eq!(d[3], 3);
/// ```
pub fn bfs_distances(g: &Graph, source: VertexId, mask: Option<&VertexSet>) -> Vec<usize> {
    let mut bfs = Bfs::new(g.n());
    bfs.run(g, [source], UNREACHABLE, within(mask));
    bfs.depth
}

/// The ball `B^r(v)` — all vertices at distance ≤ `r` from `center` —
/// within an optional mask (the paper's `B^r_R(v)` when `mask = R`).
///
/// Returns vertices sorted by id. Empty iff `center` is outside the mask
/// (matching the paper's convention that `B_R(v) = ∅` for `v ∉ R`).
pub fn ball(g: &Graph, center: VertexId, radius: usize, mask: Option<&VertexSet>) -> Vec<VertexId> {
    Bfs::new(g.n()).ball(g, center, radius, mask)
}

/// Eccentricity of `v` restricted to its component (max finite BFS
/// distance): the depth of the last vertex visited.
pub fn eccentricity(g: &Graph, v: VertexId, mask: Option<&VertexSet>) -> usize {
    let mut bfs = Bfs::new(g.n());
    let last = bfs.run(g, [v], UNREACHABLE, within(mask)).last().copied();
    last.map_or(0, |u| bfs.depth(u))
}

/// Connected components within an optional mask.
///
/// Returns `(component_id, count)`: `component_id[v]` is `UNREACHABLE` for
/// vertices outside the mask, otherwise a dense id in `0..count`, numbered
/// by smallest member.
pub fn components(g: &Graph, mask: Option<&VertexSet>) -> (Vec<usize>, usize) {
    let mut comp = vec![UNREACHABLE; g.n()];
    let mut count = 0;
    let mut bfs = Bfs::new(g.n());
    for s in g.vertices() {
        if comp[s] == UNREACHABLE && within(mask)(s) {
            for &v in bfs.run(g, [s], UNREACHABLE, within(mask)) {
                comp[v] = count;
            }
            count += 1;
        }
    }
    (comp, count)
}

/// Whether the graph (restricted to `mask`) is connected.
/// The empty graph and single vertices count as connected.
pub fn is_connected(g: &Graph, mask: Option<&VertexSet>) -> bool {
    components(g, mask).1 <= 1
}

/// Whether the graph restricted to `mask` is bipartite; returns a 2-coloring
/// (`0`/`1`, `UNREACHABLE`-marked vertices excluded) or `None` if an odd
/// cycle exists.
///
/// Each vertex's side is the parity of its depth from its component's
/// smallest vertex; the graph is bipartite iff no edge joins equal sides.
pub fn bipartition(g: &Graph, mask: Option<&VertexSet>) -> Option<Vec<usize>> {
    let mut side = vec![UNREACHABLE; g.n()];
    let mut bfs = Bfs::new(g.n());
    for s in g.vertices() {
        if side[s] == UNREACHABLE && within(mask)(s) {
            bfs.run(g, [s], UNREACHABLE, within(mask));
            for &v in bfs.order() {
                side[v] = bfs.depth(v) % 2;
            }
        }
    }
    let odd_edge = g
        .vertices()
        .filter(|&u| side[u] != UNREACHABLE)
        .any(|u| g.neighbors(u).iter().any(|&w| side[w] == side[u]));
    (!odd_edge).then_some(side)
}

/// BFS tree parents from `source` (parent of source is itself).
/// `UNREACHABLE` for unreached vertices.
pub fn bfs_parents(g: &Graph, source: VertexId, mask: Option<&VertexSet>) -> Vec<usize> {
    let mut bfs = Bfs::new(g.n());
    bfs.run(g, [source], UNREACHABLE, within(mask));
    bfs.parent
}

/// Vertices of one component containing `v` (within `mask`), sorted.
pub fn component_of(g: &Graph, v: VertexId, mask: Option<&VertexSet>) -> Vec<VertexId> {
    ball(g, v, UNREACHABLE, mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn distances_on_path() {
        let g = path(5);
        let d = bfs_distances(&g, 2, None);
        assert_eq!(d, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn masked_distances() {
        let g = path(5);
        // Remove vertex 2: halves are separated.
        let mut mask = VertexSet::full(5);
        mask.remove(2);
        let d = bfs_distances(&g, 0, Some(&mask));
        assert_eq!(d[1], 1);
        assert_eq!(d[3], UNREACHABLE);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn ball_radii() {
        let g = path(7);
        assert_eq!(ball(&g, 3, 0, None), vec![3]);
        assert_eq!(ball(&g, 3, 1, None), vec![2, 3, 4]);
        assert_eq!(ball(&g, 3, 2, None), vec![1, 2, 3, 4, 5]);
        assert_eq!(ball(&g, 3, 100, None), vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn ball_outside_mask_is_empty() {
        let g = path(3);
        let mask = VertexSet::from_iter_with_universe(3, [0, 1]);
        assert!(ball(&g, 2, 5, Some(&mask)).is_empty());
    }

    #[test]
    fn components_counting() {
        let g = Graph::from_edges(6, [(0, 1), (2, 3)]);
        let (comp, k) = components(&g, None);
        assert_eq!(k, 4);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert!(!is_connected(&g, None));
        assert!(is_connected(&path(4), None));
    }

    #[test]
    fn bipartite_detection() {
        assert!(bipartition(&path(4), None).is_some());
        let c4 = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(bipartition(&c4, None).is_some());
        let c5 = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert!(bipartition(&c5, None).is_none());
        // Masking a vertex of the odd cycle makes it a path -> bipartite.
        let mut mask = VertexSet::full(5);
        mask.remove(0);
        assert!(bipartition(&c5, Some(&mask)).is_some());
    }

    #[test]
    fn parents_form_tree() {
        let g = path(4);
        let p = bfs_parents(&g, 0, None);
        assert_eq!(p, vec![0, 0, 1, 2]);
    }

    #[test]
    fn eccentricity_of_path_end() {
        let g = path(6);
        assert_eq!(eccentricity(&g, 0, None), 5);
        assert_eq!(eccentricity(&g, 3, None), 3);
    }

    #[test]
    fn multi_source_runs_keep_fifo_order() {
        // Sources enter in the given order (repeats and rejected sources
        // skipped); each vertex hangs off the source that reaches it first.
        let g = path(7);
        let mut bfs = Bfs::new(7);
        assert_eq!(bfs.run(&g, [5, 1, 5, 6], 1, |v| v != 6), &[5, 1, 4, 0, 2]);
        assert_eq!((bfs.depth(4), bfs.parent(4)), (1, 5));
        assert_eq!((bfs.depth(1), bfs.parent(1)), (0, 1));
        assert_eq!(bfs.depth(3), UNREACHABLE);
        assert_eq!(bfs.parent(6), UNREACHABLE);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A sequence of mixed runs on one `Bfs` matches a fresh `Bfs` per
        /// run: clearing only what the previous run touched leaves no
        /// stale depth, parent or order entry behind.
        #[test]
        fn reused_runs_match_fresh_runs(n in 2usize..60, m in 0usize..120, seed in 0u64..1000) {
            let g = crate::gen::gnm(n, m, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reused = Bfs::new(n);
            for _ in 0..8 {
                let sources: Vec<VertexId> =
                    (0..rng.gen_range(0..4usize)).map(|_| rng.gen_range(0..n)).collect();
                let radius = match rng.gen_range(0..4u32) {
                    0 => UNREACHABLE,
                    _ => rng.gen_range(0..5usize),
                };
                let mask = VertexSet::from_iter_with_universe(
                    n,
                    (0..n).filter(|_| rng.gen_range(0..5u32) != 0),
                );
                let admit = |v| mask.contains(v);
                let mut fresh = Bfs::new(n);
                prop_assert_eq!(
                    reused.run(&g, sources.iter().copied(), radius, admit),
                    fresh.run(&g, sources.iter().copied(), radius, admit)
                );
                for v in 0..n {
                    prop_assert_eq!(
                        (reused.depth(v), reused.parent(v)),
                        (fresh.depth(v), fresh.parent(v))
                    );
                }
            }
        }
    }
}
