//! Girth computation (length of a shortest cycle).
//!
//! Used by the paper in Proposition 2.2 (planar girth vs mad), Corollary 4.2
//! (Moore-bound argument), and Proposition 4.4 (the auxiliary graph `H` has
//! girth ≥ 5).

use crate::graph::{Graph, VertexId};
use crate::traversal::{Bfs, UNREACHABLE};
use crate::vertex_set::VertexSet;

/// The girth of `g` (restricted to `mask`), or `None` if acyclic.
///
/// Runs a BFS from every vertex: `O(n·m)`. Each non-tree edge `(u, w)` of
/// a search closes a cycle through the two tree paths, of length at most
/// `depth(u) + depth(w) + 1`; from a root on a shortest cycle of length
/// `ℓ`, some such edge of that cycle gives exactly `ℓ`, with both ends
/// within depth `⌊ℓ/2⌋`. So each search stops at half the best cycle
/// found so far.
///
/// # Examples
///
/// ```
/// use graphs::{Graph, girth};
/// let c5 = Graph::from_edges(5, (0..5).map(|i| (i, (i + 1) % 5)));
/// assert_eq!(girth(&c5, None), Some(5));
/// let tree = Graph::from_edges(3, [(0, 1), (1, 2)]);
/// assert_eq!(girth(&tree, None), None);
/// ```
pub fn girth(g: &Graph, mask: Option<&VertexSet>) -> Option<usize> {
    let admit = |v| mask.is_none_or(|m| m.contains(v));
    let mut best = UNREACHABLE;
    let mut bfs = Bfs::new(g.n());
    for s in g.vertices() {
        bfs.run(g, [s], best / 2, admit);
        for &u in bfs.order() {
            for &w in g.neighbors(u) {
                if bfs.depth(w) != UNREACHABLE && w != bfs.parent(u) && u != bfs.parent(w) {
                    best = best.min(bfs.depth(u) + bfs.depth(w) + 1);
                }
            }
        }
    }
    (best != UNREACHABLE).then_some(best)
}

/// Whether `g` (restricted to `mask`) contains no triangle.
pub fn is_triangle_free(g: &Graph, mask: Option<&VertexSet>) -> bool {
    for u in g.vertices() {
        if mask.is_some_and(|m| !m.contains(u)) {
            continue;
        }
        let nbrs: Vec<VertexId> = g
            .neighbors(u)
            .iter()
            .copied()
            .filter(|&w| w > u && mask.is_none_or(|m| m.contains(w)))
            .collect();
        for (i, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[i + 1..] {
                if g.has_edge(a, b) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
    }

    #[test]
    fn girth_of_cycles() {
        for k in 3..10 {
            assert_eq!(girth(&cycle(k), None), Some(k), "C_{k}");
        }
    }

    #[test]
    fn girth_of_k4_is_3() {
        let k4 = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(girth(&k4, None), Some(3));
    }

    #[test]
    fn forest_has_no_girth() {
        let f = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)]);
        assert_eq!(girth(&f, None), None);
    }

    #[test]
    fn petersen_girth_5() {
        // Outer C5, inner 5-star polygon, spokes.
        let mut e = Vec::new();
        for i in 0..5 {
            e.push((i, (i + 1) % 5));
            e.push((5 + i, 5 + (i + 2) % 5));
            e.push((i, 5 + i));
        }
        let p = Graph::from_edges(10, e);
        assert_eq!(girth(&p, None), Some(5));
        assert!(is_triangle_free(&p, None));
    }

    #[test]
    fn masked_girth() {
        // Bowtie: two triangles joined at 2; masking vertex 0 leaves one
        // triangle intact.
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        assert_eq!(girth(&g, None), Some(3));
        let mut mask = VertexSet::full(5);
        mask.remove(0);
        assert_eq!(girth(&g, Some(&mask)), Some(3));
        mask.remove(3);
        assert_eq!(girth(&g, Some(&mask)), None);
    }

    #[test]
    fn two_cycles_take_min() {
        let g = cycle(4).disjoint_union(&cycle(7));
        assert_eq!(girth(&g, None), Some(4));
    }

    #[test]
    fn triangle_free_check() {
        assert!(is_triangle_free(&cycle(4), None));
        assert!(!is_triangle_free(&cycle(3), None));
        let grid = Graph::from_edges(4, [(0, 1), (1, 3), (3, 2), (2, 0)]);
        assert!(is_triangle_free(&grid, None));
    }
}
