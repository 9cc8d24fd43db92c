//! Graph generators: every workload family used by the experiments.
//!
//! * [`classic`] — paths, cycles, cliques, bipartite, Mycielski, trees.
//! * [`lattice`] — planar/toroidal/Klein-bottle grids, hex and triangular
//!   lattices.
//! * [`random`] — random trees, forest unions (certified arboricity),
//!   d-regular, bounded-degree, G(n,m).
//! * [`planar`] — planar-by-construction triangulations and derivatives.
//! * [`gallai`] — random Gallai trees and minimal non-Gallai perturbations.
//! * [`registry`] — the named family registry (`name → generator(n, seed)`)
//!   the scenario lab draws its workloads from.

pub mod classic;
pub mod gallai;
pub mod lattice;
pub mod planar;
pub mod random;
pub mod registry;

use crate::graph::Graph;

/// Two-pass streaming CSR construction for seeded edge processes.
///
/// `replay` runs the generator's whole randomized process once per call,
/// emitting every undirected edge exactly once through the callback, and
/// returns the vertex count; it is called exactly twice with an identical
/// RNG schedule. Pass one counts degrees, pass two places arcs through
/// per-row cursors, then each row is sorted in place — the classic
/// counting-sort CSR build, but **without materializing an intermediate
/// edge list**, so million-vertex families build in `O(n)` auxiliary
/// memory and skip the global `O(m log m)` edge sort a
/// [`GraphBuilder`](crate::GraphBuilder) pays.
///
/// Because both paths end in identical degree-derived offsets and
/// ascending rows, a generator rewritten onto this helper is
/// **bit-identical** to its legacy `GraphBuilder` construction whenever
/// the emitted edge set is simple (no duplicates, no self-loops) — which
/// [`Graph::from_csr`] validates.
pub(crate) fn stream_csr(mut replay: impl FnMut(&mut dyn FnMut(usize, usize)) -> usize) -> Graph {
    let mut deg: Vec<usize> = Vec::new();
    let n = replay(&mut |u, v| {
        let hi = u.max(v);
        if hi >= deg.len() {
            deg.resize(hi + 1, 0);
        }
        deg[u] += 1;
        deg[v] += 1;
    });
    deg.resize(n, 0);
    let mut offsets = Vec::with_capacity(n + 1);
    let mut arcs = 0usize;
    offsets.push(0);
    for &d in &deg {
        arcs += d;
        offsets.push(arcs);
    }
    // The degree vector retires into the placement cursors.
    let mut cursors = deg;
    cursors.copy_from_slice(&offsets[..n]);
    let mut adj = vec![0usize; arcs];
    let second = replay(&mut |u, v| {
        adj[cursors[u]] = v;
        cursors[u] += 1;
        adj[cursors[v]] = u;
        cursors[v] += 1;
    });
    assert_eq!(second, n, "replay passes must be identical");
    for v in 0..n {
        adj[offsets[v]..offsets[v + 1]].sort_unstable();
    }
    Graph::from_csr(offsets, adj)
}

pub use classic::{
    binary_tree, caterpillar, complete, complete_bipartite, cycle, mycielski, path, petersen, star,
};
pub use gallai::{break_gallai_tree, random_gallai_tree, GallaiTreeConfig};
pub use lattice::{grid, grid_index, hexagonal, klein_grid, torus_grid, triangular};
pub use planar::{
    apollonian, icosahedron, octahedron, perforated_grid, subdivide_all_edges,
    subdivided_triangulation,
};
pub use random::{
    forest_union, gnm, random_bipartite, random_bounded_degree, random_regular, random_tree,
};
pub use registry::{build_family, family, family_names, FamilySpec};
