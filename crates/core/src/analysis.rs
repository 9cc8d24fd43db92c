//! Quantitative tooling for Lemma 3.1 and Proposition 4.4.
//!
//! Lemma 3.1 bounds the happy fraction: `|A| ≥ n/(3d)³` in general and
//! `|A| ≥ n/(12d+1)` when there are no poor vertices. Proposition 4.4's
//! engine is the auxiliary graph `H` built from `G[S]` (the sad subgraph):
//! clique local blocks get a hub vertex `v_C` and lose their edges, then
//! the demoted degree-2 vertices are suppressed; the paper shows `H` has
//! girth ≥ 5 (for the paper's ball radius) and concludes `G[S]` holds at
//! least `|S|/12` vertices of degree ≤ d−1. These constructions let the
//! experiments measure both sides of each inequality.

use crate::happy::{alive_degree, Classification};
use graphs::{block_decomposition, Graph, GraphBuilder, VertexId, VertexSet};

/// The Lemma 3.1 worst-case bound on the happy fraction.
pub fn happy_fraction_bound(d: usize, has_poor: bool) -> f64 {
    if has_poor {
        1.0 / ((3 * d).pow(3) as f64)
    } else {
        1.0 / ((12 * d + 1) as f64)
    }
}

/// One row of a Lemma 3.1 measurement.
#[derive(Clone, Debug)]
pub struct Lemma31Report {
    /// Residual vertex count.
    pub n: usize,
    /// Rich / poor / happy / sad counts.
    pub rich: usize,
    /// Poor count.
    pub poor: usize,
    /// Happy count (`|A|`).
    pub happy: usize,
    /// Sad count (`|S|`).
    pub sad: usize,
    /// Measured happy fraction `|A|/n`.
    pub measured: f64,
    /// The applicable worst-case bound.
    pub bound: f64,
}

impl Lemma31Report {
    /// Builds the report from a classification.
    pub fn from_classification(c: &Classification, d: usize, alive_count: usize) -> Self {
        let has_poor = !c.poor.is_empty();
        Lemma31Report {
            n: alive_count,
            rich: c.rich.len(),
            poor: c.poor.len(),
            happy: c.happy.len(),
            sad: c.sad.len(),
            measured: c.happy_fraction(alive_count),
            bound: happy_fraction_bound(d, has_poor),
        }
    }

    /// Whether the measured fraction meets the bound.
    pub fn holds(&self) -> bool {
        self.n == 0 || self.measured >= self.bound
    }
}

/// The Proposition 4.4 auxiliary graph `H`, with provenance.
#[derive(Clone, Debug)]
pub struct AuxiliaryGraph {
    /// The constructed graph `H`.
    pub graph: Graph,
    /// Number of hub vertices `v_C` added for clique blocks.
    pub hubs: usize,
    /// Number of suppressed (demoted degree-2) vertices.
    pub suppressed: usize,
    /// `|S|` of the sad set the construction started from.
    pub sad_count: usize,
}

/// Builds Proposition 4.4's auxiliary graph `H` from `G[S]`.
///
/// Local blocks are taken as the blocks of `G[S]` (the full-component
/// reading of the paper's radius-`c·log n` balls — see DESIGN.md). Step 1
/// replaces each clique block on ≥ 3 vertices by a hub; step 2 suppresses
/// every vertex that had degree ≥ 3 in `G[S]` but degree 2 after step 1
/// (replacing induced paths by edges).
pub fn auxiliary_graph(g: &Graph, sad: &VertexSet) -> AuxiliaryGraph {
    let n = g.n();
    let decomposition = block_decomposition(g, Some(sad));
    // Adjacency sets of the working multigraph-free construction; vertices
    // are original ids 0..n plus hubs n, n+1, ….
    let mut adj: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); n];
    for v in sad.iter() {
        for &w in g.neighbors(v) {
            if sad.contains(w) {
                adj[v].insert(w);
                adj[w].insert(v);
            }
        }
    }
    let mut hubs = 0usize;
    for block in &decomposition.blocks {
        if block.len() >= 3 && graphs::is_clique(g, block) {
            let hub = adj.len();
            adj.push(Default::default());
            hubs += 1;
            for (i, &u) in block.iter().enumerate() {
                adj[hub].insert(u);
                adj[u].insert(hub);
                for &w in &block[i + 1..] {
                    adj[u].remove(&w);
                    adj[w].remove(&u);
                }
            }
        }
    }
    // Step 2: suppress vertices of original sad-degree ≥ 3 that now have
    // degree exactly 2 (hubs, numbered from n, are never suppressed).
    let mut suppressed = 0usize;
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..n {
            if !sad.contains(v) || adj[v].is_empty() {
                continue;
            }
            if adj[v].len() == 2 && alive_degree(g, sad, v) >= 3 {
                let mut it = adj[v].iter();
                let a = *it.next().expect("degree 2");
                let b = *it.next().expect("degree 2");
                adj[v].clear();
                adj[a].remove(&v);
                adj[b].remove(&v);
                if a != b {
                    adj[a].insert(b);
                    adj[b].insert(a);
                }
                suppressed += 1;
                changed = true;
            }
        }
    }
    // Materialize (dropping isolated suppressed slots is fine: H's vertex
    // count only matters up to the (d/2)|S| bound, which we report as-is).
    let mut b = GraphBuilder::new(adj.len());
    for (v, nbrs) in adj.iter().enumerate() {
        for &w in nbrs {
            if w > v {
                b.add_edge(v, w);
            }
        }
    }
    AuxiliaryGraph {
        graph: b.build(),
        hubs,
        suppressed,
        sad_count: sad.len(),
    }
}

/// Counts the sad vertices of residual degree ≤ `d − 1` — the quantity
/// Proposition 4.4 bounds below by `|S|/12`.
pub fn low_degree_sad_count(g: &Graph, alive: &VertexSet, sad: &VertexSet, d: usize) -> usize {
    let low = |&v: &VertexId| alive_degree(g, alive, v) <= d.saturating_sub(1);
    sad.iter().filter(low).count()
}

/// Counts sad vertices whose degree *within `G[S]`* is ≤ `d − 1` (the
/// literal statement of Proposition 4.4).
pub fn low_degree_in_sad_subgraph(g: &Graph, sad: &VertexSet, d: usize) -> usize {
    low_degree_sad_count(g, sad, sad, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::happy::classify;
    use graphs::gen;
    use local_model::RoundLedger;

    #[test]
    fn bounds_formulae() {
        assert!((happy_fraction_bound(3, true) - 1.0 / 729.0).abs() < 1e-12);
        assert!((happy_fraction_bound(3, false) - 1.0 / 37.0).abs() < 1e-12);
        assert!(happy_fraction_bound(4, true) < happy_fraction_bound(3, true));
    }

    /// A chain of `blocks` K4s, each glued to the next at a cut vertex.
    /// At d = 3 the cut vertices (degree 6) are poor and every other vertex
    /// is sad: its rich component is a triangle or an edge of one K4.
    fn k4_chain(blocks: usize) -> Graph {
        let mut b = GraphBuilder::new(1);
        let mut anchor = 0usize;
        for _ in 0..blocks {
            let fresh: Vec<usize> = (0..3).map(|_| b.add_vertex()).collect();
            let mut all = fresh.clone();
            all.push(anchor);
            for i in 0..4 {
                for j in i + 1..4 {
                    b.add_edge(all[i], all[j]);
                }
            }
            anchor = fresh[2];
        }
        b.build()
    }

    /// `triangles` (even) disjoint triangles hung on `3·triangles / 2`
    /// hubs: hub `j` is adjacent to two triangle vertices of consecutive
    /// triangles and to the degree-2 spacers `j` and `j − 1`, where spacer
    /// `j` joins hub `j` to hub `j + 1` (cyclically). Every hub has degree
    /// 4 and every triangle vertex degree 3.
    fn hung_triangles(triangles: usize) -> Graph {
        assert!(triangles >= 2 && triangles.is_multiple_of(2));
        let hubs = 3 * triangles / 2;
        let hub = |j: usize| 3 * triangles + j;
        let spacer = |j: usize| 3 * triangles + hubs + j;
        let mut b = GraphBuilder::new(3 * triangles + 2 * hubs);
        for t in 0..triangles {
            b.add_edge(3 * t, 3 * t + 1);
            b.add_edge(3 * t + 1, 3 * t + 2);
            b.add_edge(3 * t, 3 * t + 2);
        }
        // Triangle vertices in the order (corner, triangle): positions 2j
        // and 2j + 1 share a corner and sit on consecutive triangles.
        for j in 0..hubs {
            for pos in [2 * j, 2 * j + 1] {
                let (corner, t) = (pos / triangles, pos % triangles);
                b.add_edge(hub(j), 3 * t + corner);
            }
            b.add_edge(hub(j), spacer(j));
            b.add_edge(spacer(j), hub((j + 1) % hubs));
        }
        b.build()
    }

    /// The classification of all of `g` at `d` with full-component balls.
    fn classify_whole(g: &Graph, d: usize) -> Classification {
        let alive = VertexSet::full(g.n());
        let mut ledger = RoundLedger::new();
        classify(g, &alive, d, g.n(), &mut ledger)
    }

    #[test]
    fn lemma31_on_sparse_workloads() {
        for (g, d) in [
            (gen::forest_union(120, 2, 5), 4usize),
            (gen::grid(10, 10), 4),
            (gen::triangular(8, 8), 6),
            (gen::random_regular(60, 3, 7), 3),
            // Poor-dominated: the star's center and the grid's interior
            // exceed d, so the 1/(3d)³ bound applies.
            (gen::star(40).disjoint_union(&gen::grid(12, 12)), 3),
        ] {
            let c = classify_whole(&g, d);
            let report = Lemma31Report::from_classification(&c, d, g.n());
            assert!(
                report.holds(),
                "Lemma 3.1 bound violated: measured {} < bound {}",
                report.measured,
                report.bound
            );
            assert_eq!(report.happy + report.sad, report.rich);
        }
        let g = gen::star(40).disjoint_union(&gen::grid(12, 12));
        let report = Lemma31Report::from_classification(&classify_whole(&g, 3), 3, g.n());
        assert_eq!((report.poor, report.happy), (101, 84));
    }

    #[test]
    fn auxiliary_graph_of_clique_chain() {
        // A chain of K4s glued at cut vertices: every vertex sad for d = 3?
        // K4-chain vertices have degree 3 except cut vertices (degree 6).
        // Use a single K4: all sad (3-regular Gallai tree).
        let g = gen::complete(4);
        let sad = VertexSet::full(4);
        let aux = auxiliary_graph(&g, &sad);
        // One clique block → one hub, K4 edges removed: H is the star K_{1,4}.
        assert_eq!(aux.hubs, 1);
        assert_eq!(aux.graph.m(), 4);
        assert_eq!(aux.suppressed, 0);
        assert_eq!(graphs::girth(&aux.graph, None), None);
    }

    #[test]
    fn auxiliary_graph_suppression() {
        // Two K4s sharing a path… construct: K4 on {0,1,2,3}, K4 on
        // {4,5,6,7}, edges 3-8, 8-4 with middle vertex 8 of degree 2:
        // after hub replacement, 3 and 4 drop to degree 2 (orig ≥ 3) and are
        // suppressed; 8 has original degree 2 and stays.
        let mut edges = vec![];
        for c in [[0, 1, 2, 3], [4, 5, 6, 7]] {
            for i in 0..4 {
                for j in i + 1..4 {
                    edges.push((c[i], c[j]));
                }
            }
        }
        edges.push((3, 8));
        edges.push((8, 4));
        let g = Graph::from_edges(9, edges);
        let sad = VertexSet::full(9);
        let aux = auxiliary_graph(&g, &sad);
        assert_eq!(aux.hubs, 2);
        assert_eq!(aux.suppressed, 2); // vertices 3 and 4
                                       // H: hubs h0, h1 connected through (suppression) to 8:
                                       // h0 - 8 - h1 plus stars to non-cut clique vertices.
        let girth = graphs::girth(&aux.graph, None);
        assert!(girth.is_none_or(|x| x >= 5), "Prop 4.4: girth ≥ 5");
    }

    #[test]
    fn aux_graph_girth_bound_on_sad_heavy_instances() {
        // Build H over the sad set and check the paper's girth claim (≥ 5).
        // Triangles cannot survive: any triangle in G[S] is a clique block,
        // replaced by a hub star. Every block of a K4 chain's G[S] is a
        // clique (two end triangles and single edges), so its H is a forest.
        for blocks in [5usize, 60] {
            let g = k4_chain(blocks);
            let c = classify_whole(&g, 3);
            assert!(!c.sad.is_empty(), "k4_chain({blocks}): no sad vertex");
            let aux = auxiliary_graph(&g, &c.sad);
            assert_eq!(graphs::girth(&aux.graph, None), None, "k4_chain({blocks})");
        }
        // A wheel with a 5-cycle rim: the hub (degree 5) is poor and the rim
        // is sad, an odd-cycle block that stays in H as a 5-cycle.
        let wheel = Graph::from_edges(6, (0..5).flat_map(|i| [(i, (i + 1) % 5), (i, 5)]));
        let c = classify_whole(&wheel, 3);
        assert_eq!(c.sad.len(), 5);
        let aux = auxiliary_graph(&wheel, &c.sad);
        assert_eq!(graphs::girth(&aux.graph, None), Some(5));
    }

    #[test]
    fn proposition44_low_degree_bound() {
        // For sad sets arising in real classifications, G[S] must contain
        // ≥ |S|/12 vertices of degree ≤ d−1 (in G[S] the paper actually
        // counts degree in G; we check the stronger in-S variant).
        // A K4 chain has 3·blocks + 1 vertices, of which the blocks − 1 cut
        // vertices are poor and the other 2·blocks + 2 are sad.
        for blocks in [5usize, 60] {
            let g = k4_chain(blocks);
            let c = classify_whole(&g, 3);
            assert_eq!(c.sad.len(), 2 * blocks + 2, "k4_chain({blocks})");
            let low = low_degree_in_sad_subgraph(&g, &c.sad, 3);
            assert!(
                low * 12 >= c.sad.len(),
                "Prop 4.4: {low} low-degree among {} sad",
                c.sad.len()
            );
        }

        // Inside the hypothesis mad ≤ d = 3 with no K4: triangles hung on
        // degree-4 hubs. Each hub holds vertices of two different
        // triangles and two degree-2 spacers, which link the hubs in a
        // ring. Hubs are poor, a spacer is happy (degree 2 ≤ d − 1), and
        // every triangle vertex is sad: its rich component is its
        // triangle, a clique with no vertex of degree below 3. The whole
        // graph has average degree exactly 3 (9t edges on 6t vertices).
        for triangles in [4usize, 40] {
            let g = hung_triangles(triangles);
            assert_eq!(graphs::mad(&g), (18 * triangles, 6 * triangles));
            let mut ledger = RoundLedger::new();
            assert!(local_model::detect_clique(&g, None, 3, &mut ledger).is_none());
            let c = classify_whole(&g, 3);
            assert_eq!(c.sad.len(), 3 * triangles, "hung_triangles({triangles})");
            let low = low_degree_in_sad_subgraph(&g, &c.sad, 3);
            assert_eq!(low, c.sad.len(), "each sad vertex has 2 sad neighbors");
            assert!(low * 12 >= c.sad.len());
        }

        // Negative control at d = 2, outside the d ≥ 3 hypothesis: disjoint
        // odd cycles are all sad and have no vertex of degree ≤ 1 in G[S].
        // This is why Theorem 1.3 needs d ≥ 3.
        let odd_cycles = [7usize, 9, 11, 13]
            .into_iter()
            .fold(gen::cycle(5), |g, len| g.disjoint_union(&gen::cycle(len)));
        let c = classify_whole(&odd_cycles, 2);
        assert_eq!(c.sad.len(), 45);
        assert_eq!(low_degree_in_sad_subgraph(&odd_cycles, &c.sad, 2), 0);
    }

    #[test]
    fn low_degree_counters_consistent() {
        let g = gen::grid(5, 5);
        let alive = VertexSet::full(25);
        let sad = VertexSet::from_iter_with_universe(25, 0..25);
        // In the full grid, corner vertices have degree 2 ≤ d−1 = 3.
        assert_eq!(low_degree_sad_count(&g, &alive, &sad, 4), 25 - 9);
        assert_eq!(low_degree_in_sad_subgraph(&g, &sad, 4), 25 - 9);
    }
}
