//! The Barenboim–Elkin sparse-graph coloring baseline \[4\].
//!
//! `⌊(2+ε)a⌋ + 1` colors for graphs of arboricity `a` in `O(a log n)`-ish
//! rounds, via the **H-partition**: repeatedly strip the vertices whose
//! residual degree is at most `(2+ε)a` — at least an `ε/(2+ε)` fraction each
//! time, so `O(log n)` layers suffice — then orient edges toward higher
//! layers, split each layer's internal edges into rooted forests, Cole–
//! Vishkin them, and sweep layers from the top so every vertex sees at most
//! `⌊(2+ε)a⌋` colored neighbors when its turn comes.
//!
//! This is the algorithm the paper improves upon by at least one color
//! (§1.3, §1.5); experiment E2 reproduces the comparison.

use crate::ledger::RoundLedger;
use crate::reduce::smallest_free;
use graphs::{Graph, VertexId, VertexSet};

/// The H-partition of Barenboim–Elkin: layer `i` holds the vertices whose
/// degree into layers `≥ i` is at most `threshold`.
#[derive(Clone, Debug)]
pub struct HPartition {
    /// `layer[v]`, with `usize::MAX` for vertices outside the mask.
    pub layer: Vec<usize>,
    /// Number of layers.
    pub layers: usize,
    /// The degree threshold `⌊(2+ε)·a⌋` used.
    pub threshold: usize,
}

/// The peel threshold `⌊(2+ε)·a⌋`: a vertex whose residual degree is at
/// most this joins the current layer. Shared with the engine port
/// (`engine::engine_h_partition`).
///
/// # Panics
///
/// Panics if `a == 0` or `epsilon <= 0`.
pub fn peel_threshold(a: usize, epsilon: f64) -> usize {
    assert!(a >= 1, "arboricity parameter must be positive");
    assert!(epsilon > 0.0, "epsilon must be positive");
    ((2.0 + epsilon) * a as f64).floor() as usize
}

/// Computes the H-partition with threshold [`peel_threshold`]`(a, ε)`.
///
/// One LOCAL round per layer (each vertex needs only its residual degree),
/// charged as `"h-partition"`.
///
/// # Panics
///
/// Panics if `a == 0` or `epsilon <= 0`, or if the partition stalls, i.e.
/// some residual subgraph has minimum degree above the threshold — which
/// certifies `arboricity > a` via Nash-Williams (every subgraph of an
/// arboricity-`a` graph has average degree < 2a, hence a vertex of degree
/// ≤ (2+ε)a).
pub fn h_partition(
    g: &Graph,
    mask: Option<&VertexSet>,
    a: usize,
    epsilon: f64,
    ledger: &mut RoundLedger,
) -> HPartition {
    let threshold = peel_threshold(a, epsilon);
    let n = g.n();
    let in_mask = |v: VertexId| mask.is_none_or(|m| m.contains(v));
    let mut layer = vec![usize::MAX; n];
    let mut remaining: Vec<VertexId> = (0..n).filter(|&v| in_mask(v)).collect();
    let mut deg: Vec<usize> = vec![0; n];
    for &v in &remaining {
        deg[v] = g.neighbors(v).iter().filter(|&&w| in_mask(w)).count();
    }
    let mut current = 0usize;
    let mut rounds = 0u64;
    while !remaining.is_empty() {
        rounds += 1;
        let peel: Vec<VertexId> = remaining
            .iter()
            .copied()
            .filter(|&v| deg[v] <= threshold)
            .collect();
        assert!(
            !peel.is_empty(),
            "H-partition stalled: arboricity exceeds {a} (threshold {threshold})"
        );
        for &v in &peel {
            layer[v] = current;
        }
        for &v in &peel {
            for &w in g.neighbors(v) {
                if in_mask(w) && layer[w] == usize::MAX {
                    deg[w] -= 1;
                }
            }
        }
        remaining.retain(|&v| layer[v] == usize::MAX);
        current += 1;
    }
    ledger.charge("h-partition", rounds);
    HPartition {
        layer,
        layers: current,
        threshold,
    }
}

/// The full Barenboim–Elkin coloring: `threshold + 1 = ⌊(2+ε)a⌋ + 1` colors.
///
/// Returns `color[v]` (`usize::MAX` outside the mask). Rounds are charged
/// for the H-partition, per-layer Cole–Vishkin forests (run in parallel
/// across layers — charged once at the maximum), and the final layer sweep.
///
/// # Examples
///
/// ```
/// use local_model::{barenboim_elkin_coloring, RoundLedger};
/// use graphs::gen;
/// let g = gen::forest_union(60, 2, 5); // arboricity ≤ 2
/// let mut ledger = RoundLedger::new();
/// let col = barenboim_elkin_coloring(&g, None, 2, 1.0, &mut ledger);
/// for (u, v) in g.edges() {
///     assert_ne!(col[u], col[v]);
/// }
/// // (2+1)·2 + 1 = 7 colors.
/// assert!(col.iter().all(|&c| c < 7));
/// ```
pub fn barenboim_elkin_coloring(
    g: &Graph,
    mask: Option<&VertexSet>,
    a: usize,
    epsilon: f64,
    ledger: &mut RoundLedger,
) -> Vec<usize> {
    let n = g.n();
    let in_mask = |v: VertexId| mask.is_none_or(|m| m.contains(v));
    let hp = h_partition(g, mask, a, epsilon, ledger);
    let palette = hp.threshold + 1;

    // Internal coloring of each layer's induced subgraph, all layers in
    // parallel (they are vertex-disjoint): orient by id, decompose, CV,
    // merge-reduce to `palette` colors. We reuse the generic machinery by
    // running it per layer on the layer mask but charge only the maximum
    // rounds across layers (parallel composition).
    let mut internal = vec![usize::MAX; n];
    let mut max_layer_rounds = 0u64;
    for l in 0..hp.layers {
        let members: Vec<VertexId> = (0..n).filter(|&v| in_mask(v) && hp.layer[v] == l).collect();
        if members.is_empty() {
            continue;
        }
        let layer_mask = VertexSet::from_iter_with_universe(n, members.iter().copied());
        let mut sub_ledger = RoundLedger::new();
        // Within a layer every vertex has ≤ threshold same-or-higher
        // neighbors, hence ≤ threshold same-layer neighbors: palette works.
        let col = crate::reduce::coloring_by_forest_merge(
            g,
            Some(&layer_mask),
            &vec![0; n],
            palette,
            &mut sub_ledger,
        );
        for &v in &members {
            internal[v] = col[v];
        }
        max_layer_rounds = max_layer_rounds.max(sub_ledger.total());
    }
    ledger.charge("layer-internal-coloring", max_layer_rounds);

    // Final sweep: layers from top to bottom; inside a layer, internal color
    // classes one per round. Every vertex sees ≤ threshold already-colored
    // neighbors (same-layer earlier classes + higher layers), so a color in
    // 0..palette is free.
    let mut color = vec![usize::MAX; n];
    let mut sweep_rounds = 0u64;
    for l in (0..hp.layers).rev() {
        for class in 0..palette {
            sweep_rounds += 1;
            for v in 0..n {
                if !in_mask(v) || hp.layer[v] != l || internal[v] != class {
                    continue;
                }
                let used: Vec<usize> = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&w| in_mask(w))
                    .map(|&w| color[w])
                    .collect();
                color[v] = smallest_free(palette, &used)
                    .expect("≤ threshold colored neighbors by H-partition");
            }
        }
    }
    ledger.charge("layer-sweep", sweep_rounds);
    color
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    #[test]
    fn h_partition_covers_and_bounds_updegree() {
        let g = gen::forest_union(80, 3, 11);
        let mut ledger = RoundLedger::new();
        let hp = h_partition(&g, None, 3, 0.5, &mut ledger);
        assert!(hp.layers >= 1);
        for v in 0..g.n() {
            assert_ne!(hp.layer[v], usize::MAX);
            let up = g
                .neighbors(v)
                .iter()
                .filter(|&&w| hp.layer[w] >= hp.layer[v])
                .count();
            assert!(up <= hp.threshold, "vertex {v} has {up} up-neighbors");
        }
        assert_eq!(ledger.phase_total("h-partition"), hp.layers as u64);
    }

    #[test]
    fn h_partition_layer_count_logarithmic() {
        // epsilon = 1: each layer removes ≥ 1/3 of the residual graph, so
        // layers ≤ log_{3/2}(n) + 1.
        let g = gen::forest_union(500, 2, 3);
        let mut ledger = RoundLedger::new();
        let hp = h_partition(&g, None, 2, 1.0, &mut ledger);
        let bound = ((500f64).ln() / (1.5f64).ln()).ceil() as usize + 1;
        assert!(hp.layers <= bound, "{} layers > bound {bound}", hp.layers);
    }

    #[test]
    #[should_panic(expected = "stalled")]
    fn h_partition_rejects_dense_graphs() {
        // K10 has arboricity 5; claiming a=1 with small epsilon must stall.
        let g = gen::complete(10);
        let mut ledger = RoundLedger::new();
        h_partition(&g, None, 1, 0.1, &mut ledger);
    }

    /// [`peel_threshold`]: `⌊(2+ε)·a⌋`, and the argument checks.
    #[test]
    fn peel_threshold_floors_the_bound() {
        assert_eq!(peel_threshold(1, 1.0), 3);
        assert_eq!(peel_threshold(3, 0.5), 7);
        assert_eq!(peel_threshold(4, 0.25), 9);
        assert_eq!(peel_threshold(2, 0.1), 4);
    }

    #[test]
    #[should_panic(expected = "arboricity parameter must be positive")]
    fn peel_threshold_rejects_zero_arboricity() {
        peel_threshold(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn peel_threshold_rejects_nonpositive_epsilon() {
        peel_threshold(2, 0.0);
    }

    #[test]
    fn be_coloring_proper_with_claimed_palette() {
        for (a, eps, seed) in [(2usize, 1.0, 1u64), (3, 0.5, 2), (4, 0.25, 3)] {
            let g = gen::forest_union(120, a, seed);
            let mut ledger = RoundLedger::new();
            let col = barenboim_elkin_coloring(&g, None, a, eps, &mut ledger);
            let palette = ((2.0 + eps) * a as f64).floor() as usize + 1;
            for (u, v) in g.edges() {
                assert_ne!(col[u], col[v]);
            }
            assert!(col.iter().all(|&c| c < palette));
        }
    }

    #[test]
    fn be_on_tree_uses_few_colors() {
        let g = gen::random_tree(200, 9);
        let mut ledger = RoundLedger::new();
        let col = barenboim_elkin_coloring(&g, None, 1, 1.0, &mut ledger);
        // (2+1)·1 + 1 = 4 colors.
        assert!(col.iter().all(|&c| c < 4));
        for (u, v) in g.edges() {
            assert_ne!(col[u], col[v]);
        }
    }

    #[test]
    fn be_masked() {
        let g = gen::triangular(6, 6);
        let mask = VertexSet::from_iter_with_universe(g.n(), (0..g.n()).step_by(2));
        let mut ledger = RoundLedger::new();
        let col = barenboim_elkin_coloring(&g, Some(&mask), 3, 1.0, &mut ledger);
        for (u, v) in g.edges() {
            if mask.contains(u) && mask.contains(v) {
                assert_ne!(col[u], col[v]);
            }
        }
        for (v, &c) in col.iter().enumerate() {
            if !mask.contains(v) {
                assert_eq!(c, usize::MAX, "vertex {v}");
            }
        }
    }
}
