//! Rich/poor/happy/sad classification (paper §3).
//!
//! On the residual graph of each peeling iteration: vertices of degree ≤ d
//! are **rich**, the rest **poor**. A rich vertex is **happy** when its
//! *rich ball* `B^r_R(v)` (radius-`r` ball inside the rich subgraph)
//! contains a vertex of degree ≤ d−1 (in the residual graph) or is not a
//! Gallai tree; the remaining rich vertices are **sad**. Lemma 3.1
//! guarantees at least `n/(3d)³` happy vertices when `d ≥ max(3, mad)` and
//! no `(d+1)`-clique exists.

use graphs::{components, is_gallai_tree, Bfs, Graph, VertexId, VertexSet};
use local_model::RoundLedger;

/// Per-iteration vertex classification.
#[derive(Clone, Debug)]
pub struct Classification {
    /// Rich vertices (degree ≤ d in the residual graph).
    pub rich: VertexSet,
    /// Poor vertices (degree ≥ d+1).
    pub poor: VertexSet,
    /// Happy vertices (rich with a helpful ball) — the paper's set `A`.
    pub happy: VertexSet,
    /// Sad vertices (`rich ∖ happy`) — the paper's set `S`.
    pub sad: VertexSet,
    /// Ball radius used.
    pub radius: usize,
}

impl Classification {
    /// Happy fraction `|A| / |alive|` (0 when the residual graph is empty).
    pub fn happy_fraction(&self, alive_count: usize) -> f64 {
        if alive_count == 0 {
            0.0
        } else {
            self.happy.len() as f64 / alive_count as f64
        }
    }
}

/// Degree of `v` within `alive`.
pub(crate) fn alive_degree(g: &Graph, alive: &VertexSet, v: VertexId) -> usize {
    g.neighbors(v)
        .iter()
        .filter(|&&w| alive.contains(w))
        .count()
}

/// Whether the vertex set `members` (connected, inside the rich subgraph)
/// certifies happiness: it contains a vertex `w` of residual degree below
/// `threshold(w)`, or it is not a Gallai tree.
fn ball_is_helpful(
    g: &Graph,
    alive: &VertexSet,
    threshold: &impl Fn(VertexId) -> usize,
    members: &[VertexId],
) -> bool {
    if members
        .iter()
        .any(|&w| alive_degree(g, alive, w) < threshold(w))
    {
        return true;
    }
    let set = VertexSet::from_iter_with_universe(g.n(), members.iter().copied());
    !is_gallai_tree(g, Some(&set))
}

/// Splits the rich set into happy and sad by per-vertex verdicts — the
/// single decision loop of Theorem 1.3's classification (both substrates)
/// and of Theorem 6.1's. A ball is helpful when it holds a vertex `w` of
/// residual degree below `threshold(w)` — `d` for Theorem 1.3 (a vertex of
/// degree ≤ d−1), `|L(w)|` for Theorem 6.1 (a surplus vertex) — or is not
/// a Gallai tree. `ball_of(v)` supplies `B^r_rich(v)`.
///
/// Verdicts are memoized per rich component: when a ball covers its whole
/// component, the verdict is shared by every vertex of that component.
/// With `seed_radius = Some(r)`, a component one of whose vertices has
/// eccentricity ≤ r/2 is settled up front — every radius-`r` ball covers
/// it (triangle inequality), so one BFS decides the whole component: from
/// the representative, bounded at depth `⌊r/2⌋`, it covers the component
/// exactly when that eccentricity is at most `⌊r/2⌋`.
pub(crate) fn split_by_verdict(
    g: &Graph,
    alive: &VertexSet,
    threshold: impl Fn(VertexId) -> usize,
    rich: &VertexSet,
    seed_radius: Option<usize>,
    mut ball_of: impl FnMut(VertexId) -> Vec<VertexId>,
) -> (VertexSet, VertexSet) {
    let (comp_id, comp_count) = components(g, Some(rich));
    let mut comp_size = vec![0usize; comp_count];
    let mut comp_rep = vec![usize::MAX; comp_count];
    for v in rich.iter() {
        comp_size[comp_id[v]] += 1;
        comp_rep[comp_id[v]] = v;
    }
    let mut comp_verdict: Vec<Option<bool>> = vec![None; comp_count];
    if let Some(radius) = seed_radius {
        let mut bfs = Bfs::new(g.n());
        for (cid, &rep) in comp_rep.iter().enumerate() {
            let reached = bfs.run(g, [rep], radius / 2, |w| rich.contains(w));
            if reached.len() == comp_size[cid] {
                comp_verdict[cid] = Some(ball_is_helpful(g, alive, &threshold, reached));
            }
        }
    }
    let mut happy = VertexSet::new(g.n());
    let mut sad = VertexSet::new(g.n());
    for v in rich.iter() {
        let cid = comp_id[v];
        let verdict = match comp_verdict[cid] {
            Some(verdict) => verdict,
            None => {
                let b = ball_of(v);
                let verdict = ball_is_helpful(g, alive, &threshold, &b);
                if b.len() == comp_size[cid] {
                    comp_verdict[cid] = Some(verdict);
                }
                verdict
            }
        };
        if verdict {
            happy.insert(v);
        } else {
            sad.insert(v);
        }
    }
    (happy, sad)
}

/// Theorem 1.3's threshold: a ball is helpful through a vertex of residual
/// degree ≤ d−1 (saturating, so at d = 0 an isolated vertex still counts).
pub(crate) fn degree_threshold(d: usize) -> impl Fn(VertexId) -> usize {
    move |_| d.max(1)
}

/// Classifies the residual graph `g[alive]` with threshold `d` and ball
/// radius `radius`.
///
/// Charges `radius` rounds (one parallel ball gather) plus 1 round for the
/// rich/poor degree exchange.
///
/// # Examples
///
/// ```
/// use distributed_coloring::happy::classify;
/// use graphs::{gen, VertexSet};
/// use local_model::RoundLedger;
/// let g = gen::grid(6, 6); // mad < 4, plenty of degree ≤ 3 vertices
/// let alive = VertexSet::full(g.n());
/// let mut ledger = RoundLedger::new();
/// let c = classify(&g, &alive, 4, 3, &mut ledger);
/// assert!(c.poor.is_empty());
/// assert_eq!(c.happy.len() + c.sad.len(), g.n());
/// assert!(!c.happy.is_empty());
/// ```
pub fn classify(
    g: &Graph,
    alive: &VertexSet,
    d: usize,
    radius: usize,
    ledger: &mut RoundLedger,
) -> Classification {
    let rich = alive.iter().filter(|&v| alive_degree(g, alive, v) <= d);
    let rich = VertexSet::from_iter_with_universe(g.n(), rich);
    ledger.charge("rich-poor", 1);
    classify_rich(g, alive, rich, degree_threshold(d), radius, ledger)
}

/// The verdict tail of both theorems' classification: splits `rich ⊆ alive`
/// into happy and sad by radius-`radius` balls inside `G[rich]` (settling
/// whole components up front where the radius allows), charges the ball
/// gather, and leaves `alive ∖ rich` poor. Theorem 1.3 passes its rich set
/// and threshold `d`; Theorem 6.1 passes `rich = alive` and each vertex's
/// list size.
pub(crate) fn classify_rich(
    g: &Graph,
    alive: &VertexSet,
    rich: VertexSet,
    threshold: impl Fn(VertexId) -> usize,
    radius: usize,
    ledger: &mut RoundLedger,
) -> Classification {
    let mut poor = alive.clone();
    poor.difference_with(&rich);
    let mut bfs = Bfs::new(g.n());
    let (happy, sad) = split_by_verdict(g, alive, threshold, &rich, Some(radius), |v| {
        bfs.ball(g, v, radius, Some(&rich))
    });
    ledger.charge("ball-gather", radius as u64);
    Classification {
        rich,
        poor,
        happy,
        sad,
        radius,
    }
}

/// The paper's ball radius `⌈c · log₂ n⌉` with `c = 12 / log₂(6/5)`
/// (§3 — the constant is only needed for the Lemma 3.1 density bound).
pub fn paper_radius(n: usize) -> usize {
    if n <= 1 {
        return 1;
    }
    let c = 12.0 / (1.2f64).log2();
    (c * (n as f64).log2()).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::Substrate;
    use graphs::gen;

    fn classify_full(g: &Graph, d: usize, radius: usize) -> Classification {
        let alive = VertexSet::full(g.n());
        let mut ledger = RoundLedger::new();
        classify(g, &alive, d, radius, &mut ledger)
    }

    #[test]
    fn tree_low_degree_vertices_make_everyone_happy() {
        // In a path with d = 3, every vertex has degree ≤ 2 ≤ d−1, so every
        // ball contains a low-degree vertex: all happy.
        let g = gen::path(50);
        let c = classify_full(&g, 3, 5);
        assert_eq!(c.happy.len(), 50);
        assert!(c.sad.is_empty());
        assert!(c.poor.is_empty());
    }

    #[test]
    fn d_regular_gallai_components_are_sad() {
        // K4 is a 3-regular Gallai tree (one clique block): with d = 3 and
        // full-component balls, every vertex is sad.
        let g = gen::complete(4);
        let c = classify_full(&g, 3, 10);
        assert_eq!(c.sad.len(), 4);
        assert!(c.happy.is_empty());
    }

    #[test]
    fn d_regular_non_gallai_components_are_happy() {
        // The Petersen graph is 3-regular and not a Gallai tree.
        let g = gen::petersen();
        let c = classify_full(&g, 3, 10);
        assert_eq!(c.happy.len(), 10);
    }

    #[test]
    fn poor_vertices_detected() {
        // Star K_{1,5} with d = 3: center degree 5 → poor; leaves degree 1 →
        // rich and happy.
        let g = gen::star(5);
        let c = classify_full(&g, 3, 4);
        assert!(c.poor.contains(0));
        assert_eq!(c.poor.len(), 1);
        assert_eq!(c.happy.len(), 5);
    }

    #[test]
    fn small_radius_can_hide_happiness() {
        // A long odd cycle with one chord: the chord creates a non-Gallai
        // block, but a radius-1 ball far from the chord sees only a path
        // of degree-2 vertices (d = 2: no vertex of degree ≤ 1, Gallai
        // path) → sad; larger radius reveals the chord.
        let n = 31;
        let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        edges.push((0, 15));
        let g = Graph::from_edges(n, edges);
        // d=3: chord endpoints have degree 3 = d, others 2 = d-1 ≤ d-1 → all
        // happy regardless. Use d = 2… but then chord endpoints are poor.
        // Check the radius effect via d=3 on a pure cycle instead:
        let cyc = gen::cycle(9);
        let c_small = classify_full(&cyc, 2, 1);
        // All degree 2 = d, ball of radius 1 is a path (Gallai) → sad.
        assert_eq!(c_small.sad.len(), 9);
        let c_big = classify_full(&cyc, 2, 5);
        // Full component = odd cycle: still a Gallai tree → still sad!
        assert_eq!(c_big.sad.len(), 9);
        // But an even cycle becomes happy at full radius (not Gallai).
        let even = gen::cycle(8);
        let c_even = classify_full(&even, 2, 5);
        assert_eq!(c_even.happy.len(), 8);
        let _ = g;
    }

    #[test]
    fn happiness_monotone_in_radius() {
        // Growing the radius never turns a happy vertex sad.
        let g = gen::triangular(5, 5);
        for d in [4usize, 5, 6] {
            let mut prev = VertexSet::new(g.n());
            for r in 1..6 {
                let c = classify_full(&g, d, r);
                assert!(
                    prev.is_subset(&c.happy),
                    "radius {r} lost happy vertices (d={d})"
                );
                prev = c.happy;
            }
        }
    }

    #[test]
    fn masked_residual_degrees() {
        // K5 with one vertex removed from alive: residual K4, d=3 → all sad.
        let g = gen::complete(5);
        let mut alive = VertexSet::full(5);
        alive.remove(4);
        let mut ledger = RoundLedger::new();
        let c = classify(&g, &alive, 3, 5, &mut ledger);
        assert_eq!(c.sad.len(), 4);
        assert!(!c.rich.contains(4));
        assert!(!c.poor.contains(4));
    }

    #[test]
    fn engine_classification_matches_sequential() {
        // The engine-gathered classification must reproduce the sequential
        // sets exactly — rich, poor, happy, sad — across masks, degrees,
        // radii, and shard counts.
        let cases: Vec<(Graph, usize, usize)> = vec![
            (gen::grid(7, 7), 4, 3),
            (gen::triangular(5, 5), 6, 2),
            (gen::star(5), 3, 4),
            (gen::petersen(), 3, 10),
            (gen::complete(4), 3, 10),
        ];
        for (g, d, radius) in &cases {
            for alive in [
                VertexSet::full(g.n()),
                VertexSet::from_iter_with_universe(g.n(), (0..g.n()).filter(|v| v % 5 != 1)),
            ] {
                let mut seq_ledger = RoundLedger::new();
                let seq = classify(g, &alive, *d, *radius, &mut seq_ledger);
                for shards in [1usize, 2, 8] {
                    let mut eng_ledger = RoundLedger::new();
                    let mut substrate = Substrate::new(Some(shards), Default::default(), g.n());
                    let eng = substrate.classify(g, &alive, *d, *radius, &mut eng_ledger);
                    let metrics = substrate.into_metrics();
                    let ctx = format!("n={} d={d} r={radius} shards={shards}", g.n());
                    assert!(
                        metrics.total_messages() > 0 || alive.is_empty(),
                        "{ctx}: the gather session's traffic must be surfaced"
                    );
                    assert_eq!(eng.rich, seq.rich, "{ctx}: rich");
                    assert_eq!(eng.poor, seq.poor, "{ctx}: poor");
                    assert_eq!(eng.happy, seq.happy, "{ctx}: happy");
                    assert_eq!(eng.sad, seq.sad, "{ctx}: sad");
                    assert_eq!(eng_ledger.total(), seq_ledger.total(), "{ctx}: ledger");
                    assert_eq!(
                        eng_ledger.phase_total("ball-gather"),
                        seq_ledger.phase_total("ball-gather"),
                        "{ctx}"
                    );
                    assert_eq!(
                        eng_ledger.phase_total("rich-poor"),
                        seq_ledger.phase_total("rich-poor"),
                        "{ctx}"
                    );
                }
            }
        }
    }

    #[test]
    fn paper_radius_matches_constant() {
        // c = 12/log2(1.2) ≈ 45.64; at n = 1024, radius = ceil(456.4).
        assert_eq!(paper_radius(1024), 457);
        assert!(paper_radius(2) >= 1);
    }

    #[test]
    fn ledger_charges_radius() {
        let g = gen::grid(4, 4);
        let alive = VertexSet::full(g.n());
        let mut ledger = RoundLedger::new();
        classify(&g, &alive, 4, 7, &mut ledger);
        assert_eq!(ledger.phase_total("ball-gather"), 7);
        assert_eq!(ledger.phase_total("rich-poor"), 1);
    }
}
