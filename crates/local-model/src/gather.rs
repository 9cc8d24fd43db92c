//! Radius-`r` ball gathering and the paper's two-round clique detection.
//!
//! In the LOCAL model, "every vertex learns its radius-`r` ball" is exactly
//! `r` rounds of neighborhood flooding (all vertices in parallel), and §3's
//! `(d+1)`-clique detection is a two-round handshake (exchange adjacency
//! lists, then decide locally). The per-round node logic lives here —
//! [`merge_fresh`] for one flooding step, [`clique_at_apex`] for the
//! apex-local clique decision — and the engine ports
//! (`engine::programs::gather`) run it inside `NodeProgram`s. The
//! sequential entry points compute the same results directly:
//! [`gather_balls`] searches each ball with one reused `graphs::Bfs`, and
//! [`detect_clique`] scans apexes with [`clique_at_apex`]. The equivalence
//! tests in `tests/engine_equivalence.rs` tie the two to the same balls
//! and cliques.

use crate::ledger::RoundLedger;
use graphs::{Bfs, Graph, VertexId, VertexSet};

/// Staged runs up to this length are scanned for duplicates on arrival
/// (see [`merge_fresh`]).
const SHORT_RUN: usize = 8;

/// One flooding round for one node: merges the batches announced by its
/// neighbors last round into `known` (kept sorted) and appends the fresh
/// elements — sorted, deduplicated — that the node announces next round to
/// `fresh`.
///
/// This is the shared step of every set-flooding protocol in the stack
/// (radius-`r` ball gathers, the ruling construction's prefix tokens):
/// iterating it `r` times from `known = {v}` yields exactly `B^r(v)`.
///
/// It allocates nothing beyond growing `known` and `fresh`: the candidates
/// are staged in the tail of `known`, sorted and deduplicated there, copied
/// to `fresh`, and then merged into the sorted head in place, reading the
/// fresh run back from `fresh`.
pub fn merge_fresh<'a, T, O>(
    known: &mut Vec<T>,
    incoming: impl IntoIterator<Item = &'a [T]>,
    fresh: &mut O,
) where
    T: Ord + Copy + 'a,
    O: Extend<T> + AsRef<[T]>,
{
    let old_len = known.len();
    for batch in incoming {
        for &x in batch {
            // A short staged run is checked for the candidate too, so the
            // duplicates a node hears from several neighbors do not grow
            // `known` past what the merge keeps; past `SHORT_RUN` staged
            // elements the sort below deduplicates alone.
            let staged = &known[old_len..];
            if known[..old_len].binary_search(&x).is_err()
                && (staged.len() > SHORT_RUN || !staged.contains(&x))
            {
                known.push(x);
            }
        }
    }
    if known.len() == old_len {
        return;
    }
    known[old_len..].sort_unstable();
    let mut end = old_len + 1;
    for r in old_len + 1..known.len() {
        if known[r] != known[end - 1] {
            known[end] = known[r];
            end += 1;
        }
    }
    known.truncate(end);
    let start = fresh.as_ref().len();
    fresh.extend(known[old_len..].iter().copied());
    let run = &fresh.as_ref()[start..];
    // Backward two-pointer merge of the two sorted, disjoint runs — linear,
    // in place, no re-sort (this step runs once per vertex per flood round,
    // so it is the whole protocol's hot path). The staged copy in the tail
    // is overwritten; the fresh run is read from `fresh`.
    let mut a = old_len;
    let mut b = run.len();
    for w in (0..known.len()).rev() {
        if b == 0 {
            break;
        }
        if a > 0 && known[a - 1] > run[b - 1] {
            known[w] = known[a - 1];
            a -= 1;
        } else {
            known[w] = run[b - 1];
            b -= 1;
        }
    }
}

/// Gathers `B^r_mask(v)` for every vertex in `centers`, charging `r` LOCAL
/// rounds (one parallel flood). Balls follow the paper's convention: the
/// ball of a vertex outside the mask is empty.
///
/// Each ball is one search on a reused [`Bfs`], so the call costs what the
/// balls touch. The engine's `GatherProgram` floods the same balls with
/// [`merge_fresh`].
pub fn gather_balls(
    g: &Graph,
    mask: Option<&VertexSet>,
    centers: &[VertexId],
    radius: usize,
    ledger: &mut RoundLedger,
) -> Vec<Vec<VertexId>> {
    ledger.charge("ball-gather", radius as u64);
    let mut bfs = Bfs::new(g.n());
    centers
        .iter()
        .map(|&c| bfs.ball(g, c, radius, mask))
        .collect()
}

/// The apex-local half of the two-round clique detection: decides whether
/// `apex` together with `d` of its (live) neighbors forms a `(d+1)`-clique,
/// using only knowledge a node holds after the adjacency-list exchange —
/// each neighbor's live degree and the edges among its own neighbors.
///
/// `nbrs` is the apex's live neighborhood (sorted); `live_degree(w)` is the
/// live degree of neighbor `w`; `has_edge(u, w)` answers adjacency for
/// `u, w ∈ nbrs`. Returns the clique sorted, apex included.
///
/// Shared by the sequential [`detect_clique`] scan and the engine's
/// `CliqueProgram`, so both substrates find the same clique at every apex.
pub fn clique_at_apex(
    apex: VertexId,
    nbrs: &[VertexId],
    d: usize,
    live_degree: impl Fn(VertexId) -> usize,
    has_edge: impl Fn(VertexId, VertexId) -> bool,
) -> Option<Vec<VertexId>> {
    if nbrs.len() < d {
        return None;
    }
    // The apex plus d of its neighbors must be mutually adjacent; candidates
    // need degree ≥ d themselves.
    let candidates: Vec<VertexId> = nbrs
        .iter()
        .copied()
        .filter(|&w| live_degree(w) >= d)
        .collect();
    if candidates.len() < d {
        return None;
    }
    grow_clique(&has_edge, &candidates, d).map(|mut clique| {
        clique.push(apex);
        clique.sort_unstable();
        clique
    })
}

/// Charges the two rounds the paper's §3 allots for local `(d+1)`-clique
/// detection ("such a clique can be found in two rounds") and scans each
/// rich vertex's closed neighborhood for a `(d+1)`-clique containing it.
///
/// Only vertices of degree exactly `d` can be in a `(d+1)`-clique of a
/// graph where we treat degree-≤-d vertices; the check is
/// `O(Σ d³)` worst case but early-exits aggressively. The per-apex decision
/// is [`clique_at_apex`] — the same function the engine's two-round port
/// evaluates on exchanged adjacency lists.
pub fn detect_clique(
    g: &Graph,
    mask: Option<&VertexSet>,
    d: usize,
    ledger: &mut RoundLedger,
) -> Option<Vec<VertexId>> {
    ledger.charge("clique-detection", 2);
    let in_mask = |v: VertexId| mask.is_none_or(|m| m.contains(v));
    for v in g.vertices().filter(|&v| in_mask(v)) {
        let nbrs: Vec<VertexId> = g
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&w| in_mask(w))
            .collect();
        let clique = clique_at_apex(
            v,
            &nbrs,
            d,
            |w| g.neighbors(w).iter().filter(|&&x| in_mask(x)).count(),
            |u, w| g.has_edge(u, w),
        );
        if clique.is_some() {
            return clique;
        }
    }
    None
}

/// Finds `size` mutually adjacent vertices among `candidates`
/// (backtracking; candidates all adjacent to the apex already).
fn grow_clique(
    has_edge: &impl Fn(VertexId, VertexId) -> bool,
    candidates: &[VertexId],
    size: usize,
) -> Option<Vec<VertexId>> {
    fn rec(
        has_edge: &impl Fn(VertexId, VertexId) -> bool,
        candidates: &[VertexId],
        start: usize,
        current: &mut Vec<VertexId>,
        size: usize,
    ) -> bool {
        if current.len() == size {
            return true;
        }
        if candidates.len() - start < size - current.len() {
            return false;
        }
        for i in start..candidates.len() {
            let w = candidates[i];
            if current.iter().all(|&u| has_edge(u, w)) {
                current.push(w);
                if rec(has_edge, candidates, i + 1, current, size) {
                    return true;
                }
                current.pop();
            }
        }
        false
    }
    let mut cur = Vec::new();
    rec(has_edge, candidates, 0, &mut cur, size).then_some(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    #[test]
    fn gather_charges_radius() {
        let g = gen::grid(5, 5);
        let mut ledger = RoundLedger::new();
        let balls = gather_balls(&g, None, &[12], 2, &mut ledger);
        assert_eq!(ledger.phase_total("ball-gather"), 2);
        assert!(balls[0].contains(&12));
        assert!(balls[0].len() > 5);
    }

    #[test]
    fn flooded_balls_match_bfs_balls() {
        // The reused search must reproduce the fresh BFS ball at every
        // radius, masked or not.
        let g = gen::triangular(5, 5);
        let mask = VertexSet::from_iter_with_universe(g.n(), (0..g.n()).filter(|v| v % 4 != 1));
        let centers: Vec<VertexId> = (0..g.n()).collect();
        for mask in [None, Some(&mask)] {
            for radius in 0..4 {
                let mut ledger = RoundLedger::new();
                let balls = gather_balls(&g, mask, &centers, radius, &mut ledger);
                for &c in &centers {
                    assert_eq!(
                        balls[c],
                        graphs::ball(&g, c, radius, mask),
                        "center {c} radius {radius}"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_fresh_appends_only_new_elements_and_keeps_known_sorted() {
        let mut known = vec![2usize, 5, 9];
        let mut fresh = Vec::new();
        // Duplicates across batches (7), an empty batch, and elements
        // already known (5, 9) each reach `fresh` at most once, sorted.
        let batches: [&[usize]; 3] = [&[1, 5, 7, 7], &[], &[11, 9, 7, 1]];
        merge_fresh(&mut known, batches, &mut fresh);
        assert_eq!(fresh, vec![1, 7, 11]);
        assert_eq!(known, vec![1, 2, 5, 7, 9, 11]);

        // `fresh` is appended to, not overwritten.
        merge_fresh(&mut known, [&[12usize, 0][..]], &mut fresh);
        assert_eq!(fresh, vec![1, 7, 11, 0, 12]);
        assert_eq!(known, vec![0, 1, 2, 5, 7, 9, 11, 12]);

        // Nothing new: `fresh` and `known` are left as they were.
        fresh.clear();
        merge_fresh(&mut known, [&[2usize, 11][..], &[]], &mut fresh);
        assert!(fresh.is_empty());
        assert_eq!(known, vec![0, 1, 2, 5, 7, 9, 11, 12]);
        merge_fresh(&mut known, std::iter::empty(), &mut fresh);
        assert!(fresh.is_empty());
        assert_eq!(known.len(), 8);

        // From an empty `known`, the fresh run is the whole merged set.
        let mut known: Vec<usize> = Vec::new();
        merge_fresh(&mut known, [&[4usize, 3][..], &[3, 8]], &mut fresh);
        assert_eq!(fresh, vec![3, 4, 8]);
        assert_eq!(known, fresh);
    }

    #[test]
    fn clique_detection_finds_k4() {
        // K4 glued into a path.
        let mut edges: Vec<(usize, usize)> = (0..10).map(|i| (i, i + 1)).collect();
        edges.extend([(0, 2), (0, 3), (1, 3)]);
        let g = graphs::Graph::from_edges(11, edges);
        let mut ledger = RoundLedger::new();
        let clique = detect_clique(&g, None, 3, &mut ledger).expect("K4 present");
        assert_eq!(clique, vec![0, 1, 2, 3]);
        assert_eq!(ledger.phase_total("clique-detection"), 2);
    }

    #[test]
    fn clique_detection_none_in_sparse() {
        let g = gen::grid(6, 6);
        let mut ledger = RoundLedger::new();
        assert!(detect_clique(&g, None, 3, &mut ledger).is_none());
    }

    #[test]
    fn clique_detection_respects_mask() {
        let g = gen::complete(5);
        let mut mask = VertexSet::full(5);
        mask.remove(4); // K4 remains
        let mut ledger = RoundLedger::new();
        assert!(detect_clique(&g, Some(&mask), 4, &mut ledger).is_none());
        assert!(detect_clique(&g, Some(&mask), 3, &mut ledger).is_some());
    }
}
