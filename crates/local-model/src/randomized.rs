//! The simple randomized distributed list-coloring the paper's §6 remark
//! refers to ("there is a simple answer to Question 6.2 if we ask for a
//! randomized algorithm instead", citing the classic `O(log n)`-round
//! `(Δ+1)`-coloring of \[5\]).
//!
//! Each cycle, every uncolored vertex proposes a uniformly random color
//! from its current list and keeps it if no neighbor proposed or owns the
//! same color; committed colors are struck from neighboring lists. With
//! `|L(v)| ≥ deg(v) + 1` every vertex survives each cycle with probability
//! ≥ 1/4ish, so all vertices finish in `O(log n)` cycles w.h.p. — the
//! contrast experiment for the paper's *deterministic* complexity focus.
//!
//! Three contracts matter for the engine port
//! (`engine::engine_randomized_list_coloring`):
//!
//! * **Per-vertex randomness.** Every vertex draws from its own stream,
//!   [`per_vertex_rng`]`(seed, v)` — a pure function of `(seed, v)`. The
//!   engine seeds node RNGs identically, which is what makes the sequential
//!   and message-passing executions produce bit-identical colorings.
//! * **One rule set.** Both executions apply [`strike`], [`draw_proposal`]
//!   and [`commits`] to what a vertex knows, after
//!   [`assert_deg_plus_one_lists`] checked the lists.
//! * **Two LOCAL rounds per cycle.** In a strict message-passing execution a
//!   cycle costs a *propose* round (random color to all neighbors) and a
//!   *resolve* round (commit decision + committed color to all neighbors):
//!   a vertex can decide its own commit only after hearing the proposals,
//!   and its neighbors learn the outcome one round later. The ledger charges
//!   `2 · cycles` accordingly ([`RandomizedColoring::rounds`] still counts
//!   cycles, the unit `max_rounds` caps).

use crate::ledger::RoundLedger;
use graphs::{Graph, VertexId, VertexSet};
use rand::rngs::StdRng;
use rand::{mix64, Rng, SeedableRng};

/// The private random stream of vertex `v` under `seed` — the determinism
/// contract shared with the engine runtime (`engine::node_rng`): a pure
/// function of `(seed, v)`, independent of iteration order and sharding.
pub fn per_vertex_rng(seed: u64, v: VertexId) -> StdRng {
    StdRng::seed_from_u64(mix64(seed, v as u64))
}

/// Outcome of the randomized list-coloring.
#[derive(Clone, Debug)]
pub struct RandomizedColoring {
    /// Final colors (`usize::MAX` only if `max_rounds` was exhausted).
    pub colors: Vec<usize>,
    /// Propose/resolve cycles actually used (each costs 2 LOCAL rounds).
    pub rounds: u64,
    /// Whether every vertex committed.
    pub complete: bool,
}

/// Asserts the `(deg+1)`-list regime of §6: `lists` covers every vertex of
/// `g`, and every masked vertex's list is longer than its masked degree.
///
/// # Panics
///
/// Panics if some masked list is smaller than `deg(v) + 1`.
pub fn assert_deg_plus_one_lists(g: &Graph, mask: Option<&VertexSet>, lists: &[Vec<usize>]) {
    assert_eq!(lists.len(), g.n());
    let in_mask = |v: VertexId| mask.is_none_or(|m| m.contains(v));
    for (v, list) in lists.iter().enumerate() {
        if in_mask(v) {
            let deg = g.neighbors(v).iter().filter(|&&w| in_mask(w)).count();
            assert!(
                list.len() > deg,
                "vertex {v}: randomized coloring needs deg+1 lists"
            );
        }
    }
}

/// The strike: a neighbor committed `c`, so it leaves the live list (its
/// first occurrence; absent colors are ignored).
#[inline]
pub fn strike(live: &mut Vec<usize>, c: usize) {
    if let Some(pos) = live.iter().position(|&x| x == c) {
        live.remove(pos);
    }
}

/// The proposal: a uniform draw from the live list on the vertex's own
/// stream ([`per_vertex_rng`]).
#[inline]
pub fn draw_proposal(live: &[usize], rng: &mut StdRng) -> usize {
    live[rng.gen_range(0..live.len())]
}

/// The commit test: `proposal` stands unless one of `rivals` — the colors
/// neighbors proposed this cycle or already own — equals it. Ties kill
/// both proposers.
#[inline]
pub fn commits(proposal: usize, mut rivals: impl Iterator<Item = usize>) -> bool {
    rivals.all(|c| c != proposal)
}

/// Runs the randomized list-coloring. Requires `|lists[v]| ≥ deg(v) + 1`
/// for every masked vertex (the `(deg+1)`-list-coloring regime of §6).
///
/// # Panics
///
/// Panics if some list is smaller than `deg(v) + 1`.
pub fn randomized_list_coloring(
    g: &Graph,
    mask: Option<&VertexSet>,
    lists: &[Vec<usize>],
    seed: u64,
    max_rounds: u64,
    ledger: &mut RoundLedger,
) -> RandomizedColoring {
    assert_deg_plus_one_lists(g, mask, lists);
    let n = g.n();
    let in_mask = |v: VertexId| mask.is_none_or(|m| m.contains(v));
    let mut rngs: Vec<StdRng> = (0..n).map(|v| per_vertex_rng(seed, v)).collect();
    let mut live: Vec<Vec<usize>> = lists.to_vec();
    let mut colors = vec![usize::MAX; n];
    let mut uncolored: Vec<VertexId> = (0..n).filter(|&v| in_mask(v)).collect();
    let mut rounds = 0u64;
    while !uncolored.is_empty() && rounds < max_rounds {
        rounds += 1;
        let mut proposal = vec![usize::MAX; n];
        for &v in &uncolored {
            proposal[v] = draw_proposal(&live[v], &mut rngs[v]);
        }
        let mut committed: Vec<VertexId> = Vec::new();
        for &v in &uncolored {
            let rivals = g
                .neighbors(v)
                .iter()
                .filter(|&&w| in_mask(w))
                .flat_map(|&w| [proposal[w], colors[w]]);
            if commits(proposal[v], rivals) {
                committed.push(v);
            }
        }
        for &v in &committed {
            colors[v] = proposal[v];
            for &w in g.neighbors(v) {
                if in_mask(w) && colors[w] == usize::MAX {
                    strike(&mut live[w], colors[v]);
                }
            }
        }
        uncolored.retain(|&v| colors[v] == usize::MAX);
    }
    // Propose + resolve: two LOCAL rounds per cycle (see module docs).
    ledger.charge("randomized-coloring", 2 * rounds);
    RandomizedColoring {
        colors,
        rounds,
        complete: uncolored.is_empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    fn deg_plus_one_lists(g: &Graph, palette_slack: usize) -> Vec<Vec<usize>> {
        g.vertices()
            .map(|v| (0..g.degree(v) + 1 + palette_slack).collect())
            .collect()
    }

    #[test]
    fn colors_random_regular_fast() {
        for seed in 0..5u64 {
            let g = gen::random_regular(300, 4, seed);
            let lists = deg_plus_one_lists(&g, 0);
            let mut ledger = RoundLedger::new();
            let out = randomized_list_coloring(&g, None, &lists, seed, 200, &mut ledger);
            assert!(out.complete, "seed {seed} did not finish");
            for (u, v) in g.edges() {
                assert_ne!(out.colors[u], out.colors[v]);
            }
            // O(log n): 300 vertices should finish well under 60 cycles.
            assert!(out.rounds <= 60, "took {} rounds", out.rounds);
            assert_eq!(ledger.phase_total("randomized-coloring"), 2 * out.rounds);
        }
    }

    #[test]
    fn respects_lists() {
        let g = gen::grid(8, 8);
        let lists: Vec<Vec<usize>> = g
            .vertices()
            .map(|v| (10 * v..10 * v + g.degree(v) + 1).collect())
            .collect();
        let mut ledger = RoundLedger::new();
        let out = randomized_list_coloring(&g, None, &lists, 7, 500, &mut ledger);
        assert!(out.complete);
        for v in g.vertices() {
            assert!(lists[v].contains(&out.colors[v]));
        }
    }

    #[test]
    fn round_budget_respected() {
        let g = gen::random_regular(100, 3, 1);
        let lists = deg_plus_one_lists(&g, 0);
        let mut ledger = RoundLedger::new();
        let out = randomized_list_coloring(&g, None, &lists, 1, 1, &mut ledger);
        assert_eq!(out.rounds, 1);
        // One cycle rarely finishes a 100-vertex graph — either way the
        // partial coloring must be proper where committed.
        for (u, v) in g.edges() {
            if out.colors[u] != usize::MAX && out.colors[v] != usize::MAX {
                assert_ne!(out.colors[u], out.colors[v]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "deg+1")]
    fn tight_lists_rejected() {
        let g = gen::cycle(6);
        let lists = vec![vec![0, 1]; 6];
        let mut ledger = RoundLedger::new();
        randomized_list_coloring(&g, None, &lists, 1, 10, &mut ledger);
    }

    /// [`assert_deg_plus_one_lists`] counts masked neighbors only: lists
    /// too short for the whole cycle pass once the mask cuts it into paths.
    #[test]
    fn list_precondition_counts_masked_degree() {
        let g = gen::cycle(6);
        let lists = vec![vec![0, 1]; 6];
        let mask = VertexSet::from_iter_with_universe(6, [0, 1, 3, 4]);
        assert_deg_plus_one_lists(&g, Some(&mask), &lists);
    }

    /// [`strike`]: removes the first occurrence, keeps the order of the
    /// rest, and ignores colors not on the list.
    #[test]
    fn strike_removes_the_color_once() {
        let mut live = vec![4, 2, 7, 2];
        strike(&mut live, 2);
        assert_eq!(live, vec![4, 7, 2]);
        strike(&mut live, 9);
        assert_eq!(live, vec![4, 7, 2]);
        strike(&mut live, 4);
        assert_eq!(live, vec![7, 2]);
    }

    /// [`draw_proposal`]: every draw is on the live list, and every entry
    /// gets drawn.
    #[test]
    fn proposals_cover_the_live_list() {
        let live = [3, 8, 5, 1];
        let mut rng = per_vertex_rng(11, 4);
        let draws: Vec<usize> = (0..200).map(|_| draw_proposal(&live, &mut rng)).collect();
        assert!(draws.iter().all(|c| live.contains(c)));
        assert!(live.iter().all(|c| draws.contains(c)), "{draws:?}");
    }

    /// [`commits`]: a proposal loses exactly to an equal rival.
    #[test]
    fn commit_test_loses_exactly_to_an_equal_rival() {
        assert!(commits(3, [].into_iter()));
        assert!(commits(3, [1, 2, usize::MAX].into_iter()));
        assert!(!commits(3, [1, 3].into_iter()));
        assert!(!commits(3, [3].into_iter()));
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gen::random_tree(60, 2);
        let lists = deg_plus_one_lists(&g, 1);
        let mut l1 = RoundLedger::new();
        let mut l2 = RoundLedger::new();
        let a = randomized_list_coloring(&g, None, &lists, 42, 100, &mut l1);
        let b = randomized_list_coloring(&g, None, &lists, 42, 100, &mut l2);
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn per_vertex_streams_are_stable() {
        let mut a = per_vertex_rng(5, 17);
        let mut b = per_vertex_rng(5, 17);
        let mut c = per_vertex_rng(5, 18);
        let draws_a: Vec<u64> = (0..4).map(|_| a.gen_range(0u64..1 << 40)).collect();
        let draws_b: Vec<u64> = (0..4).map(|_| b.gen_range(0u64..1 << 40)).collect();
        let draws_c: Vec<u64> = (0..4).map(|_| c.gen_range(0u64..1 << 40)).collect();
        assert_eq!(draws_a, draws_b);
        assert_ne!(draws_a, draws_c);
    }
}
