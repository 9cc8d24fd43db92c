//! List assignments (paper §1.2).
//!
//! A `k`-list-assignment gives every vertex its own list of at least `k`
//! allowed colors; a coloring is an `L`-list-coloring if every vertex picks
//! from its list. Colors are arbitrary `usize` labels — the paper stresses
//! the lists need *not* be `1..k`, and several algorithms here (the
//! even-cycle and identical-list cases of Theorem 1.1) genuinely depend on
//! comparing lists as sets.

use graphs::{Graph, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A list assignment: one sorted, deduplicated color list per vertex.
///
/// # Examples
///
/// ```
/// use distributed_coloring::ListAssignment;
/// let lists = ListAssignment::uniform(4, 3);
/// assert_eq!(lists.n(), 4);
/// assert_eq!(lists.list(2), &[0, 1, 2]);
/// assert!(lists.is_k_assignment(3));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ListAssignment {
    lists: Vec<Vec<usize>>,
}

impl ListAssignment {
    /// Wraps raw lists (sorted and deduplicated on entry).
    pub fn new(lists: Vec<Vec<usize>>) -> Self {
        let lists = lists
            .into_iter()
            .map(|mut l| {
                l.sort_unstable();
                l.dedup();
                l
            })
            .collect();
        ListAssignment { lists }
    }

    /// The identical list `{0, …, k−1}` for all `n` vertices — plain
    /// `k`-coloring expressed as list-coloring.
    pub fn uniform(n: usize, k: usize) -> Self {
        ListAssignment {
            lists: vec![(0..k).collect(); n],
        }
    }

    /// Random `k`-subsets of `{0, …, palette−1}` per vertex: the adversarial
    /// setting where neighboring lists overlap only partially.
    ///
    /// # Panics
    ///
    /// Panics if `palette < k`.
    pub fn random(n: usize, k: usize, palette: usize, seed: u64) -> Self {
        assert!(palette >= k, "palette must contain at least k colors");
        let mut rng = StdRng::seed_from_u64(seed);
        let lists = (0..n)
            .map(|_| {
                let mut all: Vec<usize> = (0..palette).collect();
                all.shuffle(&mut rng);
                let mut l: Vec<usize> = all.into_iter().take(k).collect();
                l.sort_unstable();
                l
            })
            .collect();
        ListAssignment { lists }
    }

    /// Random list sizes per vertex between `k_min` and `k_max` (inclusive),
    /// used by nice-list (Theorem 6.1) workloads.
    pub fn random_sizes(n: usize, k_min: usize, k_max: usize, palette: usize, seed: u64) -> Self {
        assert!(k_min <= k_max && palette >= k_max);
        let mut rng = StdRng::seed_from_u64(seed);
        let lists = (0..n)
            .map(|_| {
                let k = rng.gen_range(k_min..=k_max);
                let mut all: Vec<usize> = (0..palette).collect();
                all.shuffle(&mut rng);
                let mut l: Vec<usize> = all.into_iter().take(k).collect();
                l.sort_unstable();
                l
            })
            .collect();
        ListAssignment { lists }
    }

    /// Number of vertices covered.
    pub fn n(&self) -> usize {
        self.lists.len()
    }

    /// The list of vertex `v`.
    pub fn list(&self, v: VertexId) -> &[usize] {
        &self.lists[v]
    }

    /// All lists as a slice.
    pub fn as_slice(&self) -> &[Vec<usize>] {
        &self.lists
    }

    /// Whether every list has at least `k` colors.
    pub fn is_k_assignment(&self, k: usize) -> bool {
        self.lists.iter().all(|l| l.len() >= k)
    }

    /// The smallest list size (`usize::MAX` when there are no vertices).
    pub fn min_size(&self) -> usize {
        self.lists.iter().map(Vec::len).min().unwrap_or(usize::MAX)
    }

    /// Whether the assignment is *nice* for `g` (paper §6): every vertex
    /// `v` has `|L(v)| ≥ deg(v)`, and `|L(v)| ≥ deg(v) + 1` whenever
    /// `deg(v) ≤ 2` or `N(v)` induces a clique.
    pub fn is_nice(&self, g: &Graph) -> bool {
        self.not_nice_at(g).is_none()
    }

    /// The first vertex at which the assignment is not nice for `g` (see
    /// [`ListAssignment::is_nice`]), if any.
    pub(crate) fn not_nice_at(&self, g: &Graph) -> Option<VertexId> {
        assert_eq!(self.n(), g.n());
        g.vertices().find(|&v| {
            let d = g.degree(v);
            let len = self.lists[v].len();
            if d <= 2 || graphs::is_clique(g, g.neighbors(v)) {
                len <= d
            } else {
                len < d
            }
        })
    }
}

impl From<Vec<Vec<usize>>> for ListAssignment {
    fn from(lists: Vec<Vec<usize>>) -> Self {
        ListAssignment::new(lists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    #[test]
    fn uniform_lists() {
        let l = ListAssignment::uniform(3, 4);
        assert!(l.is_k_assignment(4));
        assert!(!l.is_k_assignment(5));
        assert_eq!(l.min_size(), 4);
    }

    #[test]
    fn random_lists_respect_palette_and_size() {
        let l = ListAssignment::random(50, 4, 9, 3);
        assert!(l.is_k_assignment(4));
        for v in 0..50 {
            assert_eq!(l.list(v).len(), 4);
            assert!(l.list(v).iter().all(|&c| c < 9));
            assert!(l.list(v).windows(2).all(|w| w[0] < w[1]), "sorted dedup");
        }
    }

    #[test]
    fn new_sorts_and_dedups() {
        let l = ListAssignment::new(vec![vec![3, 1, 3, 2]]);
        assert_eq!(l.list(0), &[1, 2, 3]);
    }

    #[test]
    fn nice_assignment_on_path() {
        // Path vertices have degree ≤ 2, so nice lists need deg+1 colors.
        let g = gen::path(5);
        let tight = ListAssignment::new(vec![vec![0], vec![0, 1], vec![0, 1], vec![0, 1], vec![0]]);
        assert!(!tight.is_nice(&g)); // needs deg+1 everywhere here
        let nice = ListAssignment::new(vec![
            vec![0, 1],
            vec![0, 1, 2],
            vec![0, 1, 2],
            vec![0, 1, 2],
            vec![0, 1],
        ]);
        assert!(nice.is_nice(&g));
    }

    #[test]
    fn nice_assignment_clique_neighborhood() {
        // In K4 every neighborhood is a clique: lists need deg+1 = 4.
        let g = gen::complete(4);
        assert!(!ListAssignment::uniform(4, 3).is_nice(&g));
        assert!(ListAssignment::uniform(4, 4).is_nice(&g));
    }

    #[test]
    fn nice_assignment_high_degree_non_clique() {
        // C5 with a chord… use K_{2,3}: degree-3 vertices have independent
        // neighborhoods, so deg-sized lists suffice; degree-2 vertices need 3.
        let g = gen::complete_bipartite(2, 3);
        let lists = ListAssignment::new(vec![
            (0..3).collect(),
            (0..3).collect(),
            (0..3).collect(),
            (0..3).collect(),
            (0..3).collect(),
        ]);
        assert!(lists.is_nice(&g));
    }

    #[test]
    fn random_sizes_within_bounds() {
        let l = ListAssignment::random_sizes(30, 2, 5, 8, 7);
        for v in 0..30 {
            let s = l.list(v).len();
            assert!((2..=5).contains(&s));
        }
    }
}
