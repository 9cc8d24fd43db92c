//! Mutable coloring state shared by the constructive Theorem 1.1 solver and
//! the Lemma 3.2 extension procedure.
//!
//! The central invariant (the paper's Observation 5.1 in executable form):
//! every uncolored vertex's *live list* equals its original list minus the
//! colors of its already-colored neighbors, so
//! `|live(v)| ≥ |L(v)| − (deg(v) − alive_deg(v))`. Any color in the live
//! list is safe to assign, and surplus (`|live(v)| > alive_deg(v)`) can only
//! grow as neighbors get colored with repeated or out-of-list colors.
//!
//! The state owns one [`Bfs`], sized once for `n`: every component search
//! and reverse-BFS greedy over it costs what the component holds, however
//! many of them a level runs.

use graphs::{Bfs, Graph, VertexId, VertexSet, UNREACHABLE};

/// Mutable partial-coloring state over (a masked part of) a graph.
#[derive(Clone, Debug)]
pub struct ColoringState<'g> {
    g: &'g Graph,
    /// Uncolored vertices under management.
    alive: VertexSet,
    /// Live lists for alive vertices (sorted).
    live: Vec<Vec<usize>>,
    /// Assigned colors (`usize::MAX` = none).
    color: Vec<usize>,
    /// Search scratch for components and greedy orders.
    bfs: Bfs,
}

impl<'g> ColoringState<'g> {
    /// Creates a state managing the vertices of `scope`, with `lists` as the
    /// *already-reduced* lists (the caller subtracts colors of precolored
    /// neighbors outside `scope`).
    ///
    /// # Panics
    ///
    /// Panics if `lists.len() != g.n()`.
    pub fn new(g: &'g Graph, scope: VertexSet, lists: Vec<Vec<usize>>) -> Self {
        assert_eq!(lists.len(), g.n());
        let mut live = lists;
        for l in &mut live {
            l.sort_unstable();
            l.dedup();
        }
        ColoringState {
            g,
            alive: scope,
            live,
            color: vec![usize::MAX; g.n()],
            bfs: Bfs::new(g.n()),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.g
    }

    /// Uncolored managed vertices.
    pub fn alive(&self) -> &VertexSet {
        &self.alive
    }

    /// The live list of an alive vertex.
    pub fn live_list(&self, v: VertexId) -> &[usize] {
        &self.live[v]
    }

    /// Degree of `v` within the alive set.
    pub fn alive_degree(&self, v: VertexId) -> usize {
        self.g
            .neighbors(v)
            .iter()
            .filter(|&&w| self.alive.contains(w))
            .count()
    }

    /// Whether `v` has strictly more live colors than alive neighbors.
    pub fn has_surplus(&self, v: VertexId) -> bool {
        self.live[v].len() > self.alive_degree(v)
    }

    /// Assigned color of `v` (`None` if uncolored).
    pub fn color(&self, v: VertexId) -> Option<usize> {
        (self.color[v] != usize::MAX).then_some(self.color[v])
    }

    /// Extracts the color vector (`usize::MAX` marks uncolored).
    pub fn into_colors(self) -> Vec<usize> {
        self.color
    }

    /// Colors `v` with `c`, removing `v` from the alive set and `c` from
    /// the live lists of its alive neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not alive or `c` is not in its live list.
    pub fn assign(&mut self, v: VertexId, c: usize) {
        assert!(self.alive.contains(v), "vertex {v} is not alive");
        assert!(
            self.live[v].binary_search(&c).is_ok(),
            "color {c} not in live list of {v}"
        );
        self.color[v] = c;
        self.alive.remove(v);
        for &w in self.g.neighbors(v) {
            if self.alive.contains(w) {
                if let Ok(pos) = self.live[w].binary_search(&c) {
                    self.live[w].remove(pos);
                }
            }
        }
    }

    /// Colors every alive vertex of `start`'s alive component by the
    /// reverse-BFS greedy (children before parents): each vertex keeps an
    /// uncolored neighbor until its own turn, so its live list is nonempty
    /// provided `start` had a surplus (or some neighbor outside the
    /// component was colored meanwhile).
    ///
    /// # Panics
    ///
    /// Panics if a live list runs empty — i.e. the surplus precondition was
    /// violated by the caller.
    pub fn greedy_from_surplus(&mut self, start: VertexId) {
        debug_assert!(
            self.has_surplus(start),
            "greedy_from_surplus requires a surplus at {start}"
        );
        self.greedy_reverse_bfs(start, None);
    }

    /// The reverse-BFS greedy over the alive vertices that a search from
    /// `start` reaches inside `region` (everywhere when `None`): each takes
    /// the first color of its live list, children before parents. Returns
    /// how many vertices it colored.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not alive, or if a live list runs empty — some
    /// vertex lost its last uncolored neighbor before its turn.
    pub(crate) fn greedy_reverse_bfs(
        &mut self,
        start: VertexId,
        region: Option<&VertexSet>,
    ) -> usize {
        let reached = self.bfs_order(start, region).len();
        for i in (0..reached).rev() {
            let v = self.bfs.order()[i];
            let c = *self.live[v]
                .first()
                .expect("reverse-BFS greedy: a live list ran empty");
            self.assign(v, c);
        }
        reached
    }

    /// BFS order of `start`'s alive component, inside `region` when given
    /// (start first).
    ///
    /// # Panics
    ///
    /// Panics if `start` is not alive. Root-ball recoloring never gets here
    /// with a colored root: [`crate::extend`] first checks that the balls
    /// are disjoint and non-adjacent, so no root's recoloring reaches
    /// another root.
    pub fn bfs_order(&mut self, start: VertexId, region: Option<&VertexSet>) -> &[VertexId] {
        assert!(self.alive.contains(start), "vertex {start} is not alive");
        let alive = &self.alive;
        self.bfs.run(self.g, [start], UNREACHABLE, |w| {
            alive.contains(w) && region.is_none_or(|r| r.contains(w))
        })
    }

    /// The smallest surplus vertex of `start`'s alive component, if any.
    pub(crate) fn surplus_in_component(&mut self, start: VertexId) -> Option<VertexId> {
        self.bfs_order(start, None);
        let order = self.bfs.order();
        order.iter().copied().filter(|&v| self.has_surplus(v)).min()
    }

    /// The alive component containing `start`, as a set.
    pub fn alive_component(&mut self, start: VertexId) -> VertexSet {
        let n = self.g.n();
        VertexSet::from_iter_with_universe(n, self.bfs_order(start, None).iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    fn full_state(g: &Graph, k: usize) -> ColoringState<'_> {
        ColoringState::new(g, VertexSet::full(g.n()), vec![(0..k).collect(); g.n()])
    }

    #[test]
    fn assign_updates_neighbors() {
        let g = gen::path(3);
        let mut st = full_state(&g, 2);
        st.assign(1, 0);
        assert_eq!(st.live_list(0), &[1]);
        assert_eq!(st.live_list(2), &[1]);
        assert_eq!(st.color(1), Some(0));
        assert!(!st.alive().contains(1));
    }

    #[test]
    #[should_panic(expected = "not in live list")]
    fn assign_rejects_missing_color() {
        let g = gen::path(2);
        let mut st = full_state(&g, 1);
        st.assign(0, 0);
        st.assign(1, 0); // live list of 1 is now empty of 0
    }

    #[test]
    fn surplus_detection() {
        let g = gen::cycle(4);
        let st = full_state(&g, 3);
        assert!(st.has_surplus(0)); // 3 colors > 2 alive neighbors
        let st2 = full_state(&g, 2);
        assert!(!st2.has_surplus(0));
    }

    #[test]
    fn greedy_from_surplus_colors_component() {
        // Star: center has surplus with deg+1 lists at leaves… use tight
        // lists with one surplus vertex: path with |L| = deg at ends except
        // start.
        let g = gen::path(5);
        let lists = vec![
            vec![10],     // deg 1
            vec![10, 20], // deg 2
            vec![10, 20], // deg 2
            vec![10, 20], // deg 2
            vec![10, 20], // deg 1: surplus!
        ];
        let mut st = ColoringState::new(&g, VertexSet::full(5), lists);
        assert!(st.has_surplus(4));
        st.greedy_from_surplus(4);
        let colors = st.into_colors();
        for (u, v) in g.edges() {
            assert_ne!(colors[u], colors[v]);
        }
        assert_eq!(colors[0], 10);
    }

    #[test]
    fn greedy_respects_precolored_outside_scope() {
        // Scope = {1,2,3} of a path 0-1-2-3; vertex 0 precolored "10" so
        // vertex 1's reduced list drops 10.
        let g = gen::path(4);
        let scope = VertexSet::from_iter_with_universe(4, [1, 2, 3]);
        let lists = vec![
            vec![],   // not in scope
            vec![20], // 10 was removed by the caller
            vec![10, 20],
            vec![10, 20], // surplus (deg 1 in scope)
        ];
        let mut st = ColoringState::new(&g, scope, lists);
        st.greedy_from_surplus(3);
        let colors = st.into_colors();
        assert_eq!(colors[1], 20);
        assert_ne!(colors[1], colors[2]);
        assert_ne!(colors[2], colors[3]);
    }

    #[test]
    fn bfs_order_covers_component() {
        let g = gen::cycle(6);
        let mut st = full_state(&g, 3);
        let order = st.bfs_order(0, None);
        assert_eq!(order.len(), 6);
        assert_eq!(order[0], 0);
    }
}
