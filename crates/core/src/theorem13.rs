//! Theorem 1.3 — the paper's main result.
//!
//! Given `d ≥ max(3, mad(G))` and a `d`-list-assignment, either find a
//! `(d+1)`-clique or a `d`-list-coloring in `O(d⁴ log³ n)` rounds
//! (`O(d² log³ n)` when `Δ(G) ≤ d`):
//!
//! * **Peel:** repeatedly classify the residual graph and remove the happy
//!   set `A` (Lemma 3.1: `|A| ≥ n'/(3d)³`, so `O(d³ log n)` levels — or
//!   `≥ n'/(12d+1)` and `O(d log n)` levels without poor vertices).
//! * **Extend:** starting from the empty graph, re-insert the levels in
//!   reverse, extending the coloring with Lemma 3.2 each time.
//!
//! When a level has no happy vertex, the algorithm looks for the
//! `(d+1)`-clique the paper promises (§3: a `d`-regular Gallai-tree
//! obstruction is a `K_{d+1}` — footnote 2); if none exists the
//! precondition `d ≥ mad(G)` must have been violated and a diagnostic
//! error is returned.
//!
//! Theorem 6.1 ([`crate::brooks`]) runs the same peel-and-extend loop with
//! its own classification and no clique detection. The run's
//! [`Substrate`], sequential or engine, is chosen once per run.

use crate::extend::{extend_to_happy_set, ExtendError, UNCOLORED};
use crate::happy::{paper_radius, Classification};
use crate::lists::ListAssignment;
use crate::substrate::Substrate;
use engine::{EngineConfig, EngineMetrics};
use graphs::{Graph, VertexId, VertexSet};
use local_model::RoundLedger;
use std::fmt;

/// Ball-radius policy for the happy-vertex classification.
///
/// All policies yield correct colorings (happiness at any radius certifies
/// extendability); only the Lemma 3.1 density guarantee is tied to
/// [`RadiusPolicy::Paper`]. See DESIGN.md (substitutions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RadiusPolicy {
    /// The paper's `⌈c·log₂ n⌉` with `c = 12/log₂(6/5)` (≈ 45.6·log₂ n).
    Paper,
    /// A fixed radius.
    Fixed(usize),
    /// Start at `initial` and double whenever no happy vertex is found.
    Adaptive {
        /// Starting radius (≥ 1).
        initial: usize,
    },
}

impl Default for RadiusPolicy {
    fn default() -> Self {
        RadiusPolicy::Adaptive { initial: 2 }
    }
}

/// Configuration for [`list_color_sparse`].
#[derive(Clone, Debug, Default)]
pub struct SparseColoringConfig {
    /// Ball-radius policy (default: adaptive from 2).
    pub radius: RadiusPolicy,
    /// Verify `mad(G) ≤ d` exactly (flow-based) before running. Off by
    /// default: the check costs `O(log n)` max-flows.
    pub verify_mad: bool,
    /// `Some(shards)` runs **every** phase of the theorem on masked
    /// [`engine::EngineSession`]s instead of the sequential simulations:
    /// classification (rich/poor exchange + radius-`r` rich-ball flood),
    /// the §3 two-round clique detection, and — per extension level — the
    /// ruling-forest construction, the `(d+1)`-coloring, and Lemma 3.2's
    /// layered greedy (see [`crate::extend_to_happy_set`]). Bit-identical
    /// colors, statistics, and ledger charges, executed as sharded message
    /// passing. `None` (default) stays sequential.
    pub engine_shards: Option<usize>,
    /// The session template of an engine-mode run ([`EngineConfig::default`]
    /// by default; ignored in sequential mode). Every internal engine
    /// session — classification, clique detection and, per extension level,
    /// the ruling forest, each forest's Cole–Vishkin pass, the class sweeps
    /// and the layered greedy — runs on a clone of it, so its CONGEST mode,
    /// fault plan, frontier gating, round cap, worker cap and pool
    /// reach them all. One field is overwritten: `engine_shards` sets
    /// `shards`. Each session passes its own vertex set to
    /// [`engine::EngineSession::new`].
    /// Without a `pool`, the run spawns one [`engine::EnginePool`] sized by
    /// [`EngineConfig::workers_for`] and shares it across every session.
    ///
    /// A fault-free run's colors, statistics and ledger charges are
    /// bit-identical to the sequential run; [`engine::CongestMode::Split`]
    /// only adds its fragmentation surplus, under the
    /// [`engine::SPLIT_PHASE`] ledger phase and in
    /// [`SparseColoring::engine_metrics`]. Faults key on logical messages,
    /// so a faulted run still replays bit-identically across shard counts.
    pub engine: EngineConfig,
}

/// Per-level peeling statistics.
#[derive(Clone, Debug, Default)]
pub struct PeelStats {
    /// Residual size at the start of each level.
    pub alive_sizes: Vec<usize>,
    /// Happy-set size of each level.
    pub happy_sizes: Vec<usize>,
    /// Radius used at each level.
    pub radii: Vec<usize>,
    /// Poor-vertex count of each level.
    pub poor_sizes: Vec<usize>,
}

impl PeelStats {
    /// Number of peeling levels.
    pub fn levels(&self) -> usize {
        self.alive_sizes.len()
    }

    /// Happy fraction per level.
    pub fn happy_fractions(&self) -> Vec<f64> {
        self.alive_sizes
            .iter()
            .zip(&self.happy_sizes)
            .map(|(&a, &h)| if a == 0 { 0.0 } else { h as f64 / a as f64 })
            .collect()
    }
}

/// A successful run of Theorem 1.3.
#[derive(Clone, Debug)]
pub struct SparseColoring {
    /// `colors[v]`: the chosen color of each vertex (from its list).
    pub colors: Vec<usize>,
    /// LOCAL round accounting across all phases.
    pub ledger: RoundLedger,
    /// Peeling statistics (for the Lemma 3.1 experiments).
    pub stats: PeelStats,
    /// Observed engine metrics, summed across every internal session of an
    /// engine-mode run — classification gathers, clique detections, ruling
    /// forests, per-level colorings, layered greedies. Empty (default) for
    /// sequential runs, which route no messages.
    pub engine_metrics: EngineMetrics,
}

/// Result of Theorem 1.3: a coloring, or the promised clique.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// A proper `d`-list-coloring was found.
    Colored(Box<SparseColoring>),
    /// A `(d+1)`-clique was found (sorted vertices) — the paper's
    /// alternative outcome.
    CliqueFound {
        /// The clique's vertices.
        vertices: Vec<VertexId>,
        /// Rounds spent before detection.
        ledger: RoundLedger,
    },
}

impl Outcome {
    /// The coloring, if this outcome is [`Outcome::Colored`].
    pub fn coloring(&self) -> Option<&SparseColoring> {
        match self {
            Outcome::Colored(c) => Some(c),
            Outcome::CliqueFound { .. } => None,
        }
    }
}

/// Failure modes of [`list_color_sparse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ColoringError {
    /// Theorem 1.3 requires `d ≥ 3` (Linial's path lower bound makes `d = 2`
    /// impossible in `o(n)` rounds).
    DegreeBoundTooSmall {
        /// The rejected `d`.
        d: usize,
    },
    /// Some vertex's list has fewer than `d` colors.
    ListTooSmall {
        /// The offending vertex.
        vertex: VertexId,
        /// Its list size.
        size: usize,
    },
    /// `mad(G) > d` (only reported when `verify_mad` is on).
    MadExceedsBound {
        /// Exact `mad` numerator/denominator.
        mad: (usize, usize),
    },
    /// A peeling level found no happy vertex and no `(d+1)`-clique even at
    /// full-component radius: `d < mad(G)` (detected at runtime).
    NoHappyVertices {
        /// Residual vertex count when stuck.
        alive: usize,
    },
    /// The Lemma 3.2 extension failed. A fault-free run never returns
    /// this; a run under an engine fault plan can, when lost or crashed
    /// messages leave two ruling-forest roots too close
    /// ([`ExtendError::RootsTooClose`]).
    Extend(ExtendError),
}

impl fmt::Display for ColoringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColoringError::DegreeBoundTooSmall { d } => {
                write!(f, "theorem 1.3 requires d ≥ 3, got {d}")
            }
            ColoringError::ListTooSmall { vertex, size } => {
                write!(f, "vertex {vertex} has a list of {size} colors, below d")
            }
            ColoringError::MadExceedsBound { mad } => {
                write!(f, "mad(G) = {}/{} exceeds d", mad.0, mad.1)
            }
            ColoringError::NoHappyVertices { alive } => write!(
                f,
                "no happy vertex among {alive} residual vertices: d < mad(G)"
            ),
            ColoringError::Extend(e) => write!(f, "extension failed: {e}"),
        }
    }
}

impl std::error::Error for ColoringError {}

impl From<ExtendError> for ColoringError {
    fn from(e: ExtendError) -> Self {
        ColoringError::Extend(e)
    }
}

/// The peel-and-extend loop both theorems run (Theorem 6.1 is Theorem 1.3's
/// machinery with each vertex's list size for `d`, §6).
///
/// * **Peel:** `classify` the residual graph at the policy's radius,
///   doubling it (adaptive policy only) while no vertex is happy, and
///   remove the happy set. Before each doubling, `stuck` may return the
///   clique that explains a level without happy vertices.
/// * **Extend:** re-insert the levels last first, extending the coloring
///   with Lemma 3.2 on `substrate`.
pub(crate) fn peel_and_extend(
    g: &Graph,
    lists: &ListAssignment,
    policy: RadiusPolicy,
    mut substrate: Substrate,
    mut classify: impl FnMut(&mut Substrate, &VertexSet, usize, &mut RoundLedger) -> Classification,
    mut stuck: impl FnMut(&mut Substrate, &VertexSet, &mut RoundLedger) -> Option<Vec<VertexId>>,
) -> Result<Outcome, ColoringError> {
    let n = g.n();
    let mut ledger = RoundLedger::new();
    let mut stats = PeelStats::default();
    let mut alive = VertexSet::full(n);
    // Each level: the residual set before its happy set was removed, and
    // its classification.
    let mut levels: Vec<(VertexSet, Classification)> = Vec::new();
    while !alive.is_empty() {
        let mut radius = initial_radius(policy, n);
        let classification = loop {
            let c = classify(&mut substrate, &alive, radius, &mut ledger);
            if !c.happy.is_empty() {
                break c;
            }
            if let Some(vertices) = stuck(&mut substrate, &alive, &mut ledger) {
                return Ok(Outcome::CliqueFound { vertices, ledger });
            }
            match policy {
                RadiusPolicy::Adaptive { .. } if radius < n => radius = (2 * radius).min(n),
                _ => return Err(ColoringError::NoHappyVertices { alive: alive.len() }),
            }
        };
        stats.alive_sizes.push(alive.len());
        stats.happy_sizes.push(classification.happy.len());
        stats.poor_sizes.push(classification.poor.len());
        stats.radii.push(classification.radius);
        let level_alive = alive.clone();
        alive.difference_with(&classification.happy);
        levels.push((level_alive, classification));
    }

    let mut colors = vec![UNCOLORED; n];
    for (level_alive, classification) in levels.iter().rev() {
        extend_to_happy_set(
            g,
            level_alive,
            lists,
            classification,
            &mut colors,
            &mut ledger,
            &mut substrate,
        )?;
    }
    debug_assert!(graphs::is_proper(g, &colors));
    Ok(Outcome::Colored(Box::new(SparseColoring {
        colors,
        ledger,
        stats,
        engine_metrics: substrate.into_metrics(),
    })))
}

/// Theorem 1.3: `d`-list-color `g`, or find a `(d+1)`-clique.
///
/// # Errors
///
/// See [`ColoringError`]. With `d ≥ max(3, mad(G))` and honest lists the
/// only non-`Ok(Colored)` outcome is `Ok(CliqueFound)`.
///
/// # Examples
///
/// ```
/// use distributed_coloring::{list_color_sparse, ListAssignment, SparseColoringConfig};
/// use graphs::gen;
/// // A planar triangulation has mad < 6: 6-list-coloring.
/// let g = gen::apollonian(40, 3);
/// let lists = ListAssignment::uniform(g.n(), 6);
/// let outcome = list_color_sparse(&g, &lists, 6, SparseColoringConfig::default()).unwrap();
/// let coloring = outcome.coloring().expect("no K7 in a planar graph");
/// assert!(graphs::is_proper(&g, &coloring.colors));
/// ```
pub fn list_color_sparse(
    g: &Graph,
    lists: &ListAssignment,
    d: usize,
    config: SparseColoringConfig,
) -> Result<Outcome, ColoringError> {
    if d < 3 {
        return Err(ColoringError::DegreeBoundTooSmall { d });
    }
    assert_eq!(lists.n(), g.n(), "one list per vertex");
    if let Some(vertex) = g.vertices().find(|&v| lists.list(v).len() < d) {
        let size = lists.list(vertex).len();
        return Err(ColoringError::ListTooSmall { vertex, size });
    }
    if config.verify_mad && !graphs::mad_at_most(g, d as f64) {
        return Err(ColoringError::MadExceedsBound {
            mad: graphs::mad(g),
        });
    }

    // Stuck levels look for the (d+1)-clique the paper promises.
    peel_and_extend(
        g,
        lists,
        config.radius,
        Substrate::new(config.engine_shards, config.engine, g.n()),
        |substrate, alive, radius, ledger| substrate.classify(g, alive, d, radius, ledger),
        |substrate, alive, ledger| substrate.detect_clique(g, alive, d, ledger),
    )
}

fn initial_radius(policy: RadiusPolicy, n: usize) -> usize {
    match policy {
        RadiusPolicy::Paper => paper_radius(n),
        RadiusPolicy::Fixed(r) => r.max(1),
        RadiusPolicy::Adaptive { initial } => initial.max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    fn assert_valid(g: &Graph, lists: &ListAssignment, d: usize) -> SparseColoring {
        let outcome =
            list_color_sparse(g, lists, d, SparseColoringConfig::default()).expect("runs");
        let col = outcome.coloring().expect("colorable workload").clone();
        assert!(graphs::is_proper(g, &col.colors), "improper coloring");
        for v in g.vertices() {
            assert!(
                lists.list(v).contains(&col.colors[v]),
                "vertex {v} off-list"
            );
        }
        col
    }

    #[test]
    fn colors_tree_with_3_lists() {
        let g = gen::random_tree(120, 7);
        assert_valid(&g, &ListAssignment::uniform(120, 3), 3);
    }

    #[test]
    fn colors_grid_with_4_lists() {
        let g = gen::grid(10, 10);
        assert_valid(&g, &ListAssignment::uniform(100, 4), 4);
    }

    #[test]
    fn colors_triangulation_with_6_lists() {
        let g = gen::apollonian(80, 5);
        assert_valid(&g, &ListAssignment::uniform(80, 6), 6);
    }

    #[test]
    fn colors_with_adversarial_lists() {
        let g = gen::triangular(7, 7);
        let lists = ListAssignment::random(g.n(), 6, 13, 3);
        assert_valid(&g, &lists, 6);
    }

    #[test]
    fn colors_forest_union_with_2a_lists() {
        for a in [2usize, 3] {
            let g = gen::forest_union(100, a, 21 + a as u64);
            assert_valid(&g, &ListAssignment::uniform(100, 2 * a), 2 * a);
        }
    }

    #[test]
    fn finds_clique_when_k_d_plus_1_blocks() {
        // K5 alone with d = 4: mad = 4 = d but the clique prevents coloring…
        // Theorem says: either color or find K5. With 4-lists identical the
        // only outcome is the clique.
        let g = gen::complete(5);
        let lists = ListAssignment::uniform(5, 4);
        match list_color_sparse(&g, &lists, 4, SparseColoringConfig::default()).unwrap() {
            Outcome::CliqueFound { vertices, .. } => assert_eq!(vertices, vec![0, 1, 2, 3, 4]),
            Outcome::Colored(_) => panic!("K5 is not 4-colorable"),
        }
    }

    #[test]
    fn rejects_small_d() {
        let g = gen::path(5);
        let lists = ListAssignment::uniform(5, 2);
        assert_eq!(
            list_color_sparse(&g, &lists, 2, SparseColoringConfig::default()).unwrap_err(),
            ColoringError::DegreeBoundTooSmall { d: 2 }
        );
    }

    #[test]
    fn rejects_short_lists() {
        let g = gen::path(5);
        let lists = ListAssignment::new(vec![
            vec![0, 1, 2],
            vec![0, 1],
            vec![0, 1, 2],
            vec![0, 1, 2],
            vec![0, 1, 2],
        ]);
        assert!(matches!(
            list_color_sparse(&g, &lists, 3, SparseColoringConfig::default()),
            Err(ColoringError::ListTooSmall { vertex: 1, size: 2 })
        ));
    }

    #[test]
    fn verify_mad_catches_dense_inputs() {
        let g = gen::complete(8); // mad = 7
        let lists = ListAssignment::uniform(8, 3);
        let config = SparseColoringConfig {
            verify_mad: true,
            ..Default::default()
        };
        assert!(matches!(
            list_color_sparse(&g, &lists, 3, config),
            Err(ColoringError::MadExceedsBound { .. })
        ));
    }

    #[test]
    fn dense_input_without_verification_reports_no_happy_or_clique() {
        // K6 with d = 3: stuck; K4 ⊆ K6 exists, so the clique outcome fires.
        let g = gen::complete(6);
        let lists = ListAssignment::uniform(6, 3);
        match list_color_sparse(&g, &lists, 3, SparseColoringConfig::default()).unwrap() {
            Outcome::CliqueFound { vertices, .. } => assert_eq!(vertices.len(), 4),
            Outcome::Colored(_) => panic!("K6 cannot be 3-colored"),
        }
    }

    #[test]
    fn paper_radius_policy_works_on_small_input() {
        let g = gen::grid(5, 5);
        let lists = ListAssignment::uniform(25, 4);
        let config = SparseColoringConfig {
            radius: RadiusPolicy::Paper,
            ..Default::default()
        };
        let outcome = list_color_sparse(&g, &lists, 4, config).unwrap();
        assert!(graphs::is_proper(&g, &outcome.coloring().unwrap().colors));
    }

    #[test]
    fn fixed_radius_policy() {
        let g = gen::grid(6, 6);
        let lists = ListAssignment::uniform(36, 4);
        let config = SparseColoringConfig {
            radius: RadiusPolicy::Fixed(4),
            ..Default::default()
        };
        let outcome = list_color_sparse(&g, &lists, 4, config).unwrap();
        assert!(graphs::is_proper(&g, &outcome.coloring().unwrap().colors));
    }

    #[test]
    fn stats_track_levels() {
        let g = gen::apollonian(60, 9);
        let col = assert_valid(&g, &ListAssignment::uniform(60, 6), 6);
        assert!(col.stats.levels() >= 1);
        assert_eq!(col.stats.alive_sizes[0], 60);
        let total_happy: usize = col.stats.happy_sizes.iter().sum();
        assert_eq!(total_happy, 60, "levels must partition the vertex set");
        assert!(col.ledger.total() > 0);
    }

    /// The tentpole equivalence: running every level's coloring phase on
    /// masked engine sessions must reproduce the sequential path exactly —
    /// colors, peel statistics, and total ledger charges — on planar and
    /// lattice instances, at several shard counts.
    #[test]
    fn engine_mode_matches_sequential_on_planar_and_lattice_instances() {
        let instances: Vec<(Graph, usize)> = vec![
            (gen::apollonian(70, 4), 6), // planar triangulation, mad < 6
            (gen::grid(9, 9), 4),        // square lattice
            (gen::triangular(6, 6), 6),  // triangular lattice
        ];
        for (g, d) in &instances {
            let lists = ListAssignment::uniform(g.n(), *d);
            let seq = list_color_sparse(g, &lists, *d, SparseColoringConfig::default())
                .expect("sequential path runs");
            let seq = seq.coloring().expect("colorable instance");
            for shards in [1usize, 2, 8] {
                let config = SparseColoringConfig {
                    engine_shards: Some(shards),
                    ..Default::default()
                };
                let eng = list_color_sparse(g, &lists, *d, config).expect("engine path runs");
                let eng = eng.coloring().expect("colorable instance");
                assert_eq!(eng.colors, seq.colors, "n={} shards={shards}", g.n());
                assert_eq!(
                    eng.ledger.total(),
                    seq.ledger.total(),
                    "n={} shards={shards}: ledger totals diverged",
                    g.n()
                );
                for phase in [
                    "rich-poor",
                    "ball-gather",
                    "ruling-set",
                    "ruling-forest-claim",
                    "ruling-forest-prune",
                    "class-sweep",
                    "layered-coloring",
                    "root-ball-recolor",
                ] {
                    assert_eq!(
                        eng.ledger.phase_total(phase),
                        seq.ledger.phase_total(phase),
                        "n={} shards={shards}: phase {phase} diverged",
                        g.n()
                    );
                }
                assert_eq!(eng.stats.alive_sizes, seq.stats.alive_sizes);
                assert_eq!(eng.stats.happy_sizes, seq.stats.happy_sizes);
                assert_eq!(eng.stats.poor_sizes, seq.stats.poor_sizes);
                assert_eq!(eng.stats.radii, seq.stats.radii);
            }
        }
    }

    #[test]
    fn engine_mode_aggregates_session_metrics() {
        // The composite pipeline must surface its internal sessions'
        // traffic: engine-mode runs report real message counts (the
        // ROADMAP's `messages = 0` rows are retired), sequential runs
        // stay empty, and the aggregate is shard-invariant.
        let g = gen::apollonian(60, 9);
        let lists = ListAssignment::uniform(g.n(), 6);
        let seq = list_color_sparse(&g, &lists, 6, SparseColoringConfig::default()).unwrap();
        let seq = seq.coloring().unwrap().clone();
        assert_eq!(seq.engine_metrics.total_messages(), 0);
        assert_eq!(seq.engine_metrics.total_rounds(), 0);
        let mut baseline = None;
        for shards in [1usize, 2] {
            let config = SparseColoringConfig {
                engine_shards: Some(shards),
                ..Default::default()
            };
            let eng = list_color_sparse(&g, &lists, 6, config).unwrap();
            let eng = eng.coloring().unwrap().clone();
            let m = &eng.engine_metrics;
            assert!(m.total_messages() > 0, "shards={shards}");
            // Every engine-executed round is visible in the aggregate, and
            // rounds the engine observed are exactly the rounds the ledger
            // charged to message-passing phases.
            assert!(m.total_rounds() > 0, "shards={shards}");
            assert!(m.max_width() >= 1);
            let fingerprint = (m.total_messages(), m.total_rounds(), m.message_counts());
            match &baseline {
                None => baseline = Some(fingerprint),
                Some(base) => assert_eq!(&fingerprint, base, "shard-invariant aggregate"),
            }
        }
    }

    #[test]
    fn cole_vishkin_sessions_step_only_forest_members() {
        // Each per-level forest spans only part of the residual graph, and
        // its Cole–Vishkin session steps only that forest's members. The
        // node-steps of every "cole-vishkin" and "shift-down" round are
        // shard-invariant and stay at the member-only count (53,919); when
        // each session stepped all 2000 vertices they summed to 258,000.
        const STEPPED_BOUND: usize = 53_919;
        let g = gen::apollonian(2000, 3);
        let lists = ListAssignment::random(g.n(), 6, 12, 3);
        let mut counts = Vec::new();
        for shards in [1usize, 2] {
            let config = SparseColoringConfig {
                engine_shards: Some(shards),
                ..Default::default()
            };
            let outcome = list_color_sparse(&g, &lists, 6, config).unwrap();
            let m = &outcome
                .coloring()
                .expect("colorable workload")
                .engine_metrics;
            let stepped: usize = m
                .per_round()
                .iter()
                .filter(|r| matches!(&*r.phase, "cole-vishkin" | "shift-down"))
                .map(|r| r.stepped)
                .sum();
            counts.push(stepped);
        }
        assert_eq!(counts[0], counts[1], "shard-invariant node-steps");
        assert!(counts[0] > 0, "the Cole–Vishkin passes ran on the engine");
        assert!(
            counts[0] <= STEPPED_BOUND,
            "Cole–Vishkin node-steps {} exceed {STEPPED_BOUND}",
            counts[0]
        );
    }

    #[test]
    fn engine_mode_boots_a_pinned_number_of_sessions() {
        // Every engine session records one init exchange, so the aggregate's
        // init entries count the sessions one run boots. The count is a
        // pure function of the input and shard-invariant, and so are the
        // node-steps and driver-run epochs summed over the executed rounds:
        // a change to frontier gating or to the driver-epoch rule moves
        // them.
        const SESSIONS: usize = 36;
        const NODE_STEPS: usize = 163_793;
        const DRIVER_EPOCHS: usize = 2_519;
        let g = gen::apollonian(2000, 3);
        let lists = ListAssignment::random(g.n(), 6, 12, 3);
        for shards in [1usize, 2] {
            let config = SparseColoringConfig {
                engine_shards: Some(shards),
                ..Default::default()
            };
            let outcome = list_color_sparse(&g, &lists, 6, config).unwrap();
            let m = &outcome
                .coloring()
                .expect("colorable workload")
                .engine_metrics;
            assert_eq!(m.inits().len(), SESSIONS, "shards={shards}");
            assert!(m.inits().iter().all(|r| r.round == 0));
            let steps: usize = m.per_round().iter().map(|r| r.stepped).sum();
            assert_eq!(steps, NODE_STEPS, "shards={shards}");
            assert_eq!(m.total_driver_epochs(), DRIVER_EPOCHS, "shards={shards}");
        }
    }

    #[test]
    fn split_mode_pipeline_is_bit_identical_to_unlimited() {
        // The acceptance contract: under CongestMode::Split the full
        // pipeline's colors and peel statistics match the unlimited-width
        // engine run exactly; only the round/fragment accounting may grow,
        // and the surplus is isolated under the SPLIT_PHASE ledger entry.
        let g = gen::apollonian(60, 9);
        let lists = ListAssignment::uniform(g.n(), 6);
        let unlimited = {
            let config = SparseColoringConfig {
                engine_shards: Some(2),
                ..Default::default()
            };
            list_color_sparse(&g, &lists, 6, config)
                .unwrap()
                .coloring()
                .unwrap()
                .clone()
        };
        let mut accounting = None;
        for shards in [1usize, 2, 8] {
            let config = SparseColoringConfig {
                engine_shards: Some(shards),
                engine: EngineConfig::default().congest_split(4),
                ..Default::default()
            };
            let split = list_color_sparse(&g, &lists, 6, config).unwrap();
            let split = split.coloring().unwrap().clone();
            assert_eq!(split.colors, unlimited.colors, "shards={shards}");
            assert_eq!(split.stats.alive_sizes, unlimited.stats.alive_sizes);
            assert_eq!(split.stats.happy_sizes, unlimited.stats.happy_sizes);
            assert_eq!(split.stats.poor_sizes, unlimited.stats.poor_sizes);
            assert_eq!(split.stats.radii, unlimited.stats.radii);
            let surplus = split.ledger.phase_total(engine::SPLIT_PHASE);
            assert!(surplus > 0, "wide gathers must fragment at width 4");
            assert_eq!(
                split.ledger.total() - surplus,
                unlimited.ledger.total(),
                "shards={shards}: split ledgers reconcile against unlimited"
            );
            assert!(split.engine_metrics.total_fragments() > 0);
            assert_eq!(
                split.engine_metrics.total_physical_rounds(),
                split.engine_metrics.total_rounds() + surplus,
                "observed physical surplus equals the charged surplus"
            );
            let fingerprint = (
                surplus,
                split.engine_metrics.total_fragments(),
                split.engine_metrics.total_physical_rounds(),
            );
            match &accounting {
                None => accounting = Some(fingerprint),
                Some(base) => assert_eq!(
                    &fingerprint, base,
                    "shards={shards}: split accounting must be shard-invariant"
                ),
            }
        }
    }

    #[test]
    fn engine_mode_handles_adversarial_lists() {
        let g = gen::triangular(7, 7);
        let lists = ListAssignment::random(g.n(), 6, 13, 3);
        let config = SparseColoringConfig {
            engine_shards: Some(2),
            ..Default::default()
        };
        let outcome = list_color_sparse(&g, &lists, 6, config).unwrap();
        let col = outcome.coloring().expect("colorable workload");
        assert!(graphs::is_proper(&g, &col.colors));
        for v in g.vertices() {
            assert!(
                lists.list(v).contains(&col.colors[v]),
                "vertex {v} off-list"
            );
        }
    }

    #[test]
    fn engine_mode_finds_the_same_clique() {
        // The stuck path — §3's two-round clique detection — must execute
        // on the engine too, and agree with the sequential scan.
        let g = gen::complete(5).disjoint_union(&gen::grid(4, 4));
        let lists = ListAssignment::uniform(g.n(), 4);
        let seq = match list_color_sparse(&g, &lists, 4, SparseColoringConfig::default()).unwrap() {
            Outcome::CliqueFound { vertices, ledger } => (vertices, ledger.total()),
            Outcome::Colored(_) => panic!("K5 cannot be 4-colored"),
        };
        for shards in [1usize, 2, 8] {
            let config = SparseColoringConfig {
                engine_shards: Some(shards),
                ..Default::default()
            };
            match list_color_sparse(&g, &lists, 4, config).unwrap() {
                Outcome::CliqueFound { vertices, ledger } => {
                    assert_eq!(vertices, seq.0, "shards={shards}");
                    assert_eq!(ledger.total(), seq.1, "shards={shards}");
                }
                Outcome::Colored(_) => panic!("K5 cannot be 4-colored"),
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(0);
        let lists = ListAssignment::uniform(0, 3);
        let outcome = list_color_sparse(&g, &lists, 3, SparseColoringConfig::default()).unwrap();
        assert!(outcome.coloring().unwrap().colors.is_empty());
    }

    #[test]
    fn disconnected_components() {
        let g = gen::cycle(5).disjoint_union(&gen::grid(4, 4));
        let lists = ListAssignment::uniform(g.n(), 4);
        assert_valid(&g, &lists, 4);
    }

    #[test]
    fn d_larger_than_needed_also_works() {
        let g = gen::cycle(7);
        assert_valid(&g, &ListAssignment::uniform(7, 5), 5);
    }
}
