//! The substrate a run executes its communication phases on: the
//! sequential simulations of `local_model`, or masked engine sessions.
//!
//! [`list_color_sparse`](crate::list_color_sparse) builds one [`Substrate`]
//! per run from its configuration, and this module is the one place that
//! picks between the two: each phase that communicates (classification,
//! clique detection, and steps 1, 3 and 4 of Lemma 3.2) hands one generic
//! helper its sequential call and its engine call. Both substrates produce
//! identical outputs and ledger charges; the engine also reports the
//! traffic it routed.

use crate::happy::{classify, degree_threshold, split_by_verdict, Classification};
use engine::{EngineConfig, EngineMetrics, EnginePool};
use graphs::{Graph, VertexId, VertexSet};
use local_model::{RoundLedger, RulingForest};

/// Where a run's communication phases execute.
#[derive(Debug)]
pub enum Substrate {
    /// The sequential simulations of `local_model`.
    Sequential,
    /// Masked engine sessions, each on a clone of `template`, with every
    /// session's observed metrics summed into `metrics`.
    Engine {
        /// The session template every phase clones.
        template: Box<EngineConfig>,
        /// The metrics of every session run so far.
        metrics: EngineMetrics,
    },
}

impl Substrate {
    /// The substrate of a run over `n` vertices: sequential without
    /// `shards`, otherwise engine sessions on `template` with `shards`
    /// shards. Without a template pool, one [`EnginePool`] sized for the
    /// whole graph serves every session of the run, so thread spawns are a
    /// constant per run (level scopes only shrink).
    pub(crate) fn new(shards: Option<usize>, template: EngineConfig, n: usize) -> Self {
        match shards {
            None => Substrate::Sequential,
            Some(shards) => {
                let mut template = template.with_shards(shards);
                if template.pool.is_none() {
                    template.pool = Some(EnginePool::new(template.workers_for(n)));
                }
                Substrate::Engine {
                    template: Box::new(template),
                    metrics: EngineMetrics::default(),
                }
            }
        }
    }

    /// The summed metrics of every engine session run so far; empty for
    /// the sequential substrate, which routes no messages.
    pub(crate) fn into_metrics(self) -> EngineMetrics {
        match self {
            Substrate::Sequential => EngineMetrics::default(),
            Substrate::Engine { metrics, .. } => metrics,
        }
    }

    /// Runs one phase: `sequential` on the sequential substrate, or
    /// `engine` on a clone of the template, absorbing the session's
    /// metrics.
    fn run<T>(
        &mut self,
        ledger: &mut RoundLedger,
        sequential: impl FnOnce(&mut RoundLedger) -> T,
        engine: impl FnOnce(EngineConfig, &mut RoundLedger) -> (T, EngineMetrics),
    ) -> T {
        match self {
            Substrate::Sequential => sequential(ledger),
            Substrate::Engine { template, metrics } => {
                let (out, observed) = engine(EngineConfig::clone(template), ledger);
                metrics.absorb(observed);
                out
            }
        }
    }

    /// §3's classification of `g[alive]` with threshold `d` and ball radius
    /// `radius`. On the engine, the rich/poor exchange and the rich-ball
    /// flood are message rounds, and the node-local verdicts run on the
    /// gathered balls through the same decision loop as [`classify`].
    pub(crate) fn classify(
        &mut self,
        g: &Graph,
        alive: &VertexSet,
        d: usize,
        radius: usize,
        ledger: &mut RoundLedger,
    ) -> Classification {
        self.run(
            ledger,
            |ledger| classify(g, alive, d, radius, ledger),
            |config, ledger| {
                let (rich, mut balls, metrics) =
                    engine::engine_classification_gather(g, alive, d, radius, config, ledger);
                let mut poor = alive.clone();
                poor.difference_with(&rich);
                let (happy, sad) =
                    split_by_verdict(g, alive, degree_threshold(d), &rich, None, |v| {
                        std::mem::take(&mut balls[v])
                    });
                let classification = Classification {
                    rich,
                    poor,
                    happy,
                    sad,
                    radius,
                };
                (classification, metrics)
            },
        )
    }

    /// §3's two-round `(d+1)`-clique detection in `g[alive]`.
    pub(crate) fn detect_clique(
        &mut self,
        g: &Graph,
        alive: &VertexSet,
        d: usize,
        ledger: &mut RoundLedger,
    ) -> Option<Vec<VertexId>> {
        self.run(
            ledger,
            |ledger| local_model::detect_clique(g, Some(alive), d, ledger),
            |config, ledger| engine::engine_detect_clique(g, Some(alive), d, config, ledger),
        )
    }

    /// Lemma 3.2 step 1: the `(α, α·log n)`-ruling forest of `g[mask]` with
    /// respect to `subset`.
    pub(crate) fn ruling_forest(
        &mut self,
        g: &Graph,
        mask: &VertexSet,
        subset: &[VertexId],
        alpha: usize,
        ledger: &mut RoundLedger,
    ) -> RulingForest {
        self.run(
            ledger,
            |ledger| local_model::ruling_forest(g, Some(mask), subset, alpha, ledger),
            |config, ledger| {
                engine::engine_ruling_forest(g, Some(mask), subset, alpha, config, ledger)
            },
        )
    }

    /// Lemma 3.2 step 3: the `(deg+1)`-coloring of `g[scope]`.
    pub(crate) fn degree_plus_one_coloring(
        &mut self,
        g: &Graph,
        scope: &VertexSet,
        ledger: &mut RoundLedger,
    ) -> Vec<usize> {
        self.run(
            ledger,
            |ledger| local_model::degree_plus_one_coloring(g, Some(scope), ledger),
            |config, ledger| {
                engine::engine_degree_plus_one_coloring(g, Some(scope), config, ledger)
            },
        )
    }

    /// Lemma 3.2 step 4: the layered greedy over the forest `scope`, one
    /// (depth, class) slot per round.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn layered_greedy(
        &mut self,
        g: &Graph,
        scope: &VertexSet,
        lists: &[Vec<usize>],
        depth: &[usize],
        classes: &[usize],
        class_count: usize,
        ledger: &mut RoundLedger,
    ) -> Vec<usize> {
        self.run(
            ledger,
            |ledger| {
                local_model::layered_greedy(g, scope, lists, depth, classes, class_count, ledger)
            },
            |config, ledger| {
                engine::engine_layered_greedy(
                    g,
                    scope,
                    lists,
                    depth,
                    classes,
                    class_count,
                    config,
                    ledger,
                )
            },
        )
    }
}
