//! The algorithm registry: every protocol a trial can run, with its
//! sequential and engine backends, output fingerprinting, and validity
//! judgment.
//!
//! Each backend reduces its output to a [`TrialOutput`]: a 64-bit FNV-1a
//! fingerprint of the canonical output (what the determinism and
//! split-reconciliation checks compare), the ledger accounting, the
//! engine's observed [`EngineMetrics`] (engine trials only), and a
//! *validity verdict* — proper coloring, on-list colors, coherent forest —
//! computed unconditionally, because under injected faults "it ran" and
//! "it is right" genuinely diverge and the chaos suites exist to see
//! where.

use std::time::Instant;

use distributed_coloring::{list_color_sparse, ListAssignment, Outcome, SparseColoringConfig};
use engine::{
    engine_cole_vishkin_3color, engine_gather_balls, engine_h_partition,
    engine_randomized_list_coloring, engine_ruling_forest, EngineConfig, EngineMetrics,
    SPLIT_PHASE,
};
use graphs::{bfs_parents, Graph, VertexSet};
use local_model::{
    cole_vishkin_3color, gather_balls, h_partition, randomized_list_coloring, ruling_forest,
    RootedForest, RoundLedger,
};

use crate::plan::TrialSpec;

/// Known algorithm names, sorted.
const NAMES: [&str; 6] = [
    "cole-vishkin",
    "gather",
    "h-partition",
    "randomized",
    "ruling",
    "theorem13",
];

/// All algorithm names, sorted.
pub fn names() -> Vec<&'static str> {
    NAMES.to_vec()
}

/// Whether `name` is a registered algorithm.
pub fn is_known(name: &str) -> bool {
    NAMES.contains(&name)
}

/// The reduced result of one trial's computation.
#[derive(Clone, Debug)]
pub struct TrialOutput {
    /// Wall-clock of the algorithm call alone, milliseconds. Instance
    /// preparation (lists, forests, subsets, masks), validation and
    /// fingerprinting stay outside it: the wall measures the protocol, not
    /// the harness around it.
    pub wall_ms: f64,
    /// FNV-1a fingerprint of the canonical output (colors, layers, balls,
    /// forest, …) — the unit of bit-identity comparisons.
    pub output_hash: u64,
    /// `ledger.total()` after the run: logical LOCAL rounds.
    pub ledger_rounds: u64,
    /// `ledger.phase_total(SPLIT_PHASE)`: the CONGEST fragmentation
    /// surplus (0 outside split mode).
    pub split_surplus: u64,
    /// Whether the output passes the algorithm's validity judgment.
    pub valid: bool,
    /// Why it does not, when `valid` is false.
    pub invalid_reason: Option<String>,
    /// Distinct colors used (coloring algorithms only).
    pub colors_used: Option<usize>,
    /// The engine's observed metrics (`None` for sequential trials).
    pub metrics: Option<EngineMetrics>,
}

/// Runs one trial's computation on an already-generated graph.
///
/// # Panics
///
/// Propagates algorithm panics (exhausted preconditions under faults, an
/// algorithm name plan expansion would reject) — the runner catches them
/// and records the trial as errored.
pub fn run(spec: &TrialSpec, g: &Graph) -> TrialOutput {
    match spec.algorithm.as_str() {
        "randomized" => run_randomized(spec, g),
        "h-partition" => run_h_partition(spec, g),
        "cole-vishkin" => run_cole_vishkin(spec, g),
        "gather" => run_gather(spec, g),
        "ruling" => run_ruling(spec, g),
        "theorem13" => run_theorem13(spec, g),
        other => panic!("unknown algorithm {other:?} (plan expansion admits known names only)"),
    }
}

/// Milliseconds elapsed since `started`.
fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words<I: IntoIterator<Item = u64>>(mut self, it: I) -> Self {
        for w in it {
            self.word(w);
        }
        self
    }

    fn done(self) -> u64 {
        self.0
    }
}

fn hash_usizes(items: &[usize]) -> u64 {
    Fnv::new().words(items.iter().map(|&x| x as u64)).done()
}

/// The mask a trial declares (`params.mask_mod`), if any.
fn mask_of(spec: &TrialSpec, n: usize) -> Option<VertexSet> {
    spec.params
        .mask_mod
        .map(|m| VertexSet::from_iter_with_universe(n, (0..n).filter(|v| v % m != 0)))
}

/// The engine config a non-sequential trial declares.
fn engine_config(spec: &TrialSpec, n: usize) -> EngineConfig {
    EngineConfig {
        congest: spec.congest,
        ..EngineConfig::default()
            .with_shards(spec.shards)
            .with_workers(spec.workers.resolve(spec.shards))
            .with_faults(spec.faults.plan(n))
    }
}

fn in_mask(mask: Option<&VertexSet>, v: usize) -> bool {
    mask.is_none_or(|m| m.contains(v))
}

/// Proper on the masked subgraph: no monochromatic edge with both
/// endpoints in the mask.
fn masked_proper(g: &Graph, mask: Option<&VertexSet>, colors: &[usize]) -> bool {
    g.edges()
        .filter(|&(u, v)| in_mask(mask, u) && in_mask(mask, v))
        .all(|(u, v)| colors[u] != colors[v])
}

fn distinct_colors(g: &Graph, mask: Option<&VertexSet>, colors: &[usize]) -> usize {
    let mut seen: Vec<usize> = g
        .vertices()
        .filter(|&v| in_mask(mask, v))
        .map(|v| colors[v])
        .collect();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

fn run_randomized(spec: &TrialSpec, g: &Graph) -> TrialOutput {
    let mask = mask_of(spec, g.n());
    let mask_ref = mask.as_ref();
    // (deg+1)-lists measured inside the mask, plus the declared slack —
    // the chaos knob: a lost Committed can otherwise let two neighbors
    // land on the same color, and slack shrinks that window.
    let lists: Vec<Vec<usize>> = g
        .vertices()
        .map(|v| {
            let deg = g
                .neighbors(v)
                .iter()
                .filter(|&&w| in_mask(mask_ref, w))
                .count();
            (0..deg + 1 + spec.params.list_slack).collect()
        })
        .collect();
    let mut ledger = RoundLedger::new();
    let seed = spec.protocol_seed();
    let started = Instant::now();
    let (colors, complete, metrics) = if spec.is_sequential() {
        let out = randomized_list_coloring(
            g,
            mask_ref,
            &lists,
            seed,
            spec.params.max_cycles,
            &mut ledger,
        );
        (out.colors, out.complete, None)
    } else {
        let (out, metrics) = engine_randomized_list_coloring(
            g,
            mask_ref,
            &lists,
            seed,
            spec.params.max_cycles,
            engine_config(spec, g.n()),
            &mut ledger,
        );
        (out.colors, out.complete, Some(metrics))
    };
    let wall_ms = ms_since(started);
    let on_list = g
        .vertices()
        .filter(|&v| in_mask(mask_ref, v))
        .all(|v| lists[v].contains(&colors[v]));
    let proper = masked_proper(g, mask_ref, &colors);
    let invalid_reason = match (complete, proper, on_list) {
        (false, _, _) => Some("incomplete: not every vertex committed".into()),
        (_, false, _) => Some("improper: a monochromatic edge survived".into()),
        (_, _, false) => Some("off-list color".into()),
        _ => None,
    };
    TrialOutput {
        wall_ms,
        output_hash: hash_usizes(&colors),
        ledger_rounds: ledger.total(),
        split_surplus: ledger.phase_total(SPLIT_PHASE),
        valid: invalid_reason.is_none(),
        colors_used: Some(distinct_colors(g, mask_ref, &colors)),
        invalid_reason,
        metrics,
    }
}

fn run_h_partition(spec: &TrialSpec, g: &Graph) -> TrialOutput {
    let mask = mask_of(spec, g.n());
    let mask_ref = mask.as_ref();
    let mut ledger = RoundLedger::new();
    let started = Instant::now();
    let (hp, metrics) = if spec.is_sequential() {
        (
            h_partition(
                g,
                mask_ref,
                spec.params.arboricity,
                spec.params.epsilon,
                &mut ledger,
            ),
            None,
        )
    } else {
        let (hp, metrics) = engine_h_partition(
            g,
            mask_ref,
            spec.params.arboricity,
            spec.params.epsilon,
            engine_config(spec, g.n()),
            &mut ledger,
        );
        (hp, Some(metrics))
    };
    let wall_ms = ms_since(started);
    let layered = g
        .vertices()
        .filter(|&v| in_mask(mask_ref, v))
        .all(|v| hp.layer[v] < hp.layers);
    TrialOutput {
        wall_ms,
        output_hash: hash_usizes(&hp.layer),
        ledger_rounds: ledger.total(),
        split_surplus: ledger.phase_total(SPLIT_PHASE),
        valid: layered,
        invalid_reason: (!layered).then(|| "a masked vertex is missing its layer".into()),
        colors_used: None,
        metrics,
    }
}

fn run_cole_vishkin(spec: &TrialSpec, g: &Graph) -> TrialOutput {
    // The forest is BFS from vertex 0 over the whole graph; `mask_mod`
    // does not apply (the forest *is* the instance).
    let forest = RootedForest::new(bfs_parents(g, 0, None));
    let mut ledger = RoundLedger::new();
    let started = Instant::now();
    let (colors, metrics) = if spec.is_sequential() {
        (cole_vishkin_3color(&forest, &mut ledger), None)
    } else {
        let (colors, metrics) =
            engine_cole_vishkin_3color(&forest, engine_config(spec, g.n()), &mut ledger);
        (colors, Some(metrics))
    };
    let wall_ms = ms_since(started);
    let ok = forest.n() == colors.len()
        && (0..forest.n()).filter(|&v| forest.contains(v)).all(|v| {
            let p = forest.parent(v);
            colors[v] < 3 && (p == v || colors[p] != colors[v])
        });
    let members: Vec<usize> = (0..forest.n()).filter(|&v| forest.contains(v)).collect();
    TrialOutput {
        wall_ms,
        output_hash: hash_usizes(&colors),
        ledger_rounds: ledger.total(),
        split_surplus: ledger.phase_total(SPLIT_PHASE),
        valid: ok,
        invalid_reason: (!ok).then(|| "not a proper 3-coloring of the forest".into()),
        colors_used: Some(distinct_colors(
            g,
            Some(&VertexSet::from_iter_with_universe(forest.n(), members)),
            &colors,
        )),
        metrics,
    }
}

fn run_gather(spec: &TrialSpec, g: &Graph) -> TrialOutput {
    let mask = mask_of(spec, g.n());
    let mask_ref = mask.as_ref();
    let centers: Vec<usize> = g.vertices().filter(|&v| in_mask(mask_ref, v)).collect();
    let mut ledger = RoundLedger::new();
    let started = Instant::now();
    let (balls, metrics) = if spec.is_sequential() {
        (
            gather_balls(g, mask_ref, &centers, spec.params.radius, &mut ledger),
            None,
        )
    } else {
        let (balls, metrics) = engine_gather_balls(
            g,
            mask_ref,
            &centers,
            spec.params.radius,
            engine_config(spec, g.n()),
            &mut ledger,
        );
        (balls, Some(metrics))
    };
    let wall_ms = ms_since(started);
    let ok = balls.len() == centers.len() && balls.iter().zip(&centers).all(|(b, c)| b.contains(c));
    let hash = Fnv::new()
        .words(balls.iter().flat_map(|b| {
            // Length-prefix each ball so [a,b][c] and [a][b,c] differ.
            std::iter::once(b.len() as u64).chain(b.iter().map(|&v| v as u64))
        }))
        .done();
    TrialOutput {
        wall_ms,
        output_hash: hash,
        ledger_rounds: ledger.total(),
        split_surplus: ledger.phase_total(SPLIT_PHASE),
        valid: ok,
        invalid_reason: (!ok).then(|| "a center is missing from its own ball".into()),
        colors_used: None,
        metrics,
    }
}

fn run_ruling(spec: &TrialSpec, g: &Graph) -> TrialOutput {
    let mask = mask_of(spec, g.n());
    let mask_ref = mask.as_ref();
    let subset: Vec<usize> = g
        .vertices()
        .filter(|&v| in_mask(mask_ref, v))
        .step_by(2)
        .collect();
    let mut ledger = RoundLedger::new();
    let started = Instant::now();
    let (rf, metrics) = if spec.is_sequential() {
        (
            ruling_forest(g, mask_ref, &subset, spec.params.alpha, &mut ledger),
            None,
        )
    } else {
        let (rf, metrics) = engine_ruling_forest(
            g,
            mask_ref,
            &subset,
            spec.params.alpha,
            engine_config(spec, g.n()),
            &mut ledger,
        );
        (rf, Some(metrics))
    };
    let wall_ms = ms_since(started);
    // Structural coherence: roots are their own parents at depth 0, every
    // subset vertex belongs to a tree, and every member's recorded root is
    // an actual root.
    let coherent = rf
        .roots
        .iter()
        .all(|&r| rf.parent[r] == r && rf.depth[r] == 0)
        && subset.iter().all(|&v| rf.root_of[v] != usize::MAX)
        && rf
            .root_of
            .iter()
            .filter(|&&r| r != usize::MAX)
            .all(|&r| rf.roots.binary_search(&r).is_ok());
    let hash = Fnv::new()
        .words(rf.roots.iter().map(|&r| r as u64))
        .words(rf.parent.iter().map(|&p| p as u64))
        .words(rf.depth.iter().map(|&d| d as u64))
        .done();
    TrialOutput {
        wall_ms,
        output_hash: hash,
        ledger_rounds: ledger.total(),
        split_surplus: ledger.phase_total(SPLIT_PHASE),
        valid: coherent,
        invalid_reason: (!coherent).then(|| "incoherent ruling forest".into()),
        colors_used: None,
        metrics,
    }
}

fn run_theorem13(spec: &TrialSpec, g: &Graph) -> TrialOutput {
    // The pipeline manages its own residual masks; `mask_mod` does not
    // apply. Sequential trials run the simulation; engine trials put every
    // phase on masked sessions cloned from the trial's engine config, so its
    // workers, congest mode and fault plan reach each internal session.
    let d = spec.params.d;
    let lists = ListAssignment::uniform(g.n(), d);
    let config = SparseColoringConfig {
        engine_shards: (!spec.is_sequential()).then_some(spec.shards),
        engine: engine_config(spec, g.n()),
        ..Default::default()
    };
    let started = Instant::now();
    let outcome = list_color_sparse(g, &lists, d, config);
    let wall_ms = ms_since(started);
    match outcome {
        Ok(Outcome::Colored(col)) => {
            let proper = graphs::is_proper(g, &col.colors);
            let on_list = g.vertices().all(|v| lists.list(v).contains(&col.colors[v]));
            let invalid_reason = match (proper, on_list) {
                (false, _) => Some("improper coloring".into()),
                (_, false) => Some("off-list color".into()),
                _ => None,
            };
            TrialOutput {
                wall_ms,
                output_hash: hash_usizes(&col.colors),
                ledger_rounds: col.ledger.total(),
                split_surplus: col.ledger.phase_total(SPLIT_PHASE),
                valid: invalid_reason.is_none(),
                colors_used: Some(distinct_colors(g, None, &col.colors)),
                invalid_reason,
                metrics: (!spec.is_sequential()).then(|| col.engine_metrics.clone()),
            }
        }
        Ok(Outcome::CliqueFound { vertices, ledger }) => {
            let is_clique = vertices.len() == d + 1
                && vertices.iter().enumerate().all(|(i, &u)| {
                    vertices[i + 1..]
                        .iter()
                        .all(|&v| g.neighbors(u).contains(&v))
                });
            TrialOutput {
                wall_ms,
                output_hash: Fnv::new()
                    .words(std::iter::once(u64::MAX))
                    .words(vertices.iter().map(|&v| v as u64))
                    .done(),
                ledger_rounds: ledger.total(),
                split_surplus: ledger.phase_total(SPLIT_PHASE),
                valid: is_clique,
                invalid_reason: (!is_clique).then(|| "claimed clique is not a (d+1)-clique".into()),
                colors_used: None,
                metrics: None,
            }
        }
        Err(e) => TrialOutput {
            wall_ms,
            output_hash: 0,
            ledger_rounds: 0,
            split_surplus: 0,
            valid: false,
            invalid_reason: Some(format!("pipeline error: {e}")),
            colors_used: None,
            metrics: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{FaultSpec, Params, WorkerSpec};
    use engine::CongestMode;

    fn spec(algorithm: &str, shards: usize) -> TrialSpec {
        TrialSpec {
            id: 0,
            scenario: "t".into(),
            family: "grid".into(),
            n: 36,
            seed: 7,
            algorithm: algorithm.into(),
            shards,
            workers: WorkerSpec::MatchShards,
            congest: CongestMode::Unlimited,
            faults: FaultSpec::default(),
            rep: 0,
            params: Params::default(),
        }
    }

    #[test]
    fn names_are_sorted_and_known() {
        let names = names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert!(is_known("randomized"));
        assert!(!is_known("quantum"));
    }

    #[test]
    fn every_algorithm_replays_sequentially_and_on_the_engine() {
        for alg in names() {
            let g = match alg {
                "randomized" => graphs::gen::random_regular(40, 4, 7),
                "theorem13" => graphs::gen::apollonian(40, 7),
                "h-partition" => graphs::gen::forest_union(40, 2, 7),
                _ => graphs::gen::grid(6, 6),
            };
            let seq = run(&spec(alg, 0), &g);
            assert!(
                seq.valid,
                "{alg}: sequential run invalid: {:?}",
                seq.invalid_reason
            );
            assert!(seq.metrics.is_none());
            let one = run(&spec(alg, 1), &g);
            let two = run(&spec(alg, 2), &g);
            assert!(
                one.valid,
                "{alg}: engine run invalid: {:?}",
                one.invalid_reason
            );
            assert_eq!(
                one.output_hash, seq.output_hash,
                "{alg}: engine must replay"
            );
            assert_eq!(one.output_hash, two.output_hash, "{alg}: shard-invariant");
            assert_eq!(
                one.ledger_rounds, seq.ledger_rounds,
                "{alg}: ledger-identical"
            );
            assert!(one.metrics.is_some());
        }
    }

    #[test]
    fn split_mode_reconciles_on_gather() {
        let g = graphs::gen::grid(6, 6);
        let unlimited = run(&spec("gather", 1), &g);
        let mut split_spec = spec("gather", 1);
        split_spec.congest = CongestMode::Split(2);
        let split = run(&split_spec, &g);
        assert_eq!(split.output_hash, unlimited.output_hash);
        assert!(split.split_surplus > 0, "radius-3 floods exceed 2 words");
        assert_eq!(
            split.ledger_rounds - split.split_surplus,
            unlimited.ledger_rounds
        );
    }

    #[test]
    fn masked_trials_run_and_validate() {
        let g = graphs::gen::grid(6, 6);
        for alg in ["randomized", "h-partition", "gather", "ruling"] {
            let mut s = spec(alg, 2);
            s.params.mask_mod = Some(5);
            let out = run(&s, &g);
            assert!(out.valid, "{alg} masked: {:?}", out.invalid_reason);
            let mut seq = s.clone();
            seq.shards = 0;
            assert_eq!(
                run(&seq, &g).output_hash,
                out.output_hash,
                "{alg} masked replay"
            );
        }
    }

    #[test]
    fn faulted_randomized_is_judged_not_trusted() {
        // Heavy loss on a dense-ish instance: the run must *terminate* and
        // the verdict must come from the propriety check, whatever it is.
        let g = graphs::gen::random_regular(30, 4, 3);
        let mut s = spec("randomized", 1);
        s.faults = FaultSpec {
            lose: Some((1, 0.5)),
            ..Default::default()
        };
        let out = run(&s, &g);
        assert_eq!(out.valid, out.invalid_reason.is_none());
    }
}
