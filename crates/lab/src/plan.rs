//! Deterministic expansion of a suite into a trial plan.
//!
//! The plan is the cross-product of every scenario's axes in declared
//! order — family, n, seed, algorithm, shards, workers, congest, faults,
//! rep — with two pruning rules for the sequential baseline
//! (`shards: 0`): it ignores the worker/congest/fault axes (those knobs
//! are engine machinery), so it is emitted exactly once per (family, n,
//! seed, algorithm, rep) — at the first worker spec, unlimited width, no
//! faults.
//! Trial ids are consecutive positions in this expansion, so the same
//! suite always yields the same plan, row for row.

use rand::mix64;

use crate::algorithms;
use crate::json::Value;
use crate::schema::{CongestSpec, FaultSpec, Params, Suite, WorkerSpec};

/// Domain separator for [`TrialSpec::protocol_seed`].
const PROTOCOL_DOMAIN: u64 = 0x6c61_622d_7072_6f74; // "lab-prot"

/// One fully-resolved trial: everything the runner needs, and nothing it
/// has to invent — replaying a spec is replaying the trial.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialSpec {
    /// Position in the expanded plan (also the row id in `trials.jsonl`).
    pub id: usize,
    /// Owning scenario's name.
    pub scenario: String,
    /// Graph family (a `graphs::gen::registry` name).
    pub family: String,
    /// Requested vertex count (families may normalize it; rows record the
    /// generated `g.n()`).
    pub n: usize,
    /// The declared seed: feeds the family generator directly and the
    /// protocol RNG via [`TrialSpec::protocol_seed`].
    pub seed: u64,
    /// Algorithm (a `lab::algorithms` name).
    pub algorithm: String,
    /// Shard count; `0` is the sequential baseline.
    pub shards: usize,
    /// Worker-pool spec (resolved against `shards` at run time).
    pub workers: WorkerSpec,
    /// CONGEST mode.
    pub congest: CongestSpec,
    /// Declared fault plan.
    pub faults: FaultSpec,
    /// Repetition index, `0..reps`.
    pub rep: usize,
    /// Algorithm parameters.
    pub params: Params,
}

impl TrialSpec {
    /// Whether this is a sequential-baseline trial.
    pub fn is_sequential(&self) -> bool {
        self.shards == 0
    }

    /// The protocol seed: the declared seed pushed through a fixed domain
    /// separator, so "seed 7's graph" and "seed 7's coin flips" are
    /// decorrelated without the suite author managing two numbers.
    pub fn protocol_seed(&self) -> u64 {
        mix64(self.seed, PROTOCOL_DOMAIN)
    }

    /// The *configuration key*: everything that selects what is computed,
    /// excluding the perf-only knobs (shards, workers, rep). Trials
    /// sharing a key must produce bit-identical outputs — the determinism
    /// check groups rows by this.
    pub fn config_key(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}|{}",
            self.scenario,
            self.family,
            self.n,
            self.seed,
            self.algorithm,
            self.congest.label(),
            self.faults.label()
        )
    }

    /// The key of this trial's unlimited-congest twin: same configuration,
    /// width cap removed. Split-reconciliation pairs rows through this.
    pub fn unlimited_key(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}|{}",
            self.scenario,
            self.family,
            self.n,
            self.seed,
            self.algorithm,
            CongestSpec::Unlimited.label(),
            self.faults.label()
        )
    }

    /// The plan row as JSON (sorted keys).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("algorithm".into(), Value::str(&self.algorithm)),
            ("congest".into(), Value::str(self.congest.label())),
            ("family".into(), Value::str(&self.family)),
            ("faults".into(), Value::str(self.faults.label())),
            ("id".into(), Value::int(self.id as u64)),
            ("n".into(), Value::int(self.n as u64)),
            ("rep".into(), Value::int(self.rep as u64)),
            ("scenario".into(), Value::str(&self.scenario)),
            ("seed".into(), Value::int(self.seed)),
            ("shards".into(), Value::int(self.shards as u64)),
            ("workers".into(), Value::str(self.workers.label())),
        ])
    }
}

/// Expands a suite into its deterministic trial plan.
///
/// # Errors
///
/// Rejects unknown algorithm names and scenarios whose pruning rules leave
/// nothing to run.
pub fn expand(suite: &Suite) -> Result<Vec<TrialSpec>, String> {
    let mut plan = Vec::new();
    for sc in &suite.scenarios {
        for alg in &sc.algorithm {
            if !algorithms::is_known(alg) {
                return Err(format!(
                    "scenario {:?}: unknown algorithm {alg:?} (known: {})",
                    sc.name,
                    algorithms::names().join(", ")
                ));
            }
        }
        let before = plan.len();
        for family in &sc.family {
            for &n in &sc.n {
                for &seed in &sc.seed {
                    for alg in &sc.algorithm {
                        for &shards in &sc.shards {
                            for (wi, &workers) in sc.workers.iter().enumerate() {
                                for &congest in &sc.congest {
                                    for faults in &sc.faults {
                                        // The sequential baseline has no
                                        // workers, no wire, no fault
                                        // surface: emit it once, at the
                                        // axes' first/clean values.
                                        if shards == 0
                                            && (wi != 0
                                                || congest != CongestSpec::Unlimited
                                                || !faults.is_none())
                                        {
                                            continue;
                                        }
                                        for rep in 0..sc.reps {
                                            plan.push(TrialSpec {
                                                id: plan.len(),
                                                scenario: sc.name.clone(),
                                                family: family.clone(),
                                                n,
                                                seed,
                                                algorithm: alg.clone(),
                                                shards,
                                                workers,
                                                congest,
                                                faults: faults.clone(),
                                                rep,
                                                params: sc.params,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if plan.len() == before {
            return Err(format!("scenario {:?} expands to no trials", sc.name));
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite(body: &str) -> Suite {
        Suite::from_json(body).unwrap()
    }

    #[test]
    fn expansion_order_is_declared_axis_order() {
        let s = suite(
            r#"{"name": "t", "scenarios": [{
                "name": "s", "family": "grid", "n": [16, 25], "seed": [1, 2],
                "algorithm": "gather", "shards": [1, 2], "reps": 2
            }]}"#,
        );
        let plan = expand(&s).unwrap();
        assert_eq!(plan.len(), 2 * 2 * 2 * 2);
        assert_eq!(plan[0].n, 16);
        assert_eq!(plan[0].seed, 1);
        assert_eq!(plan[0].shards, 1);
        assert_eq!(plan[0].rep, 0);
        assert_eq!(plan[1].rep, 1, "rep is the innermost axis");
        assert_eq!(plan[2].shards, 2, "shards vary before seeds");
        assert!(plan.iter().enumerate().all(|(i, t)| t.id == i));
        // Same suite, same plan.
        assert_eq!(expand(&s).unwrap(), plan);
    }

    #[test]
    fn sequential_baseline_is_pruned_to_clean_axes() {
        let s = suite(
            r#"{"name": "t", "scenarios": [{
                "name": "s", "family": "grid", "n": 16, "algorithm": "gather",
                "shards": [0, 1], "workers": ["auto", "shards"],
                "congest": ["unlimited", "split:2"],
                "faults": ["none", {"reorder": 3}]
            }]}"#,
        );
        let plan = expand(&s).unwrap();
        let seq: Vec<_> = plan.iter().filter(|t| t.is_sequential()).collect();
        assert_eq!(seq.len(), 1, "one baseline per configuration");
        assert_eq!(seq[0].congest, CongestSpec::Unlimited);
        assert!(seq[0].faults.is_none());
        let engine = plan.iter().filter(|t| !t.is_sequential()).count();
        assert_eq!(engine, 2 * 2 * 2, "engine rows keep the full product");
    }

    #[test]
    fn unknown_algorithm_is_rejected() {
        let s = suite(
            r#"{"name": "t", "scenarios": [{
                "name": "s", "family": "grid", "n": 16, "algorithm": "quantum"
            }]}"#,
        );
        assert!(expand(&s).unwrap_err().contains("unknown algorithm"));
    }

    #[test]
    fn config_keys_group_across_perf_knobs_only() {
        let s = suite(
            r#"{"name": "t", "scenarios": [{
                "name": "s", "family": "grid", "n": 16, "algorithm": "gather",
                "shards": [0, 1, 2], "workers": ["auto", "shards"], "reps": 2
            }]}"#,
        );
        let plan = expand(&s).unwrap();
        let keys: std::collections::BTreeSet<String> =
            plan.iter().map(TrialSpec::config_key).collect();
        assert_eq!(keys.len(), 1, "shards/workers/rep never split a key");
        let split = suite(
            r#"{"name": "t", "scenarios": [{
                "name": "s", "family": "grid", "n": 16, "algorithm": "gather",
                "shards": 1, "congest": ["unlimited", "split:2"]
            }]}"#,
        );
        let plan = expand(&split).unwrap();
        assert_eq!(plan.len(), 2);
        assert_ne!(plan[0].config_key(), plan[1].config_key());
        assert_eq!(plan[1].unlimited_key(), plan[0].config_key());
    }

    #[test]
    fn protocol_seed_departs_from_graph_seed() {
        let s = suite(
            r#"{"name": "t", "scenarios": [{
                "name": "s", "family": "grid", "n": 16, "seed": 7,
                "algorithm": "gather"
            }]}"#,
        );
        let t = &expand(&s).unwrap()[0];
        assert_ne!(t.protocol_seed(), t.seed);
        assert_eq!(t.protocol_seed(), expand(&s).unwrap()[0].protocol_seed());
    }
}
