//! The suite schema: scenarios and invariants declared as data.
//!
//! A *suite* file is one JSON object:
//!
//! ```json
//! {
//!   "name": "smoke",
//!   "description": "what this suite demonstrates",
//!   "scenarios": [
//!     {
//!       "name": "loss-curve",
//!       "family": "random-4-regular",
//!       "n": [300],
//!       "seed": [7, 8],
//!       "algorithm": "randomized",
//!       "shards": [0, 1, 2],
//!       "congest": ["unlimited", "split:4"],
//!       "faults": ["none", {"lose": {"seed": 3, "p": 0.05}}],
//!       "reps": 2,
//!       "params": {"list_slack": 2}
//!     }
//!   ],
//!   "checks": [
//!     {"kind": "determinism"},
//!     {"kind": "split-reconciliation"},
//!     {"kind": "valid-outputs"},
//!     {"kind": "budget", "metric": "route-frac", "max": 0.9}
//!   ]
//! }
//! ```
//!
//! Every scenario field that spans a *matrix axis* (`family`, `n`, `seed`,
//! `algorithm`, `shards`, `workers`, `congest`, `faults`) accepts either a
//! scalar or an array; the trial plan is the cross-product of all axes
//! times `reps` (see [`crate::plan`]). `shards: 0` declares the sequential
//! baseline row. Unknown keys — in the suite, a scenario, or a fault — are
//! errors that name the key, so a typo never silently means the default.
//! Checks are *data about the artifact*: the runner records every trial as
//! a JSON row and [`crate::invariants`] evaluates the declared checks over
//! those rows — the gates are wrappers around this.

use engine::{CongestMode, FaultPlan};
use rand::mix64;

use crate::json::{self, Value};

/// A parsed suite: scenarios plus the invariants declared over their runs.
#[derive(Clone, Debug)]
pub struct Suite {
    /// Suite name (names the run directory).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// The scenario matrix.
    pub scenarios: Vec<Scenario>,
    /// Invariants evaluated over the trial artifact.
    pub checks: Vec<Check>,
}

/// One scenario: a cross-product of axes, executed `reps` times each.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (unique within the suite).
    pub name: String,
    /// Graph-family axis (names from `graphs::gen::registry`).
    pub family: Vec<String>,
    /// Vertex-count axis.
    pub n: Vec<usize>,
    /// Seed axis: seeds both the family generator and the protocol RNG.
    pub seed: Vec<u64>,
    /// Algorithm axis (names from `lab::algorithms`).
    pub algorithm: Vec<String>,
    /// Shard-count axis; `0` is the sequential baseline.
    pub shards: Vec<usize>,
    /// Worker-pool axis (defaults to `[auto]`).
    pub workers: Vec<WorkerSpec>,
    /// CONGEST-mode axis (defaults to `[unlimited]`).
    pub congest: Vec<CongestSpec>,
    /// Fault-plan axis (defaults to `[none]`).
    pub faults: Vec<FaultSpec>,
    /// Repetitions per configuration (wall-clock sampling; outputs replay
    /// bit-identically across reps by the determinism contract).
    pub reps: usize,
    /// Algorithm parameters.
    pub params: Params,
}

/// Worker-pool sizing for one trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerSpec {
    /// Hardware-sized pool (`EngineConfig::workers = 0`).
    Auto,
    /// Exactly this many workers.
    Fixed(usize),
    /// One worker group per shard — the determinism gate's forcing mode.
    MatchShards,
}

impl WorkerSpec {
    /// The `EngineConfig::workers` value for a trial at `shards`.
    pub fn resolve(self, shards: usize) -> usize {
        match self {
            WorkerSpec::Auto => 0,
            WorkerSpec::Fixed(w) => w,
            WorkerSpec::MatchShards => shards,
        }
    }

    /// Stable label for rows and grouping.
    pub fn label(self) -> String {
        match self {
            WorkerSpec::Auto => "auto".into(),
            WorkerSpec::Fixed(w) => format!("{w}"),
            WorkerSpec::MatchShards => "shards".into(),
        }
    }
}

/// CONGEST treatment for one trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CongestSpec {
    /// No bandwidth budget; widths are recorded (`max_width` per row).
    Unlimited,
    /// Fragment over-budget messages, charging physical rounds.
    Split(usize),
}

impl CongestSpec {
    /// The engine mode this spec declares.
    pub fn to_mode(self) -> CongestMode {
        match self {
            CongestSpec::Unlimited => CongestMode::Unlimited,
            CongestSpec::Split(w) => CongestMode::Split(w),
        }
    }

    /// Stable label (`unlimited`, `split:4`) for rows and
    /// grouping — parses back via [`CongestSpec::parse`].
    pub fn label(self) -> String {
        match self {
            CongestSpec::Unlimited => "unlimited".into(),
            CongestSpec::Split(w) => format!("split:{w}"),
        }
    }

    /// Parses a label.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "unlimited" {
            return Ok(CongestSpec::Unlimited);
        }
        if let Some(w) = s.strip_prefix("split:") {
            return w
                .parse::<usize>()
                .ok()
                .filter(|&w| w >= 1)
                .map(CongestSpec::Split)
                .ok_or_else(|| format!("bad split width in congest spec {s:?}"));
        }
        Err(format!(
            "unknown congest spec {s:?} (want unlimited | split:w)"
        ))
    }

    /// The split width, if this is a split mode.
    pub fn split_width(self) -> Option<usize> {
        match self {
            CongestSpec::Split(w) => Some(w),
            _ => None,
        }
    }
}

/// A declarative fault plan: everything [`FaultPlan`] supports, as data,
/// plus the *crash storm* convenience (a seeded batch of crash-stops).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// Seeded per-edge loss `(seed, probability)`.
    pub lose: Option<(u64, f64)>,
    /// Seeded per-edge duplication `(seed, probability)`.
    pub duplicate: Option<(u64, f64)>,
    /// Adversarial inbox reorder seed.
    pub reorder: Option<u64>,
    /// Explicit crash-stops `(vertex, round)`.
    pub crashes: Vec<(usize, u64)>,
    /// A seeded crash storm (vertices drawn at plan time from `n`).
    pub crash_storm: Option<CrashStorm>,
    /// Outbox drops `(vertex, round)`.
    pub drops: Vec<(usize, u64)>,
    /// Outbox delays `(vertex, round, by)`.
    pub delays: Vec<(usize, u64, u64)>,
}

/// A seeded batch of crash-stops: `count` distinct vertices, each crashing
/// at a round in `0..=max_round`, both drawn by hashing the seed — the
/// "crash storm" chaos suite, expressible as one declaration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashStorm {
    /// Storm seed.
    pub seed: u64,
    /// Number of distinct crashed vertices.
    pub count: usize,
    /// Latest possible crash round.
    pub max_round: u64,
}

/// Domain separators for the storm's vertex and round draws.
const STORM_VERTEX_DOMAIN: u64 = 0x7374_6f72_6d2d_7631; // "storm-v1"
const STORM_ROUND_DOMAIN: u64 = 0x7374_6f72_6d2d_7231; // "storm-r1"

impl FaultSpec {
    /// Whether this spec injects nothing.
    pub fn is_none(&self) -> bool {
        *self == FaultSpec::default()
    }

    /// Stable label for rows and grouping (`none`, or `+`-joined parts).
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if let Some((seed, p)) = self.lose {
            parts.push(format!("lose(s{seed},p{p})"));
        }
        if let Some((seed, p)) = self.duplicate {
            parts.push(format!("dup(s{seed},p{p})"));
        }
        if let Some(seed) = self.reorder {
            parts.push(format!("reorder(s{seed})"));
        }
        for &(v, r) in &self.crashes {
            parts.push(format!("crash({v}@{r})"));
        }
        if let Some(s) = self.crash_storm {
            parts.push(format!("storm(s{},c{},r{})", s.seed, s.count, s.max_round));
        }
        for &(v, r) in &self.drops {
            parts.push(format!("drop({v}@{r})"));
        }
        for &(v, r, by) in &self.delays {
            parts.push(format!("delay({v}@{r}+{by})"));
        }
        if parts.is_empty() {
            "none".into()
        } else {
            parts.join("+")
        }
    }

    /// Materializes the [`FaultPlan`] for a graph of `n` vertices. The
    /// storm's vertices and rounds are pure functions of `(seed, n)`, so a
    /// declared storm perturbs every shard/worker configuration of a trial
    /// identically.
    pub fn plan(&self, n: usize) -> FaultPlan {
        let mut plan = FaultPlan::new();
        if let Some((seed, p)) = self.lose {
            plan = plan.lose_edges(seed, p);
        }
        if let Some((seed, p)) = self.duplicate {
            plan = plan.duplicate_edges(seed, p);
        }
        if let Some(seed) = self.reorder {
            plan = plan.reorder(seed);
        }
        for &(v, r) in &self.crashes {
            plan = plan.crash(v, r);
        }
        if let Some(storm) = self.crash_storm {
            if n > 0 {
                let mut seen = std::collections::BTreeSet::new();
                let mut draw = 0u64;
                while seen.len() < storm.count.min(n) {
                    let v =
                        (mix64(mix64(storm.seed, STORM_VERTEX_DOMAIN), draw) % n as u64) as usize;
                    draw += 1;
                    if seen.insert(v) {
                        let round = mix64(mix64(storm.seed, STORM_ROUND_DOMAIN), v as u64)
                            % (storm.max_round + 1);
                        plan = plan.crash(v, round);
                    }
                }
            }
        }
        for &(v, r) in &self.drops {
            plan = plan.drop_outbox(v, r);
        }
        for &(v, r, by) in &self.delays {
            plan = plan.delay_outbox(v, r, by);
        }
        plan
    }
}

/// Algorithm parameters, with per-algorithm defaults.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Params {
    /// Theorem 1.3 target `d` (needs `mad(G) ≤ d` on the declared family).
    pub d: usize,
    /// Gather-ball radius.
    pub radius: usize,
    /// Ruling-forest spacing α.
    pub alpha: usize,
    /// H-partition arboricity bound.
    pub arboricity: usize,
    /// H-partition ε.
    pub epsilon: f64,
    /// Randomized-coloring cycle cap.
    pub max_cycles: u64,
    /// Extra colors beyond `deg+1` in randomized lists (chaos slack).
    pub list_slack: usize,
    /// `Some(m)` masks the run to vertices with `v % m != 0`.
    pub mask_mod: Option<usize>,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            d: 6,
            radius: 3,
            alpha: 6,
            arboricity: 2,
            epsilon: 1.0,
            max_cycles: 10_000,
            list_slack: 0,
            mask_mod: None,
        }
    }
}

/// One declared invariant over the trial artifact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Check {
    /// Trials identical up to shards/workers/rep must agree bit for bit
    /// (output and traffic fingerprints, ledger totals), and engine rows
    /// must replay a sequential baseline row when the group has one.
    Determinism,
    /// Every `split:w` trial must reconcile with its unlimited twin:
    /// identical outputs, `ledger − split-surplus == unlimited ledger`,
    /// `physical == logical + surplus`.
    SplitReconciliation,
    /// Every trial must report a valid output and no panic.
    ValidOutputs,
    /// A ratio budget over best-of-reps measurements.
    Budget {
        /// Which ratio.
        metric: BudgetMetric,
        /// Inclusive upper bound.
        max: f64,
    },
}

/// The ratio a [`Check::Budget`] constrains, evaluated per `(scenario,
/// algorithm)` at the scenario's largest `n` — small sizes are fixed
/// overhead and noise; regressions that matter show at scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetMetric {
    /// `wall(engine/1) / wall(sequential)`.
    EngineRatio,
    /// `wall(engine at max shards) / wall(engine/1)`.
    ShardRatio,
    /// `route / wall` at the largest shard count.
    RouteFrac,
    /// `wall(split) / wall(unlimited twin)`, all split rows.
    SplitRatio,
}

impl BudgetMetric {
    /// Stable label, parses back via [`BudgetMetric::parse`].
    pub fn label(self) -> &'static str {
        match self {
            BudgetMetric::EngineRatio => "engine-ratio",
            BudgetMetric::ShardRatio => "shard-ratio",
            BudgetMetric::RouteFrac => "route-frac",
            BudgetMetric::SplitRatio => "split-ratio",
        }
    }

    /// Parses a label.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "engine-ratio" => Ok(BudgetMetric::EngineRatio),
            "shard-ratio" => Ok(BudgetMetric::ShardRatio),
            "route-frac" => Ok(BudgetMetric::RouteFrac),
            "split-ratio" => Ok(BudgetMetric::SplitRatio),
            other => Err(format!("unknown budget metric {other:?}")),
        }
    }
}

impl Check {
    /// Stable label for reports.
    pub fn label(&self) -> String {
        match self {
            Check::Determinism => "determinism".into(),
            Check::SplitReconciliation => "split-reconciliation".into(),
            Check::ValidOutputs => "valid-outputs".into(),
            Check::Budget { metric, max } => format!("budget:{} ≤ {max}", metric.label()),
        }
    }
}

impl Suite {
    /// Parses a suite document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field on any syntax or
    /// schema error.
    pub fn from_json(input: &str) -> Result<Suite, String> {
        let doc = json::parse(input)?;
        reject_unknown_keys(
            &doc,
            "suite",
            &["name", "description", "scenarios", "checks"],
        )?;
        let name = req_str(&doc, "name")?;
        let description = opt_str(&doc, "description").unwrap_or_default();
        let scenarios = doc
            .get("scenarios")
            .and_then(Value::as_arr)
            .ok_or("suite needs a \"scenarios\" array")?
            .iter()
            .map(parse_scenario)
            .collect::<Result<Vec<_>, _>>()?;
        if scenarios.is_empty() {
            return Err("suite declares no scenarios".into());
        }
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return Err("scenario names must be unique".into());
        }
        let checks = match doc.get("checks") {
            None => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or("\"checks\" must be an array")?
                .iter()
                .map(parse_check)
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(Suite {
            name,
            description,
            scenarios,
            checks,
        })
    }

    /// Loads and parses a suite file.
    ///
    /// # Errors
    ///
    /// IO and parse errors, with the path named.
    pub fn load(path: &str) -> Result<Suite, String> {
        let input =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Suite::from_json(&input).map_err(|e| format!("{path}: {e}"))
    }
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    opt_str(v, key).ok_or_else(|| format!("missing string field {key:?}"))
}

fn opt_str(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(Value::as_str).map(str::to_owned)
}

/// Rejects any key of object `v` outside `known`, naming it.
fn reject_unknown_keys(v: &Value, what: &str, known: &[&str]) -> Result<(), String> {
    match v
        .as_obj()
        .into_iter()
        .flatten()
        .find(|(key, _)| !known.contains(&key.as_str()))
    {
        Some((key, _)) => Err(format!(
            "unknown {what} key {key:?} (known: {})",
            known.join(", ")
        )),
        None => Ok(()),
    }
}

/// An axis: a scalar or an array of scalars, mapped through `f`.
fn axis<T>(
    v: &Value,
    key: &str,
    f: impl Fn(&Value) -> Result<T, String>,
) -> Result<Option<Vec<T>>, String> {
    let Some(raw) = v.get(key) else {
        return Ok(None);
    };
    let items: Vec<&Value> = match raw {
        Value::Arr(items) => items.iter().collect(),
        scalar => vec![scalar],
    };
    if items.is_empty() {
        return Err(format!("axis {key:?} is empty"));
    }
    items
        .into_iter()
        .map(f)
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
        .map_err(|e| format!("axis {key:?}: {e}"))
}

fn parse_scenario(v: &Value) -> Result<Scenario, String> {
    let name = req_str(v, "name")?;
    let err = |e: String| format!("scenario {name:?}: {e}");
    reject_unknown_keys(
        v,
        "scenario",
        &[
            "name",
            "family",
            "n",
            "seed",
            "algorithm",
            "shards",
            "workers",
            "congest",
            "faults",
            "reps",
            "params",
        ],
    )
    .map_err(err)?;
    let usize_item = |item: &Value| {
        item.as_usize()
            .ok_or("expected a non-negative integer".into())
    };
    let u64_item = |item: &Value| {
        item.as_u64()
            .ok_or("expected a non-negative integer".into())
    };
    let str_item = |item: &Value| {
        item.as_str()
            .map(str::to_owned)
            .ok_or("expected a string".into())
    };
    let family = axis(v, "family", str_item)?.ok_or_else(|| err("missing \"family\"".into()))?;
    for f in &family {
        if graphs::gen::family(f).is_none() {
            return Err(err(format!(
                "unknown family {f:?} (known: {})",
                graphs::gen::family_names().join(", ")
            )));
        }
    }
    let scenario = Scenario {
        family,
        n: axis(v, "n", usize_item)?.ok_or_else(|| err("missing \"n\"".into()))?,
        seed: axis(v, "seed", u64_item)?.unwrap_or_else(|| vec![0]),
        algorithm: axis(v, "algorithm", str_item)?
            .ok_or_else(|| err("missing \"algorithm\"".into()))?,
        shards: axis(v, "shards", usize_item)?.unwrap_or_else(|| vec![1]),
        workers: axis(v, "workers", |item| match item {
            Value::Str(s) if s == "auto" => Ok(WorkerSpec::Auto),
            Value::Str(s) if s == "shards" => Ok(WorkerSpec::MatchShards),
            other => other
                .as_usize()
                .map(|w| {
                    if w == 0 {
                        WorkerSpec::Auto
                    } else {
                        WorkerSpec::Fixed(w)
                    }
                })
                .ok_or("expected an integer, \"auto\", or \"shards\"".into()),
        })?
        .unwrap_or_else(|| vec![WorkerSpec::Auto]),
        congest: axis(v, "congest", |item| {
            CongestSpec::parse(item.as_str().ok_or("expected a congest string")?)
        })?
        .unwrap_or_else(|| vec![CongestSpec::Unlimited]),
        faults: axis(v, "faults", parse_fault)?.unwrap_or_else(|| vec![FaultSpec::default()]),
        reps: match v.get("reps") {
            None => 1,
            Some(r) => r
                .as_usize()
                .filter(|&r| r >= 1)
                .ok_or_else(|| err("\"reps\" must be a positive integer".into()))?,
        },
        params: parse_params(v.get("params"))?,
        name,
    };
    Ok(scenario)
}

fn parse_fault(v: &Value) -> Result<FaultSpec, String> {
    match v {
        Value::Str(s) if s == "none" => Ok(FaultSpec::default()),
        Value::Null => Ok(FaultSpec::default()),
        Value::Obj(_) => {
            let seeded_prob = |key: &str| -> Result<Option<(u64, f64)>, String> {
                let Some(spec) = v.get(key) else {
                    return Ok(None);
                };
                let seed = spec
                    .get("seed")
                    .and_then(Value::as_u64)
                    .ok_or(format!("fault {key:?} needs an integer \"seed\""))?;
                let p = spec
                    .get("p")
                    .and_then(Value::as_f64)
                    .filter(|p| *p > 0.0 && *p <= 1.0)
                    .ok_or(format!("fault {key:?} needs \"p\" in (0, 1]"))?;
                Ok(Some((seed, p)))
            };
            let vertex_round = |key: &str| -> Result<Vec<(usize, u64)>, String> {
                let Some(items) = v.get(key) else {
                    return Ok(Vec::new());
                };
                items
                    .as_arr()
                    .ok_or(format!("fault {key:?} must be an array"))?
                    .iter()
                    .map(|e| {
                        let vx = e.get("v").and_then(Value::as_usize);
                        let round = e.get("round").and_then(Value::as_u64);
                        match (vx, round) {
                            (Some(vx), Some(round)) => Ok((vx, round)),
                            _ => Err(format!("fault {key:?} entries need \"v\" and \"round\"")),
                        }
                    })
                    .collect()
            };
            let spec = FaultSpec {
                lose: seeded_prob("lose")?,
                duplicate: seeded_prob("duplicate")?,
                reorder: v
                    .get("reorder")
                    .map(|r| {
                        r.as_u64()
                            .ok_or("fault \"reorder\" must be an integer seed")
                    })
                    .transpose()?,
                crashes: vertex_round("crash")?,
                crash_storm: v
                    .get("crash_storm")
                    .map(|s| {
                        let seed = s.get("seed").and_then(Value::as_u64);
                        let count = s.get("count").and_then(Value::as_usize);
                        let max_round = s.get("max_round").and_then(Value::as_u64);
                        match (seed, count, max_round) {
                            (Some(seed), Some(count), Some(max_round)) if count > 0 => {
                                Ok(CrashStorm {
                                    seed,
                                    count,
                                    max_round,
                                })
                            }
                            _ => Err("\"crash_storm\" needs seed, count ≥ 1, max_round"),
                        }
                    })
                    .transpose()?,
                drops: vertex_round("drop")?,
                delays: match v.get("delay") {
                    None => Vec::new(),
                    Some(items) => items
                        .as_arr()
                        .ok_or("fault \"delay\" must be an array")?
                        .iter()
                        .map(|e| {
                            let vx = e.get("v").and_then(Value::as_usize);
                            let round = e.get("round").and_then(Value::as_u64);
                            let by = e.get("by").and_then(Value::as_u64).unwrap_or(1);
                            match (vx, round) {
                                (Some(vx), Some(round)) => Ok((vx, round, by)),
                                _ => Err("fault \"delay\" entries need \"v\" and \"round\""),
                            }
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                },
            };
            // A typo'd fault must not silently mean "none".
            reject_unknown_keys(
                v,
                "fault",
                &[
                    "lose",
                    "duplicate",
                    "reorder",
                    "crash",
                    "crash_storm",
                    "drop",
                    "delay",
                ],
            )?;
            Ok(spec)
        }
        _ => Err("a fault is \"none\" or an object".into()),
    }
}

fn parse_params(v: Option<&Value>) -> Result<Params, String> {
    let mut p = Params::default();
    let Some(v) = v else {
        return Ok(p);
    };
    let obj = v.as_obj().ok_or("\"params\" must be an object")?;
    for (key, val) in obj {
        let want_usize = || {
            val.as_usize()
                .ok_or(format!("param {key:?} must be a non-negative integer"))
        };
        match key.as_str() {
            "d" => p.d = want_usize()?,
            "radius" => p.radius = want_usize()?,
            "alpha" => p.alpha = want_usize()?,
            "arboricity" => p.arboricity = want_usize()?,
            "epsilon" => {
                p.epsilon = val
                    .as_f64()
                    .filter(|e| *e > 0.0)
                    .ok_or("param \"epsilon\" must be positive")?;
            }
            "max_cycles" => {
                p.max_cycles = val
                    .as_u64()
                    .ok_or("param \"max_cycles\" must be an integer")?
            }
            "list_slack" => p.list_slack = want_usize()?,
            "mask_mod" => {
                p.mask_mod = Some(
                    val.as_usize()
                        .filter(|&m| m >= 2)
                        .ok_or("param \"mask_mod\" must be an integer ≥ 2")?,
                );
            }
            other => return Err(format!("unknown param {other:?}")),
        }
    }
    Ok(p)
}

fn parse_check(v: &Value) -> Result<Check, String> {
    let kind = req_str(v, "kind")?;
    match kind.as_str() {
        "determinism" => Ok(Check::Determinism),
        "split-reconciliation" => Ok(Check::SplitReconciliation),
        "valid-outputs" => Ok(Check::ValidOutputs),
        "budget" => {
            let metric = BudgetMetric::parse(&req_str(v, "metric")?)?;
            let max = v
                .get("max")
                .and_then(Value::as_f64)
                .filter(|m| *m > 0.0)
                .ok_or("budget check needs a positive \"max\"")?;
            Ok(Check::Budget { metric, max })
        }
        other => Err(format!(
            "unknown check kind {other:?} (want determinism | split-reconciliation | \
             valid-outputs | budget)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
        "name": "t",
        "scenarios": [
            {"name": "s", "family": "grid", "n": 64, "algorithm": "gather"}
        ]
    }"#;

    #[test]
    fn minimal_suite_fills_defaults() {
        let suite = Suite::from_json(MINIMAL).unwrap();
        assert_eq!(suite.name, "t");
        let s = &suite.scenarios[0];
        assert_eq!(s.family, vec!["grid"]);
        assert_eq!(s.n, vec![64]);
        assert_eq!(s.seed, vec![0]);
        assert_eq!(s.shards, vec![1]);
        assert_eq!(s.workers, vec![WorkerSpec::Auto]);
        assert_eq!(s.congest, vec![CongestSpec::Unlimited]);
        assert_eq!(s.faults, vec![FaultSpec::default()]);
        assert_eq!(s.reps, 1);
        assert!(suite.checks.is_empty());
    }

    #[test]
    fn axes_accept_scalars_and_arrays() {
        let suite = Suite::from_json(
            r#"{"name": "t", "scenarios": [{
                "name": "s", "family": ["grid", "random-4-regular"], "n": [64, 100],
                "seed": 7, "algorithm": "randomized", "shards": [0, 1, 8],
                "workers": ["auto", "shards", 4],
                "congest": ["unlimited", "split:4"],
                "faults": ["none", {"lose": {"seed": 3, "p": 0.1}}],
                "reps": 3
            }]}"#,
        )
        .unwrap();
        let s = &suite.scenarios[0];
        assert_eq!(s.family.len(), 2);
        assert_eq!(s.shards, vec![0, 1, 8]);
        assert_eq!(
            s.workers,
            vec![
                WorkerSpec::Auto,
                WorkerSpec::MatchShards,
                WorkerSpec::Fixed(4)
            ]
        );
        assert_eq!(
            s.congest,
            vec![CongestSpec::Unlimited, CongestSpec::Split(4)]
        );
        assert_eq!(s.faults[1].lose, Some((3, 0.1)));
        assert_eq!(s.reps, 3);
    }

    #[test]
    fn unknown_scenario_and_suite_keys_are_rejected() {
        // Retired keys, typo'd keys, and a stray suite-level key: each is
        // an error naming the key, never a silent default.
        for (key, value) in [
            ("order", "\"locality\""),
            ("shard", "8"),
            ("frontire", "false"),
            ("frontier", "false"),
        ] {
            let bad = MINIMAL.replace(
                "\"algorithm\": \"gather\"",
                &format!("\"algorithm\": \"gather\", \"{key}\": {value}"),
            );
            let err = Suite::from_json(&bad).unwrap_err();
            assert!(
                err.contains(&format!("unknown scenario key \"{key}\"")),
                "{err}"
            );
        }
        let bad = MINIMAL.replace("\"name\": \"t\",", "\"name\": \"t\", \"check\": [],");
        let err = Suite::from_json(&bad).unwrap_err();
        assert!(err.contains("unknown suite key \"check\""), "{err}");
    }

    #[test]
    fn checks_parse_and_label() {
        let suite = Suite::from_json(
            r#"{"name": "t", "scenarios": [
                {"name": "s", "family": "grid", "n": 64, "algorithm": "gather"}
            ], "checks": [
                {"kind": "determinism"},
                {"kind": "split-reconciliation"},
                {"kind": "valid-outputs"},
                {"kind": "budget", "metric": "route-frac", "max": 0.75}
            ]}"#,
        )
        .unwrap();
        assert_eq!(suite.checks.len(), 4);
        assert_eq!(
            suite.checks[3],
            Check::Budget {
                metric: BudgetMetric::RouteFrac,
                max: 0.75
            }
        );
        assert_eq!(suite.checks[3].label(), "budget:route-frac ≤ 0.75");
        for metric in [
            BudgetMetric::EngineRatio,
            BudgetMetric::ShardRatio,
            BudgetMetric::RouteFrac,
            BudgetMetric::SplitRatio,
        ] {
            assert_eq!(BudgetMetric::parse(metric.label()).unwrap(), metric);
        }
        assert!(BudgetMetric::parse("frontier-speedup").is_err());
    }

    #[test]
    fn rejects_unknown_family_fault_and_check() {
        let bad_family = MINIMAL.replace("grid", "no-such");
        assert!(Suite::from_json(&bad_family)
            .unwrap_err()
            .contains("unknown family"));
        let bad_fault = r#"{"name": "t", "scenarios": [{
            "name": "s", "family": "grid", "n": 64, "algorithm": "gather",
            "faults": [{"loose": {"seed": 1, "p": 0.5}}]
        }]}"#;
        assert!(Suite::from_json(bad_fault)
            .unwrap_err()
            .contains("unknown fault key"));
        let bad_check = r#"{"name": "t", "scenarios": [{
            "name": "s", "family": "grid", "n": 64, "algorithm": "gather"
        }], "checks": [{"kind": "vibes"}]}"#;
        assert!(Suite::from_json(bad_check)
            .unwrap_err()
            .contains("unknown check kind"));
        let retired_budget = r#"{"name": "t", "scenarios": [{
            "name": "s", "family": "grid", "n": 64, "algorithm": "gather"
        }], "checks": [{"kind": "budget", "metric": "frontier-ratio", "max": 0.91}]}"#;
        assert!(Suite::from_json(retired_budget)
            .unwrap_err()
            .contains("unknown budget metric"));
    }

    #[test]
    fn duplicate_scenario_names_rejected() {
        let dup = r#"{"name": "t", "scenarios": [
            {"name": "s", "family": "grid", "n": 64, "algorithm": "gather"},
            {"name": "s", "family": "grid", "n": 64, "algorithm": "gather"}
        ]}"#;
        assert!(Suite::from_json(dup).unwrap_err().contains("unique"));
    }

    #[test]
    fn fault_labels_are_stable_and_storms_materialize() {
        let spec = FaultSpec {
            lose: Some((3, 0.05)),
            reorder: Some(11),
            crash_storm: Some(CrashStorm {
                seed: 5,
                count: 4,
                max_round: 8,
            }),
            ..Default::default()
        };
        assert_eq!(spec.label(), "lose(s3,p0.05)+reorder(s11)+storm(s5,c4,r8)");
        let plan = spec.plan(100);
        assert!(!plan.is_empty());
        assert_eq!(plan.len(), 4, "storm schedules exactly `count` crashes");
        // Deterministic across materializations.
        assert_eq!(spec.plan(100).len(), 4);
        assert_eq!(FaultSpec::default().label(), "none");
        assert!(FaultSpec::default().plan(100).is_empty());
    }

    #[test]
    fn congest_specs_round_trip() {
        for spec in [CongestSpec::Unlimited, CongestSpec::Split(8)] {
            assert_eq!(CongestSpec::parse(&spec.label()).unwrap(), spec);
        }
        assert!(CongestSpec::parse("split:0").is_err());
        assert!(CongestSpec::parse("reject:2").is_err());
        assert!(CongestSpec::parse("congested").is_err());
    }
}
