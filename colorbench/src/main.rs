//! colorbench — one benchmark for the coloring stack, end to end and per
//! layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path colorbench/Cargo.toml -- \
//!     --workload <planar6|ruling-grid|hpart-million> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run of the benchmark:
//!
//! 1. builds the workload's inputs from `--seed` several times (at least
//!    [`MIN_SETUP_REPS`], more while they take under [`SETUP_BUDGET`]) and
//!    reports the median as `setup_s`; the inputs of every rep must agree;
//! 2. computes the sequential simulator's answer once — the reference every
//!    engine run must reproduce bit for bit;
//! 3. runs the engine once, untimed, so caches, the allocator and lazy
//!    set-up are warm;
//! 4. repeats the engine run in a closed loop (one caller, the next run
//!    starts when the previous one returns) for `--seconds` seconds. Every
//!    repetition is checked: its output must pass the algorithm's own
//!    validity test and equal the reference.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones (`run_ms`, `peak_rss_mib`, `setup_s`);
//! with `--trace 1` they are the per-layer ones, split from the engine's own
//! per-round metrics and from spans this file records around each call,
//! and the span log is written to
//! `<cargo target dir>/colorbench-trace-<workload>-<seed>.json`.
//! A human-readable summary, with the sample count and the tail, goes to
//! standard error.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use distributed_coloring::{list_color_sparse, ListAssignment, Outcome, SparseColoringConfig};
use engine::{engine_h_partition, engine_ruling_forest, EngineConfig, EngineMetrics};
use graphs::{gen, Graph, VertexId};
use local_model::{h_partition, ruling_forest, HPartition, RoundLedger, RulingForest};

/// Set-up reps per run: at least [`MIN_SETUP_REPS`], then more until
/// [`SETUP_BUDGET`] is spent or [`MAX_SETUP_REPS`] is reached, so that
/// millisecond set-ups get a steady median too. `setup_s` is their median.
const MIN_SETUP_REPS: usize = 5;
const MAX_SETUP_REPS: usize = 101;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// planar6: random Apollonian triangulations (planar, so mad < 6) with
/// random 6-lists drawn from 12 colors, colored by the Theorem 1.3
/// pipeline with every phase on 2-shard engine sessions.
const PLANAR6_N: usize = 10_000;
const PLANAR6_D: usize = 6;
const PLANAR6_PALETTE: usize = 12;
const PLANAR6_SHARDS: usize = 2;

/// ruling-grid: an α-ruling forest on a square grid for a seeded random
/// half of the vertices — a many-round flood whose frontier decays.
const RULING_SIDE: usize = 200;
const RULING_ALPHA: usize = 6;
const RULING_SHARDS: usize = 4;

/// hpart-million: the Barenboim–Elkin H-partition peel of a
/// million-vertex Apollonian triangulation (3-degenerate, so a = 3).
const HPART_N: usize = 1_000_000;
const HPART_A: usize = 3;
const HPART_EPSILON: f64 = 1.0;
const HPART_SHARDS: usize = 4;

/// Worker threads for the engine primitives (the Theorem 1.3 pipeline
/// resolves its own: one per CPU, capped by its shard count).
const WORKERS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Planar6,
    RulingGrid,
    HpartMillion,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::Planar6,
        Workload::RulingGrid,
        Workload::HpartMillion,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Planar6 => "planar6",
            Workload::RulingGrid => "ruling-grid",
            Workload::HpartMillion => "hpart-million",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The generated inputs of one workload.
enum Input {
    Planar6 { g: Graph, lists: ListAssignment },
    RulingGrid { g: Graph, subset: Vec<VertexId> },
    HpartMillion { g: Graph },
}

/// SplitMix64 step: the benchmark's own seeded stream, so the inputs
/// depend on `--seed` alone.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds the inputs; returns them with the graph-generation time.
fn build_input(workload: Workload, seed: u64) -> (Input, Duration) {
    let t0 = Instant::now();
    match workload {
        Workload::Planar6 => {
            let g = gen::apollonian(PLANAR6_N, seed);
            let gen_time = t0.elapsed();
            let lists = ListAssignment::random(g.n(), PLANAR6_D, PLANAR6_PALETTE, seed);
            (Input::Planar6 { g, lists }, gen_time)
        }
        Workload::RulingGrid => {
            let g = gen::grid(RULING_SIDE, RULING_SIDE);
            let gen_time = t0.elapsed();
            let mut state = seed;
            let subset = g
                .vertices()
                .filter(|_| splitmix(&mut state) & 1 == 0)
                .collect();
            (Input::RulingGrid { g, subset }, gen_time)
        }
        Workload::HpartMillion => {
            let g = gen::apollonian(HPART_N, seed);
            let gen_time = t0.elapsed();
            (Input::HpartMillion { g }, gen_time)
        }
    }
}

/// A fingerprint of the inputs, so set-up reps can be checked to agree.
fn input_hash(input: &Input) -> u64 {
    let g = match input {
        Input::Planar6 { g, .. } | Input::RulingGrid { g, .. } | Input::HpartMillion { g } => g,
    };
    let mut h = Fnv::new().words(g.edges().flat_map(|(u, v)| [u as u64, v as u64]));
    match input {
        Input::Planar6 { lists, .. } => {
            for v in g.vertices() {
                h = h.words(lists.list(v).iter().map(|&c| c as u64));
            }
        }
        Input::RulingGrid { subset, .. } => h = h.words(subset.iter().map(|&v| v as u64)),
        Input::HpartMillion { .. } => {}
    }
    h.done()
}

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn words<I: IntoIterator<Item = u64>>(mut self, it: I) -> Self {
        for w in it {
            for byte in w.to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
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

fn hash_forest(rf: &RulingForest) -> u64 {
    Fnv::new()
        .words(rf.roots.iter().map(|&r| r as u64))
        .words(rf.parent.iter().map(|&p| p as u64))
        .words(rf.depth.iter().map(|&d| d as u64))
        .done()
}

/// The sequential simulator's answer: the output every engine run must
/// reproduce.
fn reference(input: &Input) -> u64 {
    let mut ledger = RoundLedger::new();
    match input {
        Input::Planar6 { g, lists } => {
            match list_color_sparse(g, lists, PLANAR6_D, SparseColoringConfig::default()) {
                Ok(Outcome::Colored(col)) => hash_usizes(&col.colors),
                // Planar graphs have no K7, and the pipeline does not fail
                // on them: either outcome is a bug the runs will report.
                _ => 0,
            }
        }
        Input::RulingGrid { g, subset } => {
            hash_forest(&ruling_forest(g, None, subset, RULING_ALPHA, &mut ledger))
        }
        Input::HpartMillion { g } => {
            hash_usizes(&h_partition(g, None, HPART_A, HPART_EPSILON, &mut ledger).layer)
        }
    }
}

/// What one engine run produced.
struct RunOut {
    hash: u64,
    /// Why the output fails the algorithm's validity test, if it does.
    invalid: Option<String>,
    metrics: EngineMetrics,
    ledger_rounds: u64,
}

fn engine_config(shards: usize) -> EngineConfig {
    EngineConfig::default()
        .with_shards(shards)
        .with_workers(WORKERS)
}

fn run_engine(input: &Input) -> RunOut {
    match input {
        Input::Planar6 { g, lists } => {
            let config = SparseColoringConfig {
                engine_shards: Some(PLANAR6_SHARDS),
                ..Default::default()
            };
            match list_color_sparse(g, lists, PLANAR6_D, config) {
                Ok(Outcome::Colored(col)) => {
                    let invalid = if !graphs::is_proper(g, &col.colors) {
                        Some("improper coloring".into())
                    } else if !g.vertices().all(|v| lists.list(v).contains(&col.colors[v])) {
                        Some("off-list color".into())
                    } else {
                        None
                    };
                    RunOut {
                        hash: hash_usizes(&col.colors),
                        invalid,
                        ledger_rounds: col.ledger.total(),
                        metrics: col.engine_metrics,
                    }
                }
                Ok(Outcome::CliqueFound { .. }) => failed_run("clique claimed in a planar graph"),
                Err(e) => failed_run(&format!("pipeline error: {e}")),
            }
        }
        Input::RulingGrid { g, subset } => {
            let mut ledger = RoundLedger::new();
            let (rf, metrics) = engine_ruling_forest(
                g,
                None,
                subset,
                RULING_ALPHA,
                engine_config(RULING_SHARDS),
                &mut ledger,
            );
            RunOut {
                hash: hash_forest(&rf),
                invalid: check_forest(&rf, subset),
                metrics,
                ledger_rounds: ledger.total(),
            }
        }
        Input::HpartMillion { g } => {
            let mut ledger = RoundLedger::new();
            let (hp, metrics) = engine_h_partition(
                g,
                None,
                HPART_A,
                HPART_EPSILON,
                engine_config(HPART_SHARDS),
                &mut ledger,
            );
            RunOut {
                hash: hash_usizes(&hp.layer),
                invalid: check_h_partition(g, &hp),
                metrics,
                ledger_rounds: ledger.total(),
            }
        }
    }
}

fn failed_run(reason: &str) -> RunOut {
    RunOut {
        hash: 0,
        invalid: Some(reason.into()),
        metrics: EngineMetrics::default(),
        ledger_rounds: 0,
    }
}

/// A coherent ruling forest: roots are their own parents at depth 0, every
/// subset vertex is in a tree, every parent is one level closer to the
/// root, and every recorded root is a root.
fn check_forest(rf: &RulingForest, subset: &[VertexId]) -> Option<String> {
    let roots_ok = rf
        .roots
        .iter()
        .all(|&r| rf.parent[r] == r && rf.depth[r] == 0);
    let covered = subset.iter().all(|&v| rf.root_of[v] != usize::MAX);
    let links_ok = (0..rf.parent.len()).all(|v| {
        let p = rf.parent[v];
        p == usize::MAX
            || p == v
            || (rf.depth[p] + 1 == rf.depth[v] && rf.root_of[p] == rf.root_of[v])
    });
    let rooted = rf
        .root_of
        .iter()
        .filter(|&&r| r != usize::MAX)
        .all(|&r| rf.roots.binary_search(&r).is_ok());
    (!(roots_ok && covered && links_ok && rooted)).then(|| "incoherent ruling forest".into())
}

/// A valid H-partition: every vertex has a layer, and at most `threshold`
/// neighbors in its own or a higher layer.
fn check_h_partition(g: &Graph, hp: &HPartition) -> Option<String> {
    let ok = g.vertices().all(|v| {
        let l = hp.layer[v];
        l < hp.layers
            && g.neighbors(v).iter().filter(|&&w| hp.layer[w] >= l).count() <= hp.threshold
    });
    (!ok).then(|| "not an H-partition".into())
}

/// Reads one `/proc/self/status` field, in KiB.
fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Minor page faults of the whole process so far (`/proc/self/stat`).
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(7)?.parse().ok()
}

/// One span: a named interval, with the span that caused it.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span log, written out when the benchmark ends. Disabled with
/// `--trace 0`, so end-to-end runs record nothing.
struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent,
            start: now,
            end: now,
        });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.origin.elapsed();
        }
    }

    fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{},\"end_us\":{}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Per-run layer figures, taken from the engine's own round metrics.
struct Layers {
    /// Run wall minus the engine's round walls: session set-up (view,
    /// ranks, shard plan, pool spawn, init exchange), output scatter, and
    /// for planar6 the pipeline's own code between sessions.
    session_ms: f64,
    /// Compute epochs: round walls minus routing epochs.
    compute_ms: f64,
    /// Routing epochs.
    route_ms: f64,
    rounds: f64,
    messages: f64,
    active_frac: f64,
    ledger_rounds: f64,
    minor_faults: f64,
}

fn layers_of(wall: Duration, out: &RunOut, faults: u64) -> Layers {
    let m = &out.metrics;
    let rounds_ms = m.total_wall().as_secs_f64() * 1e3;
    let route_ms = m.total_route_wall().as_secs_f64() * 1e3;
    Layers {
        session_ms: wall.as_secs_f64() * 1e3 - rounds_ms,
        compute_ms: rounds_ms - route_ms,
        route_ms,
        rounds: m.total_rounds() as f64,
        messages: m.total_messages() as f64,
        active_frac: m.mean_active_frac(),
        ledger_rounds: out.ledger_rounds as f64,
        minor_faults: faults as f64,
    }
}

/// The median; the mean of the middle two for an even count.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len();
    if k % 2 == 1 {
        v[k / 2]
    } else {
        (v[k / 2 - 1] + v[k / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in (0, 100].
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank - 1]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("colorbench: {e}");
            eprintln!(
                "usage: colorbench --workload <planar6|ruling-grid|hpart-million> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("colorbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the benchmark; returns the result line.
fn bench(args: &Args) -> Result<String, String> {
    let name = args.workload.name();
    let mut tracer = Tracer {
        enabled: args.trace,
        origin: Instant::now(),
        spans: Vec::new(),
    };

    // 1. Set-up, several times; every rep must build the same inputs.
    let setup_span = tracer.open("setup", None);
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut input = None;
    let mut first_hash = None;
    let setup_start = Instant::now();
    while setup_s.len() < MIN_SETUP_REPS
        || (setup_s.len() < MAX_SETUP_REPS && setup_start.elapsed() < SETUP_BUDGET)
    {
        // Drop the previous rep's inputs first, so reps do not stack memory.
        drop(input.take());
        let span = tracer.open("build-input", setup_span);
        let t0 = Instant::now();
        let (built, gen_time) = build_input(args.workload, args.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        gen_ms.push(gen_time.as_secs_f64() * 1e3);
        tracer.close(span);
        let h = input_hash(&built);
        if *first_hash.get_or_insert(h) != h {
            return Err("set-up is not deterministic: reps built different inputs".into());
        }
        input = Some(built);
    }
    tracer.close(setup_span);
    let input = input.expect("at least one set-up rep");

    // 2. The sequential reference.
    let span = tracer.open("reference", None);
    let t0 = Instant::now();
    let expected = reference(&input);
    let reference_ms = t0.elapsed().as_secs_f64() * 1e3;
    tracer.close(span);

    // 3. One untimed warm-up run.
    let span = tracer.open("warmup", None);
    let warm = catch_unwind(AssertUnwindSafe(|| run_engine(&input)));
    tracer.close(span);
    if warm.is_err() {
        return Err("the warm-up run panicked".into());
    }

    // 4. The measured closed loop.
    let measure_span = tracer.open("measure", None);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut walls_ms = Vec::new();
    let mut layers = Vec::new();
    while attempted == 0 || Instant::now() < deadline {
        attempted += 1;
        let run_span = tracer.open("run", measure_span);
        let faults_before = args.trace.then(minor_faults).flatten();
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| run_engine(&input)));
        let wall = t0.elapsed();
        let faults = faults_before
            .and_then(|a| Some(minor_faults()? - a))
            .unwrap_or(0);
        tracer.close(run_span);
        let span = tracer.open("check", run_span);
        let ok = match &out {
            Ok(out) => match &out.invalid {
                Some(why) => {
                    eprintln!("colorbench: run {attempted} invalid: {why}");
                    false
                }
                None if out.hash != expected => {
                    eprintln!("colorbench: run {attempted} differs from the sequential reference");
                    false
                }
                None => true,
            },
            Err(_) => {
                eprintln!("colorbench: run {attempted} panicked");
                false
            }
        };
        tracer.close(span);
        if !ok {
            failed += 1;
            continue;
        }
        let out = out.expect("checked above");
        walls_ms.push(wall.as_secs_f64() * 1e3);
        layers.push(layers_of(wall, &out, faults));
    }
    tracer.close(measure_span);
    if walls_ms.is_empty() {
        return Err(format!("all {attempted} runs failed"));
    }

    let run_ms = median(&walls_ms);
    let peak_rss_mib =
        proc_status_kib("VmHWM:").ok_or("no VmHWM in /proc/self/status")? as f64 / 1024.0;
    let tail = if walls_ms.len() >= 100 {
        format!("p90 {:.3} ms", percentile(&walls_ms, 90.0))
    } else {
        "p90 omitted (<100 samples)".to_string()
    };
    eprintln!(
        "colorbench: {name} seed {}: {} runs ({failed} failed), min {:.3} ms, \
         p25 {:.3} ms, p50 {run_ms:.3} ms, p75 {:.3} ms, {tail}, set-up p50 {:.3} s, \
         reference {reference_ms:.1} ms, peak RSS {peak_rss_mib:.1} MiB",
        args.seed,
        attempted,
        percentile(&walls_ms, 0.0),
        percentile(&walls_ms, 25.0),
        percentile(&walls_ms, 75.0),
        median(&setup_s),
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let col = |f: fn(&Layers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
        vec![
            ("gen_ms", median(&gen_ms), "ms"),
            ("reference_ms", reference_ms, "ms"),
            ("session_ms", col(|l| l.session_ms), "ms"),
            ("compute_ms", col(|l| l.compute_ms), "ms"),
            ("route_ms", col(|l| l.route_ms), "ms"),
            (
                "route_frac",
                col(|l| l.route_ms / (l.route_ms + l.compute_ms)),
                "ratio",
            ),
            (
                "route_ns_per_msg",
                col(|l| l.route_ms * 1e6 / l.messages.max(1.0)),
                "ns",
            ),
            ("rounds", col(|l| l.rounds), "count"),
            ("messages", col(|l| l.messages), "count"),
            ("ledger_rounds", col(|l| l.ledger_rounds), "count"),
            ("active_frac", col(|l| l.active_frac), "ratio"),
            // The mean, not the median: most reps reuse freed pages and a
            // few fault in fresh ones, so the median hides the cost.
            (
                "minor_faults",
                layers.iter().map(|l| l.minor_faults).sum::<f64>() / layers.len() as f64,
                "count",
            ),
        ]
    } else {
        vec![
            ("run_ms", run_ms, "ms"),
            ("peak_rss_mib", peak_rss_mib, "MiB"),
            ("setup_s", median(&setup_s), "s"),
        ]
    };

    if args.trace {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir}: {e}"))?;
        let path = format!("{dir}/colorbench-trace-{name}-{}.json", args.seed);
        std::fs::write(&path, tracer.to_json(name, args.seed))
            .map_err(|e| format!("write {path}: {e}"))?;
    }

    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{",
        failed == 0
    );
    for (i, (key, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {key} is not finite"));
        }
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "\"{key}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    line.push_str("}}");
    Ok(line)
}
