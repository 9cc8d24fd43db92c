//! Engine-vs-sequential throughput tables + the `BENCH_engine.json` artifact.
//!
//! ```sh
//! cargo run --release -p bench --bin engine_table                    # n ∈ {1k, 10k, 50k}
//! cargo run --release -p bench --bin engine_table -- 5000            # custom n
//! cargo run --release -p bench --bin engine_table -- --reps=5 20000  # best-of-5
//! cargo run --release -p bench --bin engine_table -- --xl            # n ∈ {100k, 1M}
//! cargo run --release -p bench --bin engine_table -- --xxl           # n ∈ {1M, 10M}
//! ```
//!
//! `--xl` is the million-node tier: n ∈ {10⁵, 10⁶} on the two linear-cost
//! showdowns (H-partition and Cole–Vishkin — the workloads whose sequential
//! twins stay O(n · α) at a million vertices), single rep by default (a
//! 10⁶-vertex run is its own noise floor; pass `--reps=N` to override).
//! At the tier's largest n it adds a reduced ruling-forest block — seq,
//! engine/1, engine/8, and an engine/8 `--no-frontier` twin — so the
//! frontier-speedup gate has a decaying-frontier pair to judge. CI's
//! `bench-xl` job runs exactly this tier and feeds the artifact to
//! `bench_gate --min-shard-speedup` / `--min-frontier-speedup`. `--xxl` is
//! the same workload set at n ∈ {10⁶, 10⁷} — the ten-million-vertex point
//! is opt-in (not wired into CI) because a single run is minutes of wall
//! time.
//!
//! The default tier additionally emits **frontier twin rows** for the
//! ruling and theorem13 showdowns at the tier's largest n — the identical
//! configuration rerun under `EngineConfig::with_frontier(false)`, labeled
//! `full-scan` and marked `"frontier": false` in the artifact — plus a
//! **quiescent microbench** (`algorithm = "quiescent"`): a path where only
//! one edge ever carries traffic, so per-round driver cost is pure
//! bookkeeping. Its frontier-on walls should stay flat as n grows 100×
//! while the full-scan baseline row (recorded in the `shards = 0` slot —
//! there is no meaningful sequential twin for a driver microbench) grows
//! linearly.
//!
//! For each workload family (resolved through the [`gen::build_family`]
//! registry, so the bench and the scenario lab measure the same graphs) and
//! algorithm, runs the sequential implementation and the engine at a sweep
//! of shard counts — each configuration `reps` times, keeping the best wall
//! time (the standard noise-rejection move; rounds/messages are identical
//! across reps by the determinism contract, which every rep re-asserts) and
//! the across-reps median (`p50 ms`, the honest figure next to the
//! optimistic best-of). Prints
//! wall-clock/round/message tables (now with per-run routing-phase time —
//! the second barrier phase each worker spends draining and sorting its own
//! inboxes) plus a sequential-vs-sharded **crossover table** (where sharding
//! starts paying for itself, and what fraction of the 8-shard wall time is
//! routing), and writes every
//! measurement to `BENCH_engine.json` (see [`bench::engine_report`]) so
//! future PRs can track the perf trajectory mechanically — CI's
//! `bench_gate` consumes exactly that artifact.

use std::time::Instant;

use bench::{print_table, render_engine_bench_json, EngineBenchRecord};
use distributed_coloring::{
    list_color_sparse, ListAssignment, SparseColoring, SparseColoringConfig,
};
use engine::{
    engine_cole_vishkin_3color, engine_gather_balls, engine_h_partition,
    engine_randomized_list_coloring, engine_ruling_forest, Activation, EngineConfig, EngineMessage,
    EngineMetrics, EngineSession, NodeCtx, NodeProgram, Outbox, Stop, VertexOrder, WireCodec,
    SPLIT_PHASE,
};
use graphs::gen;
use local_model::{
    cole_vishkin_3color, gather_balls, h_partition, randomized_list_coloring, ruling_forest,
    RootedForest, RoundLedger,
};

const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Shard counts at which the CONGEST-split twin rows run.
const SPLIT_SHARDS: [usize; 2] = [1, 8];
/// Word budget of the split rows (`CongestMode::Split(SPLIT_WIDTH)`).
const SPLIT_WIDTH: usize = 4;
const DEFAULT_SIZES: [usize; 3] = [1_000, 10_000, 50_000];
const DEFAULT_REPS: usize = 3;
/// The `--xl` tier: million-node territory, linear-cost showdowns only.
const XL_SIZES: [usize; 2] = [100_000, 1_000_000];
/// The opt-in `--xxl` tier: the ten-million-vertex point.
const XXL_SIZES: [usize; 2] = [1_000_000, 10_000_000];
/// Sizes of the quiescent-round driver microbench (default tier only):
/// flat frontier-on walls across this 100× range are the O(frontier)
/// claim, measured.
const QUIESCENT_SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];
/// Rounds each quiescent run executes (`Stop::Rounds`, no halting).
const QUIESCENT_ROUNDS: u64 = 256;

fn main() {
    let mut sizes: Vec<usize> = Vec::new();
    let mut reps: Option<usize> = None;
    let mut xl = false;
    let mut xxl = false;
    for arg in std::env::args().skip(1) {
        if arg == "--xl" {
            xl = true;
        } else if arg == "--xxl" {
            xl = true;
            xxl = true;
        } else if let Some(r) = arg.strip_prefix("--reps=") {
            let r: usize = r.parse().expect("--reps=N takes an integer");
            assert!(r >= 1, "--reps must be at least 1");
            reps = Some(r);
        } else {
            sizes.push(arg.parse().unwrap_or_else(|_| {
                panic!("arguments are sizes (integers), --reps=N, --xl, or --xxl, got {arg:?}")
            }));
        }
    }
    if sizes.is_empty() {
        sizes = if xxl {
            XXL_SIZES.to_vec()
        } else if xl {
            XL_SIZES.to_vec()
        } else {
            DEFAULT_SIZES.to_vec()
        };
    }
    // A single 10⁶-vertex run dominates its own noise; default xl to one rep.
    let reps = reps.unwrap_or(if xl { 1 } else { DEFAULT_REPS });
    // Frontier twin rows run once per artifact, at the tier's largest n —
    // that is where `bench_gate --min-frontier-speedup` judges each pair.
    let largest = *sizes.iter().max().expect("at least one size");
    let mut records: Vec<EngineBenchRecord> = Vec::new();
    for &n in &sizes {
        let twin = n == largest;
        if xl {
            // Order twins run at every xl/xxl size — the locality-vs-identity
            // comparison is exactly what the million-node tiers exist to
            // measure (the 10⁶/10⁷ L3-crossover rows).
            h_partition_showdown(n, reps, &mut records, true);
            // The streaming-CSR planar tier: apollonian triangulations are
            // 3-degenerate, so the peel runs with a = 3.
            h_partition_family(n, reps, &mut records, "apollonian", 7, 3, true);
            cole_vishkin_showdown(n, reps, &mut records, true);
            if twin {
                // The gate's frontier pair: ruling is the tier's only
                // decaying-frontier workload, so only it gets the reduced
                // seq/engine-1/engine-8/full-scan block at xl sizes.
                ruling_rows(n, reps, &mut records, &[(1, 0), (8, 0)], true);
            }
            continue;
        }
        randomized_showdown(n, reps, &mut records);
        h_partition_showdown(n, reps, &mut records, twin);
        cole_vishkin_showdown(n, reps, &mut records, twin);
        gather_showdown(n, reps, &mut records);
        ruling_rows(n, reps, &mut records, &configurations(), twin);
        theorem13_showdown(n, reps, &mut records, twin);
    }
    if !xl {
        quiescent_showdown(reps, &mut records);
    }
    print_crossover(&records);
    let json = render_engine_bench_json(&records);
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("\nwrote {} records to BENCH_engine.json", records.len());
}

/// The wall-clock summary of one measured configuration across its reps.
#[derive(Clone, Copy)]
struct Timing {
    /// Best-of-reps wall time (the noise-rejection figure).
    best_ms: f64,
    /// Nearest-rank median across all reps.
    p50_ms: f64,
}

/// Runs `f` `reps` times, recording every rep's wall time; returns the
/// output of the best rep plus the best-of/median summary. Correctness
/// checks live inside `f`, so every rep re-asserts them — not just the
/// kept one.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Timing) {
    let mut best: Option<(T, f64)> = None;
    let mut walls = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        walls.push(ms);
        match &best {
            Some((_, b)) if *b <= ms => {}
            _ => best = Some((out, ms)),
        }
    }
    walls.sort_by(f64::total_cmp);
    // Nearest-rank p50: rank ⌈k/2⌉, 1-based (matches the lab's percentile).
    let p50_ms = walls[walls.len().div_ceil(2) - 1];
    let (out, best_ms) = best.expect("reps >= 1");
    (out, Timing { best_ms, p50_ms })
}

/// Builds a registry family, panicking on a name the registry doesn't know
/// (a bench bug, not an input error).
fn build(family: &str, n: usize, seed: u64) -> graphs::Graph {
    gen::build_family(family, n, seed)
        .unwrap_or_else(|| panic!("family {family:?} is not in the gen registry"))
}

/// The table header every showdown prints (matches [`row`]'s cells).
const COLUMNS: [&str; 8] = [
    "run", "rounds", "phys", "messages", "frags", "wall ms", "p50 ms", "route ms",
];

fn row(records: &mut Vec<EngineBenchRecord>, rec: EngineBenchRecord) -> Vec<String> {
    let mut label = match (rec.shards, rec.split, rec.frontier) {
        // The quiescent microbench parks its full-scan engine baseline in
        // the sequential slot; every true sequential row has frontier=true.
        (0, _, false) => "full-scan".into(),
        (0, _, true) => "sequential".into(),
        (s, 0, true) => format!("engine/{s}"),
        (s, 0, false) => format!("engine/{s} full-scan"),
        (s, w, true) => format!("engine/{s} split{w}"),
        (s, w, false) => format!("engine/{s} split{w} full-scan"),
    };
    if rec.locality {
        label.push_str(" local");
    }
    let cells = vec![
        label,
        format!("{}", rec.rounds),
        format!("{}", rec.physical_rounds),
        format!("{}", rec.messages),
        format!("{}", rec.fragments),
        format!("{:.2}", rec.wall_ms),
        format!("{:.2}", rec.p50_ms),
        format!("{:.2}", rec.route_ms),
    ];
    records.push(rec);
    cells
}

/// A sequential-baseline record: `shards = 0`, nothing routed.
fn seq_record(
    family: &str,
    algorithm: &str,
    n: usize,
    rounds: u64,
    timing: Timing,
) -> EngineBenchRecord {
    EngineBenchRecord {
        active_frac: 1.0,
        family: family.into(),
        algorithm: algorithm.into(),
        n,
        shards: 0,
        rounds,
        messages: 0,
        wall_ms: timing.best_ms,
        p50_ms: timing.p50_ms,
        route_ms: 0.0,
        split: 0,
        physical_rounds: rounds,
        fragments: 0,
        frontier: true,
        frontier_skipped: 0,
        locality: false,
        rank_routing: false,
    }
}

/// An engine-run record built from the session's observed metrics.
fn engine_record(
    family: &str,
    algorithm: &str,
    n: usize,
    shards: usize,
    split: usize,
    metrics: &EngineMetrics,
    timing: Timing,
) -> EngineBenchRecord {
    EngineBenchRecord {
        active_frac: metrics.mean_active_frac(),
        family: family.into(),
        algorithm: algorithm.into(),
        n,
        shards,
        rounds: metrics.total_rounds(),
        messages: metrics.total_messages(),
        wall_ms: timing.best_ms,
        p50_ms: timing.p50_ms,
        route_ms: metrics.total_route_wall().as_secs_f64() * 1e3,
        split,
        physical_rounds: metrics.total_physical_rounds(),
        fragments: metrics.total_fragments(),
        frontier: true,
        frontier_skipped: metrics.total_frontier_skipped(),
        locality: false,
        // Every engine row in this artifact version was measured on the
        // sender-rank counting pass; legacy rows parse to `false`.
        rank_routing: true,
    }
}

/// The engine config of one measured configuration (`split = 0` →
/// unlimited width).
fn engine_config(shards: usize, split: usize) -> EngineConfig {
    let config = EngineConfig::default().with_shards(shards);
    if split == 0 {
        config
    } else {
        config.congest_split(split)
    }
}

/// The `(shards, split)` grid every engine workload measures: the unlimited
/// shard sweep plus the CONGEST-split twin rows.
fn configurations() -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = SHARD_SWEEP.iter().map(|&s| (s, 0)).collect();
    out.extend(SPLIT_SHARDS.iter().map(|&s| (s, SPLIT_WIDTH)));
    out
}

fn randomized_showdown(n: usize, reps: usize, records: &mut Vec<EngineBenchRecord>) {
    let family = "random-4-regular";
    let g = build(family, n, 7);
    let lists: Vec<Vec<usize>> = g
        .vertices()
        .map(|v| (0..g.degree(v) + 1).collect())
        .collect();
    let mut rows = Vec::new();
    let ((seq, seq_rounds), wall) = best_of(reps, || {
        let mut ledger = RoundLedger::new();
        let out = randomized_list_coloring(&g, None, &lists, 7, 10_000, &mut ledger);
        assert!(out.complete);
        let total = ledger.total();
        (out, total)
    });
    rows.push(row(
        records,
        seq_record(family, "randomized", g.n(), seq_rounds, wall),
    ));
    for shards in SHARD_SWEEP {
        let ((_out, metrics), wall) = best_of(reps, || {
            let mut ledger = RoundLedger::new();
            let run = engine_randomized_list_coloring(
                &g,
                None,
                &lists,
                7,
                10_000,
                EngineConfig::default().with_shards(shards),
                &mut ledger,
            );
            assert_eq!(
                run.0.colors, seq.colors,
                "engine must replay the sequential run"
            );
            run
        });
        rows.push(row(
            records,
            engine_record(family, "randomized", g.n(), shards, 0, &metrics, wall),
        ));
    }
    print_table(
        &format!("randomized (deg+1)-list coloring, {family}, n = {}", g.n()),
        &COLUMNS,
        &rows,
    );
}

fn h_partition_showdown(n: usize, reps: usize, records: &mut Vec<EngineBenchRecord>, twin: bool) {
    h_partition_family(n, reps, records, "forest-union-a2", 11, 2, twin);
}

/// The H-partition showdown on one registry family: `a` is the arboricity
/// bound fed to the peel (2 for the forest union, 3 for the planar
/// triangulations — apollonian graphs are 3-degenerate), `eps = 1.0`
/// either way. The xl tier runs this on both families, so the gate judges
/// the streaming-CSR generators' graphs, not just the forest union's.
/// With `twin` set, the largest-shard configuration reruns under
/// `VertexOrder::Locality` — the cache-local relabeling's identity-twin
/// pair that `bench_gate --min-order-speedup` judges.
fn h_partition_family(
    n: usize,
    reps: usize,
    records: &mut Vec<EngineBenchRecord>,
    family: &str,
    seed: u64,
    a: usize,
    twin: bool,
) {
    let g = build(family, n, seed);
    let mut rows = Vec::new();
    let ((seq, seq_rounds), wall) = best_of(reps, || {
        let mut ledger = RoundLedger::new();
        let out = h_partition(&g, None, a, 1.0, &mut ledger);
        let total = ledger.total();
        (out, total)
    });
    rows.push(row(
        records,
        seq_record(family, "h-partition", g.n(), seq_rounds, wall),
    ));
    for shards in SHARD_SWEEP {
        let ((_hp, metrics), wall) = best_of(reps, || {
            let mut ledger = RoundLedger::new();
            let run = engine_h_partition(
                &g,
                None,
                a,
                1.0,
                EngineConfig::default().with_shards(shards),
                &mut ledger,
            );
            assert_eq!(run.0.layer, seq.layer, "engine must replay the peel");
            run
        });
        rows.push(row(
            records,
            engine_record(family, "h-partition", g.n(), shards, 0, &metrics, wall),
        ));
    }
    if twin {
        let shards = *SHARD_SWEEP.last().unwrap();
        let ((_hp, metrics), wall) = best_of(reps, || {
            let mut ledger = RoundLedger::new();
            let run = engine_h_partition(
                &g,
                None,
                a,
                1.0,
                EngineConfig::default()
                    .with_shards(shards)
                    .with_order(VertexOrder::Locality),
                &mut ledger,
            );
            assert_eq!(run.0.layer, seq.layer, "relabeled run must replay the peel");
            run
        });
        let mut rec = engine_record(family, "h-partition", g.n(), shards, 0, &metrics, wall);
        rec.locality = true;
        rows.push(row(records, rec));
    }
    print_table(
        &format!("Barenboim–Elkin H-partition, {family}, n = {}", g.n()),
        &COLUMNS,
        &rows,
    );
}

fn cole_vishkin_showdown(n: usize, reps: usize, records: &mut Vec<EngineBenchRecord>, twin: bool) {
    let family = "random-tree";
    let g = build(family, n, 13);
    let f = RootedForest::new(graphs::bfs_parents(&g, 0, None));
    let mut rows = Vec::new();
    let ((seq, seq_rounds), wall) = best_of(reps, || {
        let mut ledger = RoundLedger::new();
        let out = cole_vishkin_3color(&f, &mut ledger);
        let total = ledger.total();
        (out, total)
    });
    rows.push(row(
        records,
        seq_record(family, "cole-vishkin", g.n(), seq_rounds, wall),
    ));
    for shards in SHARD_SWEEP {
        let ((_colors, metrics), wall) = best_of(reps, || {
            let mut ledger = RoundLedger::new();
            let run = engine_cole_vishkin_3color(
                &f,
                EngineConfig::default().with_shards(shards),
                &mut ledger,
            );
            assert_eq!(run.0, seq, "engine must replay the sequential colors");
            run
        });
        rows.push(row(
            records,
            engine_record(family, "cole-vishkin", g.n(), shards, 0, &metrics, wall),
        ));
    }
    if twin {
        let shards = *SHARD_SWEEP.last().unwrap();
        let ((_colors, metrics), wall) = best_of(reps, || {
            let mut ledger = RoundLedger::new();
            let run = engine_cole_vishkin_3color(
                &f,
                EngineConfig::default()
                    .with_shards(shards)
                    .with_order(VertexOrder::Locality),
                &mut ledger,
            );
            assert_eq!(run.0, seq, "relabeled run must replay the colors");
            run
        });
        let mut rec = engine_record(family, "cole-vishkin", g.n(), shards, 0, &metrics, wall);
        rec.locality = true;
        rows.push(row(records, rec));
    }
    print_table(
        &format!("Cole–Vishkin 3-coloring, {family}, n = {}", g.n()),
        &COLUMNS,
        &rows,
    );
}

/// Radius-3 ball gathering on a square grid — the `Vec`-payload flood whose
/// width is the reason split mode exists (hop-3 forwards ~8 fresh members,
/// over the 4-word split budget). Unlimited rows across the shard sweep,
/// then `Split(SPLIT_WIDTH)` twin rows whose outputs are asserted identical
/// (fragmentation is charged, never semantic).
fn gather_showdown(n: usize, reps: usize, records: &mut Vec<EngineBenchRecord>) {
    let family = "grid";
    let g = build(family, n, 0);
    let centers: Vec<usize> = (0..g.n()).collect();
    let radius = 3;
    let mut rows = Vec::new();
    let ((seq, seq_rounds), wall) = best_of(reps, || {
        let mut ledger = RoundLedger::new();
        let balls = gather_balls(&g, None, &centers, radius, &mut ledger);
        let total = ledger.total();
        (balls, total)
    });
    rows.push(row(
        records,
        seq_record(family, "gather", g.n(), seq_rounds, wall),
    ));
    for (shards, split) in configurations() {
        let ((balls, metrics), wall) = best_of(reps, || {
            let mut ledger = RoundLedger::new();
            engine_gather_balls(
                &g,
                None,
                &centers,
                radius,
                engine_config(shards, split),
                &mut ledger,
            )
        });
        // Checked outside the timed region (the all-balls comparison is
        // O(n·|B|)); reps replay bit-identically, so one check covers all.
        assert_eq!(balls, seq, "engine must replay the sequential balls");
        rows.push(row(
            records,
            engine_record(family, "gather", g.n(), shards, split, &metrics, wall),
        ));
    }
    print_table(
        &format!("radius-{radius} ball gather, {family}, n = {}", g.n()),
        &COLUMNS,
        &rows,
    );
}

/// The AGLP ruling-forest construction — token floods plus claim/prune
/// BFS — on the given `(shards, split)` grid. α = 6 over an
/// every-other-vertex subset pushes the token floods to width ~8, past the
/// 4-word split budget, so split rows (when the grid has them) exercise
/// real fragmentation. With `twin` set, the largest-shard unlimited
/// configuration reruns under `with_frontier(false)` — the full-scan row
/// the `bench_gate --min-frontier-speedup` budget compares against; ruling
/// is the gate's chosen workload because its frontier genuinely decays
/// (surviving rulers plus token recipients), so the twin measures the
/// skip machinery's payoff, not its overhead.
fn ruling_rows(
    n: usize,
    reps: usize,
    records: &mut Vec<EngineBenchRecord>,
    configs: &[(usize, usize)],
    twin: bool,
) {
    let family = "grid";
    let g = build(family, n, 0);
    let subset: Vec<usize> = (0..g.n()).step_by(2).collect();
    let alpha = 6;
    let mut rows = Vec::new();
    let ((seq, seq_rounds), wall) = best_of(reps, || {
        let mut ledger = RoundLedger::new();
        let rf = ruling_forest(&g, None, &subset, alpha, &mut ledger);
        let total = ledger.total();
        (rf, total)
    });
    rows.push(row(
        records,
        seq_record(family, "ruling", g.n(), seq_rounds, wall),
    ));
    let twin_shards = configs.iter().map(|&(s, _)| s).max().unwrap_or(1);
    let mut measured: Vec<(usize, usize, bool, bool)> =
        configs.iter().map(|&(s, w)| (s, w, true, false)).collect();
    if twin {
        measured.push((twin_shards, 0, false, false));
        // The order twin: the same largest-shard configuration relabeled
        // cache-local, for `bench_gate --min-order-speedup`.
        measured.push((twin_shards, 0, true, true));
    }
    for (shards, split, frontier, locality) in measured {
        let order = if locality {
            VertexOrder::Locality
        } else {
            VertexOrder::Identity
        };
        let ((rf, metrics), wall) = best_of(reps, || {
            let mut ledger = RoundLedger::new();
            engine_ruling_forest(
                &g,
                None,
                &subset,
                alpha,
                engine_config(shards, split)
                    .with_frontier(frontier)
                    .with_order(order),
                &mut ledger,
            )
        });
        // Checked outside the timed region; reps replay bit-identically.
        assert_eq!(rf.roots, seq.roots, "engine must replay the roots");
        assert_eq!(rf.parent, seq.parent, "engine must replay the forest");
        let mut rec = engine_record(family, "ruling", g.n(), shards, split, &metrics, wall);
        rec.frontier = frontier;
        rec.locality = locality;
        rows.push(row(records, rec));
    }
    print_table(
        &format!(
            "(α, β)-ruling forest (α = {alpha}), {family}, n = {}",
            g.n()
        ),
        &COLUMNS,
        &rows,
    );
}

/// The whole Theorem 1.3 pipeline — classification gathers, clique
/// detection, ruling forests, per-level coloring, layered greedy — as one
/// composite workload: sequential simulation vs the all-phases-on-the-engine
/// mode (`SparseColoringConfig::engine_shards`). Rounds are the full-ledger
/// totals; messages, routing time, and fragmentation come from the
/// aggregated `SparseColoring::engine_metrics`. The final row runs the
/// pipeline under `CongestMode::Split(SPLIT_WIDTH)` — identical colors, the
/// split surplus charged under `SPLIT_PHASE`. With `twin` set, the
/// largest-shard unlimited configuration reruns with
/// `engine.frontier = false` — every internal session of the pipeline on
/// the historical full scan — for the frontier-speedup gate.
fn theorem13_showdown(n: usize, reps: usize, records: &mut Vec<EngineBenchRecord>, twin: bool) {
    let family = "apollonian";
    let d = 6;
    let g = build(family, n, 7);
    let lists = ListAssignment::uniform(g.n(), d);
    let mut rows = Vec::new();
    let ((seq, seq_rounds), wall) = best_of(reps, || {
        let outcome = list_color_sparse(&g, &lists, d, SparseColoringConfig::default())
            .expect("sequential theorem13 runs");
        let col = outcome.coloring().expect("planar instance colors").clone();
        let total = col.ledger.total();
        (col, total)
    });
    rows.push(row(
        records,
        seq_record(family, "theorem13", g.n(), seq_rounds, wall),
    ));
    let t13_record = |col: &SparseColoring, shards, split, frontier, wall: Timing| {
        let m = &col.engine_metrics;
        let surplus = col.ledger.phase_total(SPLIT_PHASE);
        EngineBenchRecord {
            active_frac: m.mean_active_frac(),
            family: family.into(),
            algorithm: "theorem13".into(),
            n: g.n(),
            shards,
            // Logical rounds: the full-ledger charge, comparable to the
            // sequential row; physical adds the observed split surplus.
            rounds: seq_rounds,
            messages: m.total_messages(),
            wall_ms: wall.best_ms,
            p50_ms: wall.p50_ms,
            route_ms: m.total_route_wall().as_secs_f64() * 1e3,
            split,
            physical_rounds: seq_rounds + surplus,
            fragments: m.total_fragments(),
            frontier,
            frontier_skipped: m.total_frontier_skipped(),
            locality: false,
            rank_routing: true,
        }
    };
    let mut configs: Vec<(usize, usize, bool)> =
        SHARD_SWEEP.iter().map(|&s| (s, 0, true)).collect();
    configs.push((*SPLIT_SHARDS.last().unwrap(), SPLIT_WIDTH, true));
    if twin {
        configs.push((*SHARD_SWEEP.last().unwrap(), 0, false));
    }
    for (shards, split, frontier) in configs {
        let (col, wall) = best_of(reps, || {
            let config = SparseColoringConfig {
                engine_shards: Some(shards),
                engine: engine_config(shards, split).with_frontier(frontier),
                ..Default::default()
            };
            let outcome = list_color_sparse(&g, &lists, d, config).expect("engine theorem13 runs");
            let col = outcome.coloring().expect("planar instance colors").clone();
            assert_eq!(
                col.colors, seq.colors,
                "engine mode must replay the sequential coloring"
            );
            assert_eq!(
                col.ledger.total() - col.ledger.phase_total(SPLIT_PHASE),
                seq_rounds,
                "split surplus must be the only ledger divergence"
            );
            col
        });
        rows.push(row(
            records,
            t13_record(&col, shards, split, frontier, wall),
        ));
    }
    print_table(
        &format!(
            "Theorem 1.3 end-to-end (all phases on the engine), {family}, n = {}",
            g.n()
        ),
        &COLUMNS,
        &rows,
    );
}

/// The quiescent microbench's one-word message.
#[derive(Clone, Debug)]
struct Ping;

impl WireCodec for Ping {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(1);
    }
    fn decode(words: &[u64]) -> Option<Self> {
        (words == [1]).then_some(Ping)
    }
}

impl EngineMessage for Ping {
    const MAX_WIDTH: Option<usize> = Some(1);
}

/// One endlessly echoing edge on an otherwise silent path: node 0 serves a
/// ping at init, and from then on whoever holds it sends it back. Every
/// node is `OnMessage`, so the per-round frontier is exactly one node —
/// what the quiescent bench measures is the driver's cost for the other
/// n − 1.
struct EchoProgram;

impl NodeProgram for EchoProgram {
    type Message = Ping;

    fn init(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<Ping> {
        if ctx.id == 0 {
            Outbox::Unicast(1, Ping)
        } else {
            Outbox::Silent
        }
    }

    fn on_round(
        &mut self,
        _ctx: &mut NodeCtx<'_>,
        inbox: &[(graphs::VertexId, Ping)],
    ) -> Outbox<Ping> {
        match inbox.first() {
            Some(&(src, _)) => Outbox::Unicast(src, Ping),
            None => Outbox::Silent,
        }
    }

    fn halted(&self) -> bool {
        false
    }

    fn activation(&self) -> Activation {
        Activation::OnMessage
    }
}

/// One quiescent configuration, timed over the rounds only — session
/// construction is O(n) by necessity (contexts, mailboxes, the shard plan)
/// and would drown the per-round driver cost the bench exists to expose,
/// so `best_of` doesn't fit here.
fn quiescent_run(g: &graphs::Graph, frontier: bool, reps: usize) -> (EngineMetrics, Timing) {
    let mut best: Option<(EngineMetrics, f64)> = None;
    let mut walls = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut sess = EngineSession::new(
            g,
            EngineConfig::default()
                .with_shards(1)
                .with_frontier(frontier),
            |_| EchoProgram,
        );
        let t0 = Instant::now();
        sess.run_phase("echo", Stop::Rounds(QUIESCENT_ROUNDS));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        walls.push(ms);
        let metrics = sess.into_parts().1;
        match &best {
            Some((_, b)) if *b <= ms => {}
            _ => best = Some((metrics, ms)),
        }
    }
    walls.sort_by(f64::total_cmp);
    let p50_ms = walls[walls.len().div_ceil(2) - 1];
    let (metrics, best_ms) = best.expect("reps >= 1");
    (metrics, Timing { best_ms, p50_ms })
}

/// The quiescent-round driver microbench: [`EchoProgram`] on a path at
/// each of [`QUIESCENT_SIZES`], full scan vs frontier. The full-scan run
/// lands in the artifact's `shards = 0` slot (marked `"frontier": false`)
/// — there is no sequential twin for a driver microbench, and the gate's
/// pair bookkeeping wants a baseline row — the frontier run as `engine/1`.
/// Flat frontier-on walls across the 100× size range are the tentpole's
/// O(frontier) claim; the full-scan walls grow linearly.
fn quiescent_showdown(reps: usize, records: &mut Vec<EngineBenchRecord>) {
    let family = "path";
    for &n in &QUIESCENT_SIZES {
        let g = build(family, n, 0);
        let (scan, scan_wall) = quiescent_run(&g, false, reps);
        let (front, front_wall) = quiescent_run(&g, true, reps);
        // The frontier run must be a pure skip: identical traffic and
        // rounds, with exactly the n − 1 silent nodes skipped every round.
        assert_eq!(front.total_rounds(), scan.total_rounds());
        assert_eq!(front.message_counts(), scan.message_counts());
        assert_eq!(scan.total_frontier_skipped(), 0);
        assert_eq!(
            front.total_frontier_skipped(),
            (n - 1) * QUIESCENT_ROUNDS as usize,
            "every round steps exactly the one node holding the ping"
        );
        let mut rows = Vec::new();
        let mut base = engine_record(family, "quiescent", g.n(), 0, 0, &scan, scan_wall);
        base.frontier = false;
        rows.push(row(records, base));
        rows.push(row(
            records,
            engine_record(family, "quiescent", g.n(), 1, 0, &front, front_wall),
        ));
        print_table(
            &format!("quiescent rounds (one echoing edge), {family}, n = {n}"),
            &COLUMNS,
            &rows,
        );
    }
}

/// The crossover table: for every `(algorithm, n)` cell, how the engine
/// scales against itself and against the sequential substrate. Columns:
/// sequential ms, engine at 1 and 8 shards, the best shard count, the
/// engine/1-vs-sequential overhead ratio, and the shards=8 / shards=1 ratio
/// (≤ 1.00 means sharding has crossed over — more shards is no longer a
/// cost).
fn print_crossover(records: &[EngineBenchRecord]) {
    let mut keys: Vec<(String, usize)> = records
        .iter()
        .filter(|r| r.shards == 0)
        .map(|r| (r.algorithm.clone(), r.n))
        .collect();
    keys.sort();
    keys.dedup();
    let find = |alg: &str, n: usize, shards: usize| {
        records.iter().find(|r| {
            r.algorithm == alg
                && r.n == n
                && r.shards == shards
                && r.split == 0
                && r.frontier
                && !r.locality
        })
    };
    let mut rows = Vec::new();
    for (alg, n) in keys {
        let (Some(seq), Some(s1), Some(s8)) =
            (find(&alg, n, 0), find(&alg, n, 1), find(&alg, n, 8))
        else {
            continue;
        };
        let best = records
            .iter()
            .filter(|r| {
                r.algorithm == alg
                    && r.n == n
                    && r.shards > 0
                    && r.split == 0
                    && r.frontier
                    && !r.locality
            })
            .min_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms))
            .expect("s1 exists");
        rows.push(vec![
            alg.clone(),
            format!("{n}"),
            format!("{:.2}", seq.wall_ms),
            format!("{:.2}", s1.wall_ms),
            format!("{:.2}", s8.wall_ms),
            format!("{}", best.shards),
            format!("{:.2}", s1.wall_ms / seq.wall_ms.max(f64::EPSILON)),
            format!("{:.2}", s8.wall_ms / s1.wall_ms.max(f64::EPSILON)),
            format!("{:.2}", s8.route_ms / s8.wall_ms.max(f64::EPSILON)),
        ]);
    }
    print_table(
        "crossover: sequential vs sharded engine (best-of-reps wall ms)",
        &[
            "algorithm",
            "n",
            "seq ms",
            "engine/1",
            "engine/8",
            "best",
            "e1/seq",
            "e8/e1",
            "route/8",
        ],
        &rows,
    );
}
