//! Engine showdown: the same algorithms as sequential simulations and as
//! genuine message-passing programs on the sharded runtime.
//!
//! ```sh
//! cargo run --release --example engine_showdown
//! ```
//!
//! Four demonstrations:
//! 1. **Equivalence** — engine runs reproduce the sequential colorings and
//!    ledger totals bit-for-bit.
//! 2. **Observability** — the engine reports what the ledger cannot see:
//!    per-round messages, message widths, active-node decay, wall and
//!    routing-phase time.
//! 3. **Fault injection** — drop a node's outbox and watch the degradation,
//!    deterministically.
//! 4. **Masked sessions** — run only an induced residual subgraph, exactly
//!    as Theorem 1.3's peel loop does, and replay the sequential masked
//!    primitive bit for bit.
//! 5. **Theorem 1.3, end to end on the engine** — `list_color_sparse` with
//!    `engine_shards` runs *every* phase (classification gathers, clique
//!    detection, ruling forests, per-level coloring, layered greedy) as
//!    masked engine sessions, with the per-phase round ledger to prove it.
//! 6. **CONGEST splitting** — the same pipeline under
//!    `CongestMode::Split(4)`: wide flood messages cross the wire as
//!    4-word fragments, outputs stay bit-identical, and the extra physical
//!    rounds are charged honestly under the `congest-split` ledger phase.

use fewer_colors::prelude::*;
use graphs::{gen, VertexSet};
use local_model::{h_partition, randomized_list_coloring};

fn main() {
    equivalence_demo();
    observability_demo();
    fault_demo();
    masked_demo();
    theorem13_demo();
    congest_split_demo();
}

fn equivalence_demo() {
    println!("== 1. equivalence: engine replays the sequential runs ==");
    let n = 5_000;
    let g = gen::random_regular(n, 4, 21);
    let lists: Vec<Vec<usize>> = g
        .vertices()
        .map(|v| (0..g.degree(v) + 1).collect())
        .collect();

    let mut seq_ledger = RoundLedger::new();
    let seq = randomized_list_coloring(&g, None, &lists, 21, 10_000, &mut seq_ledger);

    for shards in [1usize, 4, 8] {
        let mut eng_ledger = RoundLedger::new();
        let (out, metrics) = engine_randomized_list_coloring(
            &g,
            None,
            &lists,
            21,
            10_000,
            EngineConfig::default().with_shards(shards),
            &mut eng_ledger,
        );
        assert_eq!(out.colors, seq.colors);
        assert_eq!(eng_ledger.total(), seq_ledger.total());
        println!(
            "  randomized, n={n}, {shards} shard(s): {} cycles, {} messages, {:.2} ms — identical coloring",
            out.rounds,
            metrics.total_messages(),
            metrics.total_wall().as_secs_f64() * 1e3,
        );
    }
}

fn observability_demo() {
    println!("\n== 2. observability: what a run actually did ==");
    let g = gen::forest_union(2_000, 2, 9);
    let mut ledger = RoundLedger::new();
    let (hp, metrics) = engine_h_partition(
        &g,
        None,
        2,
        1.0,
        EngineConfig::default().with_shards(4),
        &mut ledger,
    );
    println!(
        "  H-partition of a 2-forest union (n = {}): {} layers, threshold {}",
        g.n(),
        hp.layers,
        hp.threshold
    );
    println!("{metrics}");
    println!("{ledger}");
    // Sequential twin agrees layer by layer:
    let mut seq_ledger = RoundLedger::new();
    let seq = h_partition(&g, None, 2, 1.0, &mut seq_ledger);
    assert_eq!(seq.layer, hp.layer);
    println!("  (sequential twin assigns identical layers)");
}

fn fault_demo() {
    println!("== 3. fault injection: deterministic perturbation ==");
    let g = gen::cycle(24);
    let lists: Vec<Vec<usize>> = g
        .vertices()
        .map(|v| (0..g.degree(v) + 1).collect())
        .collect();
    let mut faults = FaultPlan::new();
    for resolve_round in (2..100u64).step_by(2) {
        faults = faults.drop_outbox(0, resolve_round);
    }
    let mut ledger = RoundLedger::new();
    let (out, metrics) = engine_randomized_list_coloring(
        &g,
        None,
        &lists,
        42,
        500,
        EngineConfig::default().with_faults(faults),
        &mut ledger,
    );
    let improper: Vec<(usize, usize)> = g
        .edges()
        .filter(|&(u, v)| out.colors[u] != usize::MAX && out.colors[u] == out.colors[v])
        .collect();
    println!(
        "  dropped {} message(s) of node 0's commit announcements on a 24-cycle",
        metrics.total_dropped()
    );
    println!(
        "  resulting coloring: complete = {}, improper edges at the victim: {improper:?}",
        out.complete
    );
    println!(
        "  (rerunning reproduces exactly this damage — faults are part of the replayable config)"
    );
}

fn masked_demo() {
    println!("\n== 4. masked sessions: engine runs on an induced residual subgraph ==");
    let g = gen::grid(30, 30);
    // A synthetic "peeled" residual: two thirds of the vertices survive.
    let mask = VertexSet::from_iter_with_universe(g.n(), (0..g.n()).filter(|v| v % 3 != 0));
    let lists: Vec<Vec<usize>> = g
        .vertices()
        .map(|v| (0..g.degree(v) + 1).collect())
        .collect();
    let mut seq_ledger = RoundLedger::new();
    let seq = randomized_list_coloring(&g, Some(&mask), &lists, 7, 10_000, &mut seq_ledger);
    for shards in [1usize, 4] {
        let mut ledger = RoundLedger::new();
        let (out, metrics) = engine_randomized_list_coloring(
            &g,
            Some(&mask),
            &lists,
            7,
            10_000,
            EngineConfig::default().with_shards(shards),
            &mut ledger,
        );
        assert_eq!(out.colors, seq.colors);
        assert_eq!(ledger.total(), seq_ledger.total());
        println!(
            "  masked randomized, {} of {} vertices live, {shards} shard(s): {} cycles, \
             {} messages, routing {:.2} of {:.2} ms — identical to the sequential masked run",
            mask.len(),
            g.n(),
            out.rounds,
            metrics.total_messages(),
            metrics.total_route_wall().as_secs_f64() * 1e3,
            metrics.total_wall().as_secs_f64() * 1e3,
        );
    }
    // The (d+1)-coloring Theorem 1.3 runs per level, on the same mask:
    let mut ledger = RoundLedger::new();
    let (col, _) = engine_degree_plus_one_coloring(
        &g,
        Some(&mask),
        EngineConfig::default().with_shards(4),
        &mut ledger,
    );
    let used = col.iter().filter(|&&c| c != usize::MAX).max().unwrap() + 1;
    println!(
        "  masked (d+1)-coloring of the residual: {used} colors, {} LOCAL rounds charged",
        ledger.total()
    );
}

fn theorem13_demo() {
    println!("\n== 5. Theorem 1.3, every phase on the engine ==");
    let g = gen::apollonian(400, 7);
    let d = 6; // planar triangulation: mad < 6
    let lists = ListAssignment::uniform(g.n(), d);

    let seq = list_color_sparse(&g, &lists, d, SparseColoringConfig::default())
        .expect("sequential run succeeds");
    let seq = seq.coloring().expect("planar instance is 6-list-colorable");

    for shards in [1usize, 4, 8] {
        let config = SparseColoringConfig {
            engine_shards: Some(shards),
            ..Default::default()
        };
        let eng = list_color_sparse(&g, &lists, d, config).expect("engine run succeeds");
        let eng = eng.coloring().expect("same workload");
        assert_eq!(eng.colors, seq.colors, "engine replays the coloring");
        assert_eq!(eng.ledger.total(), seq.ledger.total());
        println!(
            "  engine mode, {shards} shard(s): {} peeling levels, {} LOCAL rounds — \
             colors and ledger identical to the sequential run",
            eng.stats.levels(),
            eng.ledger.total(),
        );
    }

    // The per-phase split: every one of these phases now *executes* as a
    // masked engine session when engine_shards is set — classification
    // (rich-poor + ball-gather), clique detection when stuck, ruling
    // forests, per-level (d+1)-coloring, and the layered greedy.
    let config = SparseColoringConfig {
        engine_shards: Some(4),
        ..Default::default()
    };
    let eng = list_color_sparse(&g, &lists, d, config).expect("engine run succeeds");
    let eng = eng.coloring().expect("same workload");
    println!("\n  per-phase ledger split of the 4-shard engine run:");
    for (phase, rounds) in eng.ledger.summary() {
        println!("    {phase:<24} {rounds}");
    }
}

fn congest_split_demo() {
    println!("\n== 6. CONGEST splitting: the pipeline under a 4-word budget ==");
    let g = gen::apollonian(400, 7);
    let d = 6;
    let lists = ListAssignment::uniform(g.n(), d);

    let unlimited = list_color_sparse(
        &g,
        &lists,
        d,
        SparseColoringConfig {
            engine_shards: Some(4),
            ..Default::default()
        },
    )
    .expect("unlimited run succeeds");
    let unlimited = unlimited.coloring().expect("colorable workload");

    let split = list_color_sparse(
        &g,
        &lists,
        d,
        SparseColoringConfig {
            engine_shards: Some(4),
            engine: EngineConfig::default().congest_split(4),
            ..Default::default()
        },
    )
    .expect("split run succeeds");
    let split = split.coloring().expect("colorable workload");

    assert_eq!(
        split.colors, unlimited.colors,
        "splitting is never semantic"
    );
    let surplus = split.ledger.phase_total(engine::SPLIT_PHASE);
    let m = &split.engine_metrics;
    println!(
        "  unlimited: {} LOCAL rounds, widest message {} words",
        unlimited.ledger.total(),
        unlimited.engine_metrics.max_width(),
    );
    println!(
        "  Split(4):  same colors, {} fragments shipped, +{surplus} physical rounds \
         charged to '{}' ({} logical + {surplus} = {} physical)",
        m.total_fragments(),
        engine::SPLIT_PHASE,
        m.total_rounds(),
        m.total_physical_rounds(),
    );
    assert_eq!(
        split.ledger.total() - surplus,
        unlimited.ledger.total(),
        "split ledgers reconcile against the unlimited charge"
    );
}
