//! Failure-injection tests: every documented error path is reachable and
//! correct, and the algorithm degrades diagnosably — never silently — when
//! the paper's preconditions are violated.

use distributed_coloring::{
    brooks_list_coloring, color_by_arboricity, color_planar_girth6, color_planar_triangle_free,
    degree_choosable_coloring, list_color_sparse, nice_list_coloring, BrooksError, ColoringError,
    CorollaryError, ErtError, ExtendError, ListAssignment, Outcome, RadiusPolicy,
    SparseColoringConfig,
};
use engine::{
    engine_gather_balls, engine_h_partition, engine_randomized_list_coloring, engine_ruling_forest,
    EngineConfig, FaultPlan,
};
use graphs::gen;
use local_model::RoundLedger;

#[test]
fn mad_exceeds_d_without_clique_is_detected() {
    // The octahedron: mad = 4, K4-free. Asking d = 3 violates d ≥ mad but
    // offers no K4 — the algorithm must report NoHappyVertices (adaptive
    // radius exhausts all components first).
    let g = gen::octahedron();
    let lists = ListAssignment::uniform(6, 3);
    let err = list_color_sparse(&g, &lists, 3, SparseColoringConfig::default()).unwrap_err();
    assert!(
        matches!(err, ColoringError::NoHappyVertices { alive: 6 }),
        "got {err:?}"
    );
}

#[test]
fn verify_mad_reports_exact_fraction() {
    let g = gen::octahedron();
    let lists = ListAssignment::uniform(6, 3);
    let config = SparseColoringConfig {
        verify_mad: true,
        ..Default::default()
    };
    match list_color_sparse(&g, &lists, 3, config) {
        Err(ColoringError::MadExceedsBound { mad }) => {
            assert_eq!(mad.0 as f64 / mad.1 as f64, 4.0);
        }
        other => panic!("expected MadExceedsBound, got {other:?}"),
    }
}

#[test]
fn fixed_radius_with_no_happy_vertices_errors_not_loops() {
    // Fixed radius cannot grow; the K4-free mad-violating input must error
    // immediately rather than spin.
    let g = gen::octahedron();
    let lists = ListAssignment::uniform(6, 3);
    let config = SparseColoringConfig {
        radius: RadiusPolicy::Fixed(2),
        ..Default::default()
    };
    assert!(matches!(
        list_color_sparse(&g, &lists, 3, config),
        Err(ColoringError::NoHappyVertices { .. })
    ));
}

#[test]
fn clique_beats_error_when_both_present() {
    // K5 + octahedron: d = 4 → K5 is found (clique wins over the mad
    // violation of the octahedron component… octahedron has mad 4 = d, so
    // it is actually colorable; only K5 blocks).
    let g = gen::complete(5).disjoint_union(&gen::octahedron());
    let lists = ListAssignment::uniform(g.n(), 4);
    match list_color_sparse(&g, &lists, 4, SparseColoringConfig::default()).unwrap() {
        Outcome::CliqueFound { vertices, .. } => {
            assert_eq!(vertices, vec![0, 1, 2, 3, 4]);
        }
        Outcome::Colored(_) => panic!("K5 cannot be 4-colored"),
    }
}

#[test]
fn ert_rejects_undersized_and_reports_gallai() {
    // Tight lists on a Gallai tree: obstruction with a witness in range.
    let t = gen::random_gallai_tree(&gen::GallaiTreeConfig::default(), 3);
    let lists: Vec<Vec<usize>> = t.vertices().map(|v| (0..t.degree(v)).collect()).collect();
    match degree_choosable_coloring(&t, &lists) {
        Err(ErtError::GallaiObstruction { witness }) => assert!(witness < t.n()),
        Ok(col) => {
            // Some Gallai trees with tight lists are still colorable via
            // the 2-connected differing-lists path (uniform 0..deg lists
            // differ when degrees differ) — that is fine too, but the
            // coloring must be valid.
            assert!(graphs::is_proper_list_coloring(&t, &col, &lists));
        }
        Err(e) => panic!("unexpected {e}"),
    }
}

#[test]
fn corollary_wrappers_reject_wrong_classes() {
    // Triangle in a "triangle-free" call.
    let tri = gen::triangular(4, 4);
    let l4 = ListAssignment::uniform(tri.n(), 4);
    assert!(matches!(
        color_planar_triangle_free(&tri, &l4),
        Err(CorollaryError::StructuralCheckFailed { .. })
    ));
    // Girth-4 grid in a "girth ≥ 6" call.
    let grid = gen::grid(4, 4);
    let l3 = ListAssignment::uniform(16, 3);
    assert!(matches!(
        color_planar_girth6(&grid, &l3),
        Err(CorollaryError::StructuralCheckFailed { .. })
    ));
    // Arboricity lie: K7 claimed as a = 2.
    let k7 = gen::complete(7);
    let l = ListAssignment::uniform(7, 4);
    assert!(matches!(
        color_by_arboricity(&k7, &l, 2),
        Err(CorollaryError::ClassViolated { .. })
    ));
}

#[test]
fn brooks_error_paths() {
    // Δ < 3.
    let p = gen::path(5);
    assert!(matches!(
        brooks_list_coloring(&p, &ListAssignment::uniform(5, 2)),
        Err(BrooksError::MaxDegreeTooSmall { max_degree: 2 })
    ));
    // Undersized lists.
    let g = gen::random_regular(10, 4, 1);
    assert!(matches!(
        brooks_list_coloring(&g, &ListAssignment::uniform(10, 3)),
        Err(BrooksError::NotNice { .. })
    ));
    // Non-nice assignment in the nice-list entry point.
    let c = gen::cycle(5);
    assert!(matches!(
        nice_list_coloring(&c, &ListAssignment::uniform(5, 2)),
        Err(BrooksError::NotNice { .. })
    ));
}

#[test]
fn partial_validity_is_never_silent() {
    // Any Ok(Colored) outcome must be a complete proper list coloring —
    // probe 20 random seeds with occasionally-infeasible dense inputs.
    for seed in 0..20u64 {
        let g = gen::gnm(40, 70, seed);
        let d = 4;
        let lists = ListAssignment::uniform(40, d);
        match list_color_sparse(&g, &lists, d, SparseColoringConfig::default()) {
            Ok(Outcome::Colored(res)) => {
                assert!(graphs::is_proper(&g, &res.colors), "seed {seed}");
                assert!(
                    res.colors.iter().all(|&c| c < d),
                    "seed {seed}: off-palette color"
                );
            }
            Ok(Outcome::CliqueFound { vertices, .. }) => {
                assert_eq!(vertices.len(), d + 1, "seed {seed}");
                assert!(graphs::is_clique(&g, &vertices), "seed {seed}");
            }
            Err(ColoringError::NoHappyVertices { .. }) => {
                // Legitimate: mad(G) > d for this seed. Verify.
                assert!(!graphs::mad_at_most(&g, d as f64), "seed {seed}");
            }
            Err(e) => panic!("seed {seed}: unexpected {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Engine fault injection: the runtime's drop/delay hooks perturb executions
// deterministically and the damage is observable — never silent.
// ---------------------------------------------------------------------------

#[test]
fn crash_storm_too_close_roots_return_an_error_not_a_panic() {
    // The chaos suite's `pipeline-chaos` input at seed 11 under its crash
    // storm: crashed token messages leave two ruling-forest roots closer
    // than α, so their root balls overlap. The run must report that as an
    // error at every shard count, where it used to die on an assert.
    let g = gen::build_family("apollonian", 80, 11).unwrap();
    let storm = lab::schema::FaultSpec {
        crash_storm: Some(lab::schema::CrashStorm {
            seed: 9,
            count: 3,
            max_round: 4,
        }),
        ..Default::default()
    };
    let lists = ListAssignment::uniform(g.n(), 6);
    for shards in [1, 2, 4] {
        let config = SparseColoringConfig {
            engine_shards: Some(shards),
            engine: EngineConfig::default()
                .with_shards(shards)
                .with_workers(shards)
                .with_faults(storm.plan(g.n())),
            ..Default::default()
        };
        let err = list_color_sparse(&g, &lists, 6, config).unwrap_err();
        assert!(
            matches!(
                err,
                ColoringError::Extend(ExtendError::RootsTooClose { root: 4, other: 1 })
            ),
            "shards {shards}: {err:?}"
        );
    }
}

#[test]
fn per_edge_loss_too_close_roots_return_an_error_not_a_panic() {
    // colorbench's planar6 input under 1% per-edge loss: lost token
    // messages leave two roots closer than α at a later level.
    let g = gen::apollonian(10_000, 1);
    let lists = ListAssignment::random(g.n(), 6, 12, 1);
    let config = SparseColoringConfig {
        engine_shards: Some(2),
        engine: EngineConfig::default()
            .with_shards(2)
            .with_faults(FaultPlan::new().lose_edges(5, 0.01)),
        ..Default::default()
    };
    let err = list_color_sparse(&g, &lists, 6, config).unwrap_err();
    assert!(
        matches!(
            err,
            ColoringError::Extend(ExtendError::RootsTooClose {
                root: 371,
                other: 26
            })
        ),
        "{err:?}"
    );
}

#[test]
fn engine_dropped_commit_announcements_are_observable() {
    // Drop node 0's outbox in every resolve round: whenever it commits, its
    // neighbors never hear the announcement and may later grab the same
    // color. The perturbation is deterministic; what must hold is that the
    // fault is (a) counted and (b) localized to the victim's neighborhood.
    let g = gen::cycle(24);
    let lists: Vec<Vec<usize>> = g
        .vertices()
        .map(|v| (0..g.degree(v) + 1).collect())
        .collect();
    let mut clean_ledger = RoundLedger::new();
    let (clean, _) = engine_randomized_list_coloring(
        &g,
        None,
        &lists,
        42,
        500,
        EngineConfig::default(),
        &mut clean_ledger,
    );
    assert!(clean.complete);
    assert!(graphs::is_proper(&g, &clean.colors));

    let mut faults = FaultPlan::new();
    for resolve_round in (2..200u64).step_by(2) {
        faults = faults.drop_outbox(0, resolve_round);
    }
    let mut ledger = RoundLedger::new();
    let (faulted, metrics) = engine_randomized_list_coloring(
        &g,
        None,
        &lists,
        42,
        500,
        EngineConfig::default().with_faults(faults),
        &mut ledger,
    );
    assert!(
        metrics.total_dropped() > 0,
        "the fault plan must actually have intercepted traffic"
    );
    // Deterministic, localized degradation: only the victim's neighbors had
    // stale knowledge, so any monochromatic edge must touch that
    // neighborhood; the rest of the ring must be properly colored.
    for (u, v) in g.edges() {
        if faulted.colors[u] == faulted.colors[v] && faulted.colors[u] != usize::MAX {
            let near_victim = |x: usize| x == 0 || g.has_edge(0, x);
            assert!(
                near_victim(u) || near_victim(v),
                "improper edge ({u},{v}) outside the faulted neighborhood"
            );
        }
    }
}

#[test]
fn engine_delay_fault_shifts_h_partition_layers_detectably() {
    // Apollonian graphs peel in several layers. Delaying every announcement
    // of an early-peeling vertex makes its neighbors see stale residual
    // degrees, so some layer assignment must move by at least one round —
    // and the engine must still converge once the delayed batch lands.
    let g = gen::apollonian(120, 3);
    let mut clean_ledger = RoundLedger::new();
    let (clean, _) =
        engine_h_partition(&g, None, 3, 1.0, EngineConfig::default(), &mut clean_ledger);
    assert!(
        clean.layers >= 2,
        "need a multi-layer instance for this test"
    );

    // Pick a vertex that peels in the first layer and delay it.
    let victim = (0..g.n()).find(|&v| clean.layer[v] == 0).unwrap();
    let faults = FaultPlan::new().delay_outbox(victim, 1, 2);
    let mut ledger = RoundLedger::new();
    let (faulted, metrics) = engine_h_partition(
        &g,
        None,
        3,
        1.0,
        EngineConfig::default().with_faults(faults),
        &mut ledger,
    );
    assert!(metrics.total_delayed() > 0, "delay fault must have fired");
    // Every vertex is still assigned a layer (the peel messages eventually
    // arrive), and the victim keeps its layer (its own residual degree was
    // never touched by the fault).
    assert!(faulted.layer.iter().all(|&l| l != usize::MAX));
    assert_eq!(faulted.layer[victim], 0);
}

#[test]
fn engine_round_cap_degrades_diagnosably_not_silently() {
    // An impossible cycle budget: the run must report incompleteness and
    // leave only proper partial colorings — mirroring the sequential
    // contract under max_rounds exhaustion.
    let g = gen::random_regular(200, 4, 8);
    let lists: Vec<Vec<usize>> = g
        .vertices()
        .map(|v| (0..g.degree(v) + 1).collect())
        .collect();
    let mut ledger = RoundLedger::new();
    let (out, metrics) = engine_randomized_list_coloring(
        &g,
        None,
        &lists,
        3,
        1,
        EngineConfig::default(),
        &mut ledger,
    );
    assert!(!out.complete);
    assert_eq!(out.rounds, 1);
    assert_eq!(metrics.total_rounds(), 2);
    for (u, v) in g.edges() {
        if out.colors[u] != usize::MAX && out.colors[v] != usize::MAX {
            assert_ne!(out.colors[u], out.colors[v]);
        }
    }
}

#[test]
fn engine_duplication_faults_are_replayable_and_idempotent_where_expected() {
    // Seeded per-edge duplication: the same plan perturbs the run
    // identically at any worker count (replayability), and the randomized
    // coloring — whose protocol tolerates at-least-once delivery — ends in
    // exactly the clean run's coloring (duplicate Proposal/Committed
    // messages carry no new information).
    let g = gen::grid(12, 12);
    let lists: Vec<Vec<usize>> = g
        .vertices()
        .map(|v| (0..g.degree(v) + 1).collect())
        .collect();
    let mut clean_ledger = RoundLedger::new();
    let (clean, _) = engine_randomized_list_coloring(
        &g,
        None,
        &lists,
        17,
        500,
        EngineConfig::default(),
        &mut clean_ledger,
    );
    assert!(clean.complete);

    let run = |workers: usize| {
        let mut ledger = RoundLedger::new();
        let (out, metrics) = engine_randomized_list_coloring(
            &g,
            None,
            &lists,
            17,
            500,
            EngineConfig::default()
                .with_shards(8)
                .with_workers(workers)
                .with_faults(FaultPlan::new().duplicate_edges(99, 0.3)),
            &mut ledger,
        );
        (
            out.colors,
            out.rounds,
            metrics.message_counts(),
            metrics.total_duplicated(),
            ledger.total(),
        )
    };
    let base = run(1);
    assert!(base.3 > 0, "p = 0.3 must duplicate some traffic");
    assert_eq!(
        base.0, clean.colors,
        "the randomized protocol is duplication-idempotent"
    );
    assert_eq!(base.1, clean.rounds);
    for workers in [2usize, 4, 8] {
        assert_eq!(run(workers), base, "workers = {workers}");
    }
}

#[test]
fn engine_duplication_perturbs_duplication_sensitive_protocols_detectably() {
    // The H-partition program decrements residual degree per Peeled
    // message, so a duplicated peel announcement over-decrements — the
    // damage must be deterministic and observable, never silent: the run
    // still terminates, the duplicate count is reported, and a rerun
    // reproduces the exact same (possibly wrong) layers.
    let g = gen::apollonian(100, 5);
    let run = || {
        let mut ledger = RoundLedger::new();
        let (hp, metrics) = engine_h_partition(
            &g,
            None,
            3,
            1.0,
            EngineConfig::default()
                .with_shards(4)
                .with_faults(FaultPlan::new().duplicate_edges(5, 0.5)),
            &mut ledger,
        );
        (hp.layer, hp.layers, metrics.total_duplicated())
    };
    let a = run();
    let b = run();
    assert!(a.2 > 0, "duplication must have fired");
    assert_eq!(a, b, "perturbed runs replay exactly");
    assert!(a.0.iter().all(|&l| l != usize::MAX), "still terminates");
}

#[test]
fn engine_per_edge_loss_shrinks_gathered_balls_deterministically() {
    // Seeded per-edge loss against the ball-gather program: lost flood
    // messages can only *shrink* what a vertex learns (knowledge is
    // monotone), the damage is counted, and the perturbed run replays
    // bit-identically at any worker count.
    let g = gen::grid(10, 10);
    let centers: Vec<usize> = (0..g.n()).collect();
    let radius = 3;
    let mut clean_ledger = RoundLedger::new();
    let (clean, _) = engine_gather_balls(
        &g,
        None,
        &centers,
        radius,
        EngineConfig::default(),
        &mut clean_ledger,
    );
    let run = |workers: usize| {
        let mut ledger = RoundLedger::new();
        let (balls, metrics) = engine_gather_balls(
            &g,
            None,
            &centers,
            radius,
            EngineConfig::default()
                .with_shards(8)
                .with_workers(workers)
                .with_faults(FaultPlan::new().lose_edges(23, 0.2)),
            &mut ledger,
        );
        (balls, metrics.total_lost(), ledger.total())
    };
    let base = run(1);
    assert!(base.1 > 0, "p = 0.2 must lose some flood traffic");
    assert_eq!(base.2, clean_ledger.total(), "loss costs no extra rounds");
    let mut strictly_smaller = 0;
    for (lossy, full) in base.0.iter().zip(&clean) {
        assert!(
            lossy.iter().all(|v| full.contains(v)),
            "lost messages cannot invent ball members"
        );
        assert!(lossy.len() <= full.len());
        if lossy.len() < full.len() {
            strictly_smaller += 1;
        }
    }
    assert!(strictly_smaller > 0, "some ball must actually have shrunk");
    for workers in [2usize, 4, 8] {
        assert_eq!(run(workers), base, "workers = {workers}");
    }
}

#[test]
fn engine_per_edge_loss_perturbs_ruling_forests_detectably_and_replayably() {
    // Loss against the ruling program: lost prefix tokens let extra rulers
    // survive and lost claims leave vertices unclaimed — the degradation
    // must be deterministic (same forest on every rerun and worker count)
    // and structurally observable, never a silent success.
    let g = gen::grid(9, 9);
    let subset: Vec<usize> = (0..g.n()).step_by(2).collect();
    let alpha = 4;
    let mut clean_ledger = RoundLedger::new();
    let (clean, _) = engine_ruling_forest(
        &g,
        None,
        &subset,
        alpha,
        EngineConfig::default(),
        &mut clean_ledger,
    );
    let run = |workers: usize| {
        let mut ledger = RoundLedger::new();
        let (rf, metrics) = engine_ruling_forest(
            &g,
            None,
            &subset,
            alpha,
            EngineConfig::default()
                .with_shards(8)
                .with_workers(workers)
                .with_faults(FaultPlan::new().lose_edges(7, 0.35)),
            &mut ledger,
        );
        (
            rf.roots,
            rf.parent,
            rf.root_of,
            rf.depth,
            metrics.total_lost(),
            ledger.total(),
        )
    };
    let base = run(1);
    assert!(base.4 > 0, "p = 0.35 must lose some construction traffic");
    assert_eq!(base.5, clean_ledger.total(), "loss costs no extra rounds");
    assert_ne!(
        (&base.0, &base.1),
        (&clean.roots, &clean.parent),
        "a 35% loss rate must visibly perturb the construction"
    );
    // Where both ends of a kept chain link survived the loss, the link is
    // still consistent — a lost Keep may sever a chain (the parent never
    // hears it is kept), but it can never corrupt one.
    for v in 0..g.n() {
        let p = base.1[v];
        if p != usize::MAX && p != v && base.2[p] != usize::MAX {
            assert_eq!(base.2[p], base.2[v], "vertex {v}: parent in another tree");
            assert_eq!(base.3[p] + 1, base.3[v], "vertex {v}: depth skew");
        }
    }
    for workers in [2usize, 4, 8] {
        assert_eq!(run(workers), base, "workers = {workers}");
    }
}

#[test]
fn engine_adversarial_reorder_flushes_out_arrival_order_reliance() {
    // A protocol that silently relies on arrival order: each node sends its
    // right cycle-neighbor one message in round 1 and one in round 2, and
    // the receiver records the payload sequence it reads in round 3. Every
    // round-1 outbox is delayed by one round, so each inbox holds a
    // same-sender run: the delayed message, then the fresh one. Delivery
    // keeps that order; FaultPlan::reorder must scramble some such run —
    // deterministically, and identically at every shard and worker count.
    use engine::{
        EngineConfig, EngineSession, Inbox, NodeCtx, NodeProgram, Outbox, Stop, WireCodec,
    };

    #[derive(Clone, Debug, PartialEq)]
    struct Tagged(u64);
    impl WireCodec for Tagged {
        fn encode(&self, out: &mut Vec<u64>) {
            out.push(self.0);
        }
        fn decode(words: &[u64]) -> Option<Self> {
            match words {
                [w] => Some(Tagged(*w)),
                _ => None,
            }
        }
    }
    impl engine::EngineMessage for Tagged {}

    struct Burst {
        received: Vec<u64>,
        done: bool,
    }
    impl NodeProgram for Burst {
        type Message = Tagged;
        fn init(&mut self, _: &mut NodeCtx<'_>) -> Outbox<Tagged> {
            Outbox::Silent
        }
        fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, Tagged>) -> Outbox<Tagged> {
            let right = (ctx.id + 1) % ctx.n;
            match ctx.round {
                1 | 2 => Outbox::Unicast(right, Tagged(2 * ctx.id as u64 + ctx.round - 1)),
                _ => {
                    self.received.extend(inbox.iter().map(|(_, Tagged(w))| *w));
                    self.done = true;
                    Outbox::Silent
                }
            }
        }
        fn halted(&self) -> bool {
            self.done
        }
    }

    let g = gen::cycle(16);
    let run = |faults: FaultPlan, shards: usize| {
        let config = EngineConfig::default()
            .with_shards(shards)
            .with_workers(shards)
            .with_faults(faults);
        let mut sess = EngineSession::new(&g, None, config, |_| Burst {
            received: Vec::new(),
            done: false,
        });
        sess.run_phase("burst", Stop::Rounds(3));
        sess.programs()
            .iter()
            .map(|p| p.received.clone())
            .collect::<Vec<_>>()
    };
    let delayed = (0..g.n()).fold(FaultPlan::new(), |plan, v| plan.delay_outbox(v, 1, 1));
    let clean = run(delayed.clone(), 1);
    // Without the reorder, each run arrives delayed batch first: (even,
    // odd) pairs.
    for seq in &clean {
        assert_eq!(seq.len(), 2);
        assert_eq!(
            seq[0] + 1,
            seq[1],
            "the delayed batch precedes fresh traffic"
        );
    }
    // Some seed must flip at least one pair — 16 pairs at p = 1/2 each.
    let seed = (0..64u64)
        .find(|&s| run(delayed.clone().reorder(s), 1) != clean)
        .expect("some seed must permute some run");
    let perturbed = run(delayed.clone().reorder(seed), 1);
    let mut flipped = 0;
    for (seq, base) in perturbed.iter().zip(&clean) {
        assert_eq!(seq.len(), 2, "reorder never loses or invents messages");
        if seq != base {
            assert_eq!(seq[0], base[1], "a flip is the only legal permutation");
            assert_eq!(seq[1], base[0]);
            flipped += 1;
        }
    }
    assert!(flipped > 0);
    for shards in [2usize, 4, 8] {
        assert_eq!(
            run(delayed.clone().reorder(seed), shards),
            perturbed,
            "shards = {shards}: reordered runs must replay bit-identically"
        );
    }
}

#[test]
fn engine_crash_stop_degrades_gather_deterministically() {
    // Crash a cut vertex of a path mid-flood: balls on each side stop
    // growing through it from the crash round on, the suppressed traffic
    // is counted, and the degraded run replays at any worker count.
    let g = gen::path(12);
    let centers: Vec<usize> = (0..g.n()).collect();
    let radius = 4;
    let mut clean_ledger = RoundLedger::new();
    let (clean, _) = engine_gather_balls(
        &g,
        None,
        &centers,
        radius,
        EngineConfig::default(),
        &mut clean_ledger,
    );
    let victim = 6usize;
    let run = |workers: usize| {
        let mut ledger = RoundLedger::new();
        let (balls, metrics) = engine_gather_balls(
            &g,
            None,
            &centers,
            radius,
            EngineConfig::default()
                .with_shards(4)
                .with_workers(workers)
                .with_faults(FaultPlan::new().crash(victim, 2)),
            &mut ledger,
        );
        (balls, metrics.total_dropped(), ledger.total())
    };
    let base = run(1);
    assert!(base.1 > 0, "the crashed node's outboxes must be counted");
    assert_eq!(base.2, clean_ledger.total(), "crash costs no extra rounds");
    // The victim forwarded hop-1 knowledge (round 1) but nothing after, so
    // knowledge that had to be relayed through it is missing somewhere.
    let mut shrunk = 0;
    for (v, (lossy, full)) in base.0.iter().zip(&clean).enumerate() {
        assert!(
            lossy.iter().all(|w| full.contains(w)),
            "vertex {v}: a crash cannot invent knowledge"
        );
        if lossy.len() < full.len() {
            shrunk += 1;
        }
    }
    assert!(shrunk > 0, "some ball must shrink behind the crashed cut");
    // The victim's own ball still grows from *incoming* traffic: crash
    // suppresses sends, not receipt.
    assert!(base.0[victim].len() > 1);
    for workers in [2usize, 4] {
        assert_eq!(run(workers), base, "workers = {workers}");
    }
}

#[test]
fn engine_fault_replay_is_identical_across_split_and_unlimited_modes() {
    // The acceptance contract: faults key on LOGICAL messages (applied at
    // staging, before fragmentation), so a lose/duplicate plan perturbs a
    // Split(w) run exactly like an unlimited run — same balls, same
    // lost/duplicated counts — while the split run additionally fragments.
    let g = gen::grid(9, 9);
    let centers: Vec<usize> = (0..g.n()).collect();
    let radius = 3;
    let faults = || {
        FaultPlan::new()
            .lose_edges(23, 0.2)
            .duplicate_edges(99, 0.3)
            .drop_outbox(17, 2)
    };
    let run = |config: EngineConfig| {
        let mut ledger = RoundLedger::new();
        let (balls, metrics) = engine_gather_balls(
            &g,
            None,
            &centers,
            radius,
            config.with_faults(faults()),
            &mut ledger,
        );
        (
            balls,
            metrics.total_lost(),
            metrics.total_duplicated(),
            metrics.total_dropped(),
            metrics.total_fragments(),
        )
    };
    let unlimited = run(EngineConfig::default());
    assert!(unlimited.1 > 0 && unlimited.2 > 0 && unlimited.3 > 0);
    assert_eq!(unlimited.4, 0, "no fragmentation without a split budget");
    for shards in [1usize, 2, 8] {
        let split = run(EngineConfig::default().with_shards(shards).congest_split(2));
        assert_eq!(split.0, unlimited.0, "shards={shards}: balls diverged");
        assert_eq!(split.1, unlimited.1, "shards={shards}: lost diverged");
        assert_eq!(split.2, unlimited.2, "shards={shards}: duplicated diverged");
        assert_eq!(split.3, unlimited.3, "shards={shards}: dropped diverged");
        assert!(split.4 > 0, "wide gather traffic must fragment at width 2");
    }
}

#[test]
fn engine_delayed_delivery_reactivates_frontier_skipped_target() {
    // The frontier index must treat a fault-delayed batch as traffic: an
    // `OnMessage` node skipped for the whole delay window steps again in
    // the exact round the deferred message lands — never earlier (the
    // skip is real) and never later (the delivery re-activates it).
    use engine::{Activation, EngineSession, Inbox, NodeCtx, NodeProgram, Outbox, Stop};

    struct Sleeper {
        arrivals: Vec<(u64, usize)>,
        steps: Vec<u64>,
    }
    impl NodeProgram for Sleeper {
        type Message = u64;
        fn init(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<u64> {
            if ctx.id == 0 {
                Outbox::Broadcast(7)
            } else {
                Outbox::Silent
            }
        }
        fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, u64>) -> Outbox<u64> {
            self.steps.push(ctx.round);
            self.arrivals
                .extend(inbox.iter().map(|(src, _)| (ctx.round, src)));
            Outbox::Silent
        }
        fn halted(&self) -> bool {
            false
        }
        fn activation(&self) -> Activation {
            Activation::OnMessage
        }
    }

    let g = gen::path(3);
    let run = |frontier: bool, shards: usize| {
        let config = EngineConfig::default()
            .with_shards(shards)
            .with_frontier(frontier)
            .with_faults(FaultPlan::new().delay_outbox(0, 0, 3));
        let mut sess = EngineSession::new(&g, None, config, |_| Sleeper {
            arrivals: Vec::new(),
            steps: Vec::new(),
        });
        sess.run_phase("sleep", Stop::Rounds(6));
        let skipped = sess.metrics().total_frontier_skipped();
        let (programs, metrics, _) = sess.into_parts();
        assert_eq!(metrics.total_delayed(), 1, "the init unicast was delayed");
        let arrivals: Vec<Vec<(u64, usize)>> =
            programs.iter().map(|p| p.arrivals.clone()).collect();
        let steps: Vec<Vec<u64>> = programs.iter().map(|p| p.steps.clone()).collect();
        (arrivals, steps, skipped)
    };

    let (full_arrivals, full_steps, full_skipped) = run(false, 1);
    // The full scan steps everyone every round and sees the delayed
    // delivery land at node 1 in round 1 + 3 = 4.
    assert_eq!(full_arrivals[1], vec![(4, 0)]);
    assert_eq!(full_steps[1], vec![1, 2, 3, 4, 5, 6]);
    assert_eq!(full_skipped, 0, "full scans skip nothing");

    for shards in [1usize, 2] {
        let (arrivals, steps, skipped) = run(true, shards);
        assert_eq!(
            arrivals, full_arrivals,
            "shards={shards}: delivery rounds must match the full scan"
        );
        // The delivery round — and only it — re-activated the sleeper.
        assert_eq!(steps[0], Vec::<u64>::new(), "node 0 never hears anything");
        assert_eq!(
            steps[1],
            vec![4],
            "node 1 steps exactly in the delivery round"
        );
        assert_eq!(steps[2], Vec::<u64>::new(), "node 2 never hears anything");
        assert_eq!(skipped, 3 * 6 - 1, "every other (node, round) was skipped");
    }

    // The O(frontier) claim, as a count: one endlessly echoing edge on an
    // otherwise silent path. Each round steps only the node holding the
    // ping, so a frontier run skips exactly the other n − 1 every round,
    // with traffic identical to the full scan's.
    struct Echo;
    impl NodeProgram for Echo {
        type Message = u64;
        fn init(&mut self, ctx: &mut NodeCtx<'_>) -> Outbox<u64> {
            if ctx.id == 0 {
                Outbox::Unicast(1, 0)
            } else {
                Outbox::Silent
            }
        }
        fn on_round(&mut self, _: &mut NodeCtx<'_>, inbox: Inbox<'_, u64>) -> Outbox<u64> {
            match inbox.iter().next() {
                Some((src, &ping)) => Outbox::Unicast(src, ping),
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

    let (n, rounds) = (10_000, 64);
    let path = gen::path(n);
    let echo = |frontier: bool| {
        let config = EngineConfig::default()
            .with_shards(1)
            .with_frontier(frontier);
        let mut sess = EngineSession::new(&path, None, config, |_| Echo);
        sess.run_phase("echo", Stop::Rounds(rounds));
        sess.into_parts().1
    };
    let (full, front) = (echo(false), echo(true));
    assert_eq!(front.total_rounds(), full.total_rounds());
    assert_eq!(front.message_counts(), full.message_counts());
    assert_eq!(full.total_frontier_skipped(), 0);
    assert_eq!(
        front.total_frontier_skipped(),
        (n - 1) * rounds as usize,
        "every round steps exactly the one node holding the ping"
    );
}

#[test]
fn engine_delayed_batch_reads_before_its_senders_fresh_traffic() {
    // Every node broadcasts its round number each round and logs what it
    // reads. Node 29 delays its round-2 broadcast by one round, so at round
    // 4 its receivers read its late message and its fresh one together: in
    // sender order, the late one first. Node 0 hears 1, 28 and 29 (a cycle
    // plus the chord 0–28); at 2 and 3 shards it sits in the first worker
    // group and 28 and 29 in the last, so the late batch crosses a group
    // cut and shares its group's traffic with a lower fresh sender.
    use engine::{EngineSession, Inbox, NodeCtx, NodeProgram, Outbox, Stop};

    struct Recorder {
        log: Vec<(u64, usize, u64)>,
    }
    impl NodeProgram for Recorder {
        type Message = u64;
        fn init(&mut self, _: &mut NodeCtx<'_>) -> Outbox<u64> {
            Outbox::Broadcast(0)
        }
        fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, u64>) -> Outbox<u64> {
            self.log
                .extend(inbox.iter().map(|(src, &sent)| (ctx.round, src, sent)));
            Outbox::Broadcast(ctx.round)
        }
        fn halted(&self) -> bool {
            false
        }
    }

    let n = 30;
    let g = graphs::Graph::from_edges(n, (0..n).map(|v| (v, (v + 1) % n)).chain([(0, 28)]));
    let run = |shards: usize| {
        let config = EngineConfig::default()
            .with_shards(shards)
            .with_workers(shards)
            .with_faults(FaultPlan::new().delay_outbox(29, 2, 1));
        let mut sess = EngineSession::new(&g, None, config, |_| Recorder { log: Vec::new() });
        sess.run_phase("record", Stop::Rounds(5));
        let (programs, metrics, _) = sess.into_parts();
        assert_eq!(metrics.total_delayed(), 2, "node 29's two deliveries");
        programs.into_iter().map(|p| p.log).collect::<Vec<_>>()
    };
    let logs = run(1);
    let at = |v: usize, round: u64| -> Vec<(usize, u64)> {
        logs[v]
            .iter()
            .filter(|e| e.0 == round)
            .map(|e| (e.1, e.2))
            .collect()
    };
    assert_eq!(
        at(0, 3),
        [(1, 2), (28, 2)],
        "node 29's round-2 send is late"
    );
    assert_eq!(
        at(0, 4),
        [(1, 3), (28, 3), (29, 2), (29, 3)],
        "a lower sender first, then 29's late message, then its fresh one"
    );
    assert_eq!(at(28, 4), [(0, 3), (27, 3), (29, 2), (29, 3)]);
    for shards in [2, 3] {
        assert_eq!(run(shards), logs, "shards = {shards}");
    }
}

#[test]
fn zero_and_tiny_graphs() {
    // n = 0.
    let g0 = graphs::Graph::empty(0);
    let out = list_color_sparse(
        &g0,
        &ListAssignment::uniform(0, 3),
        3,
        SparseColoringConfig::default(),
    )
    .unwrap();
    assert!(out.coloring().unwrap().colors.is_empty());
    // n = 1.
    let g1 = graphs::Graph::empty(1);
    let out = list_color_sparse(
        &g1,
        &ListAssignment::uniform(1, 3),
        3,
        SparseColoringConfig::default(),
    )
    .unwrap();
    assert_eq!(out.coloring().unwrap().colors.len(), 1);
    // Single edge.
    let g2 = graphs::Graph::from_edges(2, [(0, 1)]);
    let out = list_color_sparse(
        &g2,
        &ListAssignment::uniform(2, 3),
        3,
        SparseColoringConfig::default(),
    )
    .unwrap();
    let c = &out.coloring().unwrap().colors;
    assert_ne!(c[0], c[1]);
}
