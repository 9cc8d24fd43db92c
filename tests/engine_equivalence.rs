//! Engine-vs-sequential equivalence: for every ported algorithm, the
//! message-passing execution must reproduce the sequential implementation's
//! coloring/partition *and* its `RoundLedger` totals — the engine is a new
//! substrate, not a new algorithm. The wire-codec layer rides the same
//! contract: encodings are width-honest round trips, and `Split(1)` runs —
//! where *every* multi-word message crosses as fragments — reproduce
//! unlimited-width outputs exactly.

use engine::programs::gather::{GatherMsg, NbrList};
use engine::programs::h_partition::Peeled;
use engine::programs::randomized::ColorMsg;
use engine::programs::ruling::RulingMsg;
use engine::{
    engine_cole_vishkin_3color, engine_degree_plus_one_coloring, engine_gather_balls,
    engine_h_partition, engine_layered_greedy, engine_randomized_list_coloring,
    engine_ruling_forest, EngineConfig, EngineMessage, EngineMetrics, FaultPlan, WireCodec,
    SPLIT_PHASE,
};
use graphs::{gen, VertexSet};
use local_model::{
    cole_vishkin_3color, degree_plus_one_coloring, gather_balls, h_partition, layered_greedy,
    randomized_list_coloring, ruling_forest, RootedForest, RoundLedger,
};
use proptest::prelude::*;
use rand::mix64;

/// A seeded random mask over `0..n`: keeps about three vertices in four,
/// and never vertex 0.
fn random_mask(n: usize, seed: u64) -> VertexSet {
    VertexSet::from_iter_with_universe(
        n,
        (1..n).filter(|&v| !mix64(seed, v as u64).is_multiple_of(4)),
    )
}

fn forest_from_bfs(g: &graphs::Graph, root: usize) -> RootedForest {
    RootedForest::new(graphs::bfs_parents(g, root, None))
}

#[test]
fn cole_vishkin_equivalence_across_forest_families() {
    let forests = [
        forest_from_bfs(&gen::path(2000), 0),
        forest_from_bfs(&gen::binary_tree(10), 0),
        forest_from_bfs(&gen::random_tree(700, 13), 0),
        RootedForest::new(vec![0]),
    ];
    for (i, f) in forests.iter().enumerate() {
        let mut seq_ledger = RoundLedger::new();
        let seq = cole_vishkin_3color(f, &mut seq_ledger);
        let mut eng_ledger = RoundLedger::new();
        let (colors, metrics) =
            engine_cole_vishkin_3color(f, EngineConfig::default().with_shards(3), &mut eng_ledger);
        assert_eq!(colors, seq, "forest {i}: colorings diverged");
        assert_eq!(
            eng_ledger.phase_total("cole-vishkin"),
            seq_ledger.phase_total("cole-vishkin"),
            "forest {i}: shrink-phase rounds diverged"
        );
        assert_eq!(
            eng_ledger.phase_total("shift-down"),
            seq_ledger.phase_total("shift-down")
        );
        assert_eq!(eng_ledger.total(), seq_ledger.total());
        // The ledger is *observed*: every charged round was executed.
        assert_eq!(metrics.total_rounds(), eng_ledger.total());
    }
}

#[test]
fn h_partition_equivalence_matches_barenboim_elkin_phase() {
    // The same (a, ε) grid the Barenboim–Elkin baseline sweeps.
    for (n, a, eps, seed) in [
        (200usize, 2usize, 1.0f64, 1u64),
        (200, 3, 0.5, 2),
        (500, 2, 0.25, 3),
        (64, 4, 1.0, 4),
    ] {
        let g = gen::forest_union(n, a, seed);
        let mut seq_ledger = RoundLedger::new();
        let seq = h_partition(&g, None, a, eps, &mut seq_ledger);
        let mut eng_ledger = RoundLedger::new();
        let (hp, metrics) = engine_h_partition(
            &g,
            None,
            a,
            eps,
            EngineConfig::default().with_shards(4),
            &mut eng_ledger,
        );
        assert_eq!(hp.layer, seq.layer, "n={n} a={a} ε={eps}");
        assert_eq!(hp.layers, seq.layers);
        assert_eq!(hp.threshold, seq.threshold);
        assert_eq!(
            eng_ledger.phase_total("h-partition"),
            seq_ledger.phase_total("h-partition")
        );
        assert_eq!(metrics.total_rounds(), hp.layers as u64);
    }
}

#[test]
fn randomized_equivalence_is_bit_identical() {
    for (g, seed) in [
        (gen::random_regular(300, 4, 5), 5u64),
        (gen::grid(15, 15), 7),
        (gen::random_tree(250, 9), 9),
    ] {
        let lists: Vec<Vec<usize>> = g
            .vertices()
            .map(|v| (0..g.degree(v) + 1).collect())
            .collect();
        let mut seq_ledger = RoundLedger::new();
        let seq = randomized_list_coloring(&g, None, &lists, seed, 1000, &mut seq_ledger);
        assert!(seq.complete);
        let mut eng_ledger = RoundLedger::new();
        let (out, metrics) = engine_randomized_list_coloring(
            &g,
            None,
            &lists,
            seed,
            1000,
            EngineConfig::default().with_shards(2),
            &mut eng_ledger,
        );
        assert_eq!(out.colors, seq.colors, "seed {seed}: colors diverged");
        assert_eq!(out.rounds, seq.rounds, "seed {seed}: cycle counts diverged");
        assert!(out.complete);
        assert_eq!(
            eng_ledger.phase_total("randomized-coloring"),
            seq_ledger.phase_total("randomized-coloring")
        );
        // Two engine rounds per propose/resolve cycle, all observed.
        assert_eq!(metrics.total_rounds(), 2 * out.rounds);
        assert!(graphs::is_proper(&g, &out.colors));
    }
}

#[test]
fn masked_equivalence_randomized_and_h_partition() {
    // The active-set contract: a masked engine session replays the
    // sequential masked primitive — colors/layers AND ledger totals — at
    // several shard counts, with dead vertices untouched.
    let g = gen::grid(14, 14);
    let mask = VertexSet::from_iter_with_universe(g.n(), (0..g.n()).filter(|v| v % 4 != 1));
    let lists: Vec<Vec<usize>> = g
        .vertices()
        .map(|v| (0..g.degree(v) + 1).collect())
        .collect();
    let mut seq_ledger = RoundLedger::new();
    let seq = randomized_list_coloring(&g, Some(&mask), &lists, 5, 1000, &mut seq_ledger);
    assert!(seq.complete);
    for shards in [1usize, 3, 8] {
        let mut eng_ledger = RoundLedger::new();
        let (out, _) = engine_randomized_list_coloring(
            &g,
            Some(&mask),
            &lists,
            5,
            1000,
            EngineConfig::default().with_shards(shards),
            &mut eng_ledger,
        );
        assert_eq!(out.colors, seq.colors, "shards {shards}");
        assert_eq!(eng_ledger.total(), seq_ledger.total(), "shards {shards}");
    }

    let g = gen::forest_union(400, 2, 3);
    let mask = VertexSet::from_iter_with_universe(400, (0..400).filter(|v| v % 7 != 0));
    let mut seq_ledger = RoundLedger::new();
    let seq = h_partition(&g, Some(&mask), 2, 1.0, &mut seq_ledger);
    let mut eng_ledger = RoundLedger::new();
    let (hp, _) = engine_h_partition(
        &g,
        Some(&mask),
        2,
        1.0,
        EngineConfig::default().with_shards(4),
        &mut eng_ledger,
    );
    assert_eq!(hp.layer, seq.layer);
    assert_eq!(hp.layers, seq.layers);
    assert_eq!(eng_ledger.total(), seq_ledger.total());
}

#[test]
fn degree_plus_one_equivalence_masked_and_whole() {
    // The merge-reduce (d+1)-coloring — the per-level coloring phase of
    // Theorem 1.3 — executed on the engine: identical colors and ledger
    // totals, whole-graph and masked.
    let cases: Vec<(graphs::Graph, Option<VertexSet>)> = vec![
        (gen::grid(9, 9), None),
        (gen::random_regular(60, 4, 11), None),
        (gen::triangular(6, 6), {
            let n = gen::triangular(6, 6).n();
            Some(VertexSet::from_iter_with_universe(
                n,
                (0..n).filter(|v| v % 3 != 2),
            ))
        }),
    ];
    for (g, mask) in &cases {
        let mut seq_ledger = RoundLedger::new();
        let seq = degree_plus_one_coloring(g, mask.as_ref(), &mut seq_ledger);
        for shards in [1usize, 4] {
            let mut eng_ledger = RoundLedger::new();
            let (col, metrics) = engine_degree_plus_one_coloring(
                g,
                mask.as_ref(),
                EngineConfig::default().with_shards(shards),
                &mut eng_ledger,
            );
            assert_eq!(col, seq, "n={} shards={shards}", g.n());
            assert_eq!(eng_ledger.total(), seq_ledger.total());
            assert_eq!(
                eng_ledger.phase_total("class-sweep"),
                seq_ledger.phase_total("class-sweep")
            );
            // Every Cole–Vishkin and class-sweep round was actually
            // executed on the engine.
            assert_eq!(
                metrics.total_rounds(),
                eng_ledger.total() - eng_ledger.phase_total("forest-decomposition")
            );
        }
    }
}

/// Every round's traffic and frontier: `(messages, payloads, stepped)`.
/// Also checks that some epoch of the session ran on the worker pool.
fn round_profile(metrics: &EngineMetrics) -> Vec<(usize, usize, usize)> {
    let epochs = 2 * (metrics.total_rounds() as usize + 1);
    assert!(metrics.total_driver_epochs() < epochs, "no pooled epoch");
    metrics
        .per_round()
        .iter()
        .map(|r| (r.messages, r.payloads, r.stepped))
        .collect()
}

#[test]
fn identity_view_matches_a_full_mask() {
    // A whole-graph session computes dense ↔ original ids as the identity;
    // a mask that keeps every vertex runs the same session through the
    // masked view's id tables and compacted rows. The two must agree on
    // outputs, ledger totals, and every round's messages, payloads and
    // stepped vertices. The graphs are large enough that some epochs run
    // on the worker pool.
    let g = gen::forest_union(6000, 3, 9);
    let full = VertexSet::from_iter_with_universe(g.n(), 0..g.n());
    for shards in [1usize, 2, 4, 8] {
        let config = EngineConfig::default().with_shards(shards);
        let run = |mask: Option<&VertexSet>| {
            let mut ledger = RoundLedger::new();
            let (hp, metrics) = engine_h_partition(&g, mask, 3, 0.5, config.clone(), &mut ledger);
            (hp.layer, hp.layers, ledger.total(), round_profile(&metrics))
        };
        assert_eq!(run(None), run(Some(&full)), "h-partition, shards {shards}");
    }

    let g = gen::grid(70, 70);
    let full = VertexSet::from_iter_with_universe(g.n(), 0..g.n());
    let subset: Vec<usize> = (0..g.n())
        .filter(|&v| mix64(5, v as u64).is_multiple_of(2))
        .collect();
    for shards in [1usize, 2, 4, 8] {
        let config = EngineConfig::default().with_shards(shards);
        let run = |mask: Option<&VertexSet>| {
            let mut ledger = RoundLedger::new();
            let (rf, metrics) =
                engine_ruling_forest(&g, mask, &subset, 4, config.clone(), &mut ledger);
            let forest = (rf.roots, rf.parent, rf.root_of, rf.depth);
            (forest, ledger.total(), round_profile(&metrics))
        };
        assert_eq!(
            run(None),
            run(Some(&full)),
            "ruling forest, shards {shards}"
        );
    }
}

/// Asserts the two halves of the wire-codec contract for one message: the
/// encoding round-trips, and its word count is exactly the recorded width.
fn assert_codec<M: EngineMessage + PartialEq + std::fmt::Debug>(m: &M) {
    let words = m.encode_to_vec();
    assert_eq!(
        words.len().max(1),
        m.width(),
        "{m:?}: width must equal the encoded frame count"
    );
    assert_eq!(&M::decode(&words).expect("decodes"), m, "round trip");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every program message type round-trips through its wire codec with
    /// a width-honest encoding, across randomized payloads.
    #[test]
    fn wire_codecs_round_trip_width_honestly(
        seed in 0u64..5000,
        len in 0usize..48,
    ) {
        let word = |i: usize| mix64(seed, i as u64);
        let ids: Vec<usize> = (0..len).map(|i| (word(i) % 1_000_000) as usize).collect();
        assert_codec(&GatherMsg::Rich);
        assert_codec(&GatherMsg::Ball(ids.clone()));
        assert_codec(&NbrList(ids.clone()));
        assert_codec(&RulingMsg::Tokens {
            bit: (word(len) % 60) as usize,
            prefixes: ids.iter().copied().collect(),
        });
        // Token lists at the inline/spill boundary, every case.
        for boundary in [0usize, 4, 5, 48] {
            let tokens = RulingMsg::Tokens {
                bit: (word(boundary) % 60) as usize,
                prefixes: (0..boundary).map(|i| (word(100 + i) % 1_000_000) as usize).collect(),
            };
            assert_codec(&tokens);
            // Decoding returns the canonical form: inline exactly when the
            // list fits, as a list built by pushes is.
            match RulingMsg::decode(&tokens.encode_to_vec()) {
                Some(RulingMsg::Tokens { prefixes, .. }) => {
                    assert_eq!(prefixes.spilled(), boundary > 4, "len {boundary}");
                }
                other => panic!("len {boundary}: decoded {other:?}"),
            }
        }
        assert_codec(&RulingMsg::Claim { root: (word(1) % 1_000_000) as usize });
        assert_codec(&RulingMsg::Keep);
        assert_codec(&Peeled);
        assert_codec(&ColorMsg::Proposal((word(2) % 1_000_000) as usize));
        assert_codec(&ColorMsg::Committed((word(3) % 1_000_000) as usize));
        assert_codec(&((word(4) % 1_000_000) as usize));
        assert_codec(&(word(5) % 1_000_000));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `Split(1)` — every multi-word message crosses the wire as one-word
    /// fragments, round-tripped through its codec — must reproduce the
    /// unlimited-width gather and ruling runs exactly on random sparse
    /// graphs, with the split surplus isolated under the SPLIT_PHASE ledger
    /// entry and the observed fragment/physical-round accounting
    /// consistent.
    #[test]
    fn split_one_matches_unlimited_on_gather_and_ruling(
        n in 20usize..100,
        extra in 0usize..40,
        radius in 1usize..4,
        seed in 0u64..500,
    ) {
        let g = gen::gnm(n, n + extra, seed);
        let centers: Vec<usize> = (0..n).collect();
        let mut base_ledger = RoundLedger::new();
        let (base_balls, base_metrics) = engine_gather_balls(
            &g, None, &centers, radius, EngineConfig::default(), &mut base_ledger,
        );
        let mut ledger = RoundLedger::new();
        let (balls, metrics) = engine_gather_balls(
            &g, None, &centers, radius,
            EngineConfig::default().with_shards(2).congest_split(1),
            &mut ledger,
        );
        prop_assert_eq!(&balls, &base_balls, "gather balls diverged under Split(1)");
        let surplus = ledger.phase_total(SPLIT_PHASE);
        prop_assert_eq!(ledger.total() - surplus, base_ledger.total());
        prop_assert_eq!(
            metrics.total_physical_rounds(),
            metrics.total_rounds() + surplus
        );
        if base_metrics.max_width() > 1 {
            prop_assert!(metrics.total_fragments() > 0, "wide floods must fragment");
        }

        let subset: Vec<usize> = (0..n).step_by(2).collect();
        let alpha = 1 + (seed % 5) as usize;
        let mut base_ledger = RoundLedger::new();
        let (base_rf, _) = engine_ruling_forest(
            &g, None, &subset, alpha, EngineConfig::default(), &mut base_ledger,
        );
        let mut ledger = RoundLedger::new();
        let (rf, _) = engine_ruling_forest(
            &g, None, &subset, alpha,
            EngineConfig::default().with_shards(2).congest_split(1),
            &mut ledger,
        );
        prop_assert_eq!(&rf.roots, &base_rf.roots);
        prop_assert_eq!(&rf.parent, &base_rf.parent);
        prop_assert_eq!(&rf.root_of, &base_rf.root_of);
        prop_assert_eq!(&rf.depth, &base_rf.depth);
        prop_assert_eq!(
            ledger.total() - ledger.phase_total(SPLIT_PHASE),
            base_ledger.total()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// GatherProgram: on random sparse graphs, whole and under a seeded
    /// random mask, the engine's flooded ball contents equal the
    /// sequential [`gather_balls`] for every center, at shards {1, 2, 8},
    /// with equal `"ball-gather"` charges. Every vertex is a center, so
    /// the masked case holds centers outside the mask, whose balls are
    /// empty.
    #[test]
    fn gather_program_balls_match_sequential(
        n in 20usize..120,
        extra in 0usize..40,
        radius in 0usize..5,
        seed in 0u64..500,
        mask_seed in 0u64..500,
    ) {
        let g = gen::gnm(n, n + extra, seed); // sparse: m ≤ n + 40
        let centers: Vec<usize> = (0..n).collect();
        let mask = random_mask(n, mask_seed);
        for mask in [None, Some(&mask)] {
            let mut seq_ledger = RoundLedger::new();
            let seq = gather_balls(&g, mask, &centers, radius, &mut seq_ledger);
            if let Some(m) = mask {
                prop_assert!(!m.contains(0), "some center lies outside the mask");
                for &c in &centers {
                    prop_assert_eq!(seq[c].is_empty(), !m.contains(c), "center {}", c);
                }
            }
            for shards in [1usize, 2, 8] {
                let mut ledger = RoundLedger::new();
                let (balls, _) = engine_gather_balls(
                    &g, mask, &centers, radius,
                    EngineConfig::default().with_shards(shards),
                    &mut ledger,
                );
                prop_assert_eq!(&balls, &seq, "shards = {}, masked = {}", shards, mask.is_some());
                prop_assert_eq!(ledger.total(), seq_ledger.total());
            }
        }
    }

    /// RulingProgram: on random sparse graphs, whole and under a seeded
    /// random mask (the subset inside it), the engine-built forest —
    /// roots, membership, parents, depths — equals the sequential
    /// [`ruling_forest`], at shards {1, 2, 8}, with equal charges.
    #[test]
    fn ruling_program_forest_matches_sequential(
        n in 20usize..120,
        extra in 0usize..40,
        alpha in 1usize..7,
        stride in 1usize..4,
        seed in 0u64..500,
        mask_seed in 0u64..500,
    ) {
        let g = gen::gnm(n, n + extra, seed);
        let mask = random_mask(n, mask_seed);
        for mask in [None, Some(&mask)] {
            let subset: Vec<usize> = (0..n)
                .filter(|&v| mask.is_none_or(|m| m.contains(v)))
                .step_by(stride)
                .collect();
            let mut seq_ledger = RoundLedger::new();
            let seq = ruling_forest(&g, mask, &subset, alpha, &mut seq_ledger);
            for shards in [1usize, 2, 8] {
                let mut ledger = RoundLedger::new();
                let (rf, _) = engine_ruling_forest(
                    &g, mask, &subset, alpha,
                    EngineConfig::default().with_shards(shards),
                    &mut ledger,
                );
                let label = format!("shards = {shards}, masked = {}", mask.is_some());
                prop_assert_eq!(&rf.roots, &seq.roots, "{}", label);
                prop_assert_eq!(&rf.parent, &seq.parent, "{}", label);
                prop_assert_eq!(&rf.root_of, &seq.root_of, "{}", label);
                prop_assert_eq!(&rf.depth, &seq.depth, "{}", label);
                prop_assert_eq!(ledger.total(), seq_ledger.total());
            }
        }
    }

    /// LayeredGreedyProgram: on ruling forests of random planar graphs,
    /// with `(deg+1)` lists and the forest's `(d+1)`-classes, the engine
    /// sweep commits the same colors as the sequential [`layered_greedy`]
    /// at shards {1, 2, 8}, with equal charges.
    #[test]
    fn layered_greedy_matches_sequential_on_ruling_forests(
        n in 20usize..200,
        alpha in 2usize..7,
        stride in 1usize..4,
        seed in 0u64..500,
    ) {
        let g = gen::apollonian(n, seed);
        let subset: Vec<usize> = (0..g.n()).step_by(stride).collect();
        let mut ledger = RoundLedger::new();
        let rf = ruling_forest(&g, None, &subset, alpha, &mut ledger);
        let scope = VertexSet::from_iter_with_universe(g.n(), rf.members());
        let classes = degree_plus_one_coloring(&g, Some(&scope), &mut ledger);
        let class_count = scope.iter().map(|v| classes[v] + 1).max().unwrap_or(1);
        let lists: Vec<Vec<usize>> = g
            .vertices()
            .map(|v| {
                let deg = g.neighbors(v).iter().filter(|&&w| scope.contains(w)).count();
                let shift = (mix64(seed, v as u64) % 5) as usize;
                (shift..shift + deg + 1).rev().collect()
            })
            .collect();
        let mut seq_ledger = RoundLedger::new();
        let seq = layered_greedy(
            &g, &scope, &lists, &rf.depth, &classes, class_count, &mut seq_ledger,
        );
        for shards in [1usize, 2, 8] {
            let mut ledger = RoundLedger::new();
            let (colors, _) = engine_layered_greedy(
                &g, &scope, &lists, &rf.depth, &classes, class_count,
                EngineConfig::default().with_shards(shards),
                &mut ledger,
            );
            prop_assert_eq!(&colors, &seq, "shards = {}", shards);
            prop_assert_eq!(
                ledger.phase_total("layered-coloring"),
                seq_ledger.phase_total("layered-coloring")
            );
            prop_assert_eq!(ledger.total(), seq_ledger.total());
        }
    }

    /// Frontier-sparse rounds are a pure optimization: with gating on
    /// (default) the engine skips empty-inbox nodes whose activation hint
    /// permits it, and the result — outputs, ledger charges, per-round
    /// message fingerprint — must equal a full scan
    /// (`with_frontier(false)`) on random sparse graphs. The full scan
    /// reports `active_frac == 1.0` every round; the gated run's fraction
    /// never exceeds it.
    #[test]
    fn frontier_gating_matches_full_scan_on_gather_and_ruling(
        n in 20usize..120,
        extra in 0usize..40,
        radius in 0usize..5,
        alpha in 1usize..7,
        seed in 0u64..500,
    ) {
        let g = gen::gnm(n, n + extra, seed);
        let centers: Vec<usize> = (0..n).collect();
        let mut full_ledger = RoundLedger::new();
        let (full_balls, full_metrics) = engine_gather_balls(
            &g, None, &centers, radius,
            EngineConfig::default().with_frontier(false),
            &mut full_ledger,
        );
        prop_assert!(
            full_metrics.per_round().iter().all(|r| r.active_frac == 1.0),
            "a full scan steps every node"
        );
        for shards in [1usize, 2, 8] {
            let mut ledger = RoundLedger::new();
            let (balls, metrics) = engine_gather_balls(
                &g, None, &centers, radius,
                EngineConfig::default().with_shards(shards),
                &mut ledger,
            );
            prop_assert_eq!(&balls, &full_balls, "gather, shards = {}", shards);
            prop_assert_eq!(ledger.total(), full_ledger.total());
            prop_assert_eq!(metrics.message_counts(), full_metrics.message_counts());
            prop_assert!(metrics.mean_active_frac() <= 1.0 + 1e-12);
        }

        let subset: Vec<usize> = (0..n).step_by(2).collect();
        let mut full_ledger = RoundLedger::new();
        let (full_rf, full_metrics) = engine_ruling_forest(
            &g, None, &subset, alpha,
            EngineConfig::default().with_frontier(false),
            &mut full_ledger,
        );
        for shards in [1usize, 2, 8] {
            let mut ledger = RoundLedger::new();
            let (rf, metrics) = engine_ruling_forest(
                &g, None, &subset, alpha,
                EngineConfig::default().with_shards(shards),
                &mut ledger,
            );
            prop_assert_eq!(&rf.roots, &full_rf.roots, "ruling, shards = {}", shards);
            prop_assert_eq!(&rf.parent, &full_rf.parent, "ruling, shards = {}", shards);
            prop_assert_eq!(&rf.root_of, &full_rf.root_of, "ruling, shards = {}", shards);
            prop_assert_eq!(&rf.depth, &full_rf.depth, "ruling, shards = {}", shards);
            prop_assert_eq!(ledger.total(), full_ledger.total());
            prop_assert_eq!(metrics.message_counts(), full_metrics.message_counts());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The frontier-vs-full-scan contract for the remaining program
    /// families — Cole–Vishkin, H-partition, randomized list coloring, and
    /// the (d+1) class sweep (the `WakeAt`-scheduled layered program):
    /// outputs, ledger totals, and per-round message fingerprints are
    /// bit-identical to `with_frontier(false)` at shards {1, 2, 8}.
    #[test]
    fn frontier_gating_matches_full_scan_on_remaining_programs(
        n in 30usize..150,
        a in 2usize..4,
        extra in 0usize..30,
        seed in 0u64..500,
    ) {
        // Cole–Vishkin on a random-tree forest.
        let f = forest_from_bfs(&gen::random_tree(n, seed), 0);
        let mut full_ledger = RoundLedger::new();
        let (full_colors, full_metrics) = engine_cole_vishkin_3color(
            &f, EngineConfig::default().with_frontier(false), &mut full_ledger,
        );
        for shards in [1usize, 2, 8] {
            let mut ledger = RoundLedger::new();
            let (colors, metrics) = engine_cole_vishkin_3color(
                &f, EngineConfig::default().with_shards(shards), &mut ledger,
            );
            prop_assert_eq!(&colors, &full_colors, "cv, shards = {}", shards);
            prop_assert_eq!(ledger.total(), full_ledger.total());
            prop_assert_eq!(metrics.message_counts(), full_metrics.message_counts());
        }

        // H-partition on an arboricity-`a` forest union.
        let g = gen::forest_union(n, a, seed);
        let mut full_ledger = RoundLedger::new();
        let (full_hp, full_metrics) = engine_h_partition(
            &g, None, a, 1.0,
            EngineConfig::default().with_frontier(false),
            &mut full_ledger,
        );
        for shards in [1usize, 2, 8] {
            let mut ledger = RoundLedger::new();
            let (hp, metrics) = engine_h_partition(
                &g, None, a, 1.0,
                EngineConfig::default().with_shards(shards),
                &mut ledger,
            );
            prop_assert_eq!(&hp.layer, &full_hp.layer, "hp, shards = {}", shards);
            prop_assert_eq!(hp.layers, full_hp.layers);
            prop_assert_eq!(ledger.total(), full_ledger.total());
            prop_assert_eq!(metrics.message_counts(), full_metrics.message_counts());
        }

        // Randomized list coloring on a sparse G(n, m) — RNG streams are
        // keyed on (seed, id), so gating must not perturb a single draw.
        let g = gen::gnm(n, n + extra, seed);
        let lists: Vec<Vec<usize>> = g
            .vertices()
            .map(|v| (0..g.degree(v) + 1).collect())
            .collect();
        let mut full_ledger = RoundLedger::new();
        let (full_out, full_metrics) = engine_randomized_list_coloring(
            &g, None, &lists, seed, 1000,
            EngineConfig::default().with_frontier(false),
            &mut full_ledger,
        );
        for shards in [1usize, 2, 8] {
            let mut ledger = RoundLedger::new();
            let (out, metrics) = engine_randomized_list_coloring(
                &g, None, &lists, seed, 1000,
                EngineConfig::default().with_shards(shards),
                &mut ledger,
            );
            prop_assert_eq!(&out.colors, &full_out.colors, "rand, shards = {}", shards);
            prop_assert_eq!(out.rounds, full_out.rounds);
            prop_assert_eq!(ledger.total(), full_ledger.total());
            prop_assert_eq!(metrics.message_counts(), full_metrics.message_counts());
        }

        // The (d+1) class sweep, whose slot schedule rides `WakeAt`.
        let mut full_ledger = RoundLedger::new();
        let full_colors = {
            let (c, _) = engine_degree_plus_one_coloring(
                &g, None,
                EngineConfig::default().with_frontier(false),
                &mut full_ledger,
            );
            c
        };
        for shards in [1usize, 2, 8] {
            let mut ledger = RoundLedger::new();
            let (colors, _) = engine_degree_plus_one_coloring(
                &g, None, EngineConfig::default().with_shards(shards), &mut ledger,
            );
            prop_assert_eq!(&colors, &full_colors, "sweep, shards = {}", shards);
            prop_assert_eq!(ledger.total(), full_ledger.total());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shard invariance under every fault kind at once: over every
    /// registered graph family, a run with drop/delay faults and seeded
    /// per-edge duplication and loss active is bit-identical at shards
    /// {1, 8} to the shards-2 run (one worker group per shard): colors,
    /// per-round message fingerprints, ledger totals, and physical rounds
    /// all match. Delayed batches are the one traffic the routing epoch
    /// sorts, and multi-group traffic mixes them with fresh and duplicated
    /// messages in one inbox.
    /// Randomized list coloring is the probe because its per-node RNG
    /// streams (`(seed, id)`) expose any delivery-order change instantly.
    #[test]
    fn faulted_randomized_coloring_is_shard_invariant(
        n in 40usize..160,
        seed in 0u64..500,
    ) {
        for name in gen::family_names() {
            let g = gen::build_family(name, n, seed).expect("registered family");
            let lists: Vec<Vec<usize>> = g
                .vertices()
                .map(|v| (0..g.degree(v) + 1).collect())
                .collect();
            let faults = || {
                FaultPlan::new()
                    .delay_outbox(0, 1, 2)
                    .drop_outbox(g.n() / 2, 2)
                    .duplicate_edges(seed ^ 0xD00D, 0.25)
                    .lose_edges(seed ^ 0x10CA1, 0.2)
            };
            let run = |shards: usize| {
                let mut ledger = RoundLedger::new();
                let (out, metrics) = engine_randomized_list_coloring(
                    &g, None, &lists, seed, 1000,
                    EngineConfig::default()
                        .with_shards(shards)
                        .with_workers(shards)
                        .with_faults(faults()),
                    &mut ledger,
                );
                (
                    out.colors,
                    out.rounds,
                    metrics.message_counts(),
                    metrics.total_physical_rounds(),
                    ledger.total(),
                )
            };
            let base = run(2);
            for shards in [1usize, 8] {
                prop_assert_eq!(
                    &base, &run(shards),
                    "family {} shards {}: diverged from shards 2", name, shards
                );
            }
        }
    }

    /// CONGEST `Split(1)` across shard counts: each worker group charges
    /// the fragments of its own senders, so a gather flood at shards 4 must
    /// reproduce the shards-1 run's balls, split surplus, and fragment
    /// counts.
    #[test]
    fn split_gather_is_shard_invariant(
        n in 24usize..90,
        extra in 0usize..30,
        seed in 0u64..300,
    ) {
        let g = gen::gnm(n, n + extra, seed);
        let centers: Vec<usize> = (0..n).collect();
        let run = |shards: usize| {
            let mut ledger = RoundLedger::new();
            let (balls, metrics) = engine_gather_balls(
                &g, None, &centers, 3,
                EngineConfig::default()
                    .with_shards(shards)
                    .with_workers(shards)
                    .congest_split(1),
                &mut ledger,
            );
            (
                balls,
                metrics.total_fragments(),
                metrics.total_physical_rounds(),
                ledger.phase_total(SPLIT_PHASE),
                ledger.total(),
            )
        };
        prop_assert_eq!(run(1), run(4));
    }
}

#[test]
fn facade_prelude_reaches_the_engine() {
    use fewer_colors::prelude::*;
    let g = graphs::gen::forest_union(60, 2, 1);
    let mut ledger = RoundLedger::new();
    let (hp, metrics) = engine_h_partition(&g, None, 2, 1.0, EngineConfig::default(), &mut ledger);
    assert!(hp.layers >= 1);
    assert_eq!(metrics.total_rounds(), ledger.total());
}
