//! Experiment-table harness: regenerates every table of EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p bench --bin tables            # all experiments
//! cargo run --release -p bench --bin tables -- E1 E4   # a selection
//! ```

#![forbid(unsafe_code)]

use bench::{distinct_colors, e1_workloads, log2_cubed, print_table, run_theorem13};
use distributed_coloring::{
    analysis, brooks_list_coloring, classify, color_genus, heawood_number, nice_list_coloring,
    paper_radius, ListAssignment,
};
use graphs::{gen, VertexSet};
use local_model::{
    barenboim_elkin_coloring, gps_seven_coloring, randomized_list_coloring, ruling_forest,
    RoundLedger,
};
use lower_bounds::{h_graph, indistinguishability_radius, locally_planar_5chromatic, path_power3};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    let want = |id: &str| all || args.iter().any(|a| a.eq_ignore_ascii_case(id));

    if want("E1") {
        e1_theorem13_scaling();
    }
    if want("E2") {
        e2_arboricity_vs_barenboim_elkin();
    }
    if want("E3") {
        e3_planar_ladder();
    }
    if want("E4") {
        e4_lemma31_happy_fractions();
    }
    if want("E5") {
        e5_locally_planar_5chromatic();
    }
    if want("E6") {
        e6_klein_indistinguishability();
    }
    if want("E7") {
        e7_brooks_and_nice_lists();
    }
    if want("E8") {
        e8_ruling_forest_quality();
    }
    if want("E9") {
        e9_proposition44();
    }
    if want("E10") {
        e10_genus();
    }
    if want("E11") {
        e11_radius_policy_ablation();
    }
    if want("E12") {
        e12_deterministic_vs_randomized();
    }
}

/// E1 — Theorem 1.3: colors ≤ d and polylog round scaling.
fn e1_theorem13_scaling() {
    let mut rows = Vec::new();
    for n in [64usize, 128, 256, 512, 1024, 2048] {
        for w in e1_workloads(n, 97) {
            let res = run_theorem13(&w.graph, w.d);
            rows.push(vec![
                w.name.into(),
                w.graph.n().to_string(),
                w.d.to_string(),
                distinct_colors(&res.colors).to_string(),
                res.stats.levels().to_string(),
                res.ledger.total().to_string(),
                format!("{:.2}", res.ledger.total() as f64 / log2_cubed(w.graph.n())),
            ]);
        }
    }
    print_table(
        "E1  Theorem 1.3: d-list-coloring, round scaling vs log₂³ n",
        &[
            "family",
            "n",
            "d",
            "colors",
            "levels",
            "rounds",
            "rounds/log₂³n",
        ],
        &rows,
    );
    println!("shape check: colors ≤ d always; rounds/log₂³n stays bounded as n grows.");
}

/// E2 — Corollary 1.4 vs the Barenboim–Elkin baseline.
fn e2_arboricity_vs_barenboim_elkin() {
    let mut rows = Vec::new();
    for a in [2usize, 3, 4, 5] {
        for eps in [0.1f64, 1.0] {
            let n = 600;
            let g = gen::forest_union(n, a, 1000 + a as u64);
            let mut be_ledger = RoundLedger::new();
            let be = barenboim_elkin_coloring(&g, None, a, eps, &mut be_ledger);
            let be_palette = ((2.0 + eps) * a as f64).floor() as usize + 1;
            let ours = run_theorem13(&g, 2 * a);
            rows.push(vec![
                a.to_string(),
                format!("{eps:.1}"),
                be_palette.to_string(),
                distinct_colors(&be).to_string(),
                be_ledger.total().to_string(),
                (2 * a).to_string(),
                distinct_colors(&ours.colors).to_string(),
                ours.ledger.total().to_string(),
                format!("{:+}", be_palette as i64 - 2 * a as i64),
            ]);
        }
    }
    print_table(
        "E2  Corollary 1.4 vs Barenboim–Elkin (n = 600 forest unions)",
        &[
            "a",
            "ε",
            "BE palette",
            "BE used",
            "BE rounds",
            "our palette",
            "our used",
            "our rounds",
            "color gain",
        ],
        &rows,
    );
    println!("shape check: our palette 2a beats BE's ⌊(2+ε)a⌋+1 by ≥ 1 (by ≥ a+1 at ε=1);");
    println!("BE wins rounds — exactly the trade-off the paper states (§1.3/§1.5).");
}

/// E3 — Corollary 2.3: the planar ladder 6/4/3.
fn e3_planar_ladder() {
    let workloads: Vec<(&str, graphs::Graph, usize)> = vec![
        ("apollonian (planar)", gen::apollonian(400, 3), 6),
        ("triangular lattice", gen::triangular(20, 20), 6),
        ("icosahedron", gen::icosahedron(), 6),
        ("grid (triangle-free)", gen::grid(20, 20), 4),
        ("perforated grid", gen::perforated_grid(22, 22, 40, 7), 4),
        (
            "subdivided triang.",
            gen::subdivided_triangulation(80, 5),
            4,
        ),
        ("hexagonal (girth 6)", gen::hexagonal(8, 8), 3),
        (
            "subdivided (girth 6)",
            gen::subdivided_triangulation(40, 9),
            3,
        ),
    ];
    let mut rows = Vec::new();
    for (name, g, d) in workloads {
        let (num, den) = graphs::mad(&g);
        let res = run_theorem13(&g, d);
        // GPS [17] baseline: 7 colors in O(log n) rounds on every planar row.
        let mut gps_ledger = RoundLedger::new();
        let gps = gps_seven_coloring(&g, None, &mut gps_ledger);
        assert!(graphs::is_proper(&g, &gps));
        rows.push(vec![
            name.into(),
            g.n().to_string(),
            format!("{:.3}", num as f64 / den as f64),
            d.to_string(),
            distinct_colors(&res.colors).to_string(),
            res.ledger.total().to_string(),
            distinct_colors(&gps).to_string(),
            gps_ledger.total().to_string(),
        ]);
    }
    print_table(
        "E3  Corollary 2.3: planar 6 / triangle-free 4 / girth≥6 3 (GPS [17] baseline)",
        &[
            "family",
            "n",
            "mad",
            "d",
            "colors",
            "rounds",
            "GPS colors",
            "GPS rounds",
        ],
        &rows,
    );
    println!("shape check: mad < d on every row (Proposition 2.2); colors ≤ d ≤ 6 < 7;");
    println!("GPS wins rounds with its 7-color budget — the paper trades rounds for colors.");
}

/// E4 — Lemma 3.1: measured happy fractions vs the worst-case bounds.
fn e4_lemma31_happy_fractions() {
    let workloads: Vec<(&str, graphs::Graph, usize)> = vec![
        ("grid", gen::grid(24, 24), 4),
        ("triangular", gen::triangular(16, 16), 6),
        ("forest-union-a2", gen::forest_union(500, 2, 11), 4),
        ("random-3-regular", gen::random_regular(500, 3, 13), 3),
        ("random-4-regular", gen::random_regular(500, 4, 17), 4),
        ("apollonian", gen::apollonian(500, 19), 6),
        (
            "star-heavy (poor)",
            gen::star(40).disjoint_union(&gen::grid(12, 12)),
            3,
        ),
    ];
    let mut rows = Vec::new();
    for (name, g, d) in workloads {
        let alive = VertexSet::full(g.n());
        let mut ledger = RoundLedger::new();
        // Paper radius → full-component verdicts (the honest Lemma 3.1 regime).
        let c = classify(&g, &alive, d, paper_radius(g.n()), &mut ledger);
        let report = analysis::Lemma31Report::from_classification(&c, d, g.n());
        rows.push(vec![
            name.into(),
            report.n.to_string(),
            d.to_string(),
            report.poor.to_string(),
            report.sad.to_string(),
            report.happy.to_string(),
            format!("{:.4}", report.measured),
            format!("{:.6}", report.bound),
            if report.holds() { "✓" } else { "✗" }.into(),
        ]);
    }
    print_table(
        "E4  Lemma 3.1: happy fraction ≥ 1/(3d)³ (≥ 1/(12d+1) if Δ ≤ d)",
        &[
            "family", "n", "d", "poor", "sad", "happy", "|A|/n", "bound", "holds",
        ],
        &rows,
    );
    println!("shape check: natural workloads sit far above the worst-case bound.");
}

/// E5 — Theorem 1.5 / Figure 3: locally planar but 5-chromatic.
fn e5_locally_planar_5chromatic() {
    let mut rows = Vec::new();
    for k in [2usize, 3, 4] {
        let hard = locally_planar_5chromatic(k);
        let n = hard.n();
        let easy = path_power3(n);
        let radius = indistinguishability_radius(&hard, 0, &easy, n / 2, 8).unwrap_or(0);
        rows.push(vec![
            k.to_string(),
            n.to_string(),
            graphs::chromatic_number(&hard).to_string(),
            graphs::chromatic_number(&easy).to_string(),
            radius.to_string(),
            format!("{}", n / 6),
        ]);
    }
    print_table(
        "E5  Theorem 1.5: toroidal T(3,2k+1,2k) ≅ C_n(1,2,3) vs planar P_n(1,2,3)",
        &["k", "n", "χ(hard)", "χ(planar twin)", "match radius", "n/6"],
        &rows,
    );
    println!("shape check: χ = 5 vs 4 with balls matching to ~n/6 ⇒ 4-coloring");
    println!("planar graphs needs Ω(n) rounds (Observation 2.4).");
}

/// E6 — Theorems 2.5/2.6 / Figure 2: Klein-bottle grids.
fn e6_klein_indistinguishability() {
    let mut rows = Vec::new();
    for l in [2usize, 3, 4] {
        let hard = gen::klein_grid(5, 2 * l + 1);
        let easy = h_graph(l);
        let hard_root = 2 * (2 * l + 1) + l;
        let easy_root = 2 * (2 * l) + l;
        let radius =
            indistinguishability_radius(&hard, hard_root, &easy, easy_root, 6).unwrap_or(0);
        rows.push(vec![
            format!("G_{{5,{}}} vs H_{}", 2 * l + 1, 2 * l),
            hard.n().to_string(),
            graphs::chromatic_number(&hard).to_string(),
            graphs::chromatic_number(&easy).to_string(),
            radius.to_string(),
        ]);
    }
    for k in [5usize, 7] {
        let hard = gen::klein_grid(k, k);
        let easy = gen::grid(k, k);
        let center = (k / 2) * k + k / 2;
        let radius = indistinguishability_radius(&hard, center, &easy, center, 6).unwrap_or(0);
        rows.push(vec![
            format!("G_{{{k},{k}}} vs grid"),
            hard.n().to_string(),
            graphs::chromatic_number(&hard).to_string(),
            graphs::chromatic_number(&easy).to_string(),
            radius.to_string(),
        ]);
    }
    print_table(
        "E6  Theorems 2.5/2.6: 4-chromatic Klein grids, locally 2-/3-chromatic",
        &["pair", "n(hard)", "χ(hard)", "χ(easy)", "match radius"],
        &rows,
    );
    println!("shape check: χ(hard) = 4 (Gallai) while the planar twin needs 2–3;");
    println!("interior balls match ⇒ 3-coloring needs Ω(n) (strips) / Ω(√n) (grids).");
}

/// E7 — Corollary 2.1 / Theorem 6.1: Brooks-type list coloring.
fn e7_brooks_and_nice_lists() {
    let mut rows = Vec::new();
    for (delta, seed) in [(3usize, 1u64), (4, 2), (5, 3), (6, 4)] {
        let g = gen::random_regular(300, delta, seed);
        let lists = ListAssignment::random(g.n(), delta, 2 * delta, seed);
        match brooks_list_coloring(&g, &lists) {
            Ok((colors, ledger)) => {
                assert!(graphs::is_proper(&g, &colors));
                rows.push(vec![
                    format!("{delta}-regular"),
                    g.n().to_string(),
                    delta.to_string(),
                    distinct_colors(&colors).to_string(),
                    ledger.total().to_string(),
                    "colored".into(),
                ]);
            }
            Err(e) => rows.push(vec![
                format!("{delta}-regular"),
                g.n().to_string(),
                delta.to_string(),
                "-".into(),
                "-".into(),
                format!("{e}"),
            ]),
        }
    }
    // The K_{Δ+1} certificate.
    let k5 = gen::complete(5);
    let outcome = brooks_list_coloring(&k5, &ListAssignment::uniform(5, 4));
    rows.push(vec![
        "K5 (uniform 4-lists)".into(),
        "5".into(),
        "4".into(),
        "-".into(),
        "-".into(),
        match outcome {
            Err(e) => format!("{e}"),
            Ok(_) => "unexpected coloring".into(),
        },
    ]);
    // Nice lists with heterogeneous sizes (Theorem 6.1).
    let cat = gen::caterpillar(60, 3);
    let nice = ListAssignment::new(
        cat.vertices()
            .map(|v| (0..=cat.degree(v)).collect())
            .collect(),
    );
    let (colors, ledger) = nice_list_coloring(&cat, &nice).expect("nice lists color");
    rows.push(vec![
        "caterpillar deg+1 (6.1)".into(),
        cat.n().to_string(),
        cat.max_degree().to_string(),
        distinct_colors(&colors).to_string(),
        ledger.total().to_string(),
        "colored".into(),
    ]);
    print_table(
        "E7  Corollary 2.1 / Theorem 6.1: Δ-list and nice-list coloring",
        &["workload", "n", "Δ", "colors", "rounds", "outcome"],
        &rows,
    );
    println!("shape check: Δ-lists suffice away from K_{{Δ+1}}, which is certified.");
}

/// E8 — Lemma 3.2 scaffolding: ruling-forest quality.
fn e8_ruling_forest_quality() {
    let mut rows = Vec::new();
    for (name, g) in [
        ("grid 24x24", gen::grid(24, 24)),
        ("forest-union-a2", gen::forest_union(600, 2, 3)),
        ("random-3-regular", gen::random_regular(600, 3, 4)),
    ] {
        for alpha in [4usize, 8, 16] {
            let subset: Vec<usize> = (0..g.n()).step_by(3).collect();
            let mut ledger = RoundLedger::new();
            let rf = ruling_forest(&g, None, &subset, alpha, &mut ledger);
            // Verify spacing exactly.
            let mut min_dist = usize::MAX;
            for &r in &rf.roots {
                let dist = graphs::bfs_distances(&g, r, None);
                for &s in &rf.roots {
                    if s != r && dist[s] < min_dist {
                        min_dist = dist[s];
                    }
                }
            }
            let beta = alpha * ((g.n() as f64).log2().ceil() as usize);
            rows.push(vec![
                name.into(),
                alpha.to_string(),
                rf.roots.len().to_string(),
                if min_dist == usize::MAX {
                    "∞".into()
                } else {
                    min_dist.to_string()
                },
                rf.max_depth().to_string(),
                beta.to_string(),
                rf.members().len().to_string(),
                ledger.total().to_string(),
            ]);
        }
    }
    print_table(
        "E8  (α, α·log n)-ruling forests (Lemma 3.2 scaffolding)",
        &[
            "family",
            "α",
            "roots",
            "min root dist",
            "max depth",
            "β bound",
            "|T|",
            "rounds",
        ],
        &rows,
    );
    println!("shape check: min root distance ≥ α and depth ≤ β on every row.");
}

/// E9 — Proposition 4.4: the auxiliary graph H and the |S|/12 bound.
fn e9_proposition44() {
    let mut rows = Vec::new();
    let odd_cycles = {
        let mut g = gen::cycle(5).disjoint_union(&gen::cycle(7));
        for len in [9usize, 11, 13] {
            g = g.disjoint_union(&gen::cycle(len));
        }
        g
    };
    for (name, g, d) in [
        ("random-3-regular", gen::random_regular(400, 3, 5), 3usize),
        ("random-4-regular", gen::random_regular(400, 4, 6), 4),
        ("K4-chain", k4_chain(60), 3),
        ("odd-cycle-pack (d=2!)", odd_cycles, 2),
    ] {
        let alive = VertexSet::full(g.n());
        let mut ledger = RoundLedger::new();
        let c = classify(&g, &alive, d, g.n(), &mut ledger);
        if c.sad.is_empty() {
            rows.push(vec![
                name.into(),
                g.n().to_string(),
                d.to_string(),
                "0".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        let aux = analysis::auxiliary_graph(&g, &c.sad);
        let low = analysis::low_degree_in_sad_subgraph(&g, &c.sad, d);
        rows.push(vec![
            name.into(),
            g.n().to_string(),
            d.to_string(),
            c.sad.len().to_string(),
            low.to_string(),
            format!("{:.1}", c.sad.len() as f64 / 12.0),
            graphs::girth(&aux.graph, None).map_or("∞".into(), |x| x.to_string()),
            format!("{}+{}", aux.hubs, aux.suppressed),
        ]);
    }
    print_table(
        "E9  Proposition 4.4: low-degree sad vertices ≥ |S|/12; aux graph girth ≥ 5",
        &[
            "family",
            "n",
            "d",
            "|S|",
            "low-deg in G[S]",
            "|S|/12",
            "girth(H)",
            "hubs+suppr",
        ],
        &rows,
    );
    println!("shape check: low-deg ≥ |S|/12 and girth(H) ≥ 5 whenever d ≥ 3.");
    println!("the d=2 row is a deliberate negative control: odd cycles violate the");
    println!("d ≥ 3 hypothesis and indeed have NO low-degree sad vertices — this is");
    println!("exactly why Theorem 1.3 requires d ≥ 3 (Linial's 2-coloring bound).");
}

/// A chain of K4s glued at cut vertices — a d-regular-ish Gallai-heavy
/// stress instance.
fn k4_chain(blocks: usize) -> graphs::Graph {
    let mut b = graphs::GraphBuilder::new(1);
    let mut anchor = 0usize;
    for _ in 0..blocks {
        let fresh: Vec<usize> = (0..3).map(|_| b.add_vertex()).collect();
        let mut all = fresh.clone();
        all.push(anchor);
        for i in 0..4 {
            for j in i + 1..4 {
                b.add_edge(all[i], all[j]);
            }
        }
        anchor = fresh[2];
    }
    b.build()
}

/// E10 — Corollary 2.11: Heawood lists on bounded-genus graphs.
fn e10_genus() {
    let mut rows = Vec::new();
    for (name, g, genus) in [
        ("torus grid 8x8", gen::torus_grid(8, 8), 2usize),
        ("torus grid 7x9", gen::torus_grid(7, 9), 2),
        ("klein grid 7x7", gen::klein_grid(7, 7), 2),
        ("torus triangulation", locally_planar_5chromatic(5), 2),
    ] {
        let h = heawood_number(genus);
        let lists = ListAssignment::uniform(g.n(), h);
        let colors = color_genus(&g, genus, &lists, false).expect("Heawood lists suffice");
        let chi = if g.n() <= 50 {
            graphs::chromatic_number(&g).to_string()
        } else {
            "-".into()
        };
        rows.push(vec![
            name.into(),
            g.n().to_string(),
            genus.to_string(),
            h.to_string(),
            distinct_colors(&colors).to_string(),
            chi,
        ]);
    }
    print_table(
        "E10  Corollary 2.11: H(g)-list-coloring on genus-g graphs",
        &[
            "family",
            "n",
            "Euler genus",
            "H(g)",
            "colors used",
            "exact χ",
        ],
        &rows,
    );
    println!("shape check: colors ≤ H(g) = ⌊(7+√(24g+1))/2⌋.");
    // Bonus: the fewer-colors variant when the mad bound is integral.
    let g = gen::torus_grid(6, 10);
    let lists = ListAssignment::uniform(g.n(), 5);
    let colors = color_genus(&g, 1, &lists, true).expect("H(1)−1 = 5 lists suffice");
    println!(
        "fewer-colors variant (genus 1, M integral): {} colors ≤ H(1)−1 = 5",
        distinct_colors(&colors)
    );
}

/// E11 — ablation: the radius policy (DESIGN.md substitution) does not
/// affect validity, only rounds and peel level counts.
fn e11_radius_policy_ablation() {
    use distributed_coloring::{RadiusPolicy, SparseColoringConfig};
    let g = gen::apollonian(600, 77);
    let lists = ListAssignment::uniform(g.n(), 6);
    let mut rows = Vec::new();
    for (name, policy) in [
        ("adaptive(1)", RadiusPolicy::Adaptive { initial: 1 }),
        ("adaptive(2)", RadiusPolicy::Adaptive { initial: 2 }),
        ("adaptive(8)", RadiusPolicy::Adaptive { initial: 8 }),
        ("fixed(4)", RadiusPolicy::Fixed(4)),
        ("fixed(16)", RadiusPolicy::Fixed(16)),
        ("paper", RadiusPolicy::Paper),
    ] {
        let config = SparseColoringConfig {
            radius: policy,
            ..Default::default()
        };
        let outcome =
            distributed_coloring::list_color_sparse(&g, &lists, 6, config).expect("valid input");
        let res = outcome.coloring().expect("planar");
        assert!(graphs::is_proper(&g, &res.colors));
        rows.push(vec![
            name.into(),
            res.stats.levels().to_string(),
            format!("{:?}", res.stats.radii),
            distinct_colors(&res.colors).to_string(),
            res.ledger.total().to_string(),
        ]);
    }
    print_table(
        "E11  Ablation: ball-radius policy on apollonian n=600, d=6",
        &["policy", "levels", "radii", "colors", "rounds"],
        &rows,
    );
    println!("shape check: every policy colors properly with ≤ 6 colors; larger radii");
    println!("mean fewer levels but more rounds per level (the paper constant is the");
    println!("extreme point: one ball-gather dominates, levels are minimal).");
}

/// E12 — §6 remark: the simple randomized algorithm needs only O(log n)
/// rounds in the (deg+1)-list regime, versus our deterministic ledger.
fn e12_deterministic_vs_randomized() {
    let mut rows = Vec::new();
    for n in [128usize, 512, 2048] {
        let g = gen::random_regular(n, 4, 5);
        // Randomized: deg+1 = 5 lists.
        let rand_lists: Vec<Vec<usize>> =
            g.vertices().map(|v| (0..=g.degree(v)).collect()).collect();
        let mut rl = RoundLedger::new();
        let rand_out = randomized_list_coloring(&g, None, &rand_lists, 9, 10_000, &mut rl);
        assert!(rand_out.complete);
        // Deterministic Theorem 1.3 with d = 4 = mad.
        let det = run_theorem13(&g, 4);
        rows.push(vec![
            n.to_string(),
            rand_out.rounds.to_string(),
            det.ledger.total().to_string(),
            distinct_colors(&rand_out.colors).to_string(),
            distinct_colors(&det.colors).to_string(),
        ]);
    }
    print_table(
        "E12  §6 remark: randomized (deg+1)-list coloring vs deterministic Thm 1.3",
        &[
            "n",
            "rand rounds",
            "det rounds",
            "rand colors",
            "det colors",
        ],
        &rows,
    );
    println!("shape check: randomized finishes in O(log n) rounds but needs deg+1");
    println!("lists; the deterministic algorithm reaches d = mad with d lists.");
}
