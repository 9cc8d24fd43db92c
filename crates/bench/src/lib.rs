//! Shared harness utilities for the experiment tables: aligned table
//! printing and the standard workload families used across EXPERIMENTS.md.

#![forbid(unsafe_code)]

use distributed_coloring::{
    list_color_sparse, ListAssignment, Outcome, SparseColoring, SparseColoringConfig,
};
use graphs::Graph;

/// Prints an aligned table: header row then rows, all right-aligned to the
/// widest cell per column.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Number of distinct colors used (ignoring `usize::MAX`).
pub fn distinct_colors(colors: &[usize]) -> usize {
    colors
        .iter()
        .filter(|&&c| c != usize::MAX)
        .collect::<std::collections::BTreeSet<_>>()
        .len()
}

/// Runs Theorem 1.3 with uniform `d`-lists and asserts validity; returns
/// the successful coloring.
pub fn run_theorem13(g: &Graph, d: usize) -> SparseColoring {
    let lists = ListAssignment::uniform(g.n(), d);
    match list_color_sparse(g, &lists, d, SparseColoringConfig::default()).expect("valid input") {
        Outcome::Colored(c) => {
            assert!(graphs::is_proper(g, &c.colors));
            *c
        }
        Outcome::CliqueFound { vertices, .. } => {
            panic!("unexpected clique {vertices:?} on a certified workload")
        }
    }
}

/// A named workload for the sweep tables.
pub struct Workload {
    /// Display name.
    pub name: &'static str,
    /// The graph.
    pub graph: Graph,
    /// The `d` to run Theorem 1.3 with.
    pub d: usize,
}

/// The standard E1 sweep: certified-sparseness families at a given size.
pub fn e1_workloads(n: usize, seed: u64) -> Vec<Workload> {
    let side = (n as f64).sqrt().round() as usize;
    vec![
        Workload {
            name: "forest-union-a2",
            graph: graphs::gen::forest_union(n, 2, seed),
            d: 4,
        },
        Workload {
            name: "forest-union-a3",
            graph: graphs::gen::forest_union(n, 3, seed + 1),
            d: 6,
        },
        Workload {
            name: "random-3-regular",
            graph: graphs::gen::random_regular(n & !1, 3, seed + 2),
            d: 3,
        },
        Workload {
            name: "grid",
            graph: graphs::gen::grid(side, side),
            d: 4,
        },
        Workload {
            name: "apollonian",
            graph: graphs::gen::apollonian(n.max(4), seed + 3),
            d: 6,
        },
    ]
}

/// `log₂³ n` — the paper's round-complexity scale factor.
pub fn log2_cubed(n: usize) -> f64 {
    let l = (n.max(2) as f64).log2();
    l * l * l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_counts() {
        assert_eq!(distinct_colors(&[1, 2, 2, usize::MAX]), 2);
        assert_eq!(distinct_colors(&[]), 0);
    }

    #[test]
    fn run_theorem13_on_small_grid() {
        let g = graphs::gen::grid(5, 5);
        let c = run_theorem13(&g, 4);
        assert!(distinct_colors(&c.colors) <= 4);
    }

    #[test]
    fn workloads_have_valid_mad() {
        for w in e1_workloads(64, 5) {
            assert!(
                graphs::mad_at_most(&w.graph, w.d as f64),
                "{}: mad exceeds d={}",
                w.name,
                w.d
            );
        }
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            "demo",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
