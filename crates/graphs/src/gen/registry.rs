//! Named graph-family registry: `name → generator(n, seed)`.
//!
//! Every experiment harness in the workspace — the scenario lab, its
//! suites, the determinism gate — used to re-encode its own
//! `match family { "grid" => …, }` arms. This registry is the single
//! source of truth: a family is a *name* plus a deterministic builder
//! taking a target vertex count and a seed, so a scenario declared as data
//! (`"family": "random-4-regular", "n": 2000, "seed": 7`) resolves to the
//! same graph everywhere.
//!
//! Builders normalize `n` the way the family requires (grids round to a
//! square side, regular graphs to an even order), so `build(n, seed).n()`
//! may differ slightly from the requested `n` — always read the size off
//! the returned graph.

use crate::Graph;

use super::{classic, lattice, planar, random};

/// One named family: a deterministic `(n, seed) → Graph` builder.
#[derive(Clone, Copy)]
pub struct FamilySpec {
    /// Registry name (stable: suite files refer to it).
    pub name: &'static str,
    /// What the family is, one line.
    pub description: &'static str,
    /// The builder. `seed` is ignored by deterministic families.
    pub build: fn(n: usize, seed: u64) -> Graph,
}

/// The registry, sorted by name.
const FAMILIES: &[FamilySpec] = &[
    FamilySpec {
        name: "apollonian",
        description: "random Apollonian planar triangulation (mad < 6)",
        build: |n, seed| planar::apollonian(n.max(4), seed),
    },
    FamilySpec {
        name: "cycle",
        description: "the n-cycle",
        build: |n, _| classic::cycle(n.max(3)),
    },
    FamilySpec {
        name: "forest-union-a2",
        description: "union of 2 random spanning forests (arboricity ≤ 2)",
        build: |n, seed| random::forest_union(n, 2, seed),
    },
    FamilySpec {
        name: "forest-union-a3",
        description: "union of 3 random spanning forests (arboricity ≤ 3)",
        build: |n, seed| random::forest_union(n, 3, seed),
    },
    FamilySpec {
        name: "gnm-sparse",
        description: "G(n, m) with m = 2n random edges",
        build: |n, seed| random::gnm(n, 2 * n, seed),
    },
    FamilySpec {
        name: "grid",
        description: "⌈√n⌉ × ⌈√n⌉ planar grid",
        build: |n, _| {
            let side = (n.max(1) as f64).sqrt().round().max(1.0) as usize;
            lattice::grid(side, side)
        },
    },
    FamilySpec {
        name: "path",
        description: "the n-path",
        build: |n, _| classic::path(n.max(1)),
    },
    FamilySpec {
        name: "perforated-grid",
        description: "√n × √n grid with n/20 random holes",
        build: |n, seed| {
            let side = (n.max(4) as f64).sqrt().round().max(2.0) as usize;
            planar::perforated_grid(side, side, (side * side) / 20, seed)
        },
    },
    FamilySpec {
        name: "random-3-regular",
        description: "random 3-regular graph (order rounded to even)",
        build: |n, seed| random::random_regular(n.max(4) & !1, 3, seed),
    },
    FamilySpec {
        name: "random-4-regular",
        description: "random 4-regular graph (order rounded to even)",
        build: |n, seed| random::random_regular(n.max(6) & !1, 4, seed),
    },
    FamilySpec {
        name: "random-tree",
        description: "uniform random labelled tree",
        build: random::random_tree,
    },
    FamilySpec {
        name: "triangular",
        description: "⌈√n⌉ × ⌈√n⌉ triangular lattice",
        build: |n, _| {
            let side = (n.max(1) as f64).sqrt().round().max(1.0) as usize;
            lattice::triangular(side, side)
        },
    },
];

/// Looks a family up by name.
pub fn family(name: &str) -> Option<&'static FamilySpec> {
    FAMILIES.iter().find(|f| f.name == name)
}

/// All registered family names, sorted.
pub fn family_names() -> Vec<&'static str> {
    FAMILIES.iter().map(|f| f.name).collect()
}

/// Builds a named family, or `None` for an unknown name.
pub fn build_family(name: &str, n: usize, seed: u64) -> Option<Graph> {
    family(name).map(|f| (f.build)(n, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        let names = family_names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            names, sorted,
            "registry must stay sorted and duplicate-free"
        );
    }

    #[test]
    fn every_family_builds_and_replays() {
        for spec in FAMILIES {
            let a = (spec.build)(60, 7);
            let b = (spec.build)(60, 7);
            assert!(a.n() > 0, "{}: empty graph", spec.name);
            assert_eq!(a.n(), b.n(), "{}: non-deterministic order", spec.name);
            let ea: Vec<_> = a.edges().collect();
            let eb: Vec<_> = b.edges().collect();
            assert_eq!(ea, eb, "{}: non-deterministic edges", spec.name);
        }
    }

    #[test]
    fn seeded_families_vary_with_the_seed() {
        for name in ["apollonian", "random-4-regular", "forest-union-a2"] {
            let a = build_family(name, 100, 1).unwrap();
            let b = build_family(name, 100, 2).unwrap();
            let ea: Vec<_> = a.edges().collect();
            let eb: Vec<_> = b.edges().collect();
            assert_ne!(ea, eb, "{name}: seed must matter");
        }
    }

    #[test]
    fn unknown_family_is_none() {
        assert!(family("no-such-family").is_none());
        assert!(build_family("no-such-family", 10, 0).is_none());
    }

    #[test]
    fn grid_size_is_squared_side() {
        let g = build_family("grid", 1600, 0).unwrap();
        assert_eq!(g.n(), 1600);
        let g = build_family("random-4-regular", 101, 0).unwrap();
        assert_eq!(g.n(), 100, "regular families round to an even order");
    }
}
