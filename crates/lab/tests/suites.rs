//! Every committed suite file parses and expands into a trial plan — the
//! tiers that only run nightly or by hand included, so a typo in one of
//! them fails here rather than on the night it first runs.

use lab::{expand, Suite};

#[test]
fn every_committed_suite_parses_and_expands() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../suites");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 4, "suites/ lost its files: {paths:?}");
    for path in &paths {
        let suite = Suite::load(path.to_str().unwrap()).unwrap();
        let plan = expand(&suite).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!plan.is_empty(), "{} plans no trials", path.display());
    }
}
