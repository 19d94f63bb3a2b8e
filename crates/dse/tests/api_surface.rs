//! Public-API surface snapshot for `aladdin-dse`.
//!
//! Every sweep runs on one engine, `sweep_points_streaming`; the other
//! entry points are thin views of it. This test pins the crate's
//! `pub use` surface (parsed from `lib.rs` with the same parser as the
//! `aladdin-core` snapshot) against a golden list, so a new sweep
//! variant must consciously edit the snapshot here to land.

#[path = "../../core/tests/exports/mod.rs"]
mod exports;

/// Every symbol re-exported from `lib.rs`, sorted.
const GOLDEN: &[&str] = &[
    "BoundsPrune",
    "CachePoint",
    "CodesignReport",
    "DesignSpace",
    "DmaPoint",
    "FORMAT_VERSION",
    "KiviatSummary",
    "Metric",
    "PointOutcome",
    "PointSpec",
    "Preflight",
    "PrunedPoint",
    "RejectedPoint",
    "ScenarioOutcome",
    "ShardIndexReport",
    "SweepCacheMode",
    "SweepPerf",
    "edp_optimal",
    "global_perf",
    "maintain_shard_index",
    "optimal_by",
    "parallel_map",
    "pareto_frontier",
    "point_cached",
    "preflight_cache",
    "preflight_dma",
    "reset_sweep_cache",
    "run_codesign",
    "run_point_cached",
    "run_point_cached_bounded",
    "set_sweep_cache_dir",
    "set_sweep_cache_mode",
    "sweep",
    "sweep_points",
    "sweep_points_source",
    "sweep_points_streaming",
];

fn parse_exports() -> (Vec<String>, Vec<String>) {
    exports::parse_exports(include_str!("../src/lib.rs"))
}

#[test]
fn public_surface_matches_golden_snapshot() {
    let (deprecated, current) = parse_exports();
    assert_eq!(
        current,
        GOLDEN.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>(),
        "export surface drifted — update the golden list deliberately if \
         this is intended"
    );
    assert!(deprecated.is_empty(), "deprecated exports: {deprecated:?}");
}

/// The one-engine guarantee, stated directly: exactly four sweep entry
/// points, all over the same engine.
#[test]
fn exactly_four_sweep_entry_points() {
    let (_, current) = parse_exports();
    let entry_points: Vec<&str> = current
        .iter()
        .map(String::as_str)
        .filter(|n| n.starts_with("sweep"))
        .collect();
    assert_eq!(
        entry_points,
        [
            "sweep",
            "sweep_points",
            "sweep_points_source",
            "sweep_points_streaming"
        ],
        "a sweep entry point outside the engine's four appeared"
    );
}
