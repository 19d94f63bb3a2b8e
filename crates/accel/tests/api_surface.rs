//! Public-API surface snapshot for `aladdin-accel`.
//!
//! Scheduling has one cycle loop with two front ends: `try_schedule_prepared`
//! over a prepared in-memory graph and `try_schedule_windowed` over a node
//! stream, plus the one-shot `schedule`. This test pins the crate's
//! `pub use` surface (parsed from `lib.rs` with the same parser as the
//! `aladdin-core` snapshot) against a golden list, so a new scheduling
//! entry point must consciously edit the snapshot here to land.

#[path = "../../core/tests/exports/mod.rs"]
mod exports;

/// Every symbol re-exported from `lib.rs`, sorted.
const GOLDEN: &[&str] = &[
    "CacheEnergyParams",
    "DEFAULT_WINDOW_NODES",
    "DatapathConfig",
    "DatapathConfigBuilder",
    "DatapathMemory",
    "Dddg",
    "EnergyReport",
    "FuTiming",
    "IssueResult",
    "LaneSync",
    "PowerModel",
    "PreparedDddg",
    "ScheduleResult",
    "SchedulerWorkspace",
    "SpadMemory",
    "SpadStats",
    "WindowedOutcome",
    "mem_issue_budget",
    "schedule",
    "trace_node_stream",
    "try_schedule_prepared",
    "try_schedule_windowed",
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

/// Exactly three scheduling functions, all over the one cycle loop.
#[test]
fn exactly_three_scheduling_entry_points() {
    let (_, current) = parse_exports();
    let entry_points: Vec<&str> = current
        .iter()
        .map(String::as_str)
        .filter(|n| n.starts_with("schedule") || n.starts_with("try_schedule"))
        .collect();
    assert_eq!(
        entry_points,
        ["schedule", "try_schedule_prepared", "try_schedule_windowed"],
        "a scheduling entry point outside the loop's three appeared"
    );
}
