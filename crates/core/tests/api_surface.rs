//! Public-API surface snapshot for `aladdin-core`.
//!
//! The FlowSpec unification promises *exactly one* simulation
//! entry-point family. This test pins the crate's `pub use` surface
//! (parsed from `lib.rs`, the crate's single export site) against a
//! golden list, so any future export — in particular a new `run_*`
//! sibling — must consciously edit the snapshot here to land.

mod exports;

/// Every symbol re-exported from `lib.rs`, sorted.
const GOLDEN_NON_DEPRECATED: &[&str] = &[
    "AcceleratorJob",
    "AcceleratorTimeline",
    "CODE_BAD_TOPOLOGY",
    "CODE_TOPOLOGY_CAPACITY",
    "CacheDatapathMemory",
    "CompletionSignal",
    "DeadlockSnapshot",
    "DmaOptLevel",
    "EnergyReport",
    "FaultPlan",
    "FaultSpec",
    "FlowResult",
    "FlowSpec",
    "Interconnect",
    "MasterId",
    "MemKind",
    "MultiSocResult",
    "NackSpec",
    "PhaseBreakdown",
    "ProtocolConfig",
    "SimError",
    "SimHarness",
    "SocConfig",
    "SocConfigBuilder",
    "SourceFlowRun",
    "TimeDecomposition",
    "Topology",
    "TopologyConfig",
    "TraceSource",
    "TraceSourceKind",
    "TrafficConfig",
    "ValidationRow",
    "Watchdog",
    "decompose_cache_time",
    "simulate",
    "simulate_multi",
    "simulate_prepared",
    "simulate_source",
    "simulate_source_prepared",
    "validate_kernel",
    "validate_multi_jobs",
];

/// Deprecated re-exports (none: the legacy wrappers are gone, and a new
/// one must land here deliberately).
const GOLDEN_DEPRECATED: &[&str] = &[];

fn parse_exports() -> (Vec<String>, Vec<String>) {
    exports::parse_exports(include_str!("../src/lib.rs"))
}

#[test]
fn public_surface_matches_golden_snapshot() {
    let (deprecated, current) = parse_exports();
    assert_eq!(
        current,
        GOLDEN_NON_DEPRECATED
            .iter()
            .map(|s| (*s).to_owned())
            .collect::<Vec<_>>(),
        "non-deprecated export surface drifted — update the golden list \
         deliberately if this is intended"
    );
    assert_eq!(
        deprecated,
        GOLDEN_DEPRECATED
            .iter()
            .map(|s| (*s).to_owned())
            .collect::<Vec<_>>(),
        "deprecated (legacy-compat) export surface drifted"
    );
}

/// The one-entry-point guarantee, stated directly: no export looks like
/// a second simulation entry-point family.
#[test]
fn exactly_one_simulation_entry_point_family() {
    let (_, current) = parse_exports();
    let entry_points: Vec<&String> = current
        .iter()
        .filter(|n| n.starts_with("run_") || n.starts_with("try_run_") || n.contains("simulate"))
        .collect();
    assert_eq!(
        entry_points,
        [
            "simulate",
            "simulate_multi",
            "simulate_prepared",
            "simulate_source",
            "simulate_source_prepared",
        ]
        .iter()
        .collect::<Vec<_>>(),
        "a non-deprecated entry point outside the simulate family appeared"
    );
}
