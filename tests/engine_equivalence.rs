//! Golden bit-exactness suite for the unified flow engine.
//!
//! The sweep fast path must be the *same simulation* as a plain
//! `simulate` call — not a close approximation. Every bundled kernel,
//! under every memory-system kind, must produce a structurally equal
//! [`FlowResult`](aladdin_core::FlowResult) (full `PartialEq`: cycles,
//! phases, energy inputs, and every stats block) whether it runs through
//! `simulate` (a fresh DDDG and a fresh scheduler workspace per call) or
//! through `simulate_prepared` with one shared `PreparedDddg` and one
//! `SchedulerWorkspace` reused across runs, as the sweep engine does. A
//! heterogeneous multi-accelerator run rides along: cache + DMA jobs on
//! one bus must complete under the watchdog, be deterministic, and each
//! be no faster than its solo run.

use aladdin_accel::{DatapathConfig, PreparedDddg, SchedulerWorkspace};
use aladdin_core::{
    simulate, simulate_multi, simulate_prepared, AcceleratorJob, DmaOptLevel, FlowSpec, MemKind,
    SimHarness, SocConfig, Topology, TopologyConfig,
};
use aladdin_workloads::all_kernels;

fn dp(lanes: u32) -> DatapathConfig {
    DatapathConfig {
        lanes,
        partition: lanes,
        ..DatapathConfig::default()
    }
}

const KINDS: [MemKind; 3] = [
    MemKind::Isolated,
    MemKind::Dma(DmaOptLevel::Full),
    MemKind::Cache,
];

/// Every kernel × {isolated, dma, cache}: the sweep fast path (one
/// prepared DDDG per kernel shared by all three flows, one scheduler
/// workspace reused across every run) reproduces `simulate` bit-exactly.
#[test]
fn unified_engine_matches_legacy_entry_points_everywhere() {
    let soc = SocConfig::default();
    let d = dp(2);
    let mut ws = SchedulerWorkspace::new();
    for kernel in all_kernels() {
        let trace = kernel.run().trace;
        let prep = PreparedDddg::new(&trace, &d);
        for kind in KINDS {
            let fresh = simulate(&trace, &d, &soc, &FlowSpec::new(kind))
                .unwrap_or_else(|e| panic!("{} {kind}: {e}", kernel.name()));
            let spec = FlowSpec::new(kind).with_prepared(&prep);
            let fast = simulate_prepared(&trace, &d, &soc, &spec, &mut ws)
                .unwrap_or_else(|e| panic!("{} {kind}: {e}", kernel.name()));
            assert_eq!(fresh, fast, "{} {kind}", kernel.name());
        }
    }
}

/// The same fast-path equivalence for every DMA optimization level: one
/// shared prepared DDDG per kernel and one workspace carried across
/// kernels and flows.
#[test]
fn soc_wrappers_match_the_engine() {
    let soc = SocConfig::default();
    let d = dp(4);
    let mut ws = SchedulerWorkspace::new();
    let kinds: Vec<MemKind> = std::iter::once(MemKind::Isolated)
        .chain(DmaOptLevel::ALL.map(MemKind::Dma))
        .chain([MemKind::Cache])
        .collect();
    for kernel in all_kernels().into_iter().take(4) {
        let trace = kernel.run().trace;
        let prep = PreparedDddg::new(&trace, &d);
        for &kind in &kinds {
            let spec = FlowSpec::new(kind).with_prepared(&prep);
            assert_eq!(
                simulate_prepared(&trace, &d, &soc, &spec, &mut ws).unwrap(),
                simulate(&trace, &d, &soc, &FlowSpec::new(kind)).unwrap(),
                "{} {kind}",
                kernel.name()
            );
        }
    }
}

/// Heterogeneous SoC (paper Fig. 3 ACCEL0/ACCEL1): a cache-based and a
/// DMA-based accelerator sharing one bus complete under the default
/// watchdog, contention makes neither faster than its solo run, and the
/// co-run reproduces bit-exactly.
#[test]
fn heterogeneous_multi_contends_and_reproduces() {
    let soc = SocConfig::default();
    let h = SimHarness::default();
    let d = dp(4);
    let cache_trace = aladdin_workloads::by_name("spmv-crs")
        .expect("kernel")
        .run()
        .trace;
    let dma_trace = aladdin_workloads::by_name("stencil-stencil2d")
        .expect("kernel")
        .run()
        .trace;

    let solo_cache = simulate_multi(
        &[AcceleratorJob::cache(cache_trace.clone(), d, 0)],
        &soc,
        &h,
    )
    .expect("solo cache run completes");
    let solo_dma = simulate_multi(
        &[AcceleratorJob::dma(
            dma_trace.clone(),
            d,
            DmaOptLevel::Pipelined,
            0,
        )],
        &soc,
        &h,
    )
    .expect("solo dma run completes");

    let jobs = [
        AcceleratorJob::cache(cache_trace, d, 0),
        AcceleratorJob::dma(dma_trace, d, DmaOptLevel::Pipelined, 0),
    ];
    let co = simulate_multi(&jobs, &soc, &h).expect("heterogeneous run completes");
    assert_eq!(co.accelerators.len(), 2);
    assert_eq!(co.accelerators[0].kind, MemKind::Cache);
    assert_eq!(
        co.accelerators[1].kind,
        MemKind::Dma(DmaOptLevel::Pipelined)
    );

    // Sharing the bus can only slow each accelerator down.
    assert!(
        co.accelerators[0].latency() >= solo_cache.accelerators[0].latency(),
        "cache job sped up under contention: {} vs solo {}",
        co.accelerators[0].latency(),
        solo_cache.accelerators[0].latency()
    );
    assert!(
        co.accelerators[1].latency() >= solo_dma.accelerators[0].latency(),
        "dma job sped up under contention: {} vs solo {}",
        co.accelerators[1].latency(),
        solo_dma.accelerators[0].latency()
    );
    // And at least one of them actually pays for the contention.
    assert!(
        co.accelerators[0].latency() > solo_cache.accelerators[0].latency()
            || co.accelerators[1].latency() > solo_dma.accelerators[0].latency(),
        "co-running on one bus must cost somebody cycles"
    );

    let again = simulate_multi(&jobs, &soc, &h).expect("rerun completes");
    assert_eq!(co, again, "heterogeneous co-run must be deterministic");
}

/// The interconnect refactor's contract: selecting `shared-bus`
/// explicitly is the *same simulation* as the pre-refactor default, for
/// every kernel under every memory-system kind and through
/// `simulate_multi`. Full structural equality, not just cycle counts.
#[test]
fn explicit_shared_bus_topology_is_bit_exact_with_the_default() {
    let default_soc = SocConfig::default();
    let explicit_soc = SocConfig {
        topology: TopologyConfig {
            topology: Topology::SharedBus,
            ..TopologyConfig::default()
        },
        ..default_soc
    };
    let h = SimHarness::default();
    let d = dp(2);
    for kernel in all_kernels() {
        let trace = kernel.run().trace;
        for kind in KINDS {
            let spec = FlowSpec::new(kind);
            let base = simulate(&trace, &d, &default_soc, &spec)
                .unwrap_or_else(|e| panic!("{} {kind}: {e}", kernel.name()));
            let explicit = simulate(&trace, &d, &explicit_soc, &spec)
                .unwrap_or_else(|e| panic!("{} {kind}: {e}", kernel.name()));
            assert_eq!(base, explicit, "{} {kind}", kernel.name());
        }
        let jobs = [AcceleratorJob::dma(trace, d, DmaOptLevel::Full, 0)];
        let base = simulate_multi(&jobs, &default_soc, &h)
            .unwrap_or_else(|e| panic!("{} multi: {e}", kernel.name()));
        let explicit = simulate_multi(&jobs, &explicit_soc, &h)
            .unwrap_or_else(|e| panic!("{} multi: {e}", kernel.name()));
        assert_eq!(base, explicit, "{} multi", kernel.name());
    }
}

fn soc_with(topology: Topology) -> SocConfig {
    SocConfig {
        topology: TopologyConfig {
            topology,
            ..TopologyConfig::default()
        },
        ..SocConfig::default()
    }
}

fn saturating_jobs(n: usize) -> Vec<AcceleratorJob> {
    let trace = aladdin_workloads::by_name("stencil-stencil2d")
        .expect("kernel")
        .run()
        .trace;
    (0..n)
        .map(|_| AcceleratorJob::dma(trace.clone(), dp(4), DmaOptLevel::Pipelined, 0))
        .collect()
}

/// Conservation across fabrics: no interconnect model may lose or
/// duplicate a transaction. The roll-up's `bus_bytes` must equal the sum
/// of per-master bytes, and the total traffic a job set moves is a
/// property of the jobs, not of the fabric carrying them.
#[test]
fn every_topology_conserves_bus_bytes() {
    let topologies = [
        Topology::SharedBus,
        Topology::Crossbar { radix: 4 },
        Topology::TwoLevelBus {
            clusters: 2,
            bridge_cycles: 3,
        },
        Topology::MeshNoc {
            cols: 3,
            rows: 3,
            hop_cycles: 1,
            link_bits: 32,
        },
    ];
    let jobs = saturating_jobs(4);
    let h = SimHarness::default();
    let baseline = simulate_multi(&jobs, &soc_with(Topology::SharedBus), &h)
        .expect("shared-bus run completes");
    for topology in topologies {
        let soc = soc_with(topology);
        let r = simulate_multi(&jobs, &soc, &h)
            .unwrap_or_else(|e| panic!("{}: {e}", topology.spec_string()));
        let per_master: u64 = r.accelerators.iter().map(|a| a.bus_bytes).sum();
        assert_eq!(
            r.bus_bytes,
            per_master,
            "{}: roll-up bytes must equal the per-master sum",
            topology.spec_string()
        );
        assert_eq!(
            r.bus_bytes,
            baseline.bus_bytes,
            "{}: total traffic is a property of the jobs, not the fabric",
            topology.spec_string()
        );
        for (i, a) in r.accelerators.iter().enumerate() {
            assert!(
                a.bus_bytes > 0 && a.end > a.launched,
                "{}: master {i} lost its transactions",
                topology.spec_string()
            );
        }
        let again = simulate_multi(&jobs, &soc, &h).expect("rerun completes");
        assert_eq!(r, again, "{} must be deterministic", topology.spec_string());
    }
}

/// Fairness under saturation: with N identical jobs hammering one
/// fabric, round-robin grants must bound how far apart the completion
/// times can drift. A starved master would blow the spread wide open.
#[test]
fn crossbar_and_mesh_grant_fairly_under_saturation() {
    for (topology, n) in [
        (Topology::Crossbar { radix: 4 }, 6),
        (
            Topology::MeshNoc {
                cols: 3,
                rows: 3,
                hop_cycles: 1,
                link_bits: 32,
            },
            6,
        ),
    ] {
        let jobs = saturating_jobs(n);
        let r = simulate_multi(&jobs, &soc_with(topology), &SimHarness::default())
            .unwrap_or_else(|e| panic!("{}: {e}", topology.spec_string()));
        let latencies: Vec<u64> = r.accelerators.iter().map(|a| a.latency()).collect();
        let min = *latencies.iter().min().expect("jobs");
        let max = *latencies.iter().max().expect("jobs");
        assert!(min > 0, "{}: degenerate run", topology.spec_string());
        // Identical work through a fair arbiter: the slowest master may
        // pay contention, but not more than 2x the fastest.
        assert!(
            max <= min.saturating_mul(2),
            "{}: unfair grant spread {latencies:?}",
            topology.spec_string()
        );
    }
}
