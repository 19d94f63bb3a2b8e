//! Design-space exploration for accelerator/SoC co-design.
//!
//! Implements the paper's evaluation methodology on top of
//! [`aladdin-core`](aladdin_core):
//!
//! * [`DesignSpace`] — the Figure 3 parameter table (datapath lanes,
//!   scratchpad partitioning, cache geometry, bus width),
//! * [`sweep`] (with [`sweep_perf`]/[`sweep_checked`]/[`sweep_faulted`])
//!   — one multithreaded, spec-driven sweep runner generic over
//!   [`MemKind`](aladdin_core::MemKind),
//! * [`pareto_frontier`] and [`edp_optimal`] — the Figure 8 analyses,
//! * [`run_codesign`] — the four design scenarios of Figures 9/10
//!   (isolated, co-designed DMA, co-designed cache at 32- and 64-bit bus)
//!   with per-scenario EDP improvements,
//! * [`KiviatSummary`] — the three normalized microarchitecture axes of
//!   Figure 9 (lanes, local SRAM, local memory bandwidth).
//!
//! # Example
//!
//! ```
//! use aladdin_dse::{edp_optimal, sweep, DesignSpace};
//! use aladdin_core::{DmaOptLevel, MemKind, SocConfig};
//! use aladdin_workloads::{by_name, Kernel};
//!
//! let trace = by_name("aes-aes").expect("kernel").run().trace;
//! let space = DesignSpace::quick();
//! let results = sweep(
//!     &trace,
//!     &space,
//!     &SocConfig::default(),
//!     MemKind::Dma(DmaOptLevel::Full),
//! );
//! let best = edp_optimal(&results).expect("non-empty sweep");
//! assert!(best.edp() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod kiviat;
mod pareto;
mod perf;
mod preflight;
mod scenario;
mod space;
mod sweep;

pub use cache::{
    maintain_shard_index, point_cached, reset_sweep_cache, run_point_cached,
    run_point_cached_bounded, set_sweep_cache_dir, set_sweep_cache_mode, BoundsPrune,
    ShardIndexReport, SweepCacheMode, FORMAT_VERSION,
};
pub use kiviat::KiviatSummary;
pub use pareto::{edp_optimal, optimal_by, pareto_frontier, Metric};
pub use perf::{global_perf, SweepPerf};
pub use preflight::{preflight_cache, preflight_dma, Preflight, RejectedPoint};
pub use scenario::{run_codesign, CodesignReport, ScenarioOutcome};
pub use space::{CachePoint, DesignSpace, DmaPoint};
pub use sweep::{
    parallel_map, sweep, sweep_checked, sweep_faulted, sweep_perf, sweep_points,
    sweep_points_source, sweep_points_source_streaming, sweep_points_streaming,
    sweep_points_streaming_pruned, CheckedSweep, FailedPoint, PointOutcome, PointSpec, PrunedPoint,
    SweepOutcome,
};
#[allow(deprecated)]
pub use sweep::{
    sweep_cache, sweep_cache_checked, sweep_cache_faulted, sweep_cache_perf, sweep_dma,
    sweep_dma_checked, sweep_dma_faulted, sweep_dma_perf, sweep_isolated, sweep_isolated_faulted,
    sweep_isolated_perf,
};
