//! Multithreaded sweep runners — the sweep-throughput fast path.
//!
//! One generic, spec-driven runner covers every flow: [`sweep`] (and its
//! [`sweep_perf`] / [`sweep_checked`] / [`sweep_faulted`] variants) takes
//! the [`MemKind`] the points should run under and derives the point list
//! from the matching side of the [`DesignSpace`]. The historical
//! per-flow families (`sweep_isolated`/`sweep_dma`/`sweep_cache` × plain,
//! `_perf`, `_checked`, `_faulted`) remain as deprecated one-line
//! wrappers with bit-exact results.
//!
//! Every sweep funnels through one engine that layers three optimizations,
//! all invisible in the results (bit-exact against running each point's
//! `aladdin-core` flow directly):
//!
//! 1. **Result cache** — each point is looked up in the content-addressed
//!    cache ([`crate::run_point_cached`]'s machinery) before simulating.
//! 2. **Shared DDDG preparation** — the dependence graph depends only on
//!    the trace and the lane count, so one [`PreparedDddg`] per distinct
//!    lane count is built lazily and shared across all worker threads via
//!    `Arc`.
//! 3. **Workspace reuse** — each worker owns one [`SchedulerWorkspace`],
//!    so the scheduler's heaps and vectors are allocated once per thread,
//!    not once per design point.
//!
//! Each sweep returns (via [`sweep_perf`]) a [`SweepPerf`] roll-up and
//! folds it into the process-wide accumulator [`crate::global_perf`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use aladdin_accel::{DatapathConfig, PreparedDddg, SchedulerWorkspace};
use aladdin_core::{
    simulate_prepared, simulate_source_prepared, DmaOptLevel, FlowResult, FlowSpec, MemKind,
    SimError, SimHarness, SocConfig, TraceSource, Watchdog,
};
use aladdin_ir::{Report, Trace};

use crate::cache;
use crate::perf::{record_global, SweepPerf};
use crate::preflight::{preflight_cache, preflight_dma, RejectedPoint};
use crate::space::DesignSpace;

/// Run `job` once per index in `0..n` across all available cores — the
/// pool every sweep runs on. Each worker owns a state built by `init`
/// (scheduler workspaces, in the sweeps). Indices are claimed in order,
/// so a `job` that reports as it finishes reports in completion order;
/// results land in pre-allocated per-index slots — no lock on the result
/// path, no final sort — and come back in index order.
pub fn parallel_map<T, S, I, F>(n: usize, init: I, job: F) -> Vec<T>
where
    T: Send + Sync,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .min(n.max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = job(i, &mut state);
                    // Indices are claimed uniquely, so the slot is empty.
                    let _ = slots[i].set(r);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("worker filled every claimed slot"))
        .collect()
}

/// One design point as the sweep engine sees it: which flow, which
/// datapath, which (point-adjusted) SoC.
///
/// This is the unit the campaign layer (`aladdin-spec`) expands TOML specs
/// into; [`sweep_points`] and [`sweep_points_streaming`] run arbitrary
/// lists of them on the same fast path as the [`DesignSpace`]-driven
/// sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointSpec {
    /// Which memory-system flow the point runs under.
    pub kind: MemKind,
    /// The accelerator datapath.
    pub dp: DatapathConfig,
    /// The (point-adjusted) SoC configuration.
    pub soc: SocConfig,
}

/// Derive the engine's point list for `kind`: cache sweeps walk the cache
/// geometry space (each point adjusting the SoC), everything else walks
/// the lanes × partitions space; both are crossed with the space's
/// interconnect-topology axis (the default spaces pin the shared bus, so
/// the cross is a no-op there).
fn specs_for(space: &DesignSpace, soc: &SocConfig, kind: MemKind) -> Vec<PointSpec> {
    let base: Vec<PointSpec> = match kind {
        MemKind::Cache => space
            .cache_points()
            .iter()
            .map(|p| PointSpec {
                kind,
                dp: p.datapath(),
                soc: p.apply(soc),
            })
            .collect(),
        MemKind::Isolated | MemKind::Dma(_) => space
            .dma_points()
            .iter()
            .map(|p| PointSpec {
                kind,
                dp: p.datapath(),
                soc: *soc,
            })
            .collect(),
    };
    if space.topologies.is_empty() {
        return base;
    }
    let mut out = Vec::with_capacity(base.len() * space.topologies.len());
    for &topology in &space.topologies {
        out.extend(base.iter().map(|s| {
            let mut s = *s;
            s.soc.topology.topology = topology;
            s
        }));
    }
    out
}

/// The sweep engine: cache lookup, lazy shared DDDG preparation, per-worker
/// workspace reuse, and perf accounting. The plain (no-harness) entry —
/// any simulation failure here is a hard bug, so it panics.
fn run_specs(trace: &Trace, specs: &[PointSpec]) -> (Vec<FlowResult>, SweepPerf) {
    let (results, perf) = run_specs_harness(trace, specs, &SimHarness::default());
    let results = results
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect();
    (results, perf)
}

/// The sweep engine under a [`SimHarness`]: per-point failures come back
/// as `Err` slots instead of aborting the sweep.
fn run_specs_harness(
    trace: &Trace,
    specs: &[PointSpec],
    harness: &SimHarness,
) -> (Vec<Result<FlowResult, SimError>>, SweepPerf) {
    sweep_points_streaming(trace, specs, harness, &|_, _| {})
}

/// Run an arbitrary list of design points on the sweep fast path (result
/// cache, shared DDDG preparation, per-worker workspace reuse), returning
/// one `Result` slot per point in point order.
///
/// This is the engine behind every [`DesignSpace`]-driven sweep, exposed
/// for callers — the campaign runner foremost — whose point lists do not
/// come from a `DesignSpace`.
#[must_use]
pub fn sweep_points(
    trace: &Trace,
    specs: &[PointSpec],
    harness: &SimHarness,
) -> (Vec<Result<FlowResult, SimError>>, SweepPerf) {
    run_specs_harness(trace, specs, harness)
}

/// [`sweep_points`], invoking `sink` once per completed point *as it
/// completes* (from worker threads, in completion order — not point
/// order). Campaign runners use this to stream per-point results to a
/// journal while the sweep is still going, so an interrupted run loses at
/// most the points in flight.
///
/// Caching policy: points run through the result cache only when the
/// harness is inert — an empty [`FaultPlan`](aladdin_core::FaultPlan)
/// *and* the default [`Watchdog`]. Fault-injected runs bypass it in both
/// directions (the key does not include the plan, and a perturbed result
/// must never be served to — or recorded for — a clean sweep); runs under
/// a non-default watchdog bypass it too, because a cached success could
/// mask a timeout the tighter watchdog would have produced.
#[must_use]
pub fn sweep_points_streaming(
    trace: &Trace,
    specs: &[PointSpec],
    harness: &SimHarness,
    sink: &(dyn Fn(usize, &Result<FlowResult, SimError>) + Sync),
) -> (Vec<Result<FlowResult, SimError>>, SweepPerf) {
    sweep_points_source_streaming(&TraceSource::Memory(trace), specs, harness, sink)
}

/// Run an arbitrary list of design points against any [`TraceSource`] —
/// same fast path as [`sweep_points`]. An in-memory source shares one
/// lazily-built [`PreparedDddg`] per lane count across workers; an
/// `.atrc` source shares the *encoded bytes* instead (every worker
/// streams its own decode through the windowed scheduler, so sweep node
/// memory stays O(workers × window) regardless of trace length).
///
/// Caching policy: `.atrc` points bypass the result cache in both
/// directions. The windowed scheduler is bit-exact with the materialized
/// path only when its window covers the largest barrier round — which a
/// streamed source cannot verify ahead of time — so streamed results must
/// neither be recorded under nor served from the keys materialized runs
/// use.
#[must_use]
pub fn sweep_points_source(
    source: &TraceSource,
    specs: &[PointSpec],
    harness: &SimHarness,
) -> (Vec<Result<FlowResult, SimError>>, SweepPerf) {
    sweep_points_source_streaming(source, specs, harness, &|_, _| {})
}

/// [`sweep_points_source`] with a streaming per-point `sink` — see
/// [`sweep_points_streaming`] for the sink and caching contracts.
#[must_use]
pub fn sweep_points_source_streaming(
    source: &TraceSource,
    specs: &[PointSpec],
    harness: &SimHarness,
    sink: &(dyn Fn(usize, &Result<FlowResult, SimError>) + Sync),
) -> (Vec<Result<FlowResult, SimError>>, SweepPerf) {
    let t0 = Instant::now();
    let fp = source.fingerprint();
    let use_cache = harness.plan.is_empty()
        && harness.watchdog == Watchdog::default()
        && matches!(source, TraceSource::Memory(_));

    // One lazily-built PreparedDddg per distinct lane count, shared across
    // workers. Lazy so a fully cache-warm sweep builds no graphs at all.
    // Only the materialized path uses them; `.atrc` sources never build a
    // full graph.
    let mut lane_slot: HashMap<u32, usize> = HashMap::new();
    for s in specs {
        let next = lane_slot.len();
        lane_slot.entry(s.dp.lanes).or_insert(next);
    }
    let preps: Vec<OnceLock<Arc<PreparedDddg>>> =
        (0..lane_slot.len()).map(|_| OnceLock::new()).collect();

    let hits = AtomicU64::new(0);
    let stepped = AtomicU64::new(0);
    let events = AtomicU64::new(0);
    let failures = AtomicU64::new(0);
    let streamed = AtomicU64::new(0);
    let peak_resident = AtomicU64::new(0);

    let results = parallel_map(specs.len(), SchedulerWorkspace::new, |i, ws| {
        let s = &specs[i];
        let key = use_cache.then(|| cache::point_key(fp, s.kind, &s.dp, &s.soc));
        let cached = key.as_ref().and_then(|key| cache::lookup(key));
        let result = if let Some(hit) = cached {
            hits.fetch_add(1, Ordering::Relaxed);
            Ok(hit)
        } else {
            let run = match source {
                TraceSource::Memory(trace) => {
                    let prep = Arc::clone(
                        preps[lane_slot[&s.dp.lanes]]
                            .get_or_init(|| Arc::new(PreparedDddg::new(trace, &s.dp))),
                    );
                    let spec = FlowSpec::new(s.kind)
                        .with_harness(harness)
                        .with_prepared(&prep);
                    simulate_source_prepared(source, &s.dp, &s.soc, &spec, ws)
                }
                TraceSource::Atrc(_) => {
                    let spec = FlowSpec::new(s.kind).with_harness(harness);
                    simulate_source_prepared(source, &s.dp, &s.soc, &spec, ws)
                }
            };
            match run {
                Ok(run) => {
                    let r = run.result;
                    stepped.fetch_add(r.sched_stepped_cycles, Ordering::Relaxed);
                    events.fetch_add(r.sched_events, Ordering::Relaxed);
                    if let Some(p) = run.peak_resident_nodes {
                        streamed.fetch_add(1, Ordering::Relaxed);
                        peak_resident.fetch_max(p, Ordering::Relaxed);
                    }
                    if let Some(key) = &key {
                        cache::insert(key, &r);
                    }
                    Ok(r)
                }
                Err(e) => {
                    failures.fetch_add(1, Ordering::Relaxed);
                    Err(e)
                }
            }
        };
        sink(i, &result);
        result
    });

    let perf = SweepPerf {
        points: specs.len() as u64,
        cache_hits: hits.into_inner(),
        stepped_cycles: stepped.into_inner(),
        events: events.into_inner(),
        failures: failures.into_inner(),
        pruned: 0,
        streamed_points: streamed.into_inner(),
        peak_resident_nodes: peak_resident.into_inner(),
        wall_ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
    };
    record_global(&perf);
    (results, perf)
}

/// One design point skipped by a pruned sweep: its static cycle lower
/// bound and power floor were strictly dominated by an already-finished
/// result, so it provably cannot reach the Pareto frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrunedPoint {
    /// Index into the sweep's point list.
    pub index: usize,
    /// The point's certified static cycle lower bound (`aladdin-lint`).
    pub lo: u64,
    /// The point's static average-power floor in mW.
    pub power_floor_mw: f64,
    /// Cycles of the finished result that dominated it.
    pub by_cycles: u64,
    /// Average power (mW) of the finished result that dominated it.
    pub by_power_mw: f64,
}

/// Outcome of one point in a pruned sweep ([`sweep_points_streaming_pruned`]).
#[derive(Debug, Clone)]
pub enum PointOutcome {
    /// Simulated (or served bit-exactly from the result cache).
    Done(Box<FlowResult>),
    /// Simulation failed under the harness.
    Failed(SimError),
    /// Statically skipped: bounds dominated by a finished result.
    Pruned(PrunedPoint),
}

impl PointOutcome {
    /// The flow result, when the point completed.
    #[must_use]
    pub fn result(&self) -> Option<&FlowResult> {
        match self {
            PointOutcome::Done(r) => Some(r),
            PointOutcome::Failed(_) | PointOutcome::Pruned(_) => None,
        }
    }
}

/// [`sweep_points_streaming`] with sound bound-based pruning: before
/// simulating a point, its static `[lo, ∞)` cycle interval and power
/// floor (from `aladdin-lint`'s [`bounds_for_prepared`](aladdin_lint::bounds_for_prepared))
/// are compared against every already-finished result; if some result is
/// *strictly* better on both objectives, the point is skipped and
/// recorded as a [`PrunedPoint`] — never silently dropped.
///
/// Pruning preserves the Pareto frontier exactly: a pruned point `c` has
/// a witness `s` with `cycles(s) < lo ≤ cycles(c)` and
/// `power(s) < floor ≤ power(c)`, so `c` could never have been kept by
/// [`crate::pareto_frontier`] (which keeps a point only when strictly
/// better on power than everything with fewer-or-equal cycles), and
/// non-kept points never influence which other points are kept.
///
/// Pruning engages only when the harness is inert (same gate as the
/// result cache): under fault injection results are perturbed and the
/// campaign's purpose is observing perturbations, not skipping them.
/// Pruning is opportunistic — it depends on completion order, so the
/// *set* of pruned points may vary run to run; the surviving frontier
/// does not.
#[must_use]
pub fn sweep_points_streaming_pruned(
    trace: &Trace,
    specs: &[PointSpec],
    harness: &SimHarness,
    sink: &(dyn Fn(usize, &PointOutcome) + Sync),
) -> (Vec<PointOutcome>, SweepPerf) {
    let t0 = Instant::now();
    let fp = trace.fingerprint();
    let use_cache = harness.plan.is_empty() && harness.watchdog == Watchdog::default();

    let mut lane_slot: HashMap<u32, usize> = HashMap::new();
    for s in specs {
        let next = lane_slot.len();
        lane_slot.entry(s.dp.lanes).or_insert(next);
    }
    let preps: Vec<OnceLock<Arc<PreparedDddg>>> =
        (0..lane_slot.len()).map(|_| OnceLock::new()).collect();

    let hits = AtomicU64::new(0);
    let stepped = AtomicU64::new(0);
    let events = AtomicU64::new(0);
    let failures = AtomicU64::new(0);
    let pruned_count = AtomicU64::new(0);
    // Finished (cycles, avg power) pairs — the pruning witnesses.
    let witnesses: Mutex<Vec<(u64, f64)>> = Mutex::new(Vec::new());
    let witness = |r: &FlowResult| {
        witnesses
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((r.total_cycles, r.energy.avg_power_mw()));
    };

    let results = parallel_map(specs.len(), SchedulerWorkspace::new, |i, ws| {
        let s = &specs[i];
        let key = use_cache.then(|| cache::point_key(fp, s.kind, &s.dp, &s.soc));
        let cached = key.as_ref().and_then(|key| cache::lookup(key));
        let outcome = if let Some(hit) = cached {
            hits.fetch_add(1, Ordering::Relaxed);
            witness(&hit);
            PointOutcome::Done(Box::new(hit))
        } else {
            let prep = Arc::clone(
                preps[lane_slot[&s.dp.lanes]]
                    .get_or_init(|| Arc::new(PreparedDddg::new(trace, &s.dp))),
            );
            let pruned = use_cache
                .then(|| {
                    let b = aladdin_lint::bounds_for_prepared(
                        trace, &prep, &s.dp, &s.soc, s.kind, harness,
                    );
                    let floor =
                        aladdin_lint::static_power_floor_mw(trace, &s.dp, &s.soc, s.kind, &b);
                    witnesses
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .iter()
                        .find(|&&(c, p)| c < b.lo && p < floor)
                        .copied()
                        .map(|(by_cycles, by_power_mw)| PrunedPoint {
                            index: i,
                            lo: b.lo,
                            power_floor_mw: floor,
                            by_cycles,
                            by_power_mw,
                        })
                })
                .flatten();
            if let Some(p) = pruned {
                pruned_count.fetch_add(1, Ordering::Relaxed);
                PointOutcome::Pruned(p)
            } else {
                let spec = FlowSpec::new(s.kind)
                    .with_harness(harness)
                    .with_prepared(&prep);
                match simulate_prepared(trace, &s.dp, &s.soc, &spec, ws) {
                    Ok(r) => {
                        stepped.fetch_add(r.sched_stepped_cycles, Ordering::Relaxed);
                        events.fetch_add(r.sched_events, Ordering::Relaxed);
                        if let Some(key) = &key {
                            cache::insert(key, &r);
                        }
                        witness(&r);
                        PointOutcome::Done(Box::new(r))
                    }
                    Err(e) => {
                        failures.fetch_add(1, Ordering::Relaxed);
                        PointOutcome::Failed(e)
                    }
                }
            }
        };
        sink(i, &outcome);
        outcome
    });

    let perf = SweepPerf {
        points: specs.len() as u64,
        cache_hits: hits.into_inner(),
        stepped_cycles: stepped.into_inner(),
        events: events.into_inner(),
        failures: failures.into_inner(),
        pruned: pruned_count.into_inner(),
        streamed_points: 0,
        peak_resident_nodes: 0,
        wall_ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
    };
    record_global(&perf);
    (results, perf)
}

/// Sweep the design space under the memory system named by `kind`.
///
/// Isolated and DMA sweeps walk the lanes × partitions space; cache
/// sweeps walk the cache geometry space with each point's geometry
/// applied to `soc`.
#[must_use]
pub fn sweep(
    trace: &Trace,
    space: &DesignSpace,
    soc: &SocConfig,
    kind: MemKind,
) -> Vec<FlowResult> {
    sweep_perf(trace, space, soc, kind).0
}

/// [`sweep`], also returning the sweep's [`SweepPerf`] roll-up.
#[must_use]
pub fn sweep_perf(
    trace: &Trace,
    space: &DesignSpace,
    soc: &SocConfig,
    kind: MemKind,
) -> (Vec<FlowResult>, SweepPerf) {
    run_specs(trace, &specs_for(space, soc, kind))
}

/// Sweep the isolated (system-less) design space: lanes × partitions.
#[deprecated(note = "use `sweep(trace, space, soc, MemKind::Isolated)`")]
#[must_use]
pub fn sweep_isolated(trace: &Trace, space: &DesignSpace, soc: &SocConfig) -> Vec<FlowResult> {
    sweep(trace, space, soc, MemKind::Isolated)
}

/// [`sweep_isolated`], also returning the sweep's [`SweepPerf`] roll-up.
#[deprecated(note = "use `sweep_perf(trace, space, soc, MemKind::Isolated)`")]
#[must_use]
pub fn sweep_isolated_perf(
    trace: &Trace,
    space: &DesignSpace,
    soc: &SocConfig,
) -> (Vec<FlowResult>, SweepPerf) {
    sweep_perf(trace, space, soc, MemKind::Isolated)
}

/// Sweep the scratchpad/DMA design space at the given optimization level.
#[deprecated(note = "use `sweep(trace, space, soc, MemKind::Dma(opt))`")]
#[must_use]
pub fn sweep_dma(
    trace: &Trace,
    space: &DesignSpace,
    soc: &SocConfig,
    opt: DmaOptLevel,
) -> Vec<FlowResult> {
    sweep(trace, space, soc, MemKind::Dma(opt))
}

/// [`sweep_dma`], also returning the sweep's [`SweepPerf`] roll-up.
#[deprecated(note = "use `sweep_perf(trace, space, soc, MemKind::Dma(opt))`")]
#[must_use]
pub fn sweep_dma_perf(
    trace: &Trace,
    space: &DesignSpace,
    soc: &SocConfig,
    opt: DmaOptLevel,
) -> (Vec<FlowResult>, SweepPerf) {
    sweep_perf(trace, space, soc, MemKind::Dma(opt))
}

/// Sweep the cache design space (lanes × cache geometry).
#[deprecated(note = "use `sweep(trace, space, soc, MemKind::Cache)`")]
#[must_use]
pub fn sweep_cache(trace: &Trace, space: &DesignSpace, soc: &SocConfig) -> Vec<FlowResult> {
    sweep(trace, space, soc, MemKind::Cache)
}

/// [`sweep_cache`], also returning the sweep's [`SweepPerf`] roll-up.
#[deprecated(note = "use `sweep_perf(trace, space, soc, MemKind::Cache)`")]
#[must_use]
pub fn sweep_cache_perf(
    trace: &Trace,
    space: &DesignSpace,
    soc: &SocConfig,
) -> (Vec<FlowResult>, SweepPerf) {
    sweep_perf(trace, space, soc, MemKind::Cache)
}

/// A sweep whose space was statically pre-flighted: invalid points are
/// rejected with diagnostics instead of panicking mid-simulation.
#[derive(Debug, Clone)]
pub struct CheckedSweep {
    /// One result per accepted point, in point order.
    pub results: Vec<FlowResult>,
    /// Original point-list indices of the accepted points,
    /// parallel to `results`.
    pub accepted: Vec<usize>,
    /// Points pruned before simulation, with their diagnostic reports.
    pub rejected: Vec<RejectedPoint>,
    /// Throughput roll-up of the simulation pass over accepted points.
    pub perf: SweepPerf,
}

/// [`sweep`] with a static pre-flight pass: contradictory design points
/// are pruned (with diagnostics) instead of simulated — e.g.
/// unconstructible cache geometries, which would panic in
/// `CacheConfig::num_sets`. For cache sweeps the point indices refer to
/// [`DesignSpace::cache_points_unfiltered`]; otherwise to
/// [`DesignSpace::dma_points`].
#[must_use]
pub fn sweep_checked(
    trace: &Trace,
    space: &DesignSpace,
    soc: &SocConfig,
    kind: MemKind,
) -> CheckedSweep {
    let (specs, accepted, rejected) = match kind {
        MemKind::Cache => {
            let pre = preflight_cache(space, soc);
            let specs: Vec<PointSpec> = pre
                .accepted
                .iter()
                .map(|(_, p)| PointSpec {
                    kind,
                    dp: p.datapath(),
                    soc: p.apply(soc),
                })
                .collect();
            let accepted = pre.accepted.iter().map(|&(i, _)| i).collect();
            (specs, accepted, pre.rejected)
        }
        MemKind::Isolated | MemKind::Dma(_) => {
            let pre = preflight_dma(space, soc);
            let specs: Vec<PointSpec> = pre
                .accepted
                .iter()
                .map(|(_, p)| PointSpec {
                    kind,
                    dp: p.datapath(),
                    soc: *soc,
                })
                .collect();
            let accepted = pre.accepted.iter().map(|&(i, _)| i).collect();
            (specs, accepted, pre.rejected)
        }
    };
    let (results, perf) = run_specs(trace, &specs);
    CheckedSweep {
        results,
        accepted,
        rejected,
        perf,
    }
}

/// [`sweep_dma`] with a static pre-flight pass.
#[deprecated(note = "use `sweep_checked(trace, space, soc, MemKind::Dma(opt))`")]
#[must_use]
pub fn sweep_dma_checked(
    trace: &Trace,
    space: &DesignSpace,
    soc: &SocConfig,
    opt: DmaOptLevel,
) -> CheckedSweep {
    sweep_checked(trace, space, soc, MemKind::Dma(opt))
}

/// [`sweep_cache`] with a static pre-flight pass. Point indices refer to
/// [`DesignSpace::cache_points_unfiltered`].
#[deprecated(note = "use `sweep_checked(trace, space, soc, MemKind::Cache)`")]
#[must_use]
pub fn sweep_cache_checked(trace: &Trace, space: &DesignSpace, soc: &SocConfig) -> CheckedSweep {
    sweep_checked(trace, space, soc, MemKind::Cache)
}

/// One design point that failed under a [`SimHarness`].
#[derive(Debug, Clone)]
pub struct FailedPoint {
    /// Index into the sweep's point list.
    pub index: usize,
    /// Why the simulation could not complete.
    pub error: SimError,
}

/// Roll-up of a harnessed sweep: the sweep completes even when individual
/// points fail, reporting them instead of aborting.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One slot per point, in point order; `None` where the point failed.
    pub results: Vec<Option<FlowResult>>,
    /// The failed points with their errors, in point order.
    pub failures: Vec<FailedPoint>,
    /// Points skipped by bound-based pruning, in point order (always
    /// empty for faulted sweeps, which never prune).
    pub pruned: Vec<PrunedPoint>,
    /// Throughput roll-up (its `failures` counter matches
    /// `failures.len()`).
    pub perf: SweepPerf,
}

/// [`sweep`] under a fault-injection/watchdog harness: failed points are
/// reported in the [`SweepOutcome`] instead of aborting the sweep.
///
/// # Errors
///
/// Returns the harness plan's validation [`Report`] if the plan itself
/// is invalid (`L0240`/`L0241`); no point is simulated in that case.
pub fn sweep_faulted(
    trace: &Trace,
    space: &DesignSpace,
    soc: &SocConfig,
    kind: MemKind,
    harness: &SimHarness,
) -> Result<SweepOutcome, Report> {
    let report = harness.plan.validate();
    if report.has_errors() {
        return Err(report);
    }
    let (raw, perf) = run_specs_harness(trace, &specs_for(space, soc, kind), harness);
    let mut results = Vec::with_capacity(raw.len());
    let mut failures = Vec::new();
    for (index, r) in raw.into_iter().enumerate() {
        match r {
            Ok(r) => results.push(Some(r)),
            Err(error) => {
                results.push(None);
                failures.push(FailedPoint { index, error });
            }
        }
    }
    Ok(SweepOutcome {
        results,
        failures,
        pruned: Vec::new(),
        perf,
    })
}

/// [`sweep_isolated`] under a fault-injection/watchdog harness.
///
/// # Errors
///
/// Returns the plan's validation [`Report`] if the plan is invalid.
#[deprecated(note = "use `sweep_faulted(trace, space, soc, MemKind::Isolated, harness)`")]
pub fn sweep_isolated_faulted(
    trace: &Trace,
    space: &DesignSpace,
    soc: &SocConfig,
    harness: &SimHarness,
) -> Result<SweepOutcome, Report> {
    sweep_faulted(trace, space, soc, MemKind::Isolated, harness)
}

/// [`sweep_dma`] under a fault-injection/watchdog harness.
///
/// # Errors
///
/// Returns the plan's validation [`Report`] if the plan is invalid.
#[deprecated(note = "use `sweep_faulted(trace, space, soc, MemKind::Dma(opt), harness)`")]
pub fn sweep_dma_faulted(
    trace: &Trace,
    space: &DesignSpace,
    soc: &SocConfig,
    opt: DmaOptLevel,
    harness: &SimHarness,
) -> Result<SweepOutcome, Report> {
    sweep_faulted(trace, space, soc, MemKind::Dma(opt), harness)
}

/// [`sweep_cache`] under a fault-injection/watchdog harness.
///
/// # Errors
///
/// Returns the plan's validation [`Report`] if the plan is invalid.
#[deprecated(note = "use `sweep_faulted(trace, space, soc, MemKind::Cache, harness)`")]
pub fn sweep_cache_faulted(
    trace: &Trace,
    space: &DesignSpace,
    soc: &SocConfig,
    harness: &SimHarness,
) -> Result<SweepOutcome, Report> {
    sweep_faulted(trace, space, soc, MemKind::Cache, harness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{
        reset_sweep_cache, set_sweep_cache_dir, set_sweep_cache_mode, SweepCacheMode,
    };
    use crate::pareto::{edp_optimal, pareto_frontier};
    use aladdin_core::simulate;
    use aladdin_workloads::by_name;

    const FULL: MemKind = MemKind::Dma(DmaOptLevel::Full);

    #[test]
    fn sweeps_cover_their_spaces() {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        let soc = SocConfig::default();
        let iso = sweep(&trace, &space, &soc, MemKind::Isolated);
        assert_eq!(iso.len(), space.dma_points().len());
        let dma = sweep(&trace, &space, &soc, FULL);
        assert_eq!(dma.len(), space.dma_points().len());
        let cache = sweep(&trace, &space, &soc, MemKind::Cache);
        assert_eq!(cache.len(), space.cache_points().len());
        assert!(edp_optimal(&dma).is_some());
    }

    #[test]
    #[allow(deprecated)]
    fn legacy_wrappers_match_the_generic_runner() {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        let soc = SocConfig::default();
        assert_eq!(
            sweep_dma(&trace, &space, &soc, DmaOptLevel::Full),
            sweep(&trace, &space, &soc, FULL)
        );
        assert_eq!(
            sweep_cache(&trace, &space, &soc),
            sweep(&trace, &space, &soc, MemKind::Cache)
        );
        assert_eq!(
            sweep_isolated(&trace, &space, &soc),
            sweep(&trace, &space, &soc, MemKind::Isolated)
        );
    }

    #[test]
    fn topology_axis_multiplies_the_space_and_changes_timing() {
        use aladdin_mem::Topology;
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let space = DesignSpace::quick().with_topologies(vec![
            Topology::SharedBus,
            Topology::MeshNoc {
                cols: 2,
                rows: 2,
                hop_cycles: 8,
                link_bits: 32,
            },
        ]);
        let soc = SocConfig::default();
        let results = sweep(&trace, &space, &soc, FULL);
        let n = space.dma_points().len();
        assert_eq!(results.len(), n * 2);
        // Same design point under the two topologies: mesh hops add
        // latency, so at least one point must time differently (and the
        // result cache must have keyed them apart).
        let diff = (0..n)
            .filter(|&i| results[i].total_cycles != results[i + n].total_cycles)
            .count();
        assert!(diff > 0, "mesh and shared bus cannot be timing-identical");
    }

    #[test]
    fn sweep_results_align_with_points() {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        let soc = SocConfig::default();
        let results = sweep(&trace, &space, &soc, MemKind::Dma(DmaOptLevel::Baseline));
        for (p, r) in space.dma_points().iter().zip(&results) {
            assert_eq!(r.datapath.lanes, p.lanes);
            assert_eq!(r.datapath.partition, p.partition);
        }
    }

    #[test]
    fn checked_sweep_prunes_contradictory_points_instead_of_panicking() {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        // 3072 B / 32 B lines / 4 ways = 24 sets (not a power of two):
        // the unchecked sweep would panic inside CacheConfig::num_sets.
        let space = DesignSpace {
            cache_sizes: vec![2048, 3072],
            ..DesignSpace::quick()
        };
        let soc = SocConfig::default();
        let out = sweep_checked(&trace, &space, &soc, MemKind::Cache);
        assert!(!out.rejected.is_empty());
        assert!(out.rejected.iter().all(|r| r.report.has_code("L0211")));
        assert_eq!(out.results.len(), out.accepted.len());
        assert_eq!(out.perf.points, out.results.len() as u64);
        let points = space.cache_points_unfiltered();
        for (&idx, result) in out.accepted.iter().zip(&out.results) {
            assert_eq!(points[idx].size_bytes, 2048);
            assert!(result.total_cycles > 0);
        }
    }

    #[test]
    fn checked_dma_sweep_matches_unchecked_on_a_clean_space() {
        let trace = by_name("fft-transpose").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        let soc = SocConfig::default();
        let plain = sweep(&trace, &space, &soc, FULL);
        let checked = sweep_checked(&trace, &space, &soc, FULL);
        assert!(checked.rejected.is_empty());
        assert_eq!(plain.len(), checked.results.len());
        for (a, b) in plain.iter().zip(&checked.results) {
            assert_eq!(a.total_cycles, b.total_cycles);
        }
    }

    #[test]
    fn parallel_map_is_deterministic() {
        let trace = by_name("fft-transpose").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        let soc = SocConfig::default();
        let a: Vec<u64> = sweep(&trace, &space, &soc, FULL)
            .iter()
            .map(|r| r.total_cycles)
            .collect();
        let b: Vec<u64> = sweep(&trace, &space, &soc, FULL)
            .iter()
            .map(|r| r.total_cycles)
            .collect();
        assert_eq!(a, b);
    }

    /// The acceptance bar for the whole fast path: for the quick space on
    /// two kernels, the sweep engine (prepared DDDG + workspace reuse +
    /// result cache, warm or cold) must be bit-identical — every field,
    /// including phases, energy, and all stats blocks — to running each
    /// point's plain `aladdin-core` flow sequentially.
    #[test]
    fn fast_path_is_bit_exact_against_sequential_flows() {
        let space = DesignSpace::quick();
        let soc = SocConfig::default();
        for kernel in ["aes-aes", "fft-transpose"] {
            let trace = by_name(kernel).expect("kernel").run().trace;

            let dma_ref: Vec<FlowResult> = space
                .dma_points()
                .iter()
                .map(|p| {
                    simulate(&trace, &p.datapath(), &soc, &FlowSpec::new(FULL)).expect("completes")
                })
                .collect();
            let cache_ref: Vec<FlowResult> = space
                .cache_points()
                .iter()
                .map(|p| {
                    simulate(
                        &trace,
                        &p.datapath(),
                        &p.apply(&soc),
                        &FlowSpec::new(MemKind::Cache),
                    )
                    .expect("completes")
                })
                .collect();

            // Cold-ish pass (may or may not hit depending on test order —
            // either way the results must match the reference)...
            let dma = sweep(&trace, &space, &soc, FULL);
            let cache = sweep(&trace, &space, &soc, MemKind::Cache);
            assert_eq!(dma, dma_ref, "{kernel}: dma sweep diverged");
            assert_eq!(cache, cache_ref, "{kernel}: cache sweep diverged");

            // ...and a guaranteed-warm pass, served from the result cache.
            let (dma_warm, perf) = sweep_perf(&trace, &space, &soc, FULL);
            assert_eq!(dma_warm, dma_ref, "{kernel}: warm dma sweep diverged");
            assert_eq!(
                perf.cache_hits,
                space.dma_points().len() as u64,
                "{kernel}: warm sweep should be all cache hits"
            );
            let cache_warm = sweep(&trace, &space, &soc, MemKind::Cache);
            assert_eq!(cache_warm, cache_ref, "{kernel}: warm cache sweep diverged");
        }
    }

    /// The on-disk tier survives an in-memory wipe (simulating a new
    /// process) bit-exactly, and never serves results across config or
    /// trace changes.
    #[test]
    fn disk_tier_round_trips_bit_exactly_across_memory_wipes() {
        let _guard = crate::cache::test_disk_lock();
        let dir = std::path::PathBuf::from("target/test-sweep-cache");
        let _ = std::fs::remove_dir_all(&dir);
        set_sweep_cache_dir(&dir);
        set_sweep_cache_mode(SweepCacheMode::Full);

        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        // A SoC no other test sweeps, so concurrently running tests cannot
        // have pre-warmed the in-memory tier for these keys.
        let mut soc = SocConfig::default();
        soc.invoke_cycles += 17;
        let first = sweep(&trace, &space, &soc, MemKind::Cache);
        // Count cache files across the 256-way shard directories (two keys
        // landing in one shard must still count as two entries).
        let files = || {
            std::fs::read_dir(&dir)
                .map(|d| {
                    d.filter_map(Result::ok)
                        .map(|e| {
                            std::fs::read_dir(e.path())
                                .map(|s| s.filter_map(Result::ok).count())
                                .unwrap_or(1)
                        })
                        .sum::<usize>()
                })
                .unwrap_or(0)
        };
        assert!(
            files() >= space.cache_points().len(),
            "disk tier not written"
        );

        // New-process simulation: wipe the memory tier, sweep again. Every
        // point must come back from disk, bit-identical.
        reset_sweep_cache();
        let (second, perf) = sweep_perf(&trace, &space, &soc, MemKind::Cache);
        assert_eq!(first, second, "disk tier round-trip diverged");
        assert_eq!(perf.cache_hits, space.cache_points().len() as u64);

        // A changed SoC field is a different key: nothing is served stale.
        reset_sweep_cache();
        let before = files();
        let mut soc2 = soc;
        soc2.invoke_cycles += 1;
        let shifted = sweep(&trace, &space, &soc2, MemKind::Cache);
        assert!(files() > before, "changed config must re-simulate, not hit");
        assert_ne!(first, shifted);

        set_sweep_cache_mode(SweepCacheMode::Mem);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The graceful-degradation acceptance bar: a sweep with per-point
    /// failures completes, reports the failed points in the roll-up, and
    /// keeps every surviving result addressable by point index.
    #[test]
    fn faulted_sweep_reports_failures_and_keeps_going() {
        use aladdin_core::{FaultPlan, SimHarness, Watchdog};
        let trace = by_name("fft-transpose").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        let soc = SocConfig::default();
        // A ceiling low enough that every point's compute phase trips it.
        let harness = SimHarness {
            plan: FaultPlan::none(),
            watchdog: Watchdog {
                max_cycles: Some(8),
                no_progress_cycles: 4_000_000,
            },
        };
        let out = sweep_faulted(
            &trace,
            &space,
            &soc,
            MemKind::Dma(DmaOptLevel::Baseline),
            &harness,
        )
        .expect("valid plan");
        assert_eq!(out.results.len(), space.dma_points().len());
        assert!(!out.failures.is_empty(), "the tiny ceiling must trip");
        assert_eq!(out.perf.failures, out.failures.len() as u64);
        for f in &out.failures {
            assert_eq!(f.error.code(), "L0233", "{}", f.error);
            assert!(out.results[f.index].is_none());
        }
    }

    #[test]
    fn faulted_sweep_with_empty_plan_matches_the_clean_sweep() {
        use aladdin_core::SimHarness;
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        let soc = SocConfig::default();
        let out =
            sweep_faulted(&trace, &space, &soc, FULL, &SimHarness::default()).expect("valid plan");
        assert!(out.failures.is_empty());
        assert_eq!(out.perf.failures, 0);
        let clean = sweep(&trace, &space, &soc, FULL);
        let got: Vec<FlowResult> = out.results.into_iter().map(Option::unwrap).collect();
        assert_eq!(got, clean, "empty plan must be invisible");
    }

    #[test]
    fn invalid_plans_are_rejected_before_any_simulation() {
        use aladdin_core::{FaultPlan, FaultSpec, SimHarness, Watchdog};
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        let soc = SocConfig::default();
        let mut plan = FaultPlan::from_seed(1);
        plan.bus_grant = Some(FaultSpec {
            rate: 2.0, // probabilities live in [0, 1]
            max_extra: 4,
        });
        let harness = SimHarness {
            plan,
            watchdog: Watchdog::default(),
        };
        let err = sweep_faulted(&trace, &space, &soc, FULL, &harness).expect_err("invalid rate");
        assert!(err.has_code("L0240"), "{}", err.to_human());
    }

    /// Fault-injected results must never pollute (or be served from) the
    /// result cache: the cache key does not include the plan.
    #[test]
    fn faulted_sweeps_bypass_the_result_cache() {
        use aladdin_core::SimHarness;
        let trace = by_name("fft-transpose").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        // A SoC no other test sweeps, so the cache keys are ours alone.
        let mut soc = SocConfig::default();
        soc.invoke_cycles += 29;
        let h = SimHarness::with_seed(11);
        let faulted = sweep_faulted(&trace, &space, &soc, FULL, &h).expect("valid plan");
        assert_eq!(
            faulted.perf.cache_hits, 0,
            "faulted sweeps must not read the cache"
        );
        // A clean sweep afterwards matches sequential plain flows — the
        // faulted pass left nothing perturbed behind.
        let clean = sweep(&trace, &space, &soc, FULL);
        let sequential: Vec<FlowResult> = space
            .dma_points()
            .iter()
            .map(|p| {
                simulate(&trace, &p.datapath(), &soc, &FlowSpec::new(FULL)).expect("completes")
            })
            .collect();
        assert_eq!(clean, sequential, "faulted results leaked into the cache");
        // Same seed, same outcome — and still no cache interaction.
        let again = sweep_faulted(&trace, &space, &soc, FULL, &h).expect("valid plan");
        assert_eq!(again.perf.cache_hits, 0);
        assert_eq!(faulted.results, again.results);
    }

    /// The cache gate is watchdog-aware in both directions: an inert
    /// harness (empty plan, default watchdog) rides the warm cache, while
    /// a tighter watchdog bypasses it even when every key is warm — a
    /// cached success must never mask a timeout the ceiling would have
    /// produced.
    #[test]
    fn restrictive_watchdog_bypasses_a_warm_cache() {
        use aladdin_core::{FaultPlan, SimHarness, Watchdog};
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        // A SoC no other test sweeps, so the cache keys are ours alone.
        let mut soc = SocConfig::default();
        soc.invoke_cycles += 41;
        let n = space.dma_points().len() as u64;

        // Warm every key, then prove an inert harness serves from cache.
        let _ = sweep(&trace, &space, &soc, FULL);
        let inert =
            sweep_faulted(&trace, &space, &soc, FULL, &SimHarness::default()).expect("valid plan");
        assert_eq!(
            inert.perf.cache_hits, n,
            "inert harness must ride the cache"
        );
        assert!(inert.failures.is_empty());

        // Same warm keys, tight ceiling: no hits, and the ceiling trips.
        let tight = SimHarness {
            plan: FaultPlan::none(),
            watchdog: Watchdog {
                max_cycles: Some(8),
                no_progress_cycles: 4_000_000,
            },
        };
        let out = sweep_faulted(&trace, &space, &soc, FULL, &tight).expect("valid plan");
        assert_eq!(
            out.perf.cache_hits, 0,
            "a non-default watchdog must not read the cache"
        );
        assert!(
            !out.failures.is_empty(),
            "warm cache must not mask watchdog timeouts"
        );
        // And the tight pass recorded nothing: the clean sweep still
        // completes every point from cache.
        let (clean, perf) = sweep_perf(&trace, &space, &soc, FULL);
        assert_eq!(perf.cache_hits, n);
        assert_eq!(clean.len(), space.dma_points().len());
    }

    /// The streaming engine feeds the sink exactly once per point and
    /// returns the same results as the non-streaming entry.
    #[test]
    fn streaming_sweep_sinks_every_point_once() {
        use std::sync::Mutex;
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        let soc = SocConfig::default();
        let specs = specs_for(&space, &soc, FULL);
        let seen: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::new());
        let (results, _) =
            sweep_points_streaming(&trace, &specs, &SimHarness::default(), &|i, r| {
                let cycles = r.as_ref().map(|r| r.total_cycles).unwrap_or(0);
                seen.lock().unwrap().push((i, cycles));
            });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen.len(), specs.len(), "one sink call per point");
        for (slot, (i, cycles)) in seen.iter().enumerate() {
            assert_eq!(slot, *i, "every index sunk exactly once");
            assert_eq!(results[*i].as_ref().unwrap().total_cycles, *cycles);
        }
        // And the public non-streaming entry is the same engine.
        let (again, _) = sweep_points(&trace, &specs, &SimHarness::default());
        assert_eq!(
            results
                .iter()
                .map(|r| r.as_ref().unwrap())
                .collect::<Vec<_>>(),
            again
                .iter()
                .map(|r| r.as_ref().unwrap())
                .collect::<Vec<_>>()
        );
    }

    /// Quick-mode throughput smoke test: bounded sanity on the SweepPerf
    /// counters, deliberately not a flaky points/sec threshold.
    #[test]
    fn sweep_perf_counters_are_sane() {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        let soc = SocConfig::default();
        let kind = MemKind::Dma(DmaOptLevel::Pipelined);
        let (_, first) = sweep_perf(&trace, &space, &soc, kind);
        let n = space.dma_points().len() as u64;
        assert_eq!(first.points, n);
        assert!(first.wall_ns > 0);
        assert!(first.points_per_sec() > 0.0);
        // Simulated points did scheduler work; cached points did none.
        if first.cache_hits < n {
            assert!(first.events > 0);
            assert!(first.stepped_cycles > 0);
        }
        // A second, warm sweep is all hits and does no scheduler work.
        let (_, warm) = sweep_perf(&trace, &space, &soc, kind);
        assert_eq!(warm.cache_hits, n);
        assert_eq!(warm.events, 0);
        // Both sweeps landed in the process-wide accumulator.
        let g = crate::global_perf();
        assert!(g.points >= first.points + warm.points);
    }

    /// Soundness acceptance bar: a pruned sweep yields the identical
    /// Pareto frontier to the unpruned sweep on several kernels. Pruning
    /// discards only points strictly dominated on both objectives by a
    /// finished result — points `pareto_frontier` would discard anyway —
    /// and every skipped point is accounted for in the outcome list and
    /// the perf roll-up.
    #[test]
    fn pruned_sweep_preserves_the_pareto_frontier() {
        let harness = SimHarness::default();
        for kernel in ["aes-aes", "fft-transpose", "stencil-stencil2d"] {
            let trace = by_name(kernel).expect("kernel").run().trace;
            let space = DesignSpace::quick();
            // A SoC no other test sweeps, so the shared result cache is
            // cold for these keys and pruning has a chance to engage.
            let mut soc = SocConfig::default();
            soc.invoke_cycles += 23;
            let specs = specs_for(&space, &soc, FULL);
            let (outcomes, perf) =
                sweep_points_streaming_pruned(&trace, &specs, &harness, &|_, _| {});
            let survivors: Vec<FlowResult> = outcomes
                .iter()
                .filter_map(|o| o.result().cloned())
                .collect();
            let pruned_n = outcomes
                .iter()
                .filter(|o| matches!(o, PointOutcome::Pruned(_)))
                .count() as u64;
            let failed_n = outcomes
                .iter()
                .filter(|o| matches!(o, PointOutcome::Failed(_)))
                .count() as u64;
            assert_eq!(perf.points, specs.len() as u64, "{kernel}");
            assert_eq!(perf.pruned, pruned_n, "{kernel}");
            assert_eq!(perf.failures, failed_n, "{kernel}");
            assert_eq!(
                survivors.len() as u64 + failed_n + pruned_n,
                perf.points,
                "{kernel}: every point must be accounted for"
            );
            assert!(perf.cache_hits <= survivors.len() as u64, "{kernel}");
            // The unpruned reference. (The cache is now warm for the
            // survivors; any pruned point is simulated here for the
            // first time.)
            let (full, _) = sweep_points_streaming(&trace, &specs, &harness, &|_, _| {});
            let full: Vec<FlowResult> = full
                .into_iter()
                .map(|r| r.expect("clean sweep point"))
                .collect();
            let frontier = |rs: &[FlowResult]| -> Vec<FlowResult> {
                pareto_frontier(rs)
                    .into_iter()
                    .map(|i| rs[i].clone())
                    .collect()
            };
            assert_eq!(
                frontier(&full),
                frontier(&survivors),
                "{kernel}: pruning changed the Pareto frontier"
            );
        }
    }

    /// With a dominating witness already cached, the pruned engine
    /// actually skips a hopeless point: one spec is fast and frugal
    /// (cached up front, so it becomes a witness immediately), the other
    /// pairs a single lane with a huge single-ported cache, so its
    /// certified cycle lower bound and leakage power floor are both
    /// strictly worse than the witness's *finished* result.
    #[test]
    fn pruning_skips_a_statically_dominated_point() {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let harness = SimHarness::default();
        let mut fast = PointSpec {
            kind: MemKind::Cache,
            dp: DatapathConfig {
                lanes: 8,
                ..DatapathConfig::default()
            },
            soc: SocConfig::default(),
        };
        fast.soc.invoke_cycles += 29; // keys distinct from every other test
        fast.soc.cache.size_bytes = 1024;
        let mut slow = fast;
        slow.dp.lanes = 1;
        slow.soc.cache.size_bytes = 1 << 20;
        slow.soc.cache.ports = 1;
        slow.soc.cache.hit_latency = 4;

        // Warm the cache with the witness so the pruned sweep's first
        // point is a hit and its (cycles, power) are available before the
        // slow point's bounds check finishes building its DDDG.
        let (warm, _) = sweep_points(&trace, std::slice::from_ref(&fast), &harness);
        let witness = warm[0].as_ref().expect("witness simulates");

        let mut fired = None;
        for attempt in 0..10u32 {
            // Pruning is opportunistic (completion-order dependent); give
            // each retry a fresh cache key for the slow point so a lost
            // race doesn't turn later attempts into cache hits.
            let mut slow = slow;
            slow.soc.invoke_cycles += u64::from(attempt);
            let specs = [fast, slow];
            let (outcomes, perf) =
                sweep_points_streaming_pruned(&trace, &specs, &harness, &|_, _| {});
            assert!(
                matches!(&outcomes[0], PointOutcome::Done(r) if **r == *witness),
                "witness must be served from cache, bit-exact"
            );
            if let PointOutcome::Pruned(p) = &outcomes[1] {
                assert_eq!(perf.pruned, 1);
                fired = Some(*p);
                break;
            }
        }
        let p = fired.expect("dominated point should be pruned with a cached witness");
        assert_eq!(p.index, 1);
        assert_eq!(p.by_cycles, witness.total_cycles);
        assert!(p.by_cycles < p.lo, "witness strictly faster than the bound");
        assert!(
            p.by_power_mw < p.power_floor_mw,
            "witness strictly under the power floor"
        );
    }

    /// Faulted sweeps never prune (perturbed results are the point), and
    /// their outcome categories still sum to the expanded point count.
    #[test]
    fn faulted_sweeps_do_not_prune_and_still_sum() {
        use aladdin_core::{FaultPlan, Watchdog};
        let trace = by_name("fft-transpose").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        let soc = SocConfig::default();
        let harness = SimHarness {
            plan: FaultPlan::none(),
            watchdog: Watchdog {
                max_cycles: Some(50),
                ..Watchdog::default()
            },
        };
        let out = sweep_faulted(&trace, &space, &soc, FULL, &harness).expect("valid plan");
        assert!(out.pruned.is_empty());
        assert_eq!(out.perf.pruned, 0);
        let ok = out.results.iter().flatten().count() as u64;
        assert_eq!(out.perf.cache_hits, 0, "harnessed sweeps bypass the cache");
        assert_eq!(
            ok + out.perf.failures + out.perf.pruned,
            out.perf.points,
            "outcome categories must sum to the expanded point count"
        );
    }
}
