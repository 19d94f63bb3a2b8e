//! The two sweep workloads: `sweep-cold` (the paper's Figure 3 traffic on
//! the in-memory fast path) and `atrc-stream` (paper-scale kernels
//! streamed from `.atrc` through the windowed scheduler).

use aladdin_accel::{PreparedDddg, SchedulerWorkspace, DEFAULT_WINDOW_NODES};
use aladdin_core::{
    simulate, simulate_prepared, simulate_source, DmaOptLevel, FlowResult, FlowSpec, MemKind,
    SimError, SimHarness, SocConfig, TraceSource,
};
use aladdin_dse::{
    reset_sweep_cache, run_point_cached, set_sweep_cache_mode, sweep_points, sweep_points_source,
    DesignSpace, DmaPoint, PointSpec, SweepCacheMode,
};
use aladdin_ir::{encode_trace, AtrcTrace, Trace};

use crate::harness::{
    flow_span, sample_indices, Ctx, FlowTally, Metrics, Pass, TraceTally, Workload,
};
use crate::kernels::{evaluation_kernels, Scale};
use crate::spans::Recorder;
use crate::stats::median;

type PointResults = Vec<Result<FlowResult, SimError>>;

fn failures(results: &[PointResults]) -> u64 {
    results.iter().flatten().filter(|r| r.is_err()).count() as u64
}

fn debug_records(results: &[PointResults]) -> Vec<String> {
    results
        .iter()
        .flatten()
        .map(|r| match r {
            Ok(r) => format!("{r:?}"),
            Err(e) => format!("error: {e}"),
        })
        .collect()
}

/// Compare seed-chosen points of the last pass with a plain `simulate`
/// of the same point on `trace_of(kernel index)`, bit-exact.
fn check_sample(
    ctx: &Ctx,
    last: &[PointResults],
    specs: &[PointSpec],
    samples: usize,
    trace_of: impl Fn(usize) -> Trace,
) -> Result<usize, String> {
    let picks = sample_indices(ctx.seed, last.len() * specs.len(), samples);
    for &flat in &picks {
        let (k, i) = (flat / specs.len(), flat % specs.len());
        let s = &specs[i];
        let plain = simulate(&trace_of(k), &s.dp, &s.soc, &FlowSpec::new(s.kind))
            .map_err(|e| format!("plain simulation of kernel {k} point {i}: {e}"))?;
        match &last[k][i] {
            Ok(r) if *r == plain => {}
            other => {
                return Err(format!(
                    "kernel {k} point {i}: swept {other:?} != plain {plain:?}"
                ))
            }
        }
    }
    Ok(picks.len())
}

/// `sweep-cold`: the eight evaluation kernels at default scale, DMA-Full
/// over lanes × partitions and the cache flow over cache geometries,
/// through `sweep_points` on an in-memory result cache emptied before
/// every pass.
pub struct SweepCold {
    traces: Vec<Trace>,
    specs: Vec<PointSpec>,
    last: Vec<PointResults>,
    /// Σ single-thread prepare + flow time of the last replay.
    replay_work_s: f64,
}

/// The trimmed Figure 3 space: both ends of the lane range and of the
/// cache range. The 2 KB, one-lane cache points thrash (gemm-ncubed's
/// take seconds), the 64 KB ones are hit-dominated. Two port counts give
/// the 2-thread pool a second long point to run beside the longest one,
/// so one slowed core does not set the whole pass's wall time.
fn sweep_cold_specs() -> Vec<PointSpec> {
    let soc = SocConfig::default();
    let space = DesignSpace {
        lanes: vec![1, 4, 16],
        partitions: vec![1, 4, 16],
        cache_sizes: vec![2048, 8192, 65536],
        cache_ports: vec![1, 4],
        ..DesignSpace::standard()
    };
    let dma = space.dma_points().into_iter().map(|p| PointSpec {
        kind: MemKind::Dma(DmaOptLevel::Full),
        dp: p.datapath(),
        soc,
    });
    let cache = space.cache_points().into_iter().map(|p| PointSpec {
        kind: MemKind::Cache,
        dp: p.datapath(),
        soc: p.apply(&soc),
    });
    dma.chain(cache).collect()
}

/// Rounds of the result-cache probe; the insert cost is a small
/// difference of two simulations, so it is taken as a median of many.
const PROBE_ROUNDS: usize = 5;

/// Time `run_point_cached` on a cold and then a warm in-memory cache
/// against a direct `simulate` of the same non-cache points of `trace`:
/// a miss minus the direct simulation is the insert cost, a hit is the
/// memory-tier lookup. Rounds alternate which of the two simulations
/// runs first, so neither profits from the other warming the host caches.
fn insert_probe(
    trace: &Trace,
    specs: &[PointSpec],
    rec: &mut Recorder,
    insert_us: &mut Vec<f64>,
    mem_hit_us: &mut Vec<f64>,
) -> Result<(), String> {
    for round in 0..PROBE_ROUNDS {
        reset_sweep_cache();
        for s in specs.iter().filter(|s| s.kind != MemKind::Cache) {
            let direct = |rec: &mut Recorder| {
                rec.span(flow_span(s.kind), |_| {
                    simulate(trace, &s.dp, &s.soc, &FlowSpec::new(s.kind))
                })
            };
            let cached = |_: &mut Recorder| run_point_cached(trace, &s.dp, &s.soc, s.kind);
            let ((plain, sim_s), (miss, miss_s)) = if round % 2 == 0 {
                let d = direct(rec);
                (d, rec.span("dse.run_point_cached", cached))
            } else {
                let c = rec.span("dse.run_point_cached", cached);
                (direct(rec), c)
            };
            let (hit, hit_s) = rec.span("dse.run_point_cached", cached);
            let plain = plain.map_err(|e| e.to_string())?;
            if miss != plain || hit != plain {
                return Err("run_point_cached differs from simulate".to_owned());
            }
            insert_us.push((miss_s - sim_s) * 1e6);
            mem_hit_us.push(hit_s * 1e6);
        }
    }
    Ok(())
}

impl Workload for SweepCold {
    const NAME: &'static str = "sweep-cold";
    const CACHE_MODE: &'static str = "mem (emptied before every pass)";
    const GOLDEN: u64 = 0xfc98_fd08_0f27_ef87;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let traces = evaluation_kernels(ctx.seed, Scale::Default)
            .iter()
            .map(|k| k.run().trace)
            .collect();
        Ok(SweepCold {
            traces,
            specs: sweep_cold_specs(),
            last: Vec::new(),
            replay_work_s: 0.0,
        })
    }

    fn scaffold(&mut self, _ctx: &Ctx) -> Result<(), String> {
        set_sweep_cache_mode(SweepCacheMode::Mem);
        Ok(())
    }

    fn reset(&mut self, _ctx: &Ctx) -> Result<(), String> {
        reset_sweep_cache();
        Ok(())
    }

    fn pass(&mut self, _ctx: &Ctx) -> Result<Pass, String> {
        let harness = SimHarness::default();
        self.last = self
            .traces
            .iter()
            .map(|t| sweep_points(t, &self.specs, &harness).0)
            .collect();
        Ok(Pass {
            points: (self.traces.len() * self.specs.len()) as u64,
            failed: failures(&self.last),
        })
    }

    fn records(&self, _ctx: &Ctx) -> Result<Vec<String>, String> {
        Ok(debug_records(&self.last))
    }

    fn sample_check(&mut self, ctx: &Ctx) -> Result<usize, String> {
        check_sample(ctx, &self.last, &self.specs, 4, |k| self.traces[k].clone())
    }

    fn replay(&mut self, ctx: &Ctx, rec: &mut Recorder, m: &mut Metrics) -> Result<(), String> {
        let mut ws = SchedulerWorkspace::new();
        let (mut flows, mut traced) = (FlowTally::default(), TraceTally::default());
        let (mut prep_s, mut prep_n, mut work_s) = (0.0, 0u64, 0.0);
        let (mut sched_s, mut sched_events, mut sched_stepped) = (0.0, 0u64, 0u64);
        let (mut insert_us, mut mem_hit_us) = (Vec::new(), Vec::new());
        for (ki, kernel) in evaluation_kernels(ctx.seed, Scale::Default)
            .iter()
            .enumerate()
        {
            let (trace, s) = rec.span("workloads.trace", |_| kernel.run().trace);
            traced.add(s, trace.nodes().len());
            let mut preps: Vec<(u32, PreparedDddg)> = Vec::new();
            for spec in &self.specs {
                if !preps.iter().any(|(lanes, _)| *lanes == spec.dp.lanes) {
                    let (p, s) = rec.span("accel.prepare", |_| PreparedDddg::new(&trace, &spec.dp));
                    prep_s += s;
                    prep_n += 1;
                    work_s += s;
                    preps.push((spec.dp.lanes, p));
                }
                let prep = &preps
                    .iter()
                    .find(|(lanes, _)| *lanes == spec.dp.lanes)
                    .expect("prepared above")
                    .1;
                let (point, _) = rec.span("point", |rec| -> Result<(), SimError> {
                    let iso_spec = FlowSpec::new(MemKind::Isolated).with_prepared(prep);
                    let (iso, iso_s) = rec.span("accel.schedule", |_| {
                        simulate_prepared(&trace, &spec.dp, &spec.soc, &iso_spec, &mut ws)
                    });
                    let iso = iso?;
                    sched_s += iso_s;
                    sched_events += iso.sched_events;
                    sched_stepped += iso.sched_stepped_cycles;
                    let flow_spec = FlowSpec::new(spec.kind).with_prepared(prep);
                    let (r, s) = rec.span(flow_span(spec.kind), |_| {
                        simulate_prepared(&trace, &spec.dp, &spec.soc, &flow_spec, &mut ws)
                    });
                    flows.add(&r?, s, Some(iso_s));
                    work_s += s;
                    Ok(())
                });
                point.map_err(|e| e.to_string())?;
            }
            // The first kernel (aes-aes) simulates fastest, so its
            // difference of two simulations is the least noisy.
            if ki == 0 {
                insert_probe(&trace, &self.specs, rec, &mut insert_us, &mut mem_hit_us)?;
            }
        }
        traced.write(m);
        flows.write(m, true);
        m.insert("accel.prepare.ms", prep_s * 1e3);
        m.insert("accel.prepare.count", prep_n as f64);
        m.insert("accel.schedule.ms", sched_s * 1e3);
        m.insert("accel.schedule.events_per_s", sched_events as f64 / sched_s);
        m.insert("accel.schedule.stepped_cycles", sched_stepped as f64);
        m.insert("dse.cache.insert_us", median(&insert_us));
        m.insert("dse.cache.mem_hit_us", median(&mem_hit_us));
        self.replay_work_s = work_s;
        Ok(())
    }

    fn after_replay(&mut self, ctx: &Ctx, pass_wall_s: f64, m: &mut Metrics) -> Result<(), String> {
        m.insert(
            "dse.sweep.parallel_efficiency",
            self.replay_work_s / (pass_wall_s * ctx.threads as f64),
        );
        Ok(())
    }
}

/// `atrc-stream`: the paper-scale evaluation kernels, encoded to
/// in-memory `.atrc` during set-up, run as isolated and DMA-Full points
/// over a few lane counts through `sweep_points_source` — the windowed
/// scheduler path, which bypasses the result cache by design.
pub struct AtrcStream {
    atrcs: Vec<AtrcTrace>,
    specs: Vec<PointSpec>,
    last: Vec<PointResults>,
    /// Σ single-thread flow time of the last replay.
    replay_work_s: f64,
}

fn atrc_stream_specs() -> Vec<PointSpec> {
    let soc = SocConfig::default();
    let mut specs = Vec::new();
    for lanes in [1, 4, 16] {
        let dp = DmaPoint {
            lanes,
            partition: lanes,
        }
        .datapath();
        for kind in [MemKind::Isolated, MemKind::Dma(DmaOptLevel::Full)] {
            specs.push(PointSpec { kind, dp, soc });
        }
    }
    specs
}

impl Workload for AtrcStream {
    const NAME: &'static str = "atrc-stream";
    const CACHE_MODE: &'static str = "bypassed (.atrc source)";
    const GOLDEN: u64 = 0xc1f4_b916_3d0f_7bea;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let mut atrcs = Vec::new();
        for kernel in evaluation_kernels(ctx.seed, Scale::Paper) {
            let bytes = encode_trace(&kernel.run().trace);
            atrcs.push(AtrcTrace::from_bytes(bytes).map_err(|d| d.to_string())?);
        }
        Ok(AtrcStream {
            atrcs,
            specs: atrc_stream_specs(),
            last: Vec::new(),
            replay_work_s: 0.0,
        })
    }

    fn reset(&mut self, _ctx: &Ctx) -> Result<(), String> {
        Ok(())
    }

    fn pass(&mut self, _ctx: &Ctx) -> Result<Pass, String> {
        let harness = SimHarness::default();
        self.last = self
            .atrcs
            .iter()
            .map(|a| sweep_points_source(&TraceSource::Atrc(a), &self.specs, &harness).0)
            .collect();
        Ok(Pass {
            points: (self.atrcs.len() * self.specs.len()) as u64,
            failed: failures(&self.last),
        })
    }

    fn records(&self, _ctx: &Ctx) -> Result<Vec<String>, String> {
        Ok(debug_records(&self.last))
    }

    fn sample_check(&mut self, ctx: &Ctx) -> Result<usize, String> {
        let kernels = evaluation_kernels(ctx.seed, Scale::Paper);
        check_sample(ctx, &self.last, &self.specs, 3, |k| kernels[k].run().trace)
    }

    fn replay(&mut self, ctx: &Ctx, rec: &mut Recorder, m: &mut Metrics) -> Result<(), String> {
        let mut traced = TraceTally::default();
        let mut flows = FlowTally::default();
        let (mut enc_bytes, mut enc_s, mut dec_s, mut work_s) = (0u64, 0.0, 0.0, 0.0);
        let (mut win_s, mut win_events, mut win_peak) = (0.0, 0u64, 0u64);
        for kernel in evaluation_kernels(ctx.seed, Scale::Paper) {
            let (trace, s) = rec.span("workloads.trace", |_| kernel.run().trace);
            traced.add(s, trace.nodes().len());
            let (bytes, s) = rec.span("ir.atrc.encode", |_| encode_trace(&trace));
            enc_bytes += bytes.len() as u64;
            enc_s += s;
            let (atrc, _) = rec.span("ir.atrc.open", |_| AtrcTrace::from_bytes(bytes));
            let atrc = atrc.map_err(|d| d.to_string())?;
            let (decoded, s) = rec.span("ir.atrc.decode", |_| {
                atrc.nodes().try_fold(0u64, |n, node| node.map(|_| n + 1))
            });
            if decoded.map_err(|d| d.to_string())? != atrc.node_count() {
                return Err(format!("{}: decoded node count differs", atrc.name()));
            }
            dec_s += s;
            let mut isolated_s = Vec::new();
            for spec in &self.specs {
                let (point, _) = rec.span("point", |rec| -> Result<(), SimError> {
                    if spec.kind == MemKind::Isolated {
                        let window =
                            FlowSpec::new(MemKind::Isolated).with_window(DEFAULT_WINDOW_NODES);
                        let (run, s) = rec.span("accel.window", |_| {
                            simulate_source(
                                &TraceSource::Memory(&trace),
                                &spec.dp,
                                &spec.soc,
                                &window,
                            )
                        });
                        let run = run?;
                        win_s += s;
                        win_events += run.result.sched_events;
                        win_peak = win_peak.max(run.peak_resident_nodes.unwrap_or(0));
                    }
                    let (run, s) = rec.span(flow_span(spec.kind), |_| {
                        simulate_source(
                            &TraceSource::Atrc(&atrc),
                            &spec.dp,
                            &spec.soc,
                            &FlowSpec::new(spec.kind),
                        )
                    });
                    let run = run?;
                    work_s += s;
                    if spec.kind == MemKind::Isolated {
                        isolated_s.push((spec.dp.lanes, s));
                    }
                    let iso = isolated_s
                        .iter()
                        .find(|(lanes, _)| *lanes == spec.dp.lanes)
                        .map(|&(_, s)| s);
                    flows.add(&run.result, s, iso);
                    Ok(())
                });
                point.map_err(|e| e.to_string())?;
            }
        }
        traced.write(m);
        flows.write(m, true);
        m.insert("ir.atrc.encode.mb_per_s", enc_bytes as f64 / 1e6 / enc_s);
        m.insert("ir.atrc.decode.mb_per_s", enc_bytes as f64 / 1e6 / dec_s);
        m.insert("accel.window.ms", win_s * 1e3);
        m.insert("accel.window.events_per_s", win_events as f64 / win_s);
        m.insert("accel.window.peak_resident_nodes", win_peak as f64);
        self.replay_work_s = work_s;
        Ok(())
    }

    fn after_replay(&mut self, ctx: &Ctx, pass_wall_s: f64, m: &mut Metrics) -> Result<(), String> {
        m.insert(
            "dse.sweep.parallel_efficiency",
            self.replay_work_s / (pass_wall_s * ctx.threads as f64),
        );
        Ok(())
    }
}
