//! The two campaign workloads, both run through `run_campaign`:
//! `campaign-rerun` (a sweep campaign re-run against a partly warm disk
//! cache) and `cosim-fabrics` (a job-set campaign of contending
//! accelerators on the four interconnect fabrics).

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use aladdin_core::{simulate, simulate_multi, FlowSpec, SimError, Topology};
use aladdin_dse::{
    point_cached, reset_sweep_cache, run_point_cached, set_sweep_cache_dir, set_sweep_cache_mode,
    sweep_points, PointSpec, SweepCacheMode,
};
use aladdin_ir::Report;
use aladdin_spec::{run_campaign, CampaignPlan, CampaignSpec, PlannedPoint, RunOptions};
use aladdin_workloads::by_name;

use crate::harness::{
    flow_span, sample_indices, Ctx, FlowTally, Metrics, Pass, TraceTally, Workload,
};
use crate::spans::Recorder;
use crate::stats::median;

/// The four fabrics every campaign here runs on.
const FABRICS: &str = r#"["shared-bus", "crossbar:4", "two-level:2:4", "mesh:3x3"]"#;

fn report_text(r: &Report) -> String {
    let lines: Vec<String> = r.diagnostics().iter().map(ToString::to_string).collect();
    lines.join("; ")
}

/// Parse and expand a campaign file — the plan step a user pays before
/// the first point runs.
fn plan(text: &str) -> Result<CampaignPlan, String> {
    CampaignSpec::from_toml(text)
        .and_then(|s| s.expand())
        .map_err(|r| report_text(&r))
}

fn journal_path(ctx: &Ctx) -> PathBuf {
    ctx.work.join("journal.jsonl")
}

fn remove_journal(ctx: &Ctx) -> Result<(), String> {
    match std::fs::remove_file(journal_path(ctx)) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot remove journal: {e}"))
        }
        _ => Ok(()),
    }
}

/// Run the whole campaign into a fresh journal.
fn run(plan: &CampaignPlan, ctx: &Ctx) -> Result<Pass, String> {
    let summary = run_campaign(plan, &journal_path(ctx), &RunOptions::default())
        .map_err(|r| report_text(&r))?;
    if !summary.complete() {
        return Err("campaign did not complete".to_owned());
    }
    Ok(Pass {
        points: summary.ran as u64,
        failed: summary.failed as u64,
    })
}

/// The journal's lines, sorted: records land in completion order, which
/// varies with thread timing, while their content does not.
fn sorted_journal(ctx: &Ctx) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(journal_path(ctx))
        .map_err(|e| format!("cannot read journal: {e}"))?;
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    lines.sort_unstable();
    Ok(lines)
}

/// The journal record of point `index`.
fn journal_record(ctx: &Ctx, index: usize) -> Result<String, String> {
    let prefix = format!("{{\"point\":{index},");
    sorted_journal(ctx)?
        .into_iter()
        .find(|l| l.starts_with(&prefix))
        .ok_or_else(|| format!("no journal record for point {index}"))
}

fn journal_bytes(ctx: &Ctx) -> Result<f64, String> {
    let meta = std::fs::metadata(journal_path(ctx)).map_err(|e| e.to_string())?;
    Ok(meta.len() as f64)
}

/// Every regular file under `dir`.
fn files_under(dir: &Path) -> Result<HashSet<PathBuf>, String> {
    let mut out = HashSet::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.insert(path);
            }
        }
    }
    Ok(out)
}

const RERUN_CAMPAIGN: &str = r#"name = "dsebench-campaign-rerun"
kernels = ["aes-aes", "nw-nw", "spmv-crs", "md-knn", "stencil-stencil3d"]
mems = ["dma:full", "cache"]

[space]
preset = "quick"
"#;

/// Share of the campaign's points on disk before each pass — the warm-hit
/// share of a full figure regeneration against a kept cache.
const WARM_SHARE: f64 = 0.6;

/// `campaign-rerun`: a kernels × {dma:full, cache} × quick-space campaign
/// on all four fabrics, re-run through `run_campaign` with a fresh
/// journal against a disk cache holding a seed-chosen 60% of its points
/// and an empty memory tier — what a fresh `sweep run` process sees.
pub struct CampaignRerun {
    plan: CampaignPlan,
    warm_files: HashSet<PathBuf>,
    /// Tracing time and median disk-hit lookup of the last replay.
    replay_trace_s: f64,
    replay_disk_hit_s: f64,
}

fn rerun_campaign_text() -> String {
    format!("{RERUN_CAMPAIGN}topologies = {FABRICS}\n")
}

/// The single points of a sweep campaign, grouped the way the runner
/// groups them: contiguous runs of one kernel.
fn kernel_groups(plan: &CampaignPlan) -> Vec<(String, Vec<(usize, PointSpec)>)> {
    let mut groups: Vec<(String, Vec<(usize, PointSpec)>)> = Vec::new();
    for (i, p) in plan.points.iter().enumerate() {
        if let PlannedPoint::Single { kernel, point } = p {
            match groups.last_mut() {
                Some((k, g)) if k == kernel => g.push((i, *point)),
                _ => groups.push((kernel.clone(), vec![(i, *point)])),
            }
        }
    }
    groups
}

fn trace_of(kernel: &str) -> Result<aladdin_ir::Trace, String> {
    Ok(by_name(kernel)
        .ok_or_else(|| format!("unknown kernel {kernel}"))?
        .run()
        .trace)
}

impl Workload for CampaignRerun {
    const NAME: &'static str = "campaign-rerun";
    const CACHE_MODE: &'static str = "full (60% warm on disk, memory tier empty)";
    const GOLDEN: u64 = 0x6016_70ed_10cf_f5a4;
    // The seed picks only which points start warm; results and journal
    // records are the same for every seed.
    const SEED_FREE_RECORDS: bool = true;

    fn setup(_ctx: &Ctx) -> Result<Self, String> {
        Ok(CampaignRerun {
            plan: plan(&rerun_campaign_text())?,
            warm_files: HashSet::new(),
            replay_trace_s: 0.0,
            replay_disk_hit_s: 0.0,
        })
    }

    fn scaffold(&mut self, ctx: &Ctx) -> Result<(), String> {
        let dir = ctx.work.join("cache");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        set_sweep_cache_mode(SweepCacheMode::Full);
        set_sweep_cache_dir(&dir);
        let n = self.plan.points.len();
        let warm: HashSet<usize> =
            sample_indices(ctx.seed, n, (n as f64 * WARM_SHARE).round() as usize)
                .into_iter()
                .collect();
        for (kernel, group) in kernel_groups(&self.plan) {
            let specs: Vec<PointSpec> = group
                .iter()
                .filter(|(i, _)| warm.contains(i))
                .map(|&(_, s)| s)
                .collect();
            let (results, _) = sweep_points(&trace_of(&kernel)?, &specs, &self.plan.harness);
            if let Some(Err(e)) = results.iter().find(|r| r.is_err()) {
                return Err(format!("pre-warming {kernel}: {e}"));
            }
        }
        self.warm_files = files_under(&dir)?;
        Ok(())
    }

    fn reset(&mut self, ctx: &Ctx) -> Result<(), String> {
        remove_journal(ctx)?;
        for f in files_under(&ctx.work.join("cache"))? {
            if !self.warm_files.contains(&f) {
                std::fs::remove_file(&f).map_err(|e| format!("{}: {e}", f.display()))?;
            }
        }
        reset_sweep_cache();
        Ok(())
    }

    fn pass(&mut self, ctx: &Ctx) -> Result<Pass, String> {
        run(&self.plan, ctx)
    }

    fn records(&self, ctx: &Ctx) -> Result<Vec<String>, String> {
        sorted_journal(ctx)
    }

    fn sample_check(&mut self, ctx: &Ctx) -> Result<usize, String> {
        let picks = sample_indices(ctx.seed, self.plan.points.len(), 4);
        for &i in &picks {
            let PlannedPoint::Single { kernel, point: s } = &self.plan.points[i] else {
                return Err(format!("point {i} is not a single point"));
            };
            let trace = trace_of(kernel)?;
            let plain = simulate(&trace, &s.dp, &s.soc, &FlowSpec::new(s.kind))
                .map_err(|e| format!("plain simulation of point {i}: {e}"))?;
            // After a pass every point is cached; the served result must
            // be the simulated one, bit for bit.
            if run_point_cached(&trace, &s.dp, &s.soc, s.kind) != plain {
                return Err(format!("point {i}: cached result != plain simulation"));
            }
            let tail = format!(
                ",\"cycles\":{},\"energy_j\":{:e},\"edp\":{:e},\"status\":\"ok\"}}",
                plain.total_cycles,
                plain.energy_j(),
                plain.edp()
            );
            if !journal_record(ctx, i)?.ends_with(&tail) {
                return Err(format!("point {i}: journal record != plain simulation"));
            }
        }
        Ok(picks.len())
    }

    fn replay(&mut self, _ctx: &Ctx, rec: &mut Recorder, m: &mut Metrics) -> Result<(), String> {
        let (plan, s) = rec.span("spec.plan", |_| plan(&rerun_campaign_text()));
        let plan = plan?;
        m.insert("spec.plan.ms", s * 1e3);
        let (mut traced, mut flows) = (TraceTally::default(), FlowTally::default());
        let (mut disk_us, mut mem_us, mut insert_us) = (Vec::new(), Vec::new(), Vec::new());
        let mut points = 0usize;
        for (kernel, group) in kernel_groups(&plan) {
            let (trace, s) = rec.span("workloads.trace", |_| trace_of(&kernel));
            let trace = trace?;
            traced.add(s, trace.nodes().len());
            for (_, p) in group {
                points += 1;
                let (point, _) = rec.span("point", |rec| -> Result<(), String> {
                    let lookup = |_: &mut Recorder| point_cached(&trace, &p.dp, &p.soc, p.kind);
                    let (hit, s) = rec.span("dse.cache.lookup", lookup);
                    if hit {
                        disk_us.push(s * 1e6);
                        let (_, s) = rec.span("dse.cache.lookup", lookup);
                        mem_us.push(s * 1e6);
                        return Ok(());
                    }
                    let (r, flow_s) = rec.span(flow_span(p.kind), |_| {
                        simulate(&trace, &p.dp, &p.soc, &FlowSpec::new(p.kind))
                    });
                    let r = r.map_err(|e| e.to_string())?;
                    let (cached, s) = rec.span("dse.run_point_cached", |_| {
                        run_point_cached(&trace, &p.dp, &p.soc, p.kind)
                    });
                    if cached != r {
                        return Err("run_point_cached differs from simulate".to_owned());
                    }
                    insert_us.push((s - flow_s) * 1e6);
                    flows.add(&r, flow_s, None);
                    Ok(())
                });
                point?;
            }
        }
        traced.write(m);
        flows.write(m, false);
        m.insert("dse.cache.hit_ratio", disk_us.len() as f64 / points as f64);
        m.insert("dse.cache.disk_hit_us", median(&disk_us));
        m.insert("dse.cache.mem_hit_us", median(&mem_us));
        m.insert("dse.cache.insert_us", median(&insert_us));
        self.replay_trace_s = traced.seconds();
        self.replay_disk_hit_s = median(&disk_us) / 1e6;
        Ok(())
    }

    fn after_replay(
        &mut self,
        ctx: &Ctx,
        _pass_wall_s: f64,
        m: &mut Metrics,
    ) -> Result<(), String> {
        // The replay left every point on disk: an all-warm re-run pays
        // only tracing, disk lookups and the runner itself.
        remove_journal(ctx)?;
        reset_sweep_cache();
        let t = std::time::Instant::now();
        run(&self.plan, ctx)?;
        let wall = t.elapsed().as_secs_f64();
        let lookups = self.plan.points.len() as f64 * self.replay_disk_hit_s;
        m.insert(
            "spec.run.overhead_ms",
            (wall - self.replay_trace_s - lookups) * 1e3,
        );
        m.insert("spec.journal.bytes", journal_bytes(ctx)?);
        Ok(())
    }
}

/// `cosim-fabrics`: a job-set campaign shaped like
/// `examples/campaigns/topology_contention.toml` — four fabrics × bus
/// widths × accelerator counts × seed-chosen launch staggers — run
/// through `run_campaign`. Job-set points run serially and uncached.
pub struct CosimFabrics {
    text: String,
    plan: CampaignPlan,
    /// Time of the last replay spent tracing and simulating.
    replay_layers_s: f64,
}

/// Launch staggers a seed picks: four distinct multiples of 50 cycles in
/// `0..=2000`, in increasing order.
fn staggers(seed: u64) -> Vec<u64> {
    let mut picks: Vec<u64> = sample_indices(seed ^ 0x7374_6167, 41, 4)
        .into_iter()
        .map(|i| i as u64 * 50)
        .collect();
    picks.sort_unstable();
    picks
}

fn cosim_campaign_text(seed: u64) -> String {
    let staggers: Vec<String> = staggers(seed).iter().map(u64::to_string).collect();
    format!(
        r#"name = "dsebench-cosim-fabrics"
accel_counts = [1, 2, 4]
bus_widths = [32, 64]
stagger = [{}]

[space]
topologies = {FABRICS}

[datapath]
lanes = 2
partition = 2

[[jobs]]
kernel = "aes-aes"
mem = "dma:full"

[[jobs]]
kernel = "kmp"
mem = "dma:pipelined"

[[jobs]]
kernel = "sort-merge"
mem = "dma:full"

[[jobs]]
kernel = "stencil-stencil2d"
mem = "dma:full"
launch = 500
"#,
        staggers.join(", ")
    )
}

/// The span and metric names of a multi-accelerator run on `topology`.
fn multi_layer(topology: Topology) -> (&'static str, &'static str) {
    match topology {
        Topology::SharedBus => ("core.multi.shared-bus", "core.multi.shared-bus.ms"),
        Topology::Crossbar { .. } => ("core.multi.crossbar", "core.multi.crossbar.ms"),
        Topology::TwoLevelBus { .. } => ("core.multi.two-level", "core.multi.two-level.ms"),
        Topology::MeshNoc { .. } => ("core.multi.mesh", "core.multi.mesh.ms"),
    }
}

impl Workload for CosimFabrics {
    const NAME: &'static str = "cosim-fabrics";
    const CACHE_MODE: &'static str = "none (job-set points are uncached)";
    const GOLDEN: u64 = 0x3d4f_b005_5f99_089b;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let text = cosim_campaign_text(ctx.seed);
        let plan = plan(&text)?;
        Ok(CosimFabrics {
            text,
            plan,
            replay_layers_s: 0.0,
        })
    }

    fn reset(&mut self, ctx: &Ctx) -> Result<(), String> {
        remove_journal(ctx)
    }

    fn pass(&mut self, ctx: &Ctx) -> Result<Pass, String> {
        run(&self.plan, ctx)
    }

    fn records(&self, ctx: &Ctx) -> Result<Vec<String>, String> {
        sorted_journal(ctx)
    }

    fn sample_check(&mut self, ctx: &Ctx) -> Result<usize, String> {
        let picks = sample_indices(ctx.seed, self.plan.points.len(), 3);
        for &i in &picks {
            let PlannedPoint::Multi {
                stagger,
                count,
                soc,
            } = &self.plan.points[i]
            else {
                return Err(format!("point {i} is not a job-set point"));
            };
            let jobs = self.plan.jobs_at(*stagger);
            let r = simulate_multi(&jobs[..*count], soc, &self.plan.harness)
                .map_err(|e| format!("plain simulation of point {i}: {e}"))?;
            let latencies: Vec<String> = r
                .accelerators
                .iter()
                .map(|a| a.latency().to_string())
                .collect();
            let tail = format!(
                ",\"end\":{},\"latencies\":[{}],\"status\":\"ok\"}}",
                r.end,
                latencies.join(",")
            );
            if !journal_record(ctx, i)?.ends_with(&tail) {
                return Err(format!("point {i}: journal record != plain simulation"));
            }
        }
        Ok(picks.len())
    }

    fn replay(&mut self, _ctx: &Ctx, rec: &mut Recorder, m: &mut Metrics) -> Result<(), String> {
        let (plan, s) = rec.span("spec.plan", |_| plan(&self.text));
        let plan = plan?;
        m.insert("spec.plan.ms", s * 1e3);
        let mut traced = TraceTally::default();
        let (mut multi_s, mut bus_bytes) = (0.0, 0u64);
        for p in &plan.points {
            let &PlannedPoint::Multi {
                stagger,
                count,
                ref soc,
            } = p
            else {
                return Err("job-set campaign with a single point".to_owned());
            };
            let (point, _) = rec.span("point", |rec| -> Result<(), SimError> {
                let (jobs, s) = rec.span("workloads.trace", |_| plan.jobs_at(stagger));
                traced.add(s, jobs.iter().map(|j| j.trace.nodes().len()).sum());
                let (span, metric) = multi_layer(soc.topology.topology);
                let (r, s) = rec.span(span, |_| simulate_multi(&jobs[..count], soc, &plan.harness));
                let r = r?;
                *m.entry(metric).or_insert(0.0) += s * 1e3;
                multi_s += s;
                bus_bytes += r.bus_bytes;
                Ok(())
            });
            point.map_err(|e| e.to_string())?;
        }
        traced.write(m);
        m.insert("core.multi.bus_bytes", bus_bytes as f64);
        self.replay_layers_s = traced.seconds() + multi_s;
        Ok(())
    }

    fn after_replay(
        &mut self,
        ctx: &Ctx,
        _pass_wall_s: f64,
        m: &mut Metrics,
    ) -> Result<(), String> {
        remove_journal(ctx)?;
        let t = std::time::Instant::now();
        run(&self.plan, ctx)?;
        let wall = t.elapsed().as_secs_f64();
        m.insert("spec.run.overhead_ms", (wall - self.replay_layers_s) * 1e3);
        m.insert("spec.journal.bytes", journal_bytes(ctx)?);
        Ok(())
    }
}
