//! What every workload shares: the timed set-up and passes of the
//! end-to-end run, the correctness gate, and the traced replay that
//! yields the per-layer metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use aladdin_core::{FlowResult, MemKind};

use crate::spans::{is_layer, self_times_ns, Recorder};
use crate::stats::{cpu_seconds, digest, median, peak_rss_mb, quartiles};

/// The seed whose record digests are committed as golden values.
pub const DEFAULT_SEED: u64 = 0;

/// End-to-end metrics, measured with tracing off: name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("points_per_s", "1/s"),
    ("cpu_ms_per_point", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name and unit. A workload that
/// never calls into a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("workloads.trace.ms", "ms"),
    ("workloads.trace.nodes_per_s", "1/s"),
    ("ir.atrc.encode.mb_per_s", "MB/s"),
    ("ir.atrc.decode.mb_per_s", "MB/s"),
    ("accel.prepare.ms", "ms"),
    ("accel.prepare.count", "count"),
    ("accel.schedule.ms", "ms"),
    ("accel.schedule.events_per_s", "1/s"),
    ("accel.schedule.stepped_cycles", "count"),
    ("accel.window.ms", "ms"),
    ("accel.window.events_per_s", "1/s"),
    ("accel.window.peak_resident_nodes", "count"),
    ("accel.mem_rejects", "count"),
    ("core.flow.dma.p50_ms", "ms"),
    ("core.flow.dma.max_ms", "ms"),
    ("core.flow.cache.p50_ms", "ms"),
    ("core.flow.cache.max_ms", "ms"),
    ("mem.dma.self_ms", "ms"),
    ("mem.cache.self_ms", "ms"),
    ("mem.cache.hits", "count"),
    ("mem.cache.misses", "count"),
    ("mem.cache.rejects", "count"),
    ("mem.cache.accept_ratio", "ratio"),
    ("mem.tlb.misses", "count"),
    ("mem.dma.bytes", "bytes"),
    ("core.multi.shared-bus.ms", "ms"),
    ("core.multi.crossbar.ms", "ms"),
    ("core.multi.two-level.ms", "ms"),
    ("core.multi.mesh.ms", "ms"),
    ("core.multi.bus_bytes", "bytes"),
    ("dse.cache.hit_ratio", "ratio"),
    ("dse.cache.disk_hit_us", "us"),
    ("dse.cache.mem_hit_us", "us"),
    ("dse.cache.insert_us", "us"),
    ("dse.sweep.parallel_efficiency", "ratio"),
    ("spec.plan.ms", "ms"),
    ("spec.journal.bytes", "bytes"),
    ("spec.run.overhead_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
];

/// Per-layer values by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Run-wide settings every workload sees.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The benchmark seed.
    pub seed: u64,
    /// A scratch directory owned by this run (journals, cache files).
    pub work: PathBuf,
    /// Threads the engine's sweep pool uses (`available_parallelism`).
    pub threads: usize,
}

/// What one timed pass did.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Design points attempted.
    pub points: u64,
    /// Of those, points that ended in a `SimError` or a failed journal
    /// record.
    pub failed: u64,
}

/// One workload of the benchmark.
pub trait Workload: Sized {
    /// The workload's name on the command line.
    const NAME: &'static str;
    /// How the result cache is used, for the provenance record.
    const CACHE_MODE: &'static str;
    /// Committed digest of [`records`](Workload::records) for the
    /// default seed.
    const GOLDEN: u64;
    /// Whether the records, hence the golden digest, are the same for
    /// every seed.
    const SEED_FREE_RECORDS: bool = false;

    /// What a user pays before the first point can run (timed, repeated).
    fn setup(ctx: &Ctx) -> Result<Self, String>;
    /// Untimed one-off preparation of the starting state (cache
    /// pre-warming).
    fn scaffold(&mut self, _ctx: &Ctx) -> Result<(), String> {
        Ok(())
    }
    /// Untimed: bring back the starting state before a pass or replay.
    fn reset(&mut self, ctx: &Ctx) -> Result<(), String>;
    /// One timed pass over all the workload's points.
    fn pass(&mut self, ctx: &Ctx) -> Result<Pass, String>;
    /// Canonical records of the last pass, digested by the gate.
    fn records(&self, ctx: &Ctx) -> Result<Vec<String>, String>;
    /// Untimed: compare a seed-chosen sample of the last pass's points
    /// with a plain, uncached simulation; returns how many were checked.
    fn sample_check(&mut self, ctx: &Ctx) -> Result<usize, String>;
    /// Replay the workload's calls on one thread, one span per call
    /// into a layer, filling per-layer metrics.
    fn replay(&mut self, ctx: &Ctx, rec: &mut Recorder, m: &mut Metrics) -> Result<(), String>;
    /// Per-layer metrics that compare the replay with a real run
    /// (`pass_wall_s` is the wall time of one untraced pass).
    fn after_replay(&mut self, ctx: &Ctx, pass_wall_s: f64, m: &mut Metrics) -> Result<(), String>;
}

/// A finished benchmark run, ready to print.
#[derive(Debug)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Points attempted.
    pub attempted: u64,
    /// Points that failed.
    pub failed: u64,
    /// Metric name, value and unit, in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Spans of the traced run.
    pub spans: Option<Recorder>,
}

/// Set-up repeats at least `MIN_SETUPS` times and until `SETUP_SECONDS`
/// are spent, so a set-up of microseconds is sampled over a stretch of
/// time rather than one instant; the reported set-up time is the median.
const MIN_SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 1.0;

fn elapsed_s(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The correctness gate over one pass: digests stable across passes,
/// equal to the committed value where it applies, and a sample equal to
/// plain simulation.
fn check<W: Workload>(w: &mut W, ctx: &Ctx, digests: &[u64]) -> bool {
    let mut ok = true;
    let first = digests[0];
    if digests.iter().any(|&d| d != first) {
        eprintln!("{}: passes disagree: digests {digests:016x?}", W::NAME);
        ok = false;
    }
    if ctx.seed == DEFAULT_SEED || W::SEED_FREE_RECORDS {
        if first == W::GOLDEN {
            eprintln!("{}: digest {first:016x} matches the golden value", W::NAME);
        } else {
            eprintln!(
                "{}: digest {first:016x} != golden {:016x}",
                W::NAME,
                W::GOLDEN
            );
            ok = false;
        }
    } else {
        eprintln!(
            "{}: digest {first:016x} (no golden value for seed {})",
            W::NAME,
            ctx.seed
        );
    }
    match w.sample_check(ctx) {
        Ok(n) => eprintln!("{}: {n} sampled points equal plain simulation", W::NAME),
        Err(e) => {
            eprintln!("{}: sample check failed: {e}", W::NAME);
            ok = false;
        }
    }
    ok
}

fn summarize(name: &str, unit: &str, values: &[f64]) -> f64 {
    let m = median(values);
    let (q1, q3) = quartiles(values);
    eprintln!(
        "  {name:<18} median {m:.6} {unit}  (q1 {q1:.6}, q3 {q3:.6}, n = {})",
        values.len()
    );
    m
}

/// The end-to-end run: set up, run timed passes until `seconds` of pass
/// time are measured, repeat the set-up, then check the outputs.
///
/// # Errors
///
/// Fails when a workload step cannot run at all (not on a wrong result,
/// which is reported through [`Outcome::correct`]).
pub fn run_e2e<W: Workload>(ctx: &Ctx, seconds: f64) -> Result<Outcome, String> {
    // The passes run on the first set-up, in a process that has set up
    // once, as a user's has; the repeats come after the passes.
    let t = Instant::now();
    let mut w = W::setup(ctx)?;
    let mut setups = vec![elapsed_s(t)];
    w.scaffold(ctx)?;

    let (mut rates, mut cpu_per_point, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut measured) = (0u64, 0u64, 0.0);
    let mut peak = None;
    while digests.is_empty() || measured < seconds {
        w.reset(ctx)?;
        let cpu0 = cpu_seconds()?;
        let t = Instant::now();
        let pass = w.pass(ctx)?;
        let wall = elapsed_s(t);
        let cpu = cpu_seconds()? - cpu0;
        measured += wall;
        attempted += pass.points;
        failed += pass.failed;
        rates.push(pass.points as f64 / wall);
        cpu_per_point.push(cpu * 1e3 / pass.points as f64);
        digests.push(digest(&w.records(ctx)?));
        // A user runs set-up and one pass. Later passes only add
        // allocator fragmentation, so the peak would grow with the number
        // of passes that fit in the run.
        if peak.is_none() {
            peak = Some(peak_rss_mb()?);
        }
    }
    let peak = peak.expect("at least one pass");
    while setups.len() < MIN_SETUPS || setups.iter().sum::<f64>() < SETUP_SECONDS {
        let t = Instant::now();
        let again = W::setup(ctx)?;
        setups.push(elapsed_s(t));
        drop(again);
    }
    let correct = check(&mut w, ctx, &digests);

    eprintln!(
        "{}: {} passes, {attempted} points, {failed} failed (fail_ratio {})",
        W::NAME,
        digests.len(),
        failed as f64 / attempted as f64
    );
    let values = [
        summarize("points_per_s", "1/s", &rates),
        summarize("cpu_ms_per_point", "ms", &cpu_per_point),
        summarize("setup_s", "s", &setups),
        peak,
    ];
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
        spans: None,
    })
}

/// The traced run: one untraced pass (checked like the end-to-end run),
/// then the workload's calls replayed on one thread twice — without and
/// with span recording — and the per-layer metrics.
///
/// # Errors
///
/// As for [`run_e2e`].
pub fn run_traced<W: Workload>(ctx: &Ctx) -> Result<Outcome, String> {
    let mut w = W::setup(ctx)?;
    w.scaffold(ctx)?;
    w.reset(ctx)?;
    let t = Instant::now();
    let pass = w.pass(ctx)?;
    let pass_wall = elapsed_s(t);
    let first = digest(&w.records(ctx)?);
    let correct = check(&mut w, ctx, &[first]);

    w.reset(ctx)?;
    let mut untraced = Recorder::new(false);
    let t = Instant::now();
    w.replay(ctx, &mut untraced, &mut Metrics::new())?;
    let untraced_s = elapsed_s(t);

    w.reset(ctx)?;
    let mut m = Metrics::new();
    let mut rec = Recorder::new(true);
    let (replayed, traced_s) = rec.span("replay", |rec| w.replay(ctx, rec, &mut m));
    replayed?;
    w.after_replay(ctx, pass_wall, &mut m)?;

    let own = self_times_ns(rec.spans());
    let unattributed_ns: u64 = rec
        .spans()
        .iter()
        .zip(&own)
        .filter(|(s, _)| !is_layer(s.name))
        .map(|(_, &ns)| ns)
        .sum();
    m.insert("trace.overhead_ratio", traced_s / untraced_s);
    m.insert("trace.unattributed_ms", unattributed_ns as f64 / 1e6);
    m.insert(
        "trace.unattributed_share",
        unattributed_ns as f64 / 1e9 / traced_s,
    );

    let mut metrics = Vec::new();
    for &(name, unit) in &PER_LAYER {
        let v = m.remove(name).unwrap_or(0.0);
        metrics.push((name, v, unit));
    }
    if let Some(extra) = m.keys().next() {
        return Err(format!("undeclared per-layer metric {extra}"));
    }
    Ok(Outcome {
        correct,
        attempted: pass.points,
        failed: pass.failed,
        metrics,
        spans: Some(rec),
    })
}

/// The span name of a single-accelerator flow.
#[must_use]
pub fn flow_span(kind: MemKind) -> &'static str {
    match kind {
        MemKind::Isolated => "core.flow.isolated",
        MemKind::Dma(_) => "core.flow.dma",
        MemKind::Cache => "core.flow.cache",
    }
}

/// Per-point flow times and memory-model counts gathered during a
/// replay.
#[derive(Debug, Default)]
pub struct FlowTally {
    dma_ms: Vec<f64>,
    cache_ms: Vec<f64>,
    dma_self_s: f64,
    cache_self_s: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_rejects: u64,
    tlb_misses: u64,
    dma_bytes: u64,
    mem_rejects: u64,
}

impl FlowTally {
    /// Count one point's flow: its result, its wall time, and the wall
    /// time of the same point's isolated flow when one was run.
    pub fn add(&mut self, r: &FlowResult, flow_s: f64, isolated_s: Option<f64>) {
        let self_s = isolated_s.map_or(0.0, |iso| flow_s - iso);
        match r.mem_kind {
            MemKind::Isolated => {}
            MemKind::Dma(_) => {
                self.dma_ms.push(flow_s * 1e3);
                self.dma_self_s += self_s;
            }
            MemKind::Cache => {
                self.cache_ms.push(flow_s * 1e3);
                self.cache_self_s += self_s;
            }
        }
        if let Some(c) = &r.cache_stats {
            self.cache_hits += c.hits;
            self.cache_misses += c.misses;
            self.cache_rejects += c.port_rejects + c.mshr_rejects;
        }
        if let Some(t) = &r.tlb_stats {
            self.tlb_misses += t.misses;
        }
        if let Some(d) = &r.dma_stats {
            self.dma_bytes += d.bytes;
        }
        self.mem_rejects += r.mem_rejects;
    }

    /// Write the tallied metrics. `with_self` reports the flow-minus-
    /// isolated self times (only when isolated flows were run).
    pub fn write(&self, m: &mut Metrics, with_self: bool) {
        let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        if !self.dma_ms.is_empty() {
            m.insert("core.flow.dma.p50_ms", median(&self.dma_ms));
            m.insert("core.flow.dma.max_ms", max(&self.dma_ms));
            m.insert("mem.dma.bytes", self.dma_bytes as f64);
        }
        if !self.cache_ms.is_empty() {
            m.insert("core.flow.cache.p50_ms", median(&self.cache_ms));
            m.insert("core.flow.cache.max_ms", max(&self.cache_ms));
            let accepted = self.cache_hits + self.cache_misses;
            m.insert("mem.cache.hits", self.cache_hits as f64);
            m.insert("mem.cache.misses", self.cache_misses as f64);
            m.insert("mem.cache.rejects", self.cache_rejects as f64);
            m.insert(
                "mem.cache.accept_ratio",
                accepted as f64 / (accepted + self.cache_rejects).max(1) as f64,
            );
            m.insert("mem.tlb.misses", self.tlb_misses as f64);
        }
        if with_self {
            if !self.dma_ms.is_empty() {
                m.insert("mem.dma.self_ms", self.dma_self_s * 1e3);
            }
            if !self.cache_ms.is_empty() {
                m.insert("mem.cache.self_ms", self.cache_self_s * 1e3);
            }
        }
        m.insert("accel.mem_rejects", self.mem_rejects as f64);
    }
}

/// Tracing throughput over a replay: total time and nodes traced.
#[derive(Debug, Default)]
pub struct TraceTally {
    seconds: f64,
    nodes: u64,
}

impl TraceTally {
    /// Count one traced kernel (or job set) of `nodes` nodes.
    pub fn add(&mut self, seconds: f64, nodes: usize) {
        self.seconds += seconds;
        self.nodes += nodes as u64;
    }

    /// Total tracing time so far, in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.seconds
    }

    /// Write `workloads.trace.*`.
    pub fn write(&self, m: &mut Metrics) {
        m.insert("workloads.trace.ms", self.seconds * 1e3);
        m.insert(
            "workloads.trace.nodes_per_s",
            self.nodes as f64 / self.seconds,
        );
    }
}

/// Indices of a seed-chosen sample of `k` distinct points out of `n`.
#[must_use]
pub fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = aladdin_rng::SmallRng::seed_from_u64(seed ^ 0x5a4d_504c_4553);
    let mut all: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut all);
    all.truncate(k);
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaigns::{CampaignRerun, CosimFabrics};

    /// Digests of two passes of `W` on the default seed, each from the
    /// workload's starting state.
    fn two_pass_digests<W: Workload>() -> [u64; 2] {
        let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../.dsebench")
            .join(format!("test-{}-{}", W::NAME, std::process::id()));
        std::fs::create_dir_all(&work).expect("scratch directory");
        let ctx = Ctx {
            seed: DEFAULT_SEED,
            work: work.clone(),
            threads: 2,
        };
        let mut w = W::setup(&ctx).expect("set-up");
        w.scaffold(&ctx).expect("scaffold");
        let digests = [0, 1].map(|_| {
            w.reset(&ctx).expect("reset");
            let pass = w.pass(&ctx).expect("pass");
            assert_eq!(pass.failed, 0);
            digest(&w.records(&ctx).expect("records"))
        });
        std::fs::remove_dir_all(&work).expect("remove scratch directory");
        digests
    }

    #[test]
    fn campaign_rerun_digest_is_stable_and_golden() {
        assert_eq!(
            two_pass_digests::<CampaignRerun>(),
            [CampaignRerun::GOLDEN; 2]
        );
    }

    #[test]
    fn cosim_fabrics_digest_is_stable_and_golden() {
        assert_eq!(
            two_pass_digests::<CosimFabrics>(),
            [CosimFabrics::GOLDEN; 2]
        );
    }

    #[test]
    fn flow_tally_reports_counts_and_self_time() {
        use aladdin_core::{simulate, DmaOptLevel, FlowSpec, SocConfig};
        let trace = aladdin_workloads::by_name("aes-aes")
            .expect("kernel")
            .run()
            .trace;
        let dp = aladdin_accel::DatapathConfig::default();
        let soc = SocConfig::default();
        let run = |kind| simulate(&trace, &dp, &soc, &FlowSpec::new(kind)).expect("simulates");
        let mut tally = FlowTally::default();
        tally.add(&run(MemKind::Dma(DmaOptLevel::Full)), 0.003, Some(0.001));
        tally.add(&run(MemKind::Cache), 0.005, Some(0.001));
        let mut m = Metrics::new();
        tally.write(&mut m, true);
        assert_eq!(m["core.flow.dma.p50_ms"], 3.0);
        assert_eq!(m["core.flow.cache.max_ms"], 5.0);
        assert!((m["mem.dma.self_ms"] - 2.0).abs() < 1e-9);
        assert!((m["mem.cache.self_ms"] - 4.0).abs() < 1e-9);
        assert!(m["mem.dma.bytes"] > 0.0);
        let accept = m["mem.cache.accept_ratio"];
        assert!(accept > 0.0 && accept <= 1.0);
    }
}
