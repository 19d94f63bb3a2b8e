//! Crash-safe multi-worker campaign coordination: N `sweep work`
//! processes pull design points from one shared campaign directory under
//! per-point **leases**, retry transient failures with bounded backoff,
//! and append to their own journal segments; `sweep coordinate` merges
//! the segments into one journal, quarantining anything corrupt.
//!
//! # The coordination directory
//!
//! ```text
//! <dir>/
//!   meta.json                  campaign name, digest, point count
//!   leases/point-NNNNNN.lease  one per in-flight point: owner + pid
//!   hearts/<worker>.hb         per-worker heartbeat (mtime is the signal)
//!   journal/<worker>.jsonl     per-worker journal segment
//!   merged.jsonl               written by coordinate(): one record/point
//!   merged.jsonl.quarantine    corrupt records found during the merge
//! ```
//!
//! # Safety argument
//!
//! *Claiming* is an atomic `create_new` of the lease file — exactly one
//! worker wins a point. *Finishing* appends one flushed record to the
//! winner's own segment **before** the lease is released, so a crash at
//! any instant leaves the point either (a) journaled (finished — the
//! stale lease is ignored), or (b) not journaled under a lease whose
//! owner has stopped heartbeating (reclaimed by any other worker after
//! [`WorkerConfig::lease_timeout`], `L0290`/`L0291`). A kill mid-append
//! leaves a truncated tail in one segment, which every scanner ignores;
//! corrupt *mid-file* records are quarantined (`L0292`), never silently
//! counted. Workers never write any shared file except their own segment
//! and their own heartbeat, so no write is ever contended.
//!
//! Simulation is deterministic, so the rare benign race — a live but
//! slow worker losing its lease to a reclaimer, both finishing the same
//! point — produces bit-identical records; the merge keeps the first and
//! counts the duplicate. The merged journal is therefore
//! record-for-record identical to a single-process `sweep run` of the
//! same spec, whatever the kill schedule.
//!
//! Transient failures (deadlocks, watchdog expiries —
//! [`SimError::is_transient`]) are retried with bounded exponential
//! backoff and journaled as `"status":"retried"` breadcrumbs before
//! degrading to a terminal error record; configuration errors are
//! terminal immediately. A failing point never aborts the campaign.

use std::collections::{BTreeMap, HashSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use aladdin_core::{simulate_multi, SimError, TraceSource};
use aladdin_dse::{sweep_points_source_streaming, sweep_points_streaming, SweepPerf};
use aladdin_ir::{Diagnostic, Report};

use crate::campaign::{CampaignPlan, JobSet, PlannedPoint};
use crate::runner::{
    classify_line, json_field_str, json_string, materialize_trace, multi_record, point_prefix,
    quarantine_path, scan_journal, single_record, write_quarantine, LineClass, JOURNAL_VERSION,
};

/// Lease expired and was reclaimed (or is still lying around stale).
pub const CODE_LEASE: &str = "L0290";
/// A worker's heartbeat went stale (presumed dead).
pub const CODE_HEARTBEAT: &str = "L0291";
/// A corrupt journal record was quarantined.
pub const CODE_QUARANTINE: &str = "L0292";
/// Result-cache shard index maintenance (including stale-lock repair).
pub const CODE_SHARD_INDEX: &str = "L0293";

/// How one worker process participates in a shared campaign.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The shared coordination directory.
    pub dir: PathBuf,
    /// This worker's id — unique per live worker; also its segment and
    /// heartbeat file name (letters, digits, `-`, `_`, `.`).
    pub worker: String,
    /// How long a lease may sit without its owner heartbeating before
    /// any other worker may reclaim it.
    pub lease_timeout: Duration,
    /// Transient-failure retry budget per point ([`SimError::is_transient`]).
    pub max_retries: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// How long to sleep when every unfinished point is leased by a
    /// live worker.
    pub poll: Duration,
    /// Claim at most this many points, then exit (the campaign stays
    /// coordinated — other workers finish it).
    pub limit: Option<usize>,
}

impl WorkerConfig {
    /// Defaults for a worker on `dir`: id `w<pid>`, 30 s lease timeout,
    /// 2 retries backing off 250 ms → 5 s, 200 ms poll.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WorkerConfig {
            dir: dir.into(),
            worker: format!("w{}", std::process::id()),
            lease_timeout: Duration::from_secs(30),
            max_retries: 2,
            backoff_base: Duration::from_millis(250),
            backoff_cap: Duration::from_secs(5),
            poll: Duration::from_millis(200),
            limit: None,
        }
    }
}

/// What one [`run_worker`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSummary {
    /// This worker's id.
    pub worker: String,
    /// Total points in the plan.
    pub total: usize,
    /// Points this worker claimed and drove to a terminal record.
    pub claimed: usize,
    /// Of those, points whose final outcome was a simulation error.
    pub failed: usize,
    /// Transient-failure retry attempts journaled (`"status":"retried"`).
    pub retried: usize,
    /// Stale leases this worker reclaimed from dead workers (`L0290`).
    pub reclaimed: usize,
    /// Corrupt records quarantined from this worker's own prior segment.
    pub quarantined: usize,
    /// Sweep counters for this worker's simulations (cache hit rate,
    /// scheduler work, wall time).
    pub perf: SweepPerf,
    /// This worker's journal segment.
    pub journal: PathBuf,
    /// Whether every point of the campaign was journaled (by anyone)
    /// when this worker exited.
    pub complete: bool,
}

fn coord_err(code: &'static str, msg: impl Into<String>) -> Report {
    let mut r = Report::new();
    r.push(Diagnostic::error(code, msg));
    r
}

fn meta_path(dir: &Path) -> PathBuf {
    dir.join("meta.json")
}
fn leases_dir(dir: &Path) -> PathBuf {
    dir.join("leases")
}
fn hearts_dir(dir: &Path) -> PathBuf {
    dir.join("hearts")
}
fn segments_dir(dir: &Path) -> PathBuf {
    dir.join("journal")
}
fn lease_path(dir: &Path, index: usize) -> PathBuf {
    leases_dir(dir).join(format!("point-{index:06}.lease"))
}
fn heart_path(dir: &Path, worker: &str) -> PathBuf {
    hearts_dir(dir).join(format!("{worker}.hb"))
}

/// The journal segment a worker appends to.
#[must_use]
pub fn segment_path(dir: &Path, worker: &str) -> PathBuf {
    segments_dir(dir).join(format!("{worker}.jsonl"))
}

/// The merged journal `coordinate` writes.
#[must_use]
pub fn merged_path(dir: &Path) -> PathBuf {
    dir.join("merged.jsonl")
}

fn header_line(plan: &CampaignPlan, worker: Option<&str>) -> String {
    let mut line = format!(
        "{{\"campaign\":{},\"digest\":\"{:016x}\",\"points\":{},\"version\":{}",
        json_string(&plan.spec.name),
        plan.digest,
        plan.points.len(),
        JOURNAL_VERSION
    );
    if let Some(w) = worker {
        line.push_str(&format!(",\"worker\":{}", json_string(w)));
    }
    line.push('}');
    line
}

/// Create the coordination directory (idempotent) and verify `meta.json`
/// names this campaign. Every arrival writes the header to a private
/// temp file and publishes it with a hard link, which fails if
/// `meta.json` already exists: the first arrival wins, and nobody can
/// read a half-written meta. Everyone else checks the digest, so workers
/// can never interleave two different campaigns in one directory.
fn init_dir(plan: &CampaignPlan, dir: &Path) -> Result<(), Report> {
    for d in [
        dir.to_path_buf(),
        leases_dir(dir),
        hearts_dir(dir),
        segments_dir(dir),
    ] {
        std::fs::create_dir_all(&d)
            .map_err(|e| coord_err("L0266", format!("cannot create {}: {e}", d.display())))?;
    }
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let meta = meta_path(dir);
    let tmp = dir.join(format!(
        "meta.json.{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, format!("{}\n", header_line(plan, None)))
        .map_err(|e| coord_err("L0266", format!("cannot write campaign meta: {e}")))?;
    let published = std::fs::hard_link(&tmp, &meta);
    let _ = std::fs::remove_file(&tmp);
    match published {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => verify_meta(plan, dir),
        Err(e) => Err(coord_err(
            "L0266",
            format!("cannot publish {}: {e}", meta.display()),
        )),
    }
}

/// Check that an existing `meta.json` records this campaign's digest.
fn verify_meta(plan: &CampaignPlan, dir: &Path) -> Result<(), Report> {
    let meta = meta_path(dir);
    let text = std::fs::read_to_string(&meta)
        .map_err(|e| coord_err("L0266", format!("cannot read {}: {e}", meta.display())))?;
    let recorded = json_field_str(text.lines().next().unwrap_or(""), "digest")
        .ok_or_else(|| coord_err("L0266", format!("{} has no digest", meta.display())))?;
    if recorded == format!("{:016x}", plan.digest) {
        Ok(())
    } else {
        Err(coord_err(
            "L0266",
            format!(
                "{} records digest {recorded} but the campaign's is {:016x}; \
                 this directory coordinates a different campaign",
                meta.display(),
                plan.digest
            ),
        ))
    }
}

/// Refresh this worker's heartbeat. The file's mtime is the liveness
/// signal; the pid content is forensic only.
fn beat(dir: &Path, worker: &str) {
    let _ = std::fs::write(heart_path(dir, worker), format!("{}\n", std::process::id()));
}

fn age_of(path: &Path) -> Option<Duration> {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()?
        .elapsed()
        .ok()
}

/// Whether a lease may be reclaimed: both the lease itself and its
/// owner's heartbeat must be older than the timeout (a missing heartbeat
/// counts as infinitely old). Checking both means a freshly written
/// lease is never stolen even if its owner has not beaten yet.
fn lease_is_stale(dir: &Path, lease: &Path, owner: &str, timeout: Duration) -> bool {
    let lease_old = age_of(lease).is_some_and(|a| a > timeout);
    if !lease_old {
        return false;
    }
    age_of(&heart_path(dir, owner)).is_none_or(|a| a > timeout)
}

fn read_lease_owner(path: &Path) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    json_field_str(text.lines().next()?, "owner").map(str::to_owned)
}

/// Outcome of one claim attempt.
enum Claim {
    /// We hold the lease; run the point.
    Acquired {
        /// The previous owner, when the lease was reclaimed from a dead
        /// worker (`L0290`/`L0291`).
        reclaimed_from: Option<String>,
    },
    /// Someone else (alive, as far as we can tell) holds it.
    Held,
}

/// Try to lease `index`. Claiming is an atomic `create_new`; reclaiming
/// a stale lease first renames it to a tombstone (atomic — exactly one
/// reclaimer wins) and then re-claims.
fn try_claim(cfg: &WorkerConfig, index: usize) -> Claim {
    let path = lease_path(&cfg.dir, index);
    let mut reclaimed_from = None;
    let mut tomb_seq = 0u32;
    loop {
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut f) => {
                let _ = writeln!(
                    f,
                    "{{\"point\":{index},\"owner\":{},\"pid\":{}}}",
                    json_string(&cfg.worker),
                    std::process::id()
                );
                return Claim::Acquired { reclaimed_from };
            }
            Err(_) => {
                let Some(owner) = read_lease_owner(&path) else {
                    // The lease vanished between create_new and read —
                    // its owner just finished or released. Retry once;
                    // if it reappears unreadable, treat it as held.
                    if path.exists() {
                        return Claim::Held;
                    }
                    continue;
                };
                if owner == cfg.worker {
                    // Our own lease from a previous life of this worker
                    // id (crash + restart): we still own it.
                    return Claim::Acquired { reclaimed_from };
                }
                if !lease_is_stale(&cfg.dir, &path, &owner, cfg.lease_timeout) {
                    return Claim::Held;
                }
                let tomb = leases_dir(&cfg.dir).join(format!(
                    "point-{index:06}.reclaimed-by-{}-{tomb_seq}",
                    cfg.worker
                ));
                tomb_seq += 1;
                if std::fs::rename(&path, &tomb).is_ok() {
                    reclaimed_from = Some(owner);
                    continue; // race the create_new
                }
                // Lost the reclaim race to another worker.
                return Claim::Held;
            }
        }
    }
}

/// Run one planned point to a `Result`, reusing the last materialized
/// trace when consecutive points share a kernel.
fn execute_point(
    plan: &CampaignPlan,
    index: usize,
    jobs: &JobSet,
    trace_memo: &mut Option<(String, aladdin_ir::Trace)>,
    perf: &mut SweepPerf,
) -> (String, Option<SimError>) {
    match &plan.points[index] {
        PlannedPoint::Single { kernel, point } => {
            if kernel.ends_with(".atrc") {
                let atrc = aladdin_ir::AtrcTrace::open(kernel).unwrap_or_else(|d| panic!("{d}"));
                let (results, p) = sweep_points_source_streaming(
                    &TraceSource::Atrc(&atrc),
                    std::slice::from_ref(point),
                    &plan.harness,
                    &|_, _| {},
                );
                perf.absorb(&p);
                let result = results.into_iter().next().expect("one point in, one out");
                let line = single_record(index, kernel, point, &result);
                (line, result.err())
            } else {
                let stale = !matches!(&trace_memo, Some((name, _)) if name == kernel);
                if stale {
                    *trace_memo = Some((kernel.clone(), materialize_trace(kernel)));
                }
                let (_, trace) = trace_memo.as_ref().expect("just ensured");
                let (results, p) = sweep_points_streaming(
                    trace,
                    std::slice::from_ref(point),
                    &plan.harness,
                    &|_, _| {},
                );
                perf.absorb(&p);
                let result = results.into_iter().next().expect("one point in, one out");
                let line = single_record(index, kernel, point, &result);
                (line, result.err())
            }
        }
        PlannedPoint::Multi {
            stagger,
            count,
            soc,
        } => {
            let result = simulate_multi(&jobs.at(*stagger, *count), soc, &plan.harness);
            let line = multi_record(index, *stagger, *count, soc, &result);
            let err = result.err();
            (line, err)
        }
    }
}

/// The `"status":"retried"` breadcrumb journaled before a transient
/// failure is re-attempted.
fn retried_record(
    plan: &CampaignPlan,
    index: usize,
    attempt: u32,
    backoff: Duration,
    err: &SimError,
) -> String {
    let mut line = match &plan.points[index] {
        PlannedPoint::Single { kernel, point } => point_prefix(index, kernel, point),
        PlannedPoint::Multi { stagger, count, .. } => {
            format!("{{\"point\":{index},\"stagger\":{stagger},\"count\":{count}")
        }
    };
    line.push_str(&format!(
        ",\"status\":\"retried\",\"attempt\":{attempt},\"backoff_ms\":{},\"error\":{}}}",
        backoff.as_millis(),
        json_string(&err.to_string())
    ));
    line
}

fn backoff_for(cfg: &WorkerConfig, attempt: u32) -> Duration {
    let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
    cfg.backoff_base.saturating_mul(factor).min(cfg.backoff_cap)
}

/// Incremental scanner over every segment in the directory: each
/// `refresh` reads only bytes appended since the last call (per-file
/// cursors), so the per-claim finished-set re-check stays O(new records)
/// instead of re-reading every journal. Only *complete* lines (ending in
/// a newline) are ever consumed — a torn tail from a killed worker sits
/// unconsumed until (never) completed. Corrupt complete lines do not
/// count as finished; segments whose header digest mismatches are
/// ignored entirely (`coordinate` flags them).
struct SegmentTracker {
    dir: PathBuf,
    want: String,
    offsets: std::collections::HashMap<PathBuf, u64>,
    ignored: HashSet<PathBuf>,
    finished: HashSet<usize>,
}

impl SegmentTracker {
    fn new(dir: &Path, digest: u64) -> Self {
        SegmentTracker {
            dir: dir.to_path_buf(),
            want: format!("{digest:016x}"),
            offsets: std::collections::HashMap::new(),
            ignored: HashSet::new(),
            finished: HashSet::new(),
        }
    }

    fn refresh(&mut self) {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let Ok(entries) = std::fs::read_dir(segments_dir(&self.dir)) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("jsonl")
                || self.ignored.contains(&path)
            {
                continue;
            }
            let Ok(mut file) = std::fs::File::open(&path) else {
                continue;
            };
            let off = self.offsets.get(&path).copied().unwrap_or(0);
            if file.seek(SeekFrom::Start(off)).is_err() {
                continue;
            }
            let mut buf = String::new();
            if file.read_to_string(&mut buf).is_err() {
                continue;
            }
            // Consume up to the last newline; a partial final line waits
            // for the next refresh (or stays torn forever — ignored).
            let Some(complete_len) = buf.rfind('\n').map(|i| i + 1) else {
                continue;
            };
            let mut advanced = 0u64;
            let mut chunks = buf[..complete_len].split_inclusive('\n');
            if off == 0 {
                let Some(header) = chunks.next() else {
                    continue;
                };
                if json_field_str(header.trim_end(), "digest") != Some(self.want.as_str()) {
                    self.ignored.insert(path);
                    continue;
                }
                advanced += header.len() as u64;
            }
            for chunk in chunks {
                if let LineClass::Finished(point) = classify_line(chunk.trim_end(), false) {
                    self.finished.insert(point);
                }
                advanced += chunk.len() as u64;
            }
            self.offsets.insert(path, off + advanced);
        }
    }
}

/// Participate in a shared campaign: claim unfinished points under
/// leases, run them (retrying transient failures with bounded backoff),
/// and append one flushed record per terminal outcome to this worker's
/// own journal segment. Returns when every point of the campaign is
/// journaled (by any worker) or [`WorkerConfig::limit`] is reached.
///
/// Restarting a crashed worker under the same id resumes its segment:
/// its own finished points are skipped, corrupt records from the crash
/// are quarantined (`L0292`), and any lease it still holds is re-owned.
///
/// # Errors
///
/// Returns `L0266` diagnostics when the directory cannot be created,
/// coordinates a different campaign, or this worker's segment is
/// unwritable — never for simulation failures, which are journaled.
///
/// # Panics
///
/// Panics only on bugs (a validated kernel failing to materialize).
pub fn run_worker(plan: &CampaignPlan, cfg: &WorkerConfig) -> Result<WorkerSummary, Report> {
    if cfg.worker.is_empty()
        || !cfg
            .worker
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
    {
        return Err(coord_err(
            "L0266",
            format!("worker id {:?} is not filesystem-safe", cfg.worker),
        ));
    }
    init_dir(plan, &cfg.dir)?;

    let segment = segment_path(&cfg.dir, &cfg.worker);
    let mut summary = WorkerSummary {
        worker: cfg.worker.clone(),
        total: plan.points.len(),
        claimed: 0,
        failed: 0,
        retried: 0,
        reclaimed: 0,
        quarantined: 0,
        perf: SweepPerf::default(),
        journal: segment.clone(),
        complete: false,
    };

    // Resume our own segment: quarantine crash damage, skip our own
    // finished points, append from here on.
    let mut tracker = SegmentTracker::new(&cfg.dir, plan.digest);
    let fresh = !segment.exists();
    if !fresh {
        let scan = scan_journal(&segment, plan.digest)?;
        write_quarantine(&segment, &scan);
        summary.quarantined = scan.quarantined.len();
        tracker.finished.extend(scan.finished.iter().copied());
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&segment)
        .map_err(|e| coord_err("L0266", format!("cannot open {}: {e}", segment.display())))?;
    if fresh {
        writeln!(file, "{}", header_line(plan, Some(&cfg.worker)))
            .map_err(|e| coord_err("L0266", format!("cannot write segment header: {e}")))?;
    }
    let mut write_line = |line: &str| {
        // One write + flush per record: a kill truncates at most the
        // final line of OUR segment, which every scanner tolerates.
        let _ = writeln!(file, "{line}");
        let _ = file.flush();
    };
    beat(&cfg.dir, &cfg.worker);

    let mut trace_memo: Option<(String, aladdin_ir::Trace)> = None;
    // One job set per worker call: its job-set points share per-job work.
    let jobs = plan.job_set();
    loop {
        tracker.refresh();
        if tracker.finished.len() >= plan.points.len() {
            break;
        }
        if cfg.limit.is_some_and(|l| summary.claimed >= l) {
            break;
        }

        let mut progressed = false;
        for index in 0..plan.points.len() {
            if tracker.finished.contains(&index) {
                continue;
            }
            if cfg.limit.is_some_and(|l| summary.claimed >= l) {
                break;
            }
            let reclaimed_from = match try_claim(cfg, index) {
                Claim::Acquired { reclaimed_from } => reclaimed_from,
                Claim::Held => continue,
            };
            beat(&cfg.dir, &cfg.worker);
            tracker.refresh();
            if tracker.finished.contains(&index) {
                // Someone journaled this point after our last look:
                // either its owner released the lease just before our
                // `create_new` won, or we reclaimed a dead owner's lease
                // whose record had already landed. Records are written
                // before leases are released, so this re-check is
                // airtight — release and move on, never re-run.
                let _ = std::fs::remove_file(lease_path(&cfg.dir, index));
                continue;
            }
            if let Some(from) = reclaimed_from {
                summary.reclaimed += 1;
                // Breadcrumb for the merge and for `soclint campaign
                // --journal`: the lease expired (L0290) because its
                // owner's heartbeat went stale (L0291).
                write_line(&format!(
                    "{{\"event\":\"reclaim\",\"point\":{index},\"from\":{},\"by\":{},\"code\":\"{CODE_LEASE}\"}}",
                    json_string(&from),
                    json_string(&cfg.worker)
                ));
            }

            let mut attempt = 0u32;
            let line = loop {
                let (line, err) =
                    execute_point(plan, index, &jobs, &mut trace_memo, &mut summary.perf);
                match err {
                    Some(e) if e.is_transient() && attempt < cfg.max_retries => {
                        let backoff = backoff_for(cfg, attempt);
                        write_line(&retried_record(plan, index, attempt + 1, backoff, &e));
                        summary.retried += 1;
                        attempt += 1;
                        std::thread::sleep(backoff);
                        beat(&cfg.dir, &cfg.worker);
                    }
                    Some(_) => {
                        summary.failed += 1;
                        break line;
                    }
                    None => break line,
                }
            };
            write_line(&line);
            // Journal first, release second: a crash in between leaves a
            // finished point under a stale lease, which scanners ignore.
            let _ = std::fs::remove_file(lease_path(&cfg.dir, index));
            tracker.finished.insert(index);
            summary.claimed += 1;
            progressed = true;
            beat(&cfg.dir, &cfg.worker);
        }

        if !progressed {
            // Everything unfinished is leased by live workers: wait for
            // them to finish, die, or go stale.
            std::thread::sleep(cfg.poll);
            beat(&cfg.dir, &cfg.worker);
        }
    }

    summary.complete = tracker.finished.len() >= plan.points.len();
    Ok(summary)
}

/// What `coordinate` found while merging.
#[derive(Debug, Clone)]
pub struct CoordinateSummary {
    /// Total points in the plan.
    pub total: usize,
    /// Points with an `"ok"` record.
    pub done: usize,
    /// Points with a terminal `"error"` record.
    pub failed: usize,
    /// Points with a `"pruned"` record.
    pub pruned: usize,
    /// `"status":"retried"` breadcrumbs across all segments.
    pub retried: usize,
    /// Lease-reclaim events across all segments.
    pub reclaims: usize,
    /// Duplicate terminal records dropped by first-wins dedupe (two
    /// workers raced a reclaim; records are bit-identical).
    pub duplicates: usize,
    /// Corrupt records quarantined to the merged sidecar (`L0292`).
    pub quarantined: usize,
    /// Terminal records attributed per worker segment, sorted by worker.
    pub per_worker: Vec<(String, usize)>,
    /// Leases still present whose owner's heartbeat is stale (`L0290`).
    pub stale_leases: usize,
    /// The merged journal path.
    pub merged: PathBuf,
    /// Whether every point has a terminal record.
    pub complete: bool,
    /// Integrity findings: `L0290`/`L0291` stale state, `L0292`
    /// quarantines, `L0293` shard-index maintenance, `L0266` foreign
    /// segments.
    pub report: Report,
}

/// Everything a read-only scan of a coordination directory yields.
struct DirScan {
    records: BTreeMap<usize, String>,
    per_worker: Vec<(String, usize)>,
    retried: usize,
    reclaims: usize,
    duplicates: usize,
    quarantined: Vec<(String, usize, String)>,
    report: Report,
}

/// Scan every segment (read-only): first-wins terminal records per
/// point, per-worker counts, retry/reclaim tallies, corrupt records, and
/// stale-lease findings.
fn scan_dir(plan: &CampaignPlan, dir: &Path) -> DirScan {
    let mut scan = DirScan {
        records: BTreeMap::new(),
        per_worker: Vec::new(),
        retried: 0,
        reclaims: 0,
        duplicates: 0,
        quarantined: Vec::new(),
        report: Report::new(),
    };
    let want = format!("{:016x}", plan.digest);

    let mut segments: Vec<PathBuf> = std::fs::read_dir(segments_dir(dir))
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("jsonl"))
        .collect();
    segments.sort();

    for path in segments {
        let worker = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let Ok(text) = std::fs::read_to_string(&path) else {
            scan.report.push(Diagnostic::error(
                "L0266",
                format!("cannot read segment {}", path.display()),
            ));
            continue;
        };
        let mut lines = text.lines();
        let header_ok = lines
            .next()
            .and_then(|h| json_field_str(h, "digest"))
            .is_some_and(|d| d == want);
        if !header_ok {
            scan.report.push(Diagnostic::error(
                "L0266",
                format!(
                    "segment {} records a different campaign digest; its records are ignored",
                    path.display()
                ),
            ));
            continue;
        }
        let mut count = 0usize;
        let body: Vec<&str> = lines.collect();
        for (i, line) in body.iter().enumerate() {
            match classify_line(line, i + 1 == body.len()) {
                LineClass::Finished(point) => {
                    if point < plan.points.len() {
                        match scan.records.entry(point) {
                            std::collections::btree_map::Entry::Occupied(_) => {
                                scan.duplicates += 1;
                            }
                            std::collections::btree_map::Entry::Vacant(slot) => {
                                slot.insert((*line).to_owned());
                                count += 1;
                            }
                        }
                    } else {
                        scan.quarantined
                            .push((worker.clone(), i + 2, (*line).to_owned()));
                    }
                }
                LineClass::Retried(_) => scan.retried += 1,
                LineClass::Event => scan.reclaims += 1,
                LineClass::TruncatedTail => {}
                LineClass::Corrupt => {
                    scan.quarantined
                        .push((worker.clone(), i + 2, (*line).to_owned()));
                }
            }
        }
        scan.per_worker.push((worker, count));
    }

    for (worker, lineno, _) in &scan.quarantined {
        scan.report.push(Diagnostic::warning(
            CODE_QUARANTINE,
            format!("segment {worker} line {lineno}: corrupt record quarantined"),
        ));
    }

    // Stale coordinator state: leases whose owner stopped heartbeating.
    for entry in std::fs::read_dir(leases_dir(dir))
        .into_iter()
        .flatten()
        .flatten()
    {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("lease") {
            continue;
        }
        let Some(owner) = read_lease_owner(&path) else {
            continue;
        };
        // Any timeout has passed for a *finished* campaign; for the
        // lint path we only report leases whose owner looks dead now.
        if age_of(&heart_path(dir, &owner)).is_none_or(|a| a > Duration::from_secs(30)) {
            scan.report.push(Diagnostic::warning(
                CODE_LEASE,
                format!(
                    "{} is still leased by {owner}, whose heartbeat is stale",
                    path.file_name().unwrap_or_default().to_string_lossy()
                ),
            ));
            scan.report.push(Diagnostic::warning(
                CODE_HEARTBEAT,
                format!("worker {owner} stopped heartbeating; presumed dead"),
            ));
        }
    }

    scan
}

/// Merge every worker's journal segment into `merged.jsonl`: one header
/// plus exactly one terminal record per finished point, in point order —
/// record-for-record identical to a single-process `sweep run`. Corrupt
/// records go to the `merged.jsonl.quarantine` sidecar (`L0292`);
/// leftover stale leases and heartbeats are reported (`L0290`/`L0291`);
/// the disk result-cache shard index is refreshed (`L0293`).
///
/// Safe to run while workers are still going (it reads segments, writes
/// only `merged.jsonl`) and safe to re-run any number of times.
///
/// # Errors
///
/// Returns `L0266` diagnostics when the directory does not coordinate
/// this campaign or the merged journal cannot be written.
pub fn coordinate(plan: &CampaignPlan, dir: &Path) -> Result<CoordinateSummary, Report> {
    verify_meta(plan, dir)?;
    let scan = scan_dir(plan, dir);
    let mut report = scan.report;

    let merged = merged_path(dir);
    let mut text = header_line(plan, None);
    text.push('\n');
    let mut done = 0usize;
    let mut failed = 0usize;
    let mut pruned = 0usize;
    for line in scan.records.values() {
        match json_field_str(line, "status") {
            Some("ok") => done += 1,
            Some("error") => failed += 1,
            Some("pruned") => pruned += 1,
            _ => {}
        }
        text.push_str(line);
        text.push('\n');
    }
    let tmp = dir.join(format!("merged.jsonl.tmp-{}", std::process::id()));
    std::fs::write(&tmp, &text)
        .and_then(|()| std::fs::rename(&tmp, &merged))
        .map_err(|e| coord_err("L0266", format!("cannot write {}: {e}", merged.display())))?;

    // The merged sidecar mirrors the per-segment quarantine findings.
    let sidecar = quarantine_path(&merged);
    if scan.quarantined.is_empty() {
        let _ = std::fs::remove_file(&sidecar);
    } else {
        let mut qtext = String::new();
        for (worker, lineno, line) in &scan.quarantined {
            qtext.push_str(&format!("{worker} line {lineno}: {line}\n"));
        }
        let qtmp = dir.join(format!("merged.quarantine.tmp-{}", std::process::id()));
        let _ = std::fs::write(&qtmp, qtext).and_then(|()| std::fs::rename(&qtmp, &sidecar));
    }

    // Observational shard-index refresh for the shared disk cache.
    let idx = aladdin_dse::maintain_shard_index(None);
    if idx.repaired_lock {
        report.push(Diagnostic::warning(
            CODE_SHARD_INDEX,
            "broke a stale result-cache shard-index lock (holder presumed dead)",
        ));
    }
    if idx.written {
        report.push(Diagnostic::info(
            CODE_SHARD_INDEX,
            format!(
                "result-cache shard index: {} file(s) across {} shard(s), {} legacy flat file(s)",
                idx.files,
                idx.entries.len(),
                idx.legacy_files
            ),
        ));
    }

    let stale_leases = report
        .diagnostics()
        .iter()
        .filter(|d| d.code == CODE_LEASE)
        .count();
    let complete = scan.records.len() >= plan.points.len();
    Ok(CoordinateSummary {
        total: plan.points.len(),
        done,
        failed,
        pruned,
        retried: scan.retried,
        reclaims: scan.reclaims,
        duplicates: scan.duplicates,
        quarantined: scan.quarantined.len(),
        per_worker: scan.per_worker,
        stale_leases,
        merged,
        complete,
        report,
    })
}

/// Read-only journal integrity report for `soclint campaign --journal`:
/// accepts either a coordination directory (segments, leases, and
/// heartbeats are all checked — `L0290`/`L0291`/`L0292`/`L0266`) or a
/// single journal file (`L0292`/`L0266`). Writes nothing.
#[must_use]
pub fn journal_report(plan: &CampaignPlan, path: &Path) -> Report {
    if path.is_dir() {
        if let Err(r) = verify_meta(plan, path) {
            return r;
        }
        let scan = scan_dir(plan, path);
        let mut report = scan.report;
        let workers: Vec<String> = scan
            .per_worker
            .iter()
            .map(|(w, n)| format!("{w}={n}"))
            .collect();
        report.push(Diagnostic::info(
            "L0266",
            format!(
                "{} of {} point(s) journaled across {} segment(s) ({}); {} retry record(s), {} reclaim(s)",
                scan.records.len(),
                plan.points.len(),
                scan.per_worker.len(),
                workers.join(", "),
                scan.retried,
                scan.reclaims
            ),
        ));
        report
    } else {
        match scan_journal(path, plan.digest) {
            Ok(scan) => {
                let mut report = Report::new();
                for (lineno, _) in &scan.quarantined {
                    report.push(Diagnostic::warning(
                        CODE_QUARANTINE,
                        format!("line {lineno}: corrupt record quarantined"),
                    ));
                }
                report.push(Diagnostic::info(
                    "L0266",
                    format!(
                        "{} of {} point(s) journaled; {} retry record(s), {} event(s)",
                        scan.finished.len(),
                        plan.points.len(),
                        scan.retried,
                        scan.events
                    ),
                ));
                report
            }
            Err(r) => r,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignSpec;
    use crate::runner::{run_campaign, RunOptions};

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("aladdin-coord-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn tiny_plan() -> CampaignPlan {
        CampaignSpec::from_toml(
            r#"
name = "coord-test"
kernels = ["aes-aes"]
mems = ["isolated"]

[space]
lanes = [1, 2]
partitions = [1, 2]
"#,
        )
        .expect("parses")
        .expand()
        .expect("expands")
    }

    fn fast_cfg(dir: &Path, worker: &str) -> WorkerConfig {
        WorkerConfig {
            worker: worker.to_owned(),
            lease_timeout: Duration::from_millis(300),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            poll: Duration::from_millis(20),
            ..WorkerConfig::new(dir)
        }
    }

    #[test]
    fn one_worker_completes_and_merge_matches_single_process() {
        let plan = tiny_plan();
        let dir = temp_dir("solo");
        let summary = run_worker(&plan, &fast_cfg(&dir, "w1")).expect("works");
        assert_eq!(summary.claimed, plan.points.len());
        assert_eq!(summary.failed, 0);
        assert!(summary.complete);

        let merged = coordinate(&plan, &dir).expect("merges");
        assert!(merged.complete);
        assert_eq!(merged.done, plan.points.len());
        assert_eq!(merged.duplicates, 0);
        assert_eq!(merged.quarantined, 0);
        assert_eq!(
            merged.per_worker,
            vec![("w1".to_owned(), plan.points.len())]
        );

        // The merged body is record-for-record the single-process body.
        let mut journal = std::env::temp_dir();
        journal.push(format!("aladdin-coord-{}-solo.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&journal);
        run_campaign(&plan, &journal, &RunOptions::default()).expect("runs");
        let mut single: Vec<String> = std::fs::read_to_string(&journal)
            .unwrap()
            .lines()
            .skip(1)
            .map(str::to_owned)
            .collect();
        single.sort();
        let mut ours: Vec<String> = std::fs::read_to_string(&merged.merged)
            .unwrap()
            .lines()
            .skip(1)
            .map(str::to_owned)
            .collect();
        ours.sort();
        assert_eq!(single, ours, "merged journal must be bit-identical");

        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_workers_split_the_campaign_without_duplicates() {
        let plan = tiny_plan();
        let dir = temp_dir("pair");
        let plan2 = plan.clone();
        let dir2 = dir.clone();
        let t = std::thread::spawn(move || {
            run_worker(&plan2, &fast_cfg(&dir2, "wb")).expect("worker b")
        });
        let a = run_worker(&plan, &fast_cfg(&dir, "wa")).expect("worker a");
        let b = t.join().expect("joins");
        assert!(a.complete && b.complete);
        assert!(
            a.claimed + b.claimed >= plan.points.len(),
            "every point claimed at least once"
        );

        let merged = coordinate(&plan, &dir).expect("merges");
        assert!(merged.complete);
        assert_eq!(merged.done + merged.failed + merged.pruned, merged.total);
        assert_eq!(merged.quarantined, 0);
        // Per-worker counts attribute every merged record exactly once.
        let attributed: usize = merged.per_worker.iter().map(|(_, n)| n).sum();
        assert_eq!(attributed, merged.total);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lease_is_reclaimed_and_the_point_recovers() {
        let plan = tiny_plan();
        let dir = temp_dir("reclaim");
        let cfg = fast_cfg(&dir, "alive");
        init_dir(&plan, &dir).expect("init");
        // A dead worker left a lease on point 0 and stopped heartbeating.
        std::fs::write(
            lease_path(&dir, 0),
            "{\"point\":0,\"owner\":\"dead\",\"pid\":1}\n",
        )
        .expect("plant lease");
        std::fs::write(heart_path(&dir, "dead"), "1\n").expect("plant heart");
        let old = std::time::SystemTime::now() - Duration::from_secs(60);
        for p in [lease_path(&dir, 0), heart_path(&dir, "dead")] {
            let f = std::fs::OpenOptions::new().write(true).open(p).unwrap();
            f.set_modified(old).unwrap();
        }

        let summary = run_worker(&plan, &cfg).expect("works");
        assert!(summary.complete);
        assert_eq!(summary.reclaimed, 1, "the dead worker's lease reclaims");
        assert_eq!(summary.claimed, plan.points.len());

        let merged = coordinate(&plan, &dir).expect("merges");
        assert!(merged.complete);
        assert_eq!(merged.reclaims, 1, "the reclaim breadcrumb survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_lease_is_not_stolen() {
        let plan = tiny_plan();
        let dir = temp_dir("held");
        init_dir(&plan, &dir).expect("init");
        std::fs::write(
            lease_path(&dir, 0),
            "{\"point\":0,\"owner\":\"other\",\"pid\":1}\n",
        )
        .expect("plant lease");
        std::fs::write(heart_path(&dir, "other"), "1\n").expect("fresh heart");
        let cfg = fast_cfg(&dir, "me");
        match try_claim(&cfg, 0) {
            Claim::Held => {}
            Claim::Acquired { .. } => panic!("must not steal a fresh lease"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_failures_retry_then_degrade_to_terminal_records() {
        // A 1-cycle watchdog makes every point fail transiently: each
        // point gets max_retries breadcrumbs, then a terminal error
        // record — and the campaign still completes.
        let mut plan = tiny_plan();
        plan.harness.watchdog = aladdin_core::Watchdog {
            max_cycles: Some(1),
            no_progress_cycles: 4_000_000,
        };
        let dir = temp_dir("retry");
        let cfg = fast_cfg(&dir, "w1");
        let summary = run_worker(&plan, &cfg).expect("works");
        assert!(summary.complete, "failures never abort the campaign");
        assert_eq!(summary.failed, plan.points.len());
        assert_eq!(
            summary.retried,
            plan.points.len() * cfg.max_retries as usize,
            "bounded retries per point"
        );

        let merged = coordinate(&plan, &dir).expect("merges");
        assert!(merged.complete);
        assert_eq!(merged.failed, plan.points.len());
        assert_eq!(merged.retried, summary.retried);
        // The segment carries the breadcrumbs in order: retried,
        // retried, then the terminal error.
        let text = std::fs::read_to_string(segment_path(&dir, "w1")).unwrap();
        assert!(text.contains("\"status\":\"retried\""), "{text}");
        assert!(text.contains("\"attempt\":1"), "{text}");
        assert!(text.contains("\"attempt\":2"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn directory_refuses_a_different_campaign() {
        let plan = tiny_plan();
        let dir = temp_dir("foreign");
        init_dir(&plan, &dir).expect("init");
        let other = CampaignSpec::from_toml(
            r#"
name = "other"
kernels = ["fft-transpose"]
mems = ["isolated"]
"#,
        )
        .expect("parses")
        .expand()
        .expect("expands");
        let err = run_worker(&other, &fast_cfg(&dir, "w1")).unwrap_err();
        assert!(err.has_code("L0266"), "{}", err.to_human());
        let err = coordinate(&other, &dir).unwrap_err();
        assert!(err.has_code("L0266"), "{}", err.to_human());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_limit_leaves_a_resumable_campaign() {
        let plan = tiny_plan();
        let dir = temp_dir("limit");
        let cfg = WorkerConfig {
            limit: Some(1),
            ..fast_cfg(&dir, "w1")
        };
        let first = run_worker(&plan, &cfg).expect("works");
        assert_eq!(first.claimed, 1);
        assert!(!first.complete);
        let rest = run_worker(&plan, &fast_cfg(&dir, "w2")).expect("works");
        assert!(rest.complete);
        assert_eq!(rest.claimed, plan.points.len() - 1);

        let merged = coordinate(&plan, &dir).expect("merges");
        assert!(merged.complete);
        assert_eq!(
            merged.per_worker,
            vec![
                ("w1".to_owned(), 1),
                ("w2".to_owned(), plan.points.len() - 1)
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_report_covers_dirs_and_files() {
        let plan = tiny_plan();
        let dir = temp_dir("lintable");
        run_worker(&plan, &fast_cfg(&dir, "w1")).expect("works");
        let report = journal_report(&plan, &dir);
        assert!(!report.has_errors(), "{}", report.to_human());
        assert!(report.to_human().contains("w1="), "per-worker counts");

        // Corrupt a mid-file record in the segment: the report flags it.
        let seg = segment_path(&dir, "w1");
        let text = std::fs::read_to_string(&seg).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let keep = lines[1].len() - 5;
        lines[1].truncate(keep);
        std::fs::write(&seg, lines.join("\n") + "\n").unwrap();
        let report = journal_report(&plan, &dir);
        assert!(report.has_code(CODE_QUARANTINE), "{}", report.to_human());

        // Single-file journals work through the same entry point.
        let mut journal = std::env::temp_dir();
        journal.push(format!(
            "aladdin-coord-{}-lintable.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&journal);
        run_campaign(&plan, &journal, &RunOptions::default()).expect("runs");
        let report = journal_report(&plan, &journal);
        assert!(!report.has_errors(), "{}", report.to_human());

        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
