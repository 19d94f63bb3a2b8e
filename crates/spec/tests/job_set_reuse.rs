//! Job-set fast-path equivalence: a job-set point run on jobs that share
//! the plan's traces and a memo of per-job work must give the same
//! [`MultiSocResult`] as the same point on freshly traced jobs that share
//! nothing.
//!
//! Every point is run three ways and compared with `==`:
//!
//! * fresh — every kernel traced again, jobs built field by field from
//!   the spec;
//! * `plan.jobs_at(stagger)` — the plan's traces, empty memos;
//! * shared — clones of one job set with shifted launches, the way the
//!   campaign runner reuses work across points, so every point after the
//!   first reads the memo the first one filled.

use aladdin_accel::DatapathConfig;
use aladdin_core::{
    simulate_multi, AcceleratorJob, MasterId, MultiSocResult, SimError, SimHarness, SocConfig,
};
use aladdin_spec::{CampaignPlan, CampaignSpec, PlannedPoint};
use aladdin_workloads::by_name;

fn plan_of(text: &str) -> CampaignPlan {
    CampaignSpec::from_toml(text)
        .expect("campaign parses")
        .expand()
        .expect("campaign expands")
}

fn topology_contention() -> CampaignPlan {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/campaigns/topology_contention.toml"
    );
    plan_of(&std::fs::read_to_string(path).expect("bundled campaign exists"))
}

/// A heterogeneous job set: one cache job, one isolated job and two DMA
/// jobs at different optimization levels, over two fabrics and two
/// staggers.
const HETEROGENEOUS: &str = r#"
name = "heterogeneous-reuse"
stagger = [0, 300]
accel_counts = [2, 4]

[space]
topologies = ["shared-bus", "crossbar:4"]

[datapath]
lanes = 2
partition = 2

[[jobs]]
kernel = "spmv-crs"
mem = "cache"
lanes = 4
partition = 4

[[jobs]]
kernel = "aes-aes"
mem = "isolated"

[[jobs]]
kernel = "stencil-stencil2d"
mem = "dma:pipelined"
launch = 100

[[jobs]]
kernel = "kmp"
mem = "dma:full"
"#;

/// The first `count` jobs of `plan` at `stagger`, each kernel traced
/// afresh.
fn fresh_jobs(plan: &CampaignPlan, stagger: u64, count: usize) -> Vec<AcceleratorJob> {
    plan.spec
        .jobs
        .iter()
        .take(count)
        .enumerate()
        .map(|(i, j)| {
            let dp = DatapathConfig {
                lanes: j.lanes.unwrap_or(plan.base_dp.lanes),
                partition: j.partition.unwrap_or(plan.base_dp.partition),
                ..plan.base_dp
            };
            let trace = by_name(&j.kernel).expect("kernel").run().trace;
            let job = AcceleratorJob::new(trace, dp, j.mem, j.launch + stagger * i as u64);
            match j.master {
                Some(m) => job.with_master(MasterId(m)),
                None => job,
            }
        })
        .collect()
}

/// Clones of `shared` (a stagger-0 job set) shifted to `stagger`.
fn staggered(shared: &[AcceleratorJob], stagger: u64, count: usize) -> Vec<AcceleratorJob> {
    shared
        .iter()
        .take(count)
        .enumerate()
        .map(|(i, j)| {
            let mut job = j.clone();
            job.launch_at += stagger * i as u64;
            job
        })
        .collect()
}

fn multi_points(plan: &CampaignPlan) -> Vec<(u64, usize, SocConfig)> {
    plan.points
        .iter()
        .map(|p| match p {
            PlannedPoint::Multi {
                stagger,
                count,
                soc,
            } => (*stagger, *count, *soc),
            PlannedPoint::Single { .. } => panic!("job-set campaign yields multi points"),
        })
        .collect()
}

fn assert_every_point_matches_fresh(plan: &CampaignPlan) {
    let shared = plan.jobs_at(0);
    for (i, (stagger, count, soc)) in multi_points(plan).into_iter().enumerate() {
        let fresh = simulate_multi(&fresh_jobs(plan, stagger, count), &soc, &plan.harness);
        assert!(fresh.is_ok(), "point {i}: {fresh:?}");
        let at = simulate_multi(&plan.jobs_at(stagger)[..count], &soc, &plan.harness);
        assert_eq!(at, fresh, "point {i}: jobs_at differs from fresh jobs");
        let reused = simulate_multi(&staggered(&shared, stagger, count), &soc, &plan.harness);
        assert_eq!(reused, fresh, "point {i}: shared job set differs");
    }
}

#[test]
fn topology_contention_points_match_freshly_traced_jobs() {
    let plan = topology_contention();
    assert_eq!(plan.points.len(), 24);
    assert_every_point_matches_fresh(&plan);
}

#[test]
fn heterogeneous_points_match_freshly_traced_jobs() {
    let plan = plan_of(HETEROGENEOUS);
    assert_eq!(plan.points.len(), 2 * 2 * 2);
    assert_every_point_matches_fresh(&plan);
}

#[test]
fn a_mutated_clone_recomputes_its_work() {
    let plan = plan_of(HETEROGENEOUS);
    let soc = plan.soc;
    let harness = SimHarness::default();
    let shared = plan.jobs_at(0);
    // Fill every job's memo.
    let base = simulate_multi(&shared, &soc, &harness).expect("completes");

    // A wider datapath on a clone of each kind of job: the clone shares
    // the memo filled above, so only the key check keeps it exact.
    for index in 0..shared.len() {
        let mut mutated = shared.clone();
        mutated[index].datapath.lanes = 8;
        mutated[index].datapath.partition = 8;
        let got = simulate_multi(&mutated, &soc, &harness);

        let mut fresh = fresh_jobs(&plan, 0, shared.len());
        fresh[index].datapath = mutated[index].datapath;
        let want = simulate_multi(&fresh, &soc, &harness);
        assert_eq!(got, want, "job {index}");
        assert_ne!(
            got.as_ref().ok(),
            Some(&base),
            "job {index}: the mutation must matter for this test to mean anything"
        );
    }
    // The originals still read their own memo correctly.
    assert_eq!(simulate_multi(&shared, &soc, &harness), Ok(base));
}

#[test]
fn a_memo_filled_under_the_default_watchdog_does_not_hide_an_expiry() {
    let plan = topology_contention();
    let soc = plan.soc;
    let shared = plan.jobs_at(0);
    let clean: Result<MultiSocResult, SimError> =
        simulate_multi(&shared, &soc, &SimHarness::default());
    assert!(clean.is_ok());

    let mut tight = SimHarness::default();
    tight.watchdog.max_cycles = Some(200);
    let reused = simulate_multi(&shared, &soc, &tight);
    let fresh = simulate_multi(&fresh_jobs(&plan, 0, shared.len()), &soc, &tight);
    let err = reused.clone().expect_err("a 200-cycle budget expires");
    assert_eq!(err.code(), "L0233");
    assert_eq!(reused, fresh);
}
