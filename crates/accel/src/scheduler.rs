//! Resource-constrained dataflow scheduling of a DDDG.
//!
//! This is Aladdin's scheduling step: a breadth-first traversal of the
//! dynamic data dependence graph under user-defined hardware constraints
//! (Section III-B). Per cycle,
//!
//! * each lane may begin at most one operation per functional-unit class
//!   (one FU of each class per lane, fully pipelined),
//! * memory operations issue through the [`DatapathMemory`] and may be
//!   structurally rejected (bank conflict, port limit, MSHR exhaustion) or
//!   stalled (full/empty bit not set, cache miss) — stalling one lane never
//!   blocks independent operations in other lanes (hit-under-miss),
//! * under [`LaneSync::Barrier`], all lanes synchronize before the next
//!   unrolled iteration round begins.
//!
//! # Sweep fast path
//!
//! Design-space sweeps re-schedule the same trace hundreds of times. Two
//! pieces of per-run work are invariant or reusable across points and can
//! be hoisted out of the inner loop:
//!
//! * [`PreparedDddg`] — the graph (successor lists, in-degrees, lane/round
//!   structure) depends only on the trace and the lane count, so a cache
//!   sweep at fixed lanes can build it once and share it (via `Arc`)
//!   across every cache geometry and every worker thread.
//! * [`SchedulerWorkspace`] — the engine's heaps and vectors are sized by
//!   the trace, not the config; keeping them alive between runs turns ~10
//!   allocations per design point into zero.
//!
//! [`schedule`] remains the convenient one-shot entry point; it builds
//! both on the fly and produces bit-identical results to
//! [`schedule_prepared`].

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use aladdin_faults::{DeadlockSnapshot, SimError, Watchdog};
use aladdin_ir::{FuClass, MemAccessKind, NodeId, Trace, TraceNode};
use aladdin_mem::IntervalSet;

use crate::config::{DatapathConfig, LaneSync};
use crate::dddg::Dddg;
use crate::meminterface::{DatapathMemory, IssueResult};

/// Outcome of scheduling a trace on a datapath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleResult {
    /// Cycle the scheduler started at.
    pub start: u64,
    /// Cycle the last operation completed.
    pub end: u64,
    /// Cycles during which at least one operation occupied a functional
    /// unit or the scratchpad. Memory operations waiting inside the memory
    /// system (cache misses, full/empty-bit stalls) are *not* busy — those
    /// gaps are what runtime phase attribution measures.
    pub busy: IntervalSet,
    /// Operations issued per functional-unit class.
    pub issued_per_class: [u64; 6],
    /// Memory issue attempts that were structurally rejected.
    pub mem_rejects: u64,
    /// Total cycles simulated (`end - start`).
    pub cycles: u64,
    /// Scheduler loop iterations actually executed. Idle fast-forwarding
    /// makes this smaller than `cycles`; the gap is simulation work saved.
    pub stepped_cycles: u64,
    /// Scheduler events processed: issues plus retires. A throughput
    /// denominator for "how much simulation happened", independent of how
    /// many idle cycles were skipped.
    pub events: u64,
}

impl ScheduleResult {
    /// Issue-level parallelism achieved (ops per busy cycle).
    #[must_use]
    pub fn ipc(&self) -> f64 {
        let total: u64 = self.issued_per_class.iter().sum();
        let busy = self.busy.total().max(1);
        total as f64 / busy as f64
    }
}

pub(crate) const CLASSES: usize = 6;

/// Memory operations ready to issue, examined in ascending node order.
///
/// Each cycle a scheduler offers the [`mem_issue_budget`] smallest ready
/// ids to the memory interface, in ascending order, and removes only the
/// ones it accepts. A rejected candidate keeps its place, so a reject
/// costs one iteration step. Both schedulers use this queue, which keeps
/// their issue order — and so their results — identical.
#[derive(Debug, Default)]
pub(crate) struct ReadyMem {
    ids: BTreeSet<u32>,
    /// Scratch for [`issue`](ReadyMem::issue); empty between calls.
    accepted: Vec<u32>,
}

impl ReadyMem {
    pub(crate) fn push(&mut self, idx: u32) {
        self.ids.insert(idx);
    }

    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    pub(crate) fn clear(&mut self) {
        self.ids.clear();
    }

    /// Offer the `budget` smallest ready ids to `try_issue` in ascending
    /// order; the ids it accepts (returns `true` for) leave the queue.
    pub(crate) fn issue(&mut self, budget: usize, mut try_issue: impl FnMut(u32) -> bool) {
        for &idx in self.ids.iter().take(budget) {
            if try_issue(idx) {
                self.accepted.push(idx);
            }
        }
        for idx in self.accepted.drain(..) {
            self.ids.remove(&idx);
        }
    }
}

/// How many memory issue attempts the scheduler examines per cycle for a
/// datapath — the engine's internal issue-bandwidth budget, exposed
/// read-only so static analyses (`aladdin-lint`'s cycle-bound model) can
/// reason about per-cycle memory throughput without re-deriving the
/// scheduler's internals.
#[must_use]
pub fn mem_issue_budget(cfg: &DatapathConfig) -> usize {
    8 + 4 * cfg.lanes as usize + 2 * cfg.partition as usize
}

/// A DDDG prepared for scheduling: the graph plus the per-round node
/// counts the barrier model needs.
///
/// The graph structure depends only on the trace and `cfg.lanes` — not on
/// partitioning, port counts, timing, or anything in the SoC — so sweeps
/// over cache geometry or scratchpad partitioning at a fixed lane count
/// can prepare once and schedule many times. Sharing across worker threads
/// is cheap: wrap it in an `Arc` and hand every worker a clone.
#[derive(Debug, Clone)]
pub struct PreparedDddg {
    graph: Dddg,
    round_total: Vec<usize>,
    lanes: u32,
}

impl PreparedDddg {
    /// Build the graph for `trace` as seen by a datapath with `cfg.lanes`
    /// lanes. Only the lane count matters; every other field of `cfg` is
    /// ignored here and may vary freely between [`schedule_prepared`]
    /// calls that reuse this preparation.
    #[must_use]
    pub fn new(trace: &Trace, cfg: &DatapathConfig) -> Self {
        let graph = Dddg::build(trace, cfg);
        let mut round_total = vec![0usize; graph.num_rounds() as usize];
        for &r in graph.rounds() {
            round_total[r as usize] += 1;
        }
        PreparedDddg {
            graph,
            round_total,
            lanes: cfg.lanes,
        }
    }

    /// The prepared graph.
    #[must_use]
    pub fn graph(&self) -> &Dddg {
        &self.graph
    }

    /// The lane count this preparation was built for.
    #[must_use]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }
}

/// Reusable scheduling buffers: heaps, per-node state, and scratch vectors
/// the engine would otherwise allocate afresh for every design point.
///
/// A workspace is plain state — create one per worker thread and pass it
/// to [`schedule_prepared`] for every point that worker simulates. All
/// contents are cleared (but their capacity retained) at the start of each
/// run, so reuse cannot leak state between points; results are
/// bit-identical to a cold [`schedule`] call.
#[derive(Debug, Default)]
pub struct SchedulerWorkspace {
    indeg: Vec<u32>,
    round_done: Vec<usize>,
    parked: Vec<Vec<u32>>,
    ready_compute: Vec<BinaryHeap<Reverse<u32>>>,
    ready_mask: Vec<u64>,
    ready_mem: ReadyMem,
    wheel: BinaryHeap<Reverse<(u64, u32)>>,
    mem_wheel: BinaryHeap<Reverse<(u64, u32)>>,
}

impl SchedulerWorkspace {
    /// An empty workspace. Buffers grow to fit the first trace scheduled
    /// and are retained afterwards.
    #[must_use]
    pub fn new() -> Self {
        SchedulerWorkspace::default()
    }
}

/// Mutable scheduling state. Read-only inputs (trace nodes, graph) are
/// passed into methods to keep borrows simple. All container fields are
/// borrowed from a [`SchedulerWorkspace`] so their allocations survive
/// across runs.
struct Engine<'w> {
    barrier: bool,
    indeg: &'w mut Vec<u32>,
    round_total: &'w [usize],
    round_done: &'w mut Vec<usize>,
    current_round: usize,
    parked: &'w mut Vec<Vec<u32>>,
    ready_compute: &'w mut Vec<BinaryHeap<Reverse<u32>>>,
    /// One bit per `ready_compute` slot; set iff the slot's heap is
    /// non-empty. The issue loop walks set bits instead of scanning all
    /// `lanes × CLASSES` heaps every cycle.
    ready_mask: &'w mut Vec<u64>,
    ready_mem: &'w mut ReadyMem,
    ready_count: usize,
    wheel: &'w mut BinaryHeap<Reverse<(u64, u32)>>,
    /// Memory-system completions not yet due (delivered with a future
    /// completion cycle, e.g. a known DMA arrival time).
    mem_wheel: &'w mut BinaryHeap<Reverse<(u64, u32)>>,
    /// Memory operations issued into the memory system whose completions
    /// have not yet been drained. While this is non-zero the memory system
    /// owes us events at unknown cycles, so idle fast-forwarding must not
    /// skip its per-cycle advancement.
    mem_inflight: usize,
    active: usize,
    busy_start: u64,
    busy: IntervalSet,
    completed: usize,
    last_retire: u64,
    issued_per_class: [u64; 6],
    mem_rejects: u64,
    events: u64,
}

impl Engine<'_> {
    fn enqueue(&mut self, idx: usize, nodes: &[TraceNode], lanes: &[u32]) {
        let node = &nodes[idx];
        if node.opcode.is_memory() {
            self.ready_mem.push(idx as u32);
        } else {
            let lane = lanes[idx] as usize;
            let slot = lane * CLASSES + node.opcode.fu_class().index();
            self.ready_compute[slot].push(Reverse(idx as u32));
            self.ready_mask[slot / 64] |= 1u64 << (slot % 64);
        }
        self.ready_count += 1;
    }

    /// Make a dependence-free node available, honoring the round barrier.
    fn release(&mut self, idx: usize, graph: &Dddg, nodes: &[TraceNode]) {
        let r = graph.rounds()[idx] as usize;
        if self.barrier && r > self.current_round {
            self.parked[r].push(idx as u32);
        } else {
            self.enqueue(idx, nodes, graph.lanes());
        }
    }

    fn begin_busy(&mut self, cycle: u64) {
        if self.active == 0 {
            self.busy_start = cycle;
        }
        self.active += 1;
    }

    /// Retire node `idx` at `cycle`. `occupied` says whether the node was
    /// counted in `active` (true for wheel-tracked ops, false for memory
    /// ops that completed via the memory system).
    fn retire(
        &mut self,
        idx: usize,
        cycle: u64,
        occupied: bool,
        graph: &Dddg,
        nodes: &[TraceNode],
    ) {
        if occupied {
            self.active -= 1;
            if self.active == 0 {
                self.busy
                    .push(self.busy_start, cycle.max(self.busy_start + 1));
            }
        }
        self.completed += 1;
        self.events += 1;
        self.last_retire = self.last_retire.max(cycle);
        self.round_done[graph.rounds()[idx] as usize] += 1;

        for s in 0..graph.successors(NodeId::from_index(idx)).len() {
            let succ = graph.successors(NodeId::from_index(idx))[s] as usize;
            self.indeg[succ] -= 1;
            if self.indeg[succ] == 0 {
                self.release(succ, graph, nodes);
            }
        }

        if self.barrier {
            while self.current_round < self.round_total.len()
                && self.round_done[self.current_round] == self.round_total[self.current_round]
            {
                self.current_round += 1;
                if self.current_round < self.round_total.len() {
                    let waiting = std::mem::take(&mut self.parked[self.current_round]);
                    for w in waiting {
                        self.enqueue(w as usize, nodes, graph.lanes());
                    }
                }
            }
        }
    }
}

/// Schedule `trace` on the datapath described by `cfg`, with memory
/// operations serviced by `mem`, starting at absolute cycle `start`.
///
/// Returns cycle-level results; `mem` retains its own statistics (accesses,
/// conflicts, stalls) for the power model.
///
/// One-shot convenience over [`schedule_prepared`]: builds the DDDG and a
/// fresh workspace internally. Sweeps that revisit the same trace should
/// prepare once and reuse a workspace instead.
///
/// # Panics
///
/// Panics if `cfg` is invalid, or on a scheduling deadlock (which would
/// indicate a malformed trace or a memory model that lost a completion).
#[must_use]
pub fn schedule(
    trace: &Trace,
    cfg: &DatapathConfig,
    mem: &mut dyn DatapathMemory,
    start: u64,
) -> ScheduleResult {
    let prepared = PreparedDddg::new(trace, cfg);
    let mut ws = SchedulerWorkspace::new();
    schedule_prepared(trace, cfg, &prepared, &mut ws, mem, start)
}

/// Fallible [`schedule`]: a deadlock or a watchdog expiry is returned as a
/// typed [`SimError`] (with a forensic [`DeadlockSnapshot`]) instead of
/// panicking.
///
/// # Errors
///
/// `SimError::Deadlock` when no progress is made for
/// `watchdog.no_progress_cycles` consecutive stepped cycles;
/// `SimError::WatchdogExpired` when the simulated cycle count crosses
/// `watchdog.max_cycles`.
///
/// # Panics
///
/// Panics if `cfg` is invalid — that is a configuration bug, detectable
/// statically before any simulation starts.
pub fn try_schedule(
    trace: &Trace,
    cfg: &DatapathConfig,
    mem: &mut dyn DatapathMemory,
    start: u64,
    watchdog: &Watchdog,
) -> Result<ScheduleResult, SimError> {
    let prepared = PreparedDddg::new(trace, cfg);
    let mut ws = SchedulerWorkspace::new();
    try_schedule_prepared(trace, cfg, &prepared, &mut ws, mem, start, watchdog)
}

/// [`schedule`] with the DDDG prepared up front and the engine's buffers
/// supplied by a reusable workspace — the sweep fast path.
///
/// Produces bit-identical results to [`schedule`] for the same inputs.
///
/// # Panics
///
/// Panics if `cfg` is invalid, if `prepared` was built for a different
/// lane count or trace, or on a scheduling deadlock.
#[must_use]
pub fn schedule_prepared(
    trace: &Trace,
    cfg: &DatapathConfig,
    prepared: &PreparedDddg,
    ws: &mut SchedulerWorkspace,
    mem: &mut dyn DatapathMemory,
    start: u64,
) -> ScheduleResult {
    try_schedule_prepared(trace, cfg, prepared, ws, mem, start, &Watchdog::default())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Summarize a completion wheel as `(due_cycle, count)` pairs, soonest
/// first, truncated to the eight soonest distinct cycles.
pub(crate) fn wheel_snapshot(wheel: &BinaryHeap<Reverse<(u64, u32)>>) -> Vec<(u64, u32)> {
    let mut times: Vec<u64> = wheel.iter().map(|&Reverse((at, _))| at).collect();
    times.sort_unstable();
    let mut out: Vec<(u64, u32)> = Vec::new();
    for t in times {
        match out.last_mut() {
            Some((cycle, count)) if *cycle == t => *count += 1,
            _ => out.push((t, 1)),
        }
    }
    out.truncate(8);
    out
}

/// Fallible [`schedule_prepared`]: the watchdog's no-progress and
/// max-cycles guards return typed [`SimError`]s carrying a forensic
/// [`DeadlockSnapshot`] instead of panicking, so sweeps can record the
/// failed point and keep going.
///
/// # Errors
///
/// `SimError::Deadlock` when no progress is made for
/// `watchdog.no_progress_cycles` consecutive stepped cycles;
/// `SimError::WatchdogExpired` when the simulated cycle count crosses
/// `watchdog.max_cycles`.
///
/// # Panics
///
/// Panics if `cfg` is invalid or `prepared` does not match the trace and
/// lane count — those are configuration bugs, detectable statically
/// before any simulation starts.
#[allow(clippy::too_many_lines)]
pub fn try_schedule_prepared(
    trace: &Trace,
    cfg: &DatapathConfig,
    prepared: &PreparedDddg,
    ws: &mut SchedulerWorkspace,
    mem: &mut dyn DatapathMemory,
    start: u64,
    watchdog: &Watchdog,
) -> Result<ScheduleResult, SimError> {
    let cfg_report = cfg.check();
    assert!(
        !cfg_report.has_errors(),
        "invalid datapath configuration: {}",
        cfg_report.to_human()
    );
    assert_eq!(
        prepared.lanes, cfg.lanes,
        "PreparedDddg built for {} lanes, scheduling with {}",
        prepared.lanes, cfg.lanes
    );
    let graph = &prepared.graph;
    let n = graph.len();
    assert_eq!(
        n,
        trace.nodes().len(),
        "PreparedDddg built for another trace"
    );
    if n == 0 {
        return Ok(ScheduleResult {
            start,
            end: start,
            busy: IntervalSet::new(),
            issued_per_class: [0; 6],
            mem_rejects: 0,
            cycles: 0,
            stepped_cycles: 0,
            events: 0,
        });
    }

    let lanes = cfg.lanes as usize;
    let num_rounds = graph.num_rounds() as usize;
    let slots = lanes * CLASSES;

    // Reset the workspace: clear everything, reuse every allocation.
    ws.indeg.clear();
    ws.indeg.extend_from_slice(graph.indegrees());
    ws.round_done.clear();
    ws.round_done.resize(num_rounds, 0);
    if ws.parked.len() < num_rounds {
        ws.parked.resize_with(num_rounds, Vec::new);
    }
    for p in &mut ws.parked[..num_rounds] {
        p.clear();
    }
    if ws.ready_compute.len() < slots {
        ws.ready_compute.resize_with(slots, BinaryHeap::new);
    }
    for h in &mut ws.ready_compute[..slots] {
        h.clear();
    }
    ws.ready_mask.clear();
    ws.ready_mask.resize(slots.div_ceil(64), 0);
    ws.ready_mem.clear();
    ws.wheel.clear();
    ws.mem_wheel.clear();

    let nodes = trace.nodes();
    let mut eng = Engine {
        barrier: cfg.sync == LaneSync::Barrier,
        indeg: &mut ws.indeg,
        round_total: &prepared.round_total,
        round_done: &mut ws.round_done,
        current_round: 0,
        parked: &mut ws.parked,
        ready_compute: &mut ws.ready_compute,
        ready_mask: &mut ws.ready_mask,
        ready_mem: &mut ws.ready_mem,
        ready_count: 0,
        wheel: &mut ws.wheel,
        mem_wheel: &mut ws.mem_wheel,
        mem_inflight: 0,
        active: 0,
        busy_start: start,
        busy: IntervalSet::new(),
        completed: 0,
        last_retire: start,
        issued_per_class: [0; 6],
        mem_rejects: 0,
        events: 0,
    };

    for idx in 0..n {
        if eng.indeg[idx] == 0 {
            eng.release(idx, graph, nodes);
        }
    }

    let mut cycle = start;
    let mem_budget = mem_issue_budget(cfg);
    let mut idle_cycles = 0u64;
    let mut stepped = 0u64;
    // Whether the memory system is passive (no autonomous between-cycle
    // behavior): queried once, it licenses the tightened idle jump below.
    let mem_passive = mem.is_passive();

    while eng.completed < n {
        if let Some(limit) = watchdog.max_cycles {
            if cycle.saturating_sub(start) > limit {
                return Err(SimError::WatchdogExpired {
                    limit,
                    cycle,
                    completed: eng.completed,
                    total: n,
                    notes: Vec::new(),
                });
            }
        }
        stepped += 1;
        mem.begin_cycle(cycle);
        let mut progressed = false;

        // 1. Retire wheel (compute + scratchpad) completions due now.
        while let Some(&Reverse((at, idx))) = eng.wheel.peek() {
            if at > cycle {
                break;
            }
            eng.wheel.pop();
            eng.retire(idx as usize, at, true, graph, nodes);
            progressed = true;
        }

        // 2. Retire memory-system completions; buffer those not yet due.
        for (id, at) in mem.drain_completions() {
            eng.mem_inflight -= 1;
            if at > cycle {
                eng.mem_wheel.push(Reverse((at, id as u32)));
            } else {
                eng.retire(id as usize, at.max(cycle), false, graph, nodes);
                progressed = true;
            }
        }
        while let Some(&Reverse((at, idx))) = eng.mem_wheel.peek() {
            if at > cycle {
                break;
            }
            eng.mem_wheel.pop();
            eng.retire(idx as usize, at, false, graph, nodes);
            progressed = true;
        }

        // 3. Issue compute: one op per lane per class. Only slots whose
        // ready heap is non-empty are visited (bitmask), in the same
        // ascending slot order a full scan would use.
        for w in 0..eng.ready_mask.len() {
            let mut word = eng.ready_mask[w];
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let slot = w * 64 + bit;
                let heap = &mut eng.ready_compute[slot];
                let Reverse(idx) = heap.pop().expect("set bit implies non-empty heap");
                if heap.is_empty() {
                    eng.ready_mask[w] &= !(1u64 << bit);
                }
                let node = &nodes[idx as usize];
                let class = node.opcode.fu_class();
                eng.wheel
                    .push(Reverse((cycle + cfg.timing.latency(class), idx)));
                eng.issued_per_class[class.index()] += 1;
                eng.begin_busy(cycle);
                eng.ready_count -= 1;
                eng.events += 1;
                progressed = true;
            }
        }

        // 4. Issue memory ops until the interface pushes back. A bounded
        // number of candidates is examined per cycle so a long queue of
        // conflicting accesses cannot make one cycle O(n). The queue is
        // moved out for the pass so the issue closure can update `eng`.
        let mut ready_mem = std::mem::take(eng.ready_mem);
        ready_mem.issue(mem_budget, |idx| {
            let node = &nodes[idx as usize];
            let mref = node.mem.expect("memory node has MemRef");
            let write = mref.kind == MemAccessKind::Write;
            match mem.issue(u64::from(idx), mref.addr, mref.bytes, write, cycle) {
                IssueResult::Done { at } => {
                    eng.wheel.push(Reverse((at, idx)));
                    eng.issued_per_class[FuClass::Mem.index()] += 1;
                    eng.begin_busy(cycle);
                    eng.ready_count -= 1;
                    eng.events += 1;
                    progressed = true;
                    true
                }
                IssueResult::Pending => {
                    // In flight inside the memory system; the datapath op
                    // is waiting, not occupying a unit, so it does not
                    // count toward busy time.
                    eng.issued_per_class[FuClass::Mem.index()] += 1;
                    eng.ready_count -= 1;
                    eng.mem_inflight += 1;
                    eng.events += 1;
                    progressed = true;
                    true
                }
                IssueResult::Reject => {
                    eng.mem_rejects += 1;
                    false
                }
            }
        });
        *eng.ready_mem = ready_mem;

        mem.end_cycle(cycle);

        // 5. Advance time, skipping ahead when provably idle.
        if progressed {
            idle_cycles = 0;
        } else {
            idle_cycles += 1;
            if idle_cycles >= watchdog.no_progress_cycles {
                return Err(SimError::Deadlock(Box::new(DeadlockSnapshot {
                    cycle,
                    completed: eng.completed,
                    total: n,
                    idle_cycles,
                    ready_compute: eng.ready_count - eng.ready_mem.len(),
                    ready_mem: eng.ready_mem.len(),
                    wheel: wheel_snapshot(eng.wheel),
                    mem_wheel: wheel_snapshot(eng.mem_wheel),
                    mem_inflight: eng.mem_inflight,
                    notes: Vec::new(),
                })));
            }
        }
        cycle = if eng.ready_count == 0 {
            let wheel_next = match (
                eng.wheel.peek().map(|&Reverse((at, _))| at),
                eng.mem_wheel.peek().map(|&Reverse((at, _))| at),
            ) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let mem_next = mem.next_event_hint(cycle);
            let wheel_only = eng.completed + eng.wheel.len() + eng.mem_wheel.len() == n;
            match (wheel_next, mem_next) {
                (Some(w), Some(m)) => w.min(m).max(cycle + 1),
                // Only wheel events pending and nothing else in flight:
                // jump straight to the next completion. With a passive
                // memory (no autonomous between-cycle behavior) the same
                // jump is safe whenever no memory op is in flight, even if
                // dependents are still waiting on those wheel retires —
                // nothing can become ready before the next retire, and a
                // passive memory cannot act in the skipped window.
                (Some(w), None) if wheel_only || (mem_passive && eng.mem_inflight == 0) => {
                    w.max(cycle + 1)
                }
                _ => cycle + 1,
            }
        } else {
            cycle + 1
        };
    }

    let end = eng.last_retire.max(start);
    Ok(ScheduleResult {
        start,
        end,
        busy: eng.busy,
        issued_per_class: eng.issued_per_class,
        mem_rejects: eng.mem_rejects,
        cycles: end - start,
        stepped_cycles: stepped,
        events: eng.events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meminterface::SpadMemory;
    use aladdin_ir::{ArrayKind, Opcode, TVal, Tracer};

    /// `iters` independent iterations, each: 2 loads, fmul, store.
    fn parallel_kernel(iters: usize) -> Trace {
        let mut t = Tracer::new("par");
        let a = t.array_f64("a", &vec![1.0; iters], ArrayKind::Input);
        let b = t.array_f64("b", &vec![2.0; iters], ArrayKind::Input);
        let mut c = t.array_f64("c", &vec![0.0; iters], ArrayKind::Output);
        for i in 0..iters {
            t.begin_iteration(i as u32);
            let x = t.load(&a, i);
            let y = t.load(&b, i);
            let p = t.binop(Opcode::FMul, x, y);
            t.store(&mut c, i, p);
        }
        t.finish()
    }

    fn run(trace: &Trace, cfg: &DatapathConfig) -> ScheduleResult {
        let mut mem = SpadMemory::new(trace, cfg);
        schedule(trace, cfg, &mut mem, 0)
    }

    /// Wraps a memory and hides its passivity, forcing the scheduler onto
    /// the untightened cycle-by-cycle idle path — the pre-optimization
    /// reference behavior.
    struct NotPassive<'a>(&'a mut SpadMemory);

    impl DatapathMemory for NotPassive<'_> {
        fn begin_cycle(&mut self, cycle: u64) {
            self.0.begin_cycle(cycle);
        }
        fn issue(
            &mut self,
            id: u64,
            addr: u64,
            bytes: u32,
            write: bool,
            cycle: u64,
        ) -> IssueResult {
            self.0.issue(id, addr, bytes, write, cycle)
        }
        fn drain_completions(&mut self) -> Vec<(u64, u64)> {
            self.0.drain_completions()
        }
        fn end_cycle(&mut self, cycle: u64) {
            self.0.end_cycle(cycle);
        }
    }

    /// A memory that accepts every issue and never completes any of them —
    /// the shape of a lost-completion bug, used to exercise the watchdog.
    #[derive(Default)]
    struct BlackHoleMemory;

    impl DatapathMemory for BlackHoleMemory {
        fn begin_cycle(&mut self, _cycle: u64) {}
        fn issue(
            &mut self,
            _id: u64,
            _addr: u64,
            _bytes: u32,
            _write: bool,
            _cycle: u64,
        ) -> IssueResult {
            IssueResult::Pending
        }
        fn drain_completions(&mut self) -> Vec<(u64, u64)> {
            Vec::new()
        }
        fn end_cycle(&mut self, _cycle: u64) {}
    }

    #[test]
    fn deadlock_is_a_typed_error_with_a_forensic_snapshot() {
        let trace = parallel_kernel(4);
        let cfg = DatapathConfig::default();
        let prepared = PreparedDddg::new(&trace, &cfg);
        let mut ws = SchedulerWorkspace::new();
        let wd = Watchdog {
            max_cycles: None,
            no_progress_cycles: 64,
        };
        let err = try_schedule_prepared(
            &trace,
            &cfg,
            &prepared,
            &mut ws,
            &mut BlackHoleMemory,
            0,
            &wd,
        )
        .unwrap_err();
        assert_eq!(err.code(), "L0232");
        let SimError::Deadlock(snap) = err else {
            panic!("expected a deadlock, got {err}");
        };
        assert_eq!(snap.idle_cycles, 64);
        assert!(snap.mem_inflight > 0, "the black hole swallowed issues");
        assert!(snap.completed < snap.total);
        assert_eq!(snap.total, trace.nodes().len());
    }

    #[test]
    fn watchdog_cycle_ceiling_is_a_typed_error() {
        let mut t = Tracer::new("chain");
        let mut acc = TVal::lit(1.0);
        for _ in 0..10 {
            acc = t.binop(Opcode::FAdd, acc, TVal::lit(1.0));
        }
        let trace = t.finish();
        let cfg = DatapathConfig::default();
        let mut mem = SpadMemory::new(&trace, &cfg);
        let wd = Watchdog {
            max_cycles: Some(10),
            no_progress_cycles: 4_000_000,
        };
        // The chain needs 30 cycles; a 10-cycle ceiling must expire.
        let err = try_schedule(&trace, &cfg, &mut mem, 0, &wd).unwrap_err();
        assert_eq!(err.code(), "L0233");
        assert!(err.to_string().contains("watchdog expired"));
    }

    #[test]
    fn try_schedule_matches_schedule_under_default_watchdog() {
        let trace = parallel_kernel(16);
        let cfg = DatapathConfig {
            lanes: 4,
            partition: 4,
            ..DatapathConfig::default()
        };
        let mut mem = SpadMemory::new(&trace, &cfg);
        let fallible = try_schedule(&trace, &cfg, &mut mem, 0, &Watchdog::default()).unwrap();
        let mut mem2 = SpadMemory::new(&trace, &cfg);
        let infallible = schedule(&trace, &cfg, &mut mem2, 0);
        assert_eq!(fallible, infallible);
    }

    #[test]
    fn empty_trace_is_zero_cycles() {
        let trace = Tracer::new("e").finish();
        let r = run(&trace, &DatapathConfig::default());
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn serial_chain_takes_critical_path() {
        let mut t = Tracer::new("chain");
        let mut acc = TVal::lit(1.0);
        for _ in 0..10 {
            acc = t.binop(Opcode::FAdd, acc, TVal::lit(1.0));
        }
        let trace = t.finish();
        let r = run(&trace, &DatapathConfig::default());
        // 10 dependent FAdds at 3 cycles each; each issues the cycle after
        // its predecessor completes.
        assert_eq!(r.cycles, 30);
    }

    #[test]
    fn idle_jump_shrinks_stepped_cycles_without_changing_results() {
        // A serial chain is maximally idle-heavy: after each issue the
        // scheduler waits out the full FU latency with nothing ready.
        let mut t = Tracer::new("idle-chain");
        let mut acc = TVal::lit(1.0);
        for _ in 0..50 {
            acc = t.binop(Opcode::FDiv, acc, TVal::lit(2.0)); // 16-cycle FU
        }
        let trace = t.finish();
        let cfg = DatapathConfig::default();

        let fast = run(&trace, &cfg);
        let mut spad = SpadMemory::new(&trace, &cfg);
        let slow = schedule(&trace, &cfg, &mut NotPassive(&mut spad), 0);

        // The tightened jump may not skip a retire or change any outcome.
        assert_eq!(fast.end, slow.end);
        assert_eq!(fast.busy, slow.busy);
        assert_eq!(fast.issued_per_class, slow.issued_per_class);
        assert_eq!(fast.mem_rejects, slow.mem_rejects);
        assert_eq!(fast.events, slow.events);
        // ...but it must do far fewer loop iterations than cycles exist.
        // The reference path only jumps once everything is in the wheel
        // (the final op), so it steps nearly every cycle.
        assert!(slow.stepped_cycles > slow.cycles - 16);
        assert!(
            fast.stepped_cycles * 4 < slow.stepped_cycles,
            "fast path stepped {} of {} cycles",
            fast.stepped_cycles,
            slow.stepped_cycles
        );
    }

    #[test]
    fn prepared_and_workspace_reuse_match_one_shot_schedule() {
        let trace = parallel_kernel(32);
        let mut ws = SchedulerWorkspace::new();
        for lanes in [1u32, 2, 4, 8] {
            let prepared = PreparedDddg::new(
                &trace,
                &DatapathConfig {
                    lanes,
                    ..DatapathConfig::default()
                },
            );
            // Reuse the same preparation across points that differ only in
            // memory geometry, and the same workspace across everything.
            for partition in [1u32, 2, 8] {
                for sync in [LaneSync::Barrier, LaneSync::Free] {
                    let cfg = DatapathConfig {
                        lanes,
                        partition,
                        sync,
                        ..DatapathConfig::default()
                    };
                    let mut mem = SpadMemory::new(&trace, &cfg);
                    let fast = schedule_prepared(&trace, &cfg, &prepared, &mut ws, &mut mem, 7);
                    let mut mem2 = SpadMemory::new(&trace, &cfg);
                    let one_shot = schedule(&trace, &cfg, &mut mem2, 7);
                    assert_eq!(fast, one_shot, "lanes={lanes} partition={partition}");
                    assert_eq!(mem.stats(), mem2.stats());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "PreparedDddg built for 2 lanes")]
    fn prepared_lane_mismatch_panics() {
        let trace = parallel_kernel(4);
        let prepared = PreparedDddg::new(
            &trace,
            &DatapathConfig {
                lanes: 2,
                ..DatapathConfig::default()
            },
        );
        let cfg = DatapathConfig {
            lanes: 4,
            ..DatapathConfig::default()
        };
        let mut ws = SchedulerWorkspace::new();
        let mut mem = SpadMemory::new(&trace, &cfg);
        let _ = schedule_prepared(&trace, &cfg, &prepared, &mut ws, &mut mem, 0);
    }

    #[test]
    fn more_lanes_speed_up_parallel_work() {
        let trace = parallel_kernel(64);
        let mut prev = u64::MAX;
        for lanes in [1u32, 2, 4, 8] {
            let cfg = DatapathConfig {
                lanes,
                partition: lanes * 2, // scale memory with compute
                ..DatapathConfig::default()
            };
            let r = run(&trace, &cfg);
            assert!(r.cycles < prev, "lanes={lanes}: {} !< {prev}", r.cycles);
            prev = r.cycles;
        }
    }

    #[test]
    fn memory_bandwidth_limits_speedup() {
        let trace = parallel_kernel(64);
        // Many lanes but a single scratchpad bank: loads serialize.
        let starved = run(
            &trace,
            &DatapathConfig {
                lanes: 16,
                partition: 1,
                ..DatapathConfig::default()
            },
        );
        let fed = run(
            &trace,
            &DatapathConfig {
                lanes: 16,
                partition: 16,
                ..DatapathConfig::default()
            },
        );
        assert!(
            starved.cycles > 2 * fed.cycles,
            "bank starvation must dominate: {} vs {}",
            starved.cycles,
            fed.cycles
        );
        assert!(starved.mem_rejects > 0);
    }

    #[test]
    fn barrier_never_beats_free_sync() {
        let trace = parallel_kernel(8);
        let cfg_barrier = DatapathConfig {
            lanes: 4,
            partition: 8,
            sync: LaneSync::Barrier,
            ..DatapathConfig::default()
        };
        let cfg_free = DatapathConfig {
            sync: LaneSync::Free,
            ..cfg_barrier
        };
        let b = run(&trace, &cfg_barrier);
        let f = run(&trace, &cfg_free);
        assert!(
            f.cycles <= b.cycles,
            "free sync can only help: {} vs {}",
            f.cycles,
            b.cycles
        );
    }

    #[test]
    fn single_lane_issues_at_most_one_per_class_per_cycle() {
        // 8 independent FMuls in one iteration → one lane → 8 issue
        // cycles even though all are ready immediately.
        let mut t = Tracer::new("one-lane");
        for _ in 0..8 {
            let _ = t.binop(Opcode::FMul, TVal::lit(2.0), TVal::lit(3.0));
        }
        let trace = t.finish();
        let r = run(&trace, &DatapathConfig::default());
        // Last issue at cycle 7, +4 latency.
        assert_eq!(r.cycles, 11);
        assert_eq!(r.issued_per_class[FuClass::FpMul.index()], 8);
    }

    #[test]
    fn different_classes_issue_in_parallel_within_a_lane() {
        let mut t = Tracer::new("mix");
        for _ in 0..4 {
            let _ = t.binop(Opcode::FMul, TVal::lit(2.0), TVal::lit(3.0));
            let _ = t.ibinop(Opcode::Add, TVal::lit(1), TVal::lit(1));
        }
        let trace = t.finish();
        let r = run(&trace, &DatapathConfig::default());
        // FMuls: issue cycles 0..3, last completes at 7; Adds overlap.
        assert_eq!(r.cycles, 7);
    }

    #[test]
    fn busy_intervals_cover_work() {
        let trace = parallel_kernel(16);
        let r = run(
            &trace,
            &DatapathConfig {
                lanes: 4,
                partition: 4,
                ..DatapathConfig::default()
            },
        );
        assert!(r.busy.total() > 0);
        assert!(r.busy.total() <= r.cycles);
        assert!(r.ipc() > 0.5);
    }

    #[test]
    fn start_offset_respected() {
        let trace = parallel_kernel(4);
        let cfg = DatapathConfig::default();
        let mut mem = SpadMemory::new(&trace, &cfg);
        let r = schedule(&trace, &cfg, &mut mem, 1000);
        assert_eq!(r.start, 1000);
        assert!(r.end > 1000);
        assert_eq!(r.busy.start().unwrap(), 1000);
    }

    #[test]
    fn ready_bits_delay_compute_until_arrival() {
        let trace = parallel_kernel(8);
        let cfg = DatapathConfig {
            lanes: 2,
            partition: 2,
            ..DatapathConfig::default()
        };
        // All data arrives at cycle 500.
        let mut mem = SpadMemory::new(&trace, &cfg);
        mem.enable_ready_bits();
        for arr in trace.arrays().iter().filter(|a| a.kind.is_input()) {
            mem.push_arrival(arr.base_addr, arr.size_bytes() as u32, 500);
        }
        let r = schedule(&trace, &cfg, &mut mem, 0);
        assert!(r.end > 500, "compute cannot finish before data: {}", r.end);

        // Versus: data pre-arrived at cycle 0 — much faster.
        let mut mem2 = SpadMemory::new(&trace, &cfg);
        mem2.enable_ready_bits();
        for arr in trace.arrays().iter().filter(|a| a.kind.is_input()) {
            mem2.push_arrival(arr.base_addr, arr.size_bytes() as u32, 0);
        }
        let r2 = schedule(&trace, &cfg, &mut mem2, 0);
        assert!(r2.end < 100);
    }

    #[test]
    fn waw_ordering_preserved_under_parallelism() {
        // Two stores to the same element from different iterations: the
        // second must retire after the first (WAW dependence), so the final
        // memory state is deterministic.
        let mut t = Tracer::new("waw");
        let mut o = t.array_f64("o", &[0.0], ArrayKind::Output);
        t.begin_iteration(0);
        let s0 = t.store(&mut o, 0, TVal::lit(1.0));
        t.begin_iteration(1);
        let s1 = t.store(&mut o, 0, TVal::lit(2.0));
        assert!(s1.index() > s0.index());
        let trace = t.finish();
        let cfg = DatapathConfig {
            lanes: 2,
            partition: 4,
            ports_per_bank: 4,
            sync: LaneSync::Free,
            ..DatapathConfig::default()
        };
        let r = run(&trace, &cfg);
        // Store 2 depends on store 1: at least two serialized accesses.
        assert!(r.cycles >= 2, "cycles={}", r.cycles);
    }
}
