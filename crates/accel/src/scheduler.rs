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
//! # One cycle loop, two node stores
//!
//! The loop — retire, drain the memory system, admit, issue compute, issue
//! memory, then the idle jump with its watchdog — exists once, generic
//! over a private [`NodeStore`] that says where each node runs and which
//! successors a retirement releases. Two stores implement it:
//!
//! * The *prepared store* reads a [`PreparedDddg`]: the whole graph built
//!   ahead of time from an in-memory trace ([`try_schedule_prepared`]).
//!   The graph depends only on the trace and the lane count, so a sweep
//!   prepares it once and shares it (via `Arc`) across every point and
//!   worker at that lane count; a per-worker [`SchedulerWorkspace`] keeps
//!   the loop's buffers alive between points.
//! * The *window store* admits nodes from a stream and resolves their
//!   edges as they arrive, keeping a bounded number resident
//!   ([`try_schedule_windowed`](crate::try_schedule_windowed), see
//!   `window.rs`).
//!
//! [`schedule`] is the one-shot entry point: it prepares the graph and a
//! workspace on the fly and panics on a deadlock.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use aladdin_faults::{DeadlockSnapshot, SimError, Watchdog};
use aladdin_ir::{FuClass, MemAccessKind, MemRef, NodeId, Opcode, Trace, TraceNode};
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

const CLASSES: usize = 6;

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
    round_total: Vec<u32>,
    lanes: u32,
}

impl PreparedDddg {
    /// Build the graph for `trace` as seen by a datapath with `cfg.lanes`
    /// lanes. Only the lane count matters; every other field of `cfg` is
    /// ignored here and may vary freely between [`try_schedule_prepared`]
    /// calls that reuse this preparation.
    #[must_use]
    pub fn new(trace: &Trace, cfg: &DatapathConfig) -> Self {
        let graph = Dddg::build(trace, cfg);
        let mut round_total = vec![0u32; graph.num_rounds() as usize];
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
/// to [`try_schedule_prepared`] for every point that worker simulates. All
/// contents are cleared (but their capacity retained) at the start of each
/// run, so reuse cannot leak state between points; results are
/// bit-identical to a cold [`schedule`] call.
#[derive(Debug, Default)]
pub struct SchedulerWorkspace {
    indeg: Vec<u32>,
    buffers: Buffers,
}

impl SchedulerWorkspace {
    /// An empty workspace. Buffers grow to fit the first trace scheduled
    /// and are retained afterwards.
    #[must_use]
    pub fn new() -> Self {
        SchedulerWorkspace::default()
    }
}

/// The cycle loop's containers, kept between runs by a
/// [`SchedulerWorkspace`] so their allocations are reused.
#[derive(Debug, Default)]
pub(crate) struct Buffers {
    rounds: Rounds,
    /// Nodes whose last dependence just retired (or that were just
    /// admitted dependence-free), waiting to be parked or enqueued.
    released: Vec<u32>,
    ready_compute: Vec<BinaryHeap<Reverse<u32>>>,
    /// One bit per `ready_compute` slot; set iff the slot's heap is
    /// non-empty. The issue loop walks set bits instead of scanning all
    /// `lanes × CLASSES` heaps every cycle.
    ready_mask: Vec<u64>,
    /// Memory operations ready to issue, examined in ascending node order.
    ready_mem: BTreeSet<u32>,
    /// Scratch for [`Engine::issue_mem`]; empty between calls.
    accepted: Vec<u32>,
    wheel: BinaryHeap<Reverse<(u64, u32)>>,
    /// Memory-system completions not yet due (delivered with a future
    /// completion cycle, e.g. a known DMA arrival time).
    mem_wheel: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Buffers {
    fn reset(&mut self, cfg: &DatapathConfig) {
        let slots = cfg.lanes as usize * CLASSES;
        self.rounds.reset(cfg.sync == LaneSync::Barrier);
        self.released.clear();
        if self.ready_compute.len() < slots {
            self.ready_compute.resize_with(slots, BinaryHeap::new);
        }
        for h in &mut self.ready_compute[..slots] {
            h.clear();
        }
        self.ready_mask.clear();
        self.ready_mask.resize(slots.div_ceil(64), 0);
        self.ready_mem.clear();
        self.wheel.clear();
        self.mem_wheel.clear();
    }
}

/// Barrier bookkeeping for one round under [`LaneSync::Barrier`].
#[derive(Debug, Default)]
struct RoundState {
    /// Nodes of the round retired so far.
    done: u32,
    /// Nodes of the round registered so far — the round's true size once
    /// a later round has a node or the store is exhausted.
    total: u32,
    /// Dependence-free nodes waiting for the round to open.
    parked: Vec<u32>,
}

/// The lane barrier's open rounds, front = the current round. Completed
/// rounds are popped, so only rounds that still hold nodes are kept. A
/// no-op under [`LaneSync::Free`].
#[derive(Debug, Default)]
pub(crate) struct Rounds {
    barrier: bool,
    open: VecDeque<RoundState>,
    current: u32,
    /// Highest round registered so far; rounds below it are fully registered.
    max_registered: u32,
}

impl Rounds {
    fn reset(&mut self, barrier: bool) {
        self.barrier = barrier;
        self.open.clear();
        self.current = 0;
        self.max_registered = 0;
    }

    /// Count `count` more nodes as members of `round`. Rounds are
    /// registered in ascending order without gaps (iteration instances
    /// are consecutive), so a new round is always the next one.
    pub(crate) fn register(&mut self, round: u32, count: u32) {
        if !self.barrier {
            return;
        }
        self.max_registered = self.max_registered.max(round);
        let off = (round - self.current) as usize;
        if off == self.open.len() {
            self.open.push_back(RoundState::default());
        }
        self.open[off].total += count;
    }

    /// Park `idx` if its `round` has not opened yet; returns whether it
    /// was parked.
    fn park(&mut self, round: u32, idx: u32) -> bool {
        if round > self.current {
            self.open[(round - self.current) as usize].parked.push(idx);
            true
        } else {
            false
        }
    }

    fn retire(&mut self, round: u32) {
        self.open[(round - self.current) as usize].done += 1;
    }

    /// If the current round has fully retired, open the next one and
    /// return its parked nodes. A round's `total` is only final once a
    /// later round is registered or the store is `exhausted`, so an
    /// unfinished current round stays open even when momentarily drained.
    fn open_next(&mut self, exhausted: bool) -> Option<Vec<u32>> {
        let front = self.open.front()?;
        let complete = exhausted || self.current < self.max_registered;
        if !(self.barrier && complete && front.done == front.total) {
            return None;
        }
        self.open.pop_front();
        self.current += 1;
        Some(
            self.open
                .front_mut()
                .map(|next| std::mem::take(&mut next.parked))
                .unwrap_or_default(),
        )
    }
}

/// Where the cycle loop reads the DDDG from: per-node placement and
/// operation, and the successors each retirement releases. Node ids are
/// trace node indices; the per-node accessors take admitted, unretired
/// nodes only.
pub(crate) trait NodeStore {
    /// Attached to watchdog and deadlock errors, whose `total` counts
    /// [`admitted`](NodeStore::admitted) nodes.
    const TOTAL_NOTE: Option<&'static str>;

    fn opcode(&self, idx: u32) -> Opcode;
    fn lane(&self, idx: u32) -> u32;
    fn round(&self, idx: u32) -> u32;
    fn mem_ref(&self, idx: u32) -> MemRef;
    /// Admit nodes while there is room: register each with `rounds` and
    /// push those without an unretired dependence onto `released`.
    fn admit(&mut self, rounds: &mut Rounds, released: &mut Vec<u32>) -> Result<(), SimError>;
    /// Retire `idx`, pushing every successor whose last unretired
    /// dependence it was onto `released`.
    fn retire(&mut self, idx: u32, released: &mut Vec<u32>);
    /// Nodes admitted so far.
    fn admitted(&self) -> usize;
    /// Whether every node of the trace has been admitted.
    fn exhausted(&self) -> bool;
}

/// The whole graph of an in-memory trace, prepared ahead of time.
struct PreparedStore<'a> {
    nodes: &'a [TraceNode],
    prepared: &'a PreparedDddg,
    indeg: &'a mut Vec<u32>,
    admitted: usize,
}

impl NodeStore for PreparedStore<'_> {
    const TOTAL_NOTE: Option<&'static str> = None;

    fn opcode(&self, idx: u32) -> Opcode {
        self.nodes[idx as usize].opcode
    }

    fn lane(&self, idx: u32) -> u32 {
        self.prepared.graph.lanes()[idx as usize]
    }

    fn round(&self, idx: u32) -> u32 {
        self.prepared.graph.rounds()[idx as usize]
    }

    fn mem_ref(&self, idx: u32) -> MemRef {
        self.nodes[idx as usize]
            .mem
            .expect("memory node has MemRef")
    }

    /// Admits every node at once, on the first call.
    fn admit(&mut self, rounds: &mut Rounds, released: &mut Vec<u32>) -> Result<(), SimError> {
        if self.admitted < self.nodes.len() {
            self.admitted = self.nodes.len();
            for (r, &total) in self.prepared.round_total.iter().enumerate() {
                rounds.register(r as u32, total);
            }
            released.extend((0..self.admitted as u32).filter(|&i| self.indeg[i as usize] == 0));
        }
        Ok(())
    }

    fn retire(&mut self, idx: u32, released: &mut Vec<u32>) {
        for &succ in self
            .prepared
            .graph
            .successors(NodeId::from_index(idx as usize))
        {
            let d = &mut self.indeg[succ as usize];
            *d -= 1;
            if *d == 0 {
                released.push(succ);
            }
        }
    }

    fn admitted(&self) -> usize {
        self.admitted
    }

    fn exhausted(&self) -> bool {
        true
    }
}

/// Schedule `trace` on the datapath described by `cfg`, with memory
/// operations serviced by `mem`, starting at absolute cycle `start`.
///
/// Returns cycle-level results; `mem` retains its own statistics (accesses,
/// conflicts, stalls) for the power model.
///
/// One-shot convenience over [`try_schedule_prepared`]: builds the DDDG
/// and a fresh workspace internally. Sweeps that revisit the same trace
/// should prepare once and reuse a workspace instead.
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
    try_schedule_prepared(
        trace,
        cfg,
        &prepared,
        &mut ws,
        mem,
        start,
        &Watchdog::default(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Schedule `trace` with its DDDG prepared up front and the loop's
/// buffers supplied by a reusable workspace — the sweep fast path. The
/// watchdog's no-progress and max-cycles guards return typed
/// [`SimError`]s carrying a forensic [`DeadlockSnapshot`] instead of
/// panicking, so sweeps can record the failed point and keep going.
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
pub fn try_schedule_prepared(
    trace: &Trace,
    cfg: &DatapathConfig,
    prepared: &PreparedDddg,
    ws: &mut SchedulerWorkspace,
    mem: &mut dyn DatapathMemory,
    start: u64,
    watchdog: &Watchdog,
) -> Result<ScheduleResult, SimError> {
    assert_eq!(
        prepared.lanes, cfg.lanes,
        "PreparedDddg built for {} lanes, scheduling with {}",
        prepared.lanes, cfg.lanes
    );
    assert_eq!(
        prepared.graph.len(),
        trace.nodes().len(),
        "PreparedDddg built for another trace"
    );
    ws.indeg.clear();
    ws.indeg.extend_from_slice(prepared.graph.indegrees());
    let mut store = PreparedStore {
        nodes: trace.nodes(),
        prepared,
        indeg: &mut ws.indeg,
        admitted: 0,
    };
    run(&mut store, cfg, &mut ws.buffers, mem, start, watchdog)
}

/// Mutable state of one run of the cycle loop.
struct Engine<'a, S> {
    store: &'a mut S,
    b: &'a mut Buffers,
    ready_count: usize,
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
    issued_per_class: [u64; CLASSES],
    mem_rejects: u64,
    events: u64,
}

impl<S: NodeStore> Engine<'_, S> {
    fn enqueue(&mut self, idx: u32) {
        let op = self.store.opcode(idx);
        if op.is_memory() {
            self.b.ready_mem.insert(idx);
        } else {
            let slot = self.store.lane(idx) as usize * CLASSES + op.fu_class().index();
            self.b.ready_compute[slot].push(Reverse(idx));
            self.b.ready_mask[slot / 64] |= 1u64 << (slot % 64);
        }
        self.ready_count += 1;
    }

    /// Admit what the store has room for, make every released node
    /// available (honoring the round barrier), then open whatever rounds
    /// have completed. Runs once per cycle, after all of the cycle's
    /// retirements: the ready queues are ordered by node id and round
    /// completion only grows, so batching reaches the same state as
    /// releasing after each retirement.
    fn admit(&mut self) -> Result<(), SimError> {
        self.store.admit(&mut self.b.rounds, &mut self.b.released)?;
        let mut ids = std::mem::take(&mut self.b.released);
        for &idx in &ids {
            if !(self.b.rounds.barrier && self.b.rounds.park(self.store.round(idx), idx)) {
                self.enqueue(idx);
            }
        }
        ids.clear();
        self.b.released = ids;
        while let Some(woken) = self.b.rounds.open_next(self.store.exhausted()) {
            for idx in woken {
                self.enqueue(idx);
            }
        }
        Ok(())
    }

    /// Retire node `idx` at `cycle`. `occupied` says whether the node was
    /// counted in `active` (true for wheel-tracked ops, false for memory
    /// ops that completed via the memory system).
    fn retire(&mut self, idx: u32, cycle: u64, occupied: bool) {
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
        if self.b.rounds.barrier {
            self.b.rounds.retire(self.store.round(idx));
        }
        self.store.retire(idx, &mut self.b.released);
    }

    /// Count an accepted issue of class `class`; `occupies` says whether
    /// it holds a unit (and so counts toward busy time) until it retires.
    fn issued(&mut self, class: FuClass, occupies: bool, cycle: u64) {
        if occupies {
            if self.active == 0 {
                self.busy_start = cycle;
            }
            self.active += 1;
        }
        self.issued_per_class[class.index()] += 1;
        self.ready_count -= 1;
        self.events += 1;
    }

    /// Issue compute: one op per lane per class. Only slots whose ready
    /// heap is non-empty are visited (bitmask), in the same ascending slot
    /// order a full scan would use.
    fn issue_compute(&mut self, cycle: u64, cfg: &DatapathConfig) -> bool {
        let mut progressed = false;
        for w in 0..self.b.ready_mask.len() {
            let mut word = self.b.ready_mask[w];
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let heap = &mut self.b.ready_compute[w * 64 + bit];
                let Reverse(idx) = heap.pop().expect("set bit implies non-empty heap");
                if heap.is_empty() {
                    self.b.ready_mask[w] &= !(1u64 << bit);
                }
                let class = self.store.opcode(idx).fu_class();
                self.b
                    .wheel
                    .push(Reverse((cycle + cfg.timing.latency(class), idx)));
                self.issued(class, true, cycle);
                progressed = true;
            }
        }
        progressed
    }

    /// Issue memory ops until the interface pushes back: the
    /// [`mem_issue_budget`] smallest ready ids are offered in ascending
    /// order, so a long queue of conflicting accesses cannot make one
    /// cycle O(n). A rejected candidate keeps its place in the queue.
    fn issue_mem(&mut self, cycle: u64, mem: &mut dyn DatapathMemory, budget: usize) -> bool {
        let mut ready = std::mem::take(&mut self.b.ready_mem);
        let mut accepted = std::mem::take(&mut self.b.accepted);
        for &idx in ready.iter().take(budget) {
            let mref = self.store.mem_ref(idx);
            let write = mref.kind == MemAccessKind::Write;
            match mem.issue(u64::from(idx), mref.addr, mref.bytes, write, cycle) {
                IssueResult::Done { at } => {
                    self.b.wheel.push(Reverse((at, idx)));
                    self.issued(FuClass::Mem, true, cycle);
                }
                IssueResult::Pending => {
                    // In flight inside the memory system; the datapath op
                    // is waiting, not occupying a unit, so it does not
                    // count toward busy time.
                    self.issued(FuClass::Mem, false, cycle);
                    self.mem_inflight += 1;
                }
                IssueResult::Reject => {
                    self.mem_rejects += 1;
                    continue;
                }
            }
            accepted.push(idx);
        }
        let progressed = !accepted.is_empty();
        for idx in accepted.drain(..) {
            ready.remove(&idx);
        }
        self.b.ready_mem = ready;
        self.b.accepted = accepted;
        progressed
    }

    /// The cycle after `cycle` worth stepping to, skipping ahead when
    /// provably idle.
    fn next_cycle(&self, cycle: u64, mem: &dyn DatapathMemory, mem_passive: bool) -> u64 {
        if self.ready_count > 0 {
            return cycle + 1;
        }
        let wheel_next = match (
            self.b.wheel.peek().map(|&Reverse((at, _))| at),
            self.b.mem_wheel.peek().map(|&Reverse((at, _))| at),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let wheel_only = self.store.exhausted()
            && self.completed + self.b.wheel.len() + self.b.mem_wheel.len()
                == self.store.admitted();
        match (wheel_next, mem.next_event_hint(cycle)) {
            (Some(w), Some(m)) => w.min(m).max(cycle + 1),
            // Only wheel events pending and nothing else in flight: jump
            // straight to the next completion. With a passive memory (no
            // autonomous between-cycle behavior) the same jump is safe
            // whenever no memory op is in flight, even if dependents are
            // still waiting on those wheel retires — nothing can become
            // ready (or be admitted) before the next retire, and a passive
            // memory cannot act in the skipped window.
            (Some(w), None) if wheel_only || (mem_passive && self.mem_inflight == 0) => {
                w.max(cycle + 1)
            }
            _ => cycle + 1,
        }
    }
}

fn total_notes<S: NodeStore>() -> Vec<String> {
    S::TOTAL_NOTE.iter().map(|s| (*s).to_string()).collect()
}

/// Summarize a completion wheel as `(due_cycle, count)` pairs, soonest
/// first, truncated to the eight soonest distinct cycles.
fn wheel_snapshot(wheel: &BinaryHeap<Reverse<(u64, u32)>>) -> Vec<(u64, u32)> {
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

/// The cycle loop: schedule the nodes `store` serves on the datapath
/// described by `cfg`, with memory operations serviced by `mem`, starting
/// at absolute cycle `start`.
///
/// # Panics
///
/// Panics if `cfg` is invalid.
pub(crate) fn run<S: NodeStore>(
    store: &mut S,
    cfg: &DatapathConfig,
    buffers: &mut Buffers,
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
    buffers.reset(cfg);
    let mut eng = Engine {
        store,
        b: buffers,
        ready_count: 0,
        mem_inflight: 0,
        active: 0,
        busy_start: start,
        busy: IntervalSet::new(),
        completed: 0,
        last_retire: start,
        issued_per_class: [0; CLASSES],
        mem_rejects: 0,
        events: 0,
    };
    eng.admit()?;

    let mut cycle = start;
    let mem_budget = mem_issue_budget(cfg);
    let mut idle_cycles = 0u64;
    let mut stepped = 0u64;
    // Whether the memory system is passive (no autonomous between-cycle
    // behavior): queried once, it licenses the tightened idle jump.
    let mem_passive = mem.is_passive();

    while !(eng.store.exhausted() && eng.completed == eng.store.admitted()) {
        if let Some(limit) = watchdog.max_cycles {
            if cycle.saturating_sub(start) > limit {
                return Err(SimError::WatchdogExpired {
                    limit,
                    cycle,
                    completed: eng.completed,
                    total: eng.store.admitted(),
                    notes: total_notes::<S>(),
                });
            }
        }
        stepped += 1;
        mem.begin_cycle(cycle);
        let mut progressed = false;

        // 1. Retire wheel (compute + scratchpad) completions due now.
        while let Some(&Reverse((at, idx))) = eng.b.wheel.peek() {
            if at > cycle {
                break;
            }
            eng.b.wheel.pop();
            eng.retire(idx, at, true);
            progressed = true;
        }

        // 2. Retire memory-system completions; buffer those not yet due.
        for (id, at) in mem.drain_completions() {
            eng.mem_inflight -= 1;
            if at > cycle {
                eng.b.mem_wheel.push(Reverse((at, id as u32)));
            } else {
                eng.retire(id as u32, at.max(cycle), false);
                progressed = true;
            }
        }
        while let Some(&Reverse((at, idx))) = eng.b.mem_wheel.peek() {
            if at > cycle {
                break;
            }
            eng.b.mem_wheel.pop();
            eng.retire(idx, at, false);
            progressed = true;
        }

        // 3. Admit nodes into the room retirement just freed and release
        // what retirement unblocked, before the issue phases so either
        // can issue this cycle. Without a retirement (so far `progressed`
        // means one) there is nothing to admit or release.
        if progressed {
            eng.admit()?;
        }

        // 4–5. Issue compute, then memory.
        progressed |= eng.issue_compute(cycle, cfg);
        progressed |= eng.issue_mem(cycle, mem, mem_budget);

        mem.end_cycle(cycle);

        // 6. Advance time, skipping ahead when provably idle.
        if progressed {
            idle_cycles = 0;
        } else {
            idle_cycles += 1;
            if idle_cycles >= watchdog.no_progress_cycles {
                return Err(SimError::Deadlock(Box::new(DeadlockSnapshot {
                    cycle,
                    completed: eng.completed,
                    total: eng.store.admitted(),
                    idle_cycles,
                    ready_compute: eng.ready_count - eng.b.ready_mem.len(),
                    ready_mem: eng.b.ready_mem.len(),
                    wheel: wheel_snapshot(&eng.b.wheel),
                    mem_wheel: wheel_snapshot(&eng.b.mem_wheel),
                    mem_inflight: eng.mem_inflight,
                    notes: total_notes::<S>(),
                })));
            }
        }
        cycle = eng.next_cycle(cycle, mem, mem_passive);
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
        let prepared = PreparedDddg::new(&trace, &cfg);
        let mut ws = SchedulerWorkspace::new();
        // The chain needs 30 cycles; a 10-cycle ceiling must expire.
        let err =
            try_schedule_prepared(&trace, &cfg, &prepared, &mut ws, &mut mem, 0, &wd).unwrap_err();
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
        let prepared = PreparedDddg::new(&trace, &cfg);
        let mut ws = SchedulerWorkspace::new();
        let mut mem = SpadMemory::new(&trace, &cfg);
        let fallible = try_schedule_prepared(
            &trace,
            &cfg,
            &prepared,
            &mut ws,
            &mut mem,
            0,
            &Watchdog::default(),
        )
        .unwrap();
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
                    let fast = try_schedule_prepared(
                        &trace,
                        &cfg,
                        &prepared,
                        &mut ws,
                        &mut mem,
                        7,
                        &Watchdog::default(),
                    )
                    .unwrap();
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
        let _ = try_schedule_prepared(
            &trace,
            &cfg,
            &prepared,
            &mut ws,
            &mut mem,
            0,
            &Watchdog::default(),
        );
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
