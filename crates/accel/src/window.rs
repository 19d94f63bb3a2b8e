//! Windowed DDDG construction and scheduling over a node stream.
//!
//! The materialized scheduler ([`try_schedule_prepared`]) needs the whole
//! trace — `Vec<TraceNode>` plus a [`Dddg`](crate::Dddg) with successor
//! lists and in-degrees for every node — resident in memory before the
//! first cycle is simulated. That is the scale bottleneck for
//! paper-scale++ kernels: a multi-million-node bfs or fft blows out memory
//! long before the scheduler itself becomes the limit.
//!
//! [`try_schedule_windowed`] instead consumes the trace as an *iterator*
//! of nodes (typically an `.atrc` reader, see `aladdin_ir::AtrcTrace`) and
//! keeps only a sliding window of at most `window_nodes` *resident* nodes:
//! a node is admitted when a slot is free, its dependence edges are
//! resolved on admission (dependences always point backwards, and
//! admission is in program order, so an absent dependence has already
//! retired), and retirement deletes the node and its edge storage. Peak
//! resident nodes — and therefore graph memory — is O(window), not
//! O(trace).
//!
//! # Exactness
//!
//! The windowed engine replays the materialized engine's per-cycle phase
//! order exactly, with one extra phase: after retirement and before issue,
//! it admits nodes from the stream until the window is full. Under the
//! default [`LaneSync::Barrier`] model, iteration instances are monotone
//! in program order, so each barrier round occupies a contiguous node-id
//! range; whenever `window_nodes` is at least the largest round's node
//! count, every node is admitted no later than the cycle it could first
//! become ready, and the result — including `stepped_cycles` and busy
//! intervals — is bit-identical to the materialized path. Smaller windows
//! (and [`LaneSync::Free`]) remain *sound*: every dependence is still
//! honored and the schedule completes, but late admission can delay issue,
//! so cycle counts may differ. The equivalence and property tests in this
//! module and in `tests/` certify both claims.
//!
//! [`try_schedule_prepared`]: crate::try_schedule_prepared

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::iter::Peekable;

use aladdin_faults::{DeadlockSnapshot, SimError, Watchdog};
use aladdin_ir::{
    Diagnostic, FuClass, MemAccessKind, MemRef, Opcode, StatsAccumulator, TraceNode, TraceStats,
};
use aladdin_mem::IntervalSet;

use crate::config::{DatapathConfig, LaneSync};
use crate::meminterface::{DatapathMemory, IssueResult};
use crate::scheduler::{mem_issue_budget, wheel_snapshot, ReadyMem, ScheduleResult, CLASSES};

/// Default sliding-window size for streamed scheduling: large enough that
/// every workload kernel's barrier rounds fit with room to spare (keeping
/// the windowed path bit-exact), small enough that resident graph state
/// stays in the tens of megabytes even for multi-million-node traces.
pub const DEFAULT_WINDOW_NODES: usize = 65_536;

/// Outcome of a windowed scheduling run: the cycle-level schedule plus the
/// streaming-side observations the materialized path gets for free from
/// the in-memory trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedOutcome {
    /// The schedule, field-for-field comparable with the materialized
    /// engine's result.
    pub result: ScheduleResult,
    /// Maximum number of simultaneously resident (admitted, unretired)
    /// nodes — the windowed path's memory ceiling, bounded by the
    /// `window_nodes` argument.
    pub peak_resident_nodes: u64,
    /// Trace statistics accumulated at admission, equal to
    /// `Trace::stats()` of the materialized trace.
    pub stats: TraceStats,
}

/// A resident node: the slice of [`TraceNode`] plus graph state the
/// engine needs between admission and retirement.
struct WNode {
    opcode: Opcode,
    mem: Option<MemRef>,
    lane: u32,
    round: u32,
    indeg: u32,
    succs: Vec<u32>,
}

/// Barrier bookkeeping for one round, kept only while the round can still
/// matter; completed rounds are popped from the front of the deque.
#[derive(Default)]
struct RoundState {
    done: usize,
    /// Nodes of this round admitted so far — equals the round's true size
    /// once the round is finalized (a later round's node was admitted, or
    /// the stream ended).
    total: usize,
    parked: Vec<u32>,
}

/// Mutable windowed-scheduling state.
struct WindowEngine {
    barrier: bool,
    lanes: u32,
    resident: HashMap<u32, WNode>,
    /// Barrier rounds, front = `current_round`. Completed rounds are
    /// popped, so the deque spans only rounds touched by resident nodes.
    rounds: VecDeque<RoundState>,
    current_round: u32,
    /// Highest round any admitted node belongs to; rounds below it are
    /// finalized (their `total` is exact).
    max_admitted_round: u32,
    ready_compute: Vec<BinaryHeap<Reverse<u32>>>,
    ready_mask: Vec<u64>,
    ready_mem: ReadyMem,
    ready_count: usize,
    wheel: BinaryHeap<Reverse<(u64, u32)>>,
    mem_wheel: BinaryHeap<Reverse<(u64, u32)>>,
    mem_inflight: usize,
    active: usize,
    busy_start: u64,
    busy: IntervalSet,
    completed: u64,
    last_retire: u64,
    issued_per_class: [u64; CLASSES],
    mem_rejects: u64,
    events: u64,
    // Admission-side state.
    admitted: u64,
    instance: u32,
    last_label: Option<u32>,
    eof: bool,
    peak_resident: u64,
    stats: StatsAccumulator,
}

impl WindowEngine {
    fn enqueue(&mut self, idx: u32) {
        let node = &self.resident[&idx];
        if node.opcode.is_memory() {
            self.ready_mem.push(idx);
        } else {
            let slot = node.lane as usize * CLASSES + node.opcode.fu_class().index();
            self.ready_compute[slot].push(Reverse(idx));
            self.ready_mask[slot / 64] |= 1u64 << (slot % 64);
        }
        self.ready_count += 1;
    }

    /// Make a dependence-free node available, honoring the round barrier.
    fn release(&mut self, idx: u32) {
        let r = self.resident[&idx].round;
        if self.barrier && r > self.current_round {
            let off = (r - self.current_round) as usize;
            self.rounds[off].parked.push(idx);
        } else {
            self.enqueue(idx);
        }
    }

    fn begin_busy(&mut self, cycle: u64) {
        if self.active == 0 {
            self.busy_start = cycle;
        }
        self.active += 1;
    }

    /// Advance the barrier past every *finalized* round whose nodes have
    /// all retired, waking the next round's parked nodes. A round's
    /// `total` is only trustworthy once finalized, so an un-finalized
    /// front round blocks advancement even when momentarily drained.
    fn advance_rounds(&mut self) {
        if !self.barrier {
            return;
        }
        while let Some(front) = self.rounds.front() {
            let finalized = self.eof || self.current_round < self.max_admitted_round;
            if !(finalized && front.done == front.total) {
                break;
            }
            self.rounds.pop_front();
            self.current_round += 1;
            if let Some(next) = self.rounds.front_mut() {
                let waiting = std::mem::take(&mut next.parked);
                for w in waiting {
                    self.enqueue(w);
                }
            }
        }
    }

    /// Retire node `idx` at `cycle`, deleting it and its edge storage.
    /// `occupied` says whether the node was counted in `active` (true for
    /// wheel-tracked ops, false for memory ops that completed via the
    /// memory system).
    fn retire(&mut self, idx: u32, cycle: u64, occupied: bool) {
        let node = self
            .resident
            .remove(&idx)
            .expect("retired node is resident");
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
        if self.barrier {
            let off = (node.round - self.current_round) as usize;
            self.rounds[off].done += 1;
        }

        for succ in node.succs {
            let ready = {
                let s = self
                    .resident
                    .get_mut(&succ)
                    .expect("successor of a resident node is resident");
                s.indeg -= 1;
                s.indeg == 0
            };
            if ready {
                self.release(succ);
            }
        }

        self.advance_rounds();
    }

    /// Admit one node: assign its lane and round (mirroring
    /// `Dddg::build`'s iteration-instance rule), resolve its dependence
    /// edges against the resident set, and release it if dependence-free.
    fn admit(&mut self, node: &TraceNode) -> Result<(), Diagnostic> {
        let id = node.id.index() as u64;
        if id != self.admitted {
            return Err(Diagnostic::error(
                "L0280",
                format!(
                    "trace stream is not in dense program order: expected node {}, got {id}",
                    self.admitted
                ),
            ));
        }
        self.admitted += 1;
        self.stats.push(node);

        match self.last_label {
            Some(l) if l == node.iteration => {}
            Some(_) => self.instance += 1,
            None => {}
        }
        self.last_label = Some(node.iteration);
        let lane = self.instance % self.lanes;
        let round = self.instance / self.lanes;
        if self.barrier {
            self.max_admitted_round = self.max_admitted_round.max(round);
            let off = (round - self.current_round) as usize;
            while self.rounds.len() <= off {
                self.rounds.push_back(RoundState::default());
            }
            self.rounds[off].total += 1;
        }

        let idx = node.id.index() as u32;
        let mut indeg = 0u32;
        for dep in &node.deps {
            let d = dep.index() as u32;
            if u64::from(d) >= id {
                return Err(Diagnostic::error(
                    "L0280",
                    format!("node {id} depends on non-earlier node {d}"),
                ));
            }
            if let Some(p) = self.resident.get_mut(&d) {
                p.succs.push(idx);
                indeg += 1;
            }
            // An absent dependence has already retired: admission follows
            // program order, so every earlier node was admitted before us.
        }
        self.resident.insert(
            idx,
            WNode {
                opcode: node.opcode,
                mem: node.mem,
                lane,
                round,
                indeg,
                succs: Vec::new(),
            },
        );
        if indeg == 0 {
            self.release(idx);
        }
        Ok(())
    }

    /// Admit nodes until the window is full or the stream ends, then
    /// probe (without consuming) whether the stream is exhausted so
    /// end-of-trace is known the moment the last node is admitted.
    fn fill<I>(&mut self, iter: &mut Peekable<I>, window: usize) -> Result<(), SimError>
    where
        I: Iterator<Item = Result<TraceNode, Diagnostic>>,
    {
        while self.resident.len() < window {
            match iter.next() {
                Some(Ok(node)) => self.admit(&node)?,
                Some(Err(d)) => return Err(SimError::from(d)),
                None => break,
            }
        }
        if iter.peek().is_none() {
            self.eof = true;
        }
        self.peak_resident = self.peak_resident.max(self.resident.len() as u64);
        Ok(())
    }
}

/// Schedule a stream of trace nodes on the datapath described by `cfg`,
/// keeping at most `window_nodes` nodes resident — the streaming
/// counterpart of [`try_schedule_prepared`](crate::try_schedule_prepared).
///
/// `nodes` yields [`TraceNode`]s in dense program order (node 0, 1, 2, …),
/// as `aladdin_ir::AtrcTrace::nodes()` does; stream items are fallible so
/// a corrupt `.atrc` block surfaces as a typed diagnostic mid-run instead
/// of a panic. `window_nodes` is clamped to at least 1.
///
/// See the module docs for the exactness guarantee: bit-identical to the
/// materialized path under [`LaneSync::Barrier`] whenever the window holds
/// the largest barrier round, sound (all dependences honored) otherwise.
///
/// # Errors
///
/// `SimError::Diag` if the stream yields an error or is not in dense
/// program order; `SimError::Deadlock` and `SimError::WatchdogExpired`
/// as for the materialized path, with `total` counting admitted nodes
/// only (the full trace length is unknown mid-stream).
///
/// # Panics
///
/// Panics if `cfg` is invalid — a configuration bug, detectable
/// statically before any simulation starts.
#[allow(clippy::too_many_lines)]
pub fn try_schedule_windowed<I>(
    nodes: I,
    cfg: &DatapathConfig,
    mem: &mut dyn DatapathMemory,
    start: u64,
    watchdog: &Watchdog,
    window_nodes: usize,
) -> Result<WindowedOutcome, SimError>
where
    I: IntoIterator<Item = Result<TraceNode, Diagnostic>>,
{
    let cfg_report = cfg.check();
    assert!(
        !cfg_report.has_errors(),
        "invalid datapath configuration: {}",
        cfg_report.to_human()
    );
    let window = window_nodes.max(1);
    let lanes = cfg.lanes as usize;
    let slots = lanes * CLASSES;

    let mut iter = nodes.into_iter().peekable();
    let mut eng = WindowEngine {
        barrier: cfg.sync == LaneSync::Barrier,
        lanes: cfg.lanes,
        resident: HashMap::new(),
        rounds: VecDeque::new(),
        current_round: 0,
        max_admitted_round: 0,
        ready_compute: {
            let mut v = Vec::with_capacity(slots);
            v.resize_with(slots, BinaryHeap::new);
            v
        },
        ready_mask: vec![0u64; slots.div_ceil(64)],
        ready_mem: ReadyMem::default(),
        ready_count: 0,
        wheel: BinaryHeap::new(),
        mem_wheel: BinaryHeap::new(),
        mem_inflight: 0,
        active: 0,
        busy_start: start,
        busy: IntervalSet::new(),
        completed: 0,
        last_retire: start,
        issued_per_class: [0; CLASSES],
        mem_rejects: 0,
        events: 0,
        admitted: 0,
        instance: 0,
        last_label: None,
        eof: false,
        peak_resident: 0,
        stats: StatsAccumulator::new(),
    };

    eng.fill(&mut iter, window)?;
    if eng.admitted == 0 {
        return Ok(WindowedOutcome {
            result: ScheduleResult {
                start,
                end: start,
                busy: IntervalSet::new(),
                issued_per_class: [0; 6],
                mem_rejects: 0,
                cycles: 0,
                stepped_cycles: 0,
                events: 0,
            },
            peak_resident_nodes: 0,
            stats: eng.stats.finish(),
        });
    }
    eng.advance_rounds();

    let mut cycle = start;
    let mem_budget = mem_issue_budget(cfg);
    let mut idle_cycles = 0u64;
    let mut stepped = 0u64;
    let mem_passive = mem.is_passive();

    while !(eng.eof && eng.completed == eng.admitted) {
        if let Some(limit) = watchdog.max_cycles {
            if cycle.saturating_sub(start) > limit {
                return Err(SimError::WatchdogExpired {
                    limit,
                    cycle,
                    completed: eng.completed as usize,
                    total: eng.admitted as usize,
                    notes: vec!["windowed: total counts admitted nodes only".to_string()],
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
            eng.retire(idx, at, true);
            progressed = true;
        }

        // 2. Retire memory-system completions; buffer those not yet due.
        for (id, at) in mem.drain_completions() {
            eng.mem_inflight -= 1;
            if at > cycle {
                eng.mem_wheel.push(Reverse((at, id as u32)));
            } else {
                eng.retire(id as u32, at.max(cycle), false);
                progressed = true;
            }
        }
        while let Some(&Reverse((at, idx))) = eng.mem_wheel.peek() {
            if at > cycle {
                break;
            }
            eng.mem_wheel.pop();
            eng.retire(idx, at, false);
            progressed = true;
        }

        // 2b. Admit nodes into the slots retirement just freed. Placed
        // before the issue phases so a node admitted this cycle can issue
        // this cycle — the same-cycle parity the exactness argument needs.
        eng.fill(&mut iter, window)?;
        eng.advance_rounds();

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
                let class = eng.resident[&idx].opcode.fu_class();
                eng.wheel
                    .push(Reverse((cycle + cfg.timing.latency(class), idx)));
                eng.issued_per_class[class.index()] += 1;
                eng.begin_busy(cycle);
                eng.ready_count -= 1;
                eng.events += 1;
                progressed = true;
            }
        }

        // 4. Issue memory ops until the interface pushes back, bounded
        // per cycle exactly like the materialized engine.
        let mut ready_mem = std::mem::take(&mut eng.ready_mem);
        ready_mem.issue(mem_budget, |idx| {
            let mref = eng.resident[&idx].mem.expect("memory node has MemRef");
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
        eng.ready_mem = ready_mem;

        mem.end_cycle(cycle);

        // 5. Advance time, skipping ahead when provably idle. No new node
        // can become ready in a skipped window: admission only follows
        // retirement, and the next retirement is the event jumped to.
        if progressed {
            idle_cycles = 0;
        } else {
            idle_cycles += 1;
            if idle_cycles >= watchdog.no_progress_cycles {
                return Err(SimError::Deadlock(Box::new(DeadlockSnapshot {
                    cycle,
                    completed: eng.completed as usize,
                    total: eng.admitted as usize,
                    idle_cycles,
                    ready_compute: eng.ready_count - eng.ready_mem.len(),
                    ready_mem: eng.ready_mem.len(),
                    wheel: wheel_snapshot(&eng.wheel),
                    mem_wheel: wheel_snapshot(&eng.mem_wheel),
                    mem_inflight: eng.mem_inflight,
                    notes: vec!["windowed: total counts admitted nodes only".to_string()],
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
            let wheel_only = eng.eof
                && eng.completed + (eng.wheel.len() + eng.mem_wheel.len()) as u64 == eng.admitted;
            match (wheel_next, mem_next) {
                (Some(w), Some(m)) => w.min(m).max(cycle + 1),
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
    Ok(WindowedOutcome {
        result: ScheduleResult {
            start,
            end,
            busy: eng.busy,
            issued_per_class: eng.issued_per_class,
            mem_rejects: eng.mem_rejects,
            cycles: end - start,
            stepped_cycles: stepped,
            events: eng.events,
        },
        peak_resident_nodes: eng.peak_resident,
        stats: eng.stats.finish(),
    })
}

/// Adapt an in-memory [`Trace`](aladdin_ir::Trace)'s nodes to the
/// fallible-stream shape [`try_schedule_windowed`] consumes.
pub fn trace_node_stream(
    trace: &aladdin_ir::Trace,
) -> impl Iterator<Item = Result<TraceNode, Diagnostic>> + '_ {
    trace.nodes().iter().map(|n| Ok(n.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meminterface::SpadMemory;
    use crate::scheduler::schedule;
    use aladdin_ir::{ArrayKind, Opcode, TVal, Trace, Tracer};

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

    fn windowed(trace: &Trace, cfg: &DatapathConfig, window: usize) -> WindowedOutcome {
        let mut mem = SpadMemory::new(trace, cfg);
        try_schedule_windowed(
            trace_node_stream(trace),
            cfg,
            &mut mem,
            0,
            &Watchdog::default(),
            window,
        )
        .expect("windowed schedule")
    }

    #[test]
    fn empty_stream_is_zero_cycles() {
        let trace = Tracer::new("e").finish();
        let out = windowed(&trace, &DatapathConfig::default(), 16);
        assert_eq!(out.result.cycles, 0);
        assert_eq!(out.peak_resident_nodes, 0);
        assert_eq!(out.stats, trace.stats());
    }

    #[test]
    fn full_window_is_bit_exact_with_materialized() {
        let trace = parallel_kernel(64);
        for (lanes, partition) in [(1u32, 1u32), (2, 4), (4, 4), (8, 2)] {
            let cfg = DatapathConfig {
                lanes,
                partition,
                ..DatapathConfig::default()
            };
            let mut mem = SpadMemory::new(&trace, &cfg);
            let reference = schedule(&trace, &cfg, &mut mem, 0);
            let out = windowed(&trace, &cfg, trace.nodes().len());
            assert_eq!(out.result, reference, "lanes={lanes} partition={partition}");
            assert_eq!(out.stats, trace.stats());
        }
    }

    #[test]
    fn round_sized_window_is_bit_exact_under_barrier() {
        let trace = parallel_kernel(64);
        for lanes in [1u32, 2, 4, 8] {
            let cfg = DatapathConfig {
                lanes,
                partition: 4,
                ..DatapathConfig::default()
            };
            // 4 nodes per iteration instance → one round is 4 × lanes.
            let round_nodes = 4 * lanes as usize;
            let mut mem = SpadMemory::new(&trace, &cfg);
            let reference = schedule(&trace, &cfg, &mut mem, 0);
            let out = windowed(&trace, &cfg, round_nodes);
            assert_eq!(out.result, reference, "lanes={lanes} window={round_nodes}");
            assert!(
                out.peak_resident_nodes <= round_nodes as u64,
                "peak {} exceeds window {round_nodes}",
                out.peak_resident_nodes
            );
        }
    }

    #[test]
    fn tiny_window_is_sound_and_bounded() {
        let trace = parallel_kernel(48);
        let cfg = DatapathConfig {
            lanes: 4,
            partition: 4,
            ..DatapathConfig::default()
        };
        for window in [1usize, 2, 3, 5, 7] {
            let out = windowed(&trace, &cfg, window);
            // Everything still retires, stats still match, memory bounded.
            assert_eq!(out.stats, trace.stats());
            assert!(out.peak_resident_nodes <= window as u64);
            assert_eq!(
                out.result.issued_per_class.iter().sum::<u64>() as usize,
                trace.nodes().len()
            );
        }
    }

    #[test]
    fn serial_chain_matches_at_any_window() {
        let mut t = Tracer::new("chain");
        let mut acc = TVal::lit(1.0);
        for _ in 0..20 {
            acc = t.binop(Opcode::FAdd, acc, TVal::lit(1.0));
        }
        let trace = t.finish();
        let cfg = DatapathConfig::default();
        let mut mem = SpadMemory::new(&trace, &cfg);
        let reference = schedule(&trace, &cfg, &mut mem, 0);
        for window in [1usize, 2, 64] {
            let out = windowed(&trace, &cfg, window);
            assert_eq!(out.result, reference, "window={window}");
        }
    }

    #[test]
    fn free_sync_with_full_window_matches() {
        let trace = parallel_kernel(32);
        let cfg = DatapathConfig {
            lanes: 4,
            partition: 8,
            sync: LaneSync::Free,
            ..DatapathConfig::default()
        };
        let mut mem = SpadMemory::new(&trace, &cfg);
        let reference = schedule(&trace, &cfg, &mut mem, 0);
        let out = windowed(&trace, &cfg, trace.nodes().len());
        assert_eq!(out.result, reference);
    }

    #[test]
    fn start_offset_respected() {
        let trace = parallel_kernel(8);
        let cfg = DatapathConfig::default();
        let mut mem = SpadMemory::new(&trace, &cfg);
        let out = try_schedule_windowed(
            trace_node_stream(&trace),
            &cfg,
            &mut mem,
            1000,
            &Watchdog::default(),
            8,
        )
        .unwrap();
        assert_eq!(out.result.start, 1000);
        assert!(out.result.end > 1000);
    }

    #[test]
    fn stream_errors_surface_as_typed_diagnostics() {
        let trace = parallel_kernel(4);
        let cfg = DatapathConfig::default();
        let mut mem = SpadMemory::new(&trace, &cfg);
        let stream = trace
            .nodes()
            .iter()
            .map(|n| Ok(n.clone()))
            .take(3)
            .chain(std::iter::once(Err(Diagnostic::error(
                "L0280",
                "block 1: truncated",
            ))));
        let err =
            try_schedule_windowed(stream, &cfg, &mut mem, 0, &Watchdog::default(), 2).unwrap_err();
        assert_eq!(err.code(), "L0280");
    }

    #[test]
    fn non_dense_stream_is_rejected() {
        let trace = parallel_kernel(4);
        let cfg = DatapathConfig::default();
        let mut mem = SpadMemory::new(&trace, &cfg);
        let stream = trace.nodes().iter().skip(1).map(|n| Ok(n.clone()));
        let err =
            try_schedule_windowed(stream, &cfg, &mut mem, 0, &Watchdog::default(), 64).unwrap_err();
        assert_eq!(err.code(), "L0280");
    }
}
