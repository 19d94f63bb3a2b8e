//! The window node store: scheduling over a node stream.
//!
//! A [`PreparedDddg`](crate::PreparedDddg) needs the whole trace —
//! `Vec<TraceNode>` plus successor lists and in-degrees for every node —
//! resident before the first cycle is simulated. That is the scale
//! bottleneck for paper-scale++ kernels: a multi-million-node bfs or fft
//! blows out memory long before the scheduler itself becomes the limit.
//!
//! [`try_schedule_windowed`] instead consumes the trace as an *iterator*
//! of nodes (typically an `.atrc` reader, see `aladdin_ir::AtrcTrace`) and
//! runs the scheduler's one cycle loop over a store that keeps at most
//! `window_nodes` *resident* nodes: a node is admitted when the resident
//! count is below the window, its dependence edges are resolved on
//! admission (dependences always point backwards, and admission is in
//! program order, so an absent dependence has already retired), and
//! retirement frees the node and recycles its edge storage. Peak resident
//! nodes — and therefore graph memory — is O(window), not O(trace).
//!
//! # Exactness
//!
//! The loop admits nodes once per cycle, after retirement and before
//! issue. Under the default [`LaneSync::Barrier`] model, iteration
//! instances are monotone in program order, so each barrier round
//! occupies a contiguous node-id range; whenever `window_nodes` is at
//! least the largest round's node count, every node is admitted no later
//! than the cycle it could first become ready, and the result — including
//! `stepped_cycles` and busy intervals — is bit-identical to the prepared
//! path. Smaller windows (and [`LaneSync::Free`]) remain *sound*: every
//! dependence is still honored and the schedule completes, but late
//! admission can delay issue, so cycle counts may differ. The equivalence
//! and property tests in this module and in `tests/` certify both claims.
//!
//! [`LaneSync::Barrier`]: crate::LaneSync::Barrier
//! [`LaneSync::Free`]: crate::LaneSync::Free

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::iter::Peekable;

use aladdin_faults::{SimError, Watchdog};
use aladdin_ir::{Diagnostic, MemRef, Opcode, StatsAccumulator, Trace, TraceNode, TraceStats};

use crate::config::DatapathConfig;
use crate::meminterface::DatapathMemory;
use crate::scheduler::{run, Buffers, NodeStore, Rounds, ScheduleResult};

/// Default sliding-window size for streamed scheduling: large enough that
/// every workload kernel's barrier rounds fit with room to spare (keeping
/// the windowed path bit-exact), small enough that resident graph state
/// stays in the tens of megabytes even for multi-million-node traces.
pub const DEFAULT_WINDOW_NODES: usize = 65_536;

/// Outcome of a windowed scheduling run: the cycle-level schedule plus the
/// streaming-side observations the prepared path gets for free from the
/// in-memory trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedOutcome {
    /// The schedule, field-for-field comparable with the prepared path's
    /// result.
    pub result: ScheduleResult,
    /// Maximum number of simultaneously resident (admitted, unretired)
    /// nodes — the windowed path's memory ceiling, bounded by the
    /// `window_nodes` argument.
    pub peak_resident_nodes: u64,
    /// Trace statistics accumulated at admission, equal to
    /// `Trace::stats()` of the materialized trace.
    pub stats: TraceStats,
}

/// An admitted node: the slice of [`TraceNode`] plus the graph state the
/// loop needs between admission and retirement.
struct Slot {
    opcode: Opcode,
    mem: Option<MemRef>,
    lane: u32,
    round: u32,
    indeg: u32,
    resident: bool,
    succs: Vec<u32>,
}

/// Nodes admitted from a stream, resolved against the resident set.
struct WindowStore<I: Iterator> {
    nodes: Peekable<I>,
    window: usize,
    lanes: u32,
    /// Node `base + i` at index `i`, so `base + slots.len()` nodes have
    /// been admitted. Out-of-order retirement leaves non-resident holes;
    /// the front is popped once it has retired, so every node below `base`
    /// has retired.
    slots: VecDeque<Slot>,
    base: u32,
    resident: usize,
    peak_resident: usize,
    /// Cleared successor lists of retired nodes, reused at admission.
    spare_succs: Vec<Vec<u32>>,
    instance: u32,
    last_label: Option<u32>,
    eof: bool,
    stats: StatsAccumulator,
}

impl<I, N> NodeStore for WindowStore<I>
where
    I: Iterator<Item = Result<N, Diagnostic>>,
    N: Borrow<TraceNode>,
{
    const TOTAL_NOTE: Option<&'static str> = Some("windowed: total counts admitted nodes only");

    fn opcode(&self, idx: u32) -> Opcode {
        self.slots[(idx - self.base) as usize].opcode
    }

    fn lane(&self, idx: u32) -> u32 {
        self.slots[(idx - self.base) as usize].lane
    }

    fn round(&self, idx: u32) -> u32 {
        self.slots[(idx - self.base) as usize].round
    }

    fn mem_ref(&self, idx: u32) -> MemRef {
        self.slots[(idx - self.base) as usize]
            .mem
            .expect("memory node has MemRef")
    }

    /// Admit nodes until the window is full or the stream ends: assign
    /// each its lane and round (mirroring `Dddg::build`'s
    /// iteration-instance rule) and resolve its dependence edges against
    /// the resident set. Then probe (without consuming) whether the stream
    /// is exhausted, so end-of-trace is known the moment the last node is
    /// admitted.
    fn admit(&mut self, rounds: &mut Rounds, released: &mut Vec<u32>) -> Result<(), SimError> {
        while self.resident < self.window {
            let Some(item) = self.nodes.next() else {
                break;
            };
            let item = item?;
            let node: &TraceNode = item.borrow();
            let id = node.id.index();
            if id != self.admitted() {
                return Err(SimError::from(Diagnostic::error(
                    "L0280",
                    format!(
                        "trace stream is not in dense program order: expected node {}, got {id}",
                        self.admitted()
                    ),
                )));
            }
            self.stats.push(node);
            match self.last_label {
                Some(l) if l == node.iteration => {}
                Some(_) => self.instance += 1,
                None => {}
            }
            self.last_label = Some(node.iteration);
            let round = self.instance / self.lanes;
            rounds.register(round, 1);

            let mut indeg = 0u32;
            for dep in &node.deps {
                let d = dep.index();
                if d >= id {
                    return Err(SimError::from(Diagnostic::error(
                        "L0280",
                        format!("node {id} depends on non-earlier node {d}"),
                    )));
                }
                // A dependence below `base` or in a hole has already
                // retired: admission follows program order, so every
                // earlier node was admitted before this one.
                if let Some(p) = (d as u32)
                    .checked_sub(self.base)
                    .and_then(|off| self.slots.get_mut(off as usize))
                    .filter(|p| p.resident)
                {
                    p.succs.push(id as u32);
                    indeg += 1;
                }
            }
            self.slots.push_back(Slot {
                opcode: node.opcode,
                mem: node.mem,
                lane: self.instance % self.lanes,
                round,
                indeg,
                resident: true,
                succs: self.spare_succs.pop().unwrap_or_default(),
            });
            self.resident += 1;
            if indeg == 0 {
                released.push(id as u32);
            }
        }
        if self.nodes.peek().is_none() {
            self.eof = true;
        }
        self.peak_resident = self.peak_resident.max(self.resident);
        Ok(())
    }

    fn retire(&mut self, idx: u32, released: &mut Vec<u32>) {
        let slot = &mut self.slots[(idx - self.base) as usize];
        slot.resident = false;
        let mut succs = std::mem::take(&mut slot.succs);
        for &succ in &succs {
            let s = &mut self.slots[(succ - self.base) as usize];
            s.indeg -= 1;
            if s.indeg == 0 {
                released.push(succ);
            }
        }
        succs.clear();
        self.spare_succs.push(succs);
        self.resident -= 1;
        while self.slots.front().is_some_and(|s| !s.resident) {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    fn admitted(&self) -> usize {
        self.base as usize + self.slots.len()
    }

    fn exhausted(&self) -> bool {
        self.eof
    }
}

/// Schedule a stream of trace nodes on the datapath described by `cfg`,
/// keeping at most `window_nodes` nodes resident — the streaming
/// counterpart of [`try_schedule_prepared`](crate::try_schedule_prepared),
/// on the same cycle loop.
///
/// `nodes` yields [`TraceNode`]s — owned, as `aladdin_ir::AtrcTrace::nodes()`
/// decodes them, or borrowed, as [`trace_node_stream`] lends them — in
/// dense program order (node 0, 1, 2, …); stream items are fallible so a
/// corrupt `.atrc` block surfaces as a typed diagnostic mid-run instead of
/// a panic. `window_nodes` is clamped to at least 1.
///
/// See the module docs for the exactness guarantee: bit-identical to the
/// prepared path under [`LaneSync::Barrier`](crate::LaneSync::Barrier)
/// whenever the window holds the largest barrier round, sound (all
/// dependences honored) otherwise.
///
/// # Errors
///
/// `SimError::Diag` if the stream yields an error or is not in dense
/// program order; `SimError::Deadlock` and `SimError::WatchdogExpired`
/// as for the prepared path, with `total` counting admitted nodes only
/// (the full trace length is unknown mid-stream).
///
/// # Panics
///
/// Panics if `cfg` is invalid — a configuration bug, detectable
/// statically before any simulation starts.
pub fn try_schedule_windowed<I, N>(
    nodes: I,
    cfg: &DatapathConfig,
    mem: &mut dyn DatapathMemory,
    start: u64,
    watchdog: &Watchdog,
    window_nodes: usize,
) -> Result<WindowedOutcome, SimError>
where
    I: IntoIterator<Item = Result<N, Diagnostic>>,
    N: Borrow<TraceNode>,
{
    let mut store = WindowStore {
        nodes: nodes.into_iter().peekable(),
        window: window_nodes.max(1),
        lanes: cfg.lanes,
        slots: VecDeque::new(),
        base: 0,
        resident: 0,
        peak_resident: 0,
        spare_succs: Vec::new(),
        instance: 0,
        last_label: None,
        eof: false,
        stats: StatsAccumulator::new(),
    };
    let result = run(
        &mut store,
        cfg,
        &mut Buffers::default(),
        mem,
        start,
        watchdog,
    )?;
    Ok(WindowedOutcome {
        result,
        peak_resident_nodes: store.peak_resident as u64,
        stats: store.stats.finish(),
    })
}

/// Lend an in-memory [`Trace`]'s nodes in the fallible-stream shape
/// [`try_schedule_windowed`] consumes.
pub fn trace_node_stream(trace: &Trace) -> impl Iterator<Item = Result<&TraceNode, Diagnostic>> {
    trace.nodes().iter().map(Ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LaneSync;
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
    fn out_of_order_retirement_leaves_holes_and_stays_bounded() {
        // A long divide at node 0 outlives the short multiply/add pairs
        // behind it, so at windows 2–3 the resident ids stop being
        // contiguous: retired nodes leave holes behind node 0, and later
        // adds resolve their dependence into a slot past a hole.
        let mut t = Tracer::new("holes");
        let div = t.binop(Opcode::FDiv, TVal::lit(1.0), TVal::lit(3.0));
        for k in 0..8 {
            let p = t.binop(Opcode::FMul, TVal::lit(f64::from(k)), TVal::lit(2.0));
            let _ = t.binop(Opcode::FAdd, p, TVal::lit(1.0));
        }
        let _ = t.binop(Opcode::FAdd, div, TVal::lit(1.0));
        let trace = t.finish();
        let cfg = DatapathConfig::default();
        let mut mem = SpadMemory::new(&trace, &cfg);
        let reference = schedule(&trace, &cfg, &mut mem, 0);
        for window in [2usize, 3] {
            let out = windowed(&trace, &cfg, window);
            assert!(
                out.peak_resident_nodes <= window as u64,
                "window {window}: peak {}",
                out.peak_resident_nodes
            );
            assert_eq!(
                out.result.issued_per_class.iter().sum::<u64>() as usize,
                trace.nodes().len()
            );
            assert_eq!(out.stats, trace.stats());
            assert!(out.result.end >= reference.end, "window {window}");
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
