//! The cache-based datapath memory: TLB + MOESI cache + shared bus.
//!
//! Routes shared arrays through an accelerator TLB and a hardware-managed
//! cache that fills over the shared system bus; private (`Internal`)
//! arrays keep using scratchpad banks, per the paper's design choice of
//! only caching "data that must eventually be shared with the rest of the
//! system" (Section IV-D).
//!
//! The cache side is split from interconnect ownership so it can be used
//! two ways: [`CacheDatapathMemory`] owns a private [`Interconnect`] built
//! from the SoC's topology (the single-accelerator cache flow), while the
//! multi-accelerator engine registers a [`CacheClient`] on an interconnect
//! shared with DMA engines and traffic generators (the paper's Fig. 3
//! heterogeneous topology).

use aladdin_accel::{DatapathConfig, DatapathMemory, IssueResult, SpadMemory, SpadStats};
use aladdin_faults::FaultPlan;
use aladdin_ir::{ArrayInfo, ArrayKind, Diagnostic, Trace};
use aladdin_mem::{
    build_interconnect, AccessKind, BusFaults, BusStats, Cache, CacheOutcome, CacheStats,
    DramStats, FillTracker, Interconnect, MasterId, Tlb, TlbStats, TrafficGenerator,
};

use crate::config::SocConfig;

#[derive(Debug, Clone, Copy)]
struct Delayed {
    id: u64,
    addr: u64,
    write: bool,
    ready_at: u64,
}

/// The bus-client half of a cache-based accelerator: TLB, cache,
/// fill tracking and private scratchpads — everything except the bus,
/// which its owner supplies each cycle via [`CacheClient::push_bus_requests`]
/// and [`CacheClient::on_bus_completion`].
#[derive(Debug)]
pub(crate) struct CacheClient {
    spad: SpadMemory,
    shared_ranges: Vec<(u64, u64)>,
    tlb: Tlb,
    cache: Cache,
    fills: FillTracker,
    delayed: Vec<Delayed>,
    /// Scratch for [`begin_cycle`](CacheClient::begin_cycle): the delayed
    /// accesses due this cycle. Kept to reuse its allocation.
    due: Vec<Delayed>,
    completions: Vec<(u64, u64)>,
    ideal: bool,
    master: MasterId,
}

impl CacheClient {
    pub(crate) fn new(
        trace: &Trace,
        cfg: &DatapathConfig,
        soc: &SocConfig,
        master: MasterId,
    ) -> Self {
        Self::from_arrays(trace.arrays(), cfg, soc, master)
    }

    /// Build from array metadata alone — what a streamed `.atrc` trace
    /// provides. Identical to [`new`](CacheClient::new) on the same
    /// arrays.
    pub(crate) fn from_arrays(
        arrays: &[ArrayInfo],
        cfg: &DatapathConfig,
        soc: &SocConfig,
        master: MasterId,
    ) -> Self {
        let shared_ranges = arrays
            .iter()
            .filter(|a| a.kind != ArrayKind::Internal)
            .map(|a| (a.base_addr, a.base_addr + a.size_bytes()))
            .collect();
        CacheClient {
            spad: SpadMemory::from_arrays(arrays, cfg),
            shared_ranges,
            tlb: Tlb::new(soc.tlb),
            cache: Cache::new(soc.cache),
            fills: FillTracker::new(),
            delayed: Vec::new(),
            due: Vec::new(),
            completions: Vec::new(),
            ideal: false,
            master,
        }
    }

    pub(crate) fn set_ideal(&mut self, ideal: bool) {
        self.ideal = ideal;
    }

    /// Arm the TLB page-walk injection site (bus/DRAM sites are armed by
    /// whoever owns the bus).
    pub(crate) fn set_faults(&mut self, plan: &FaultPlan) {
        self.tlb.set_faults(plan.tlb_injector());
    }

    pub(crate) fn master(&self) -> MasterId {
        self.master
    }

    pub(crate) fn delayed_count(&self) -> usize {
        self.delayed.len()
    }

    fn is_shared(&self, addr: u64) -> bool {
        self.shared_ranges
            .iter()
            .any(|&(b, e)| addr >= b && addr < e)
    }

    fn cache_try(&mut self, id: u64, addr: u64, write: bool, cycle: u64) -> IssueResult {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        match self.cache.access(id, addr, kind, cycle) {
            CacheOutcome::Hit { at } => IssueResult::Done { at },
            CacheOutcome::Miss => IssueResult::Pending,
            CacheOutcome::NoPort | CacheOutcome::NoMshr => IssueResult::Reject,
        }
    }

    pub(crate) fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    pub(crate) fn tlb_stats(&self) -> TlbStats {
        self.tlb.stats()
    }

    pub(crate) fn spad_stats(&self) -> SpadStats {
        self.spad.stats()
    }

    pub(crate) fn begin_cycle(&mut self, cycle: u64) {
        self.spad.begin_cycle(cycle);
        self.cache.begin_cycle(cycle);
        // Retry TLB-delayed accesses that are now translated. Entries not
        // yet due keep their place; rejected due ones queue behind them in
        // their original order, which decides who gets the next cache port.
        let mut due = std::mem::take(&mut self.due);
        self.delayed.retain(|d| {
            let ready = d.ready_at <= cycle;
            if ready {
                due.push(*d);
            }
            !ready
        });
        for d in due.drain(..) {
            match self.cache_try(d.id, d.addr, d.write, cycle) {
                IssueResult::Done { at } => self.completions.push((d.id, at)),
                IssueResult::Pending => {}
                IssueResult::Reject => self.delayed.push(Delayed {
                    ready_at: cycle + 1,
                    ..d
                }),
            }
        }
        self.due = due;
    }

    pub(crate) fn issue(
        &mut self,
        id: u64,
        addr: u64,
        bytes: u32,
        write: bool,
        cycle: u64,
    ) -> IssueResult {
        if self.ideal {
            return IssueResult::Done { at: cycle + 1 };
        }
        if !self.is_shared(addr) {
            return self.spad.issue(id, addr, bytes, write, cycle);
        }
        // Virtual memory: translate first. A TLB miss delays the access by
        // the page-walk penalty; the access is retried internally.
        let ready = self.tlb.translate(addr, cycle);
        if ready > cycle {
            self.delayed.push(Delayed {
                id,
                addr,
                write,
                ready_at: ready,
            });
            return IssueResult::Pending;
        }
        self.cache_try(id, addr, write, cycle)
    }

    pub(crate) fn drain_completions(&mut self) -> Vec<(u64, u64)> {
        let mut out = std::mem::take(&mut self.completions);
        out.extend(self.spad.drain_completions());
        out
    }

    /// Forward the cache's new transactions to `bus` under this client's
    /// master id, tracking read fills.
    pub(crate) fn push_bus_requests(&mut self, bus: &mut dyn Interconnect) {
        for req in self.cache.take_bus_requests() {
            let token = bus.request(self.master, req.line_addr, req.bytes, req.write);
            if !req.write {
                self.fills.insert(token, req.line_addr);
            }
        }
    }

    /// Deliver one bus completion addressed to this client.
    pub(crate) fn on_bus_completion(&mut self, token: u64, at: u64) {
        if let Some(line_addr) = self.fills.remove(token) {
            self.cache.bus_completed(line_addr, at);
        }
    }

    /// Collect waiters released by fills that completed this tick.
    pub(crate) fn collect_cache_completions(&mut self) {
        for (id, at) in self.cache.drain_completions() {
            self.completions.push((id, at));
        }
    }
}

/// A [`DatapathMemory`] that services shared arrays from a cache behind
/// the system bus, and private arrays from scratchpad banks.
///
/// Set `ideal` to make every access single-cycle (the Fig. 7 "processing
/// time" bound); combine with an infinite-bandwidth bus (see
/// [`BusConfig::infinite_bandwidth`](aladdin_mem::BusConfig)) for the
/// "latency time" bound.
#[derive(Debug)]
pub struct CacheDatapathMemory {
    client: CacheClient,
    bus: Box<dyn Interconnect>,
    traffic: Option<TrafficGenerator>,
}

impl CacheDatapathMemory {
    /// Build for `trace` under `cfg`/`soc`.
    ///
    /// # Panics
    ///
    /// Panics if `soc.topology` is malformed; use
    /// [`try_from_arrays`](CacheDatapathMemory::try_from_arrays) to
    /// handle that as a typed diagnostic instead.
    #[must_use]
    pub fn new(trace: &Trace, cfg: &DatapathConfig, soc: &SocConfig) -> Self {
        Self::from_arrays(trace.arrays(), cfg, soc)
    }

    /// Build from array metadata alone — what a streamed `.atrc` trace
    /// provides. Identical to [`new`](CacheDatapathMemory::new) on the
    /// same arrays.
    ///
    /// # Panics
    ///
    /// As for [`new`](CacheDatapathMemory::new).
    #[must_use]
    pub fn from_arrays(arrays: &[ArrayInfo], cfg: &DatapathConfig, soc: &SocConfig) -> Self {
        Self::try_from_arrays(arrays, cfg, soc).unwrap_or_else(|d| panic!("{d}"))
    }

    /// Fallible [`from_arrays`](CacheDatapathMemory::from_arrays): a
    /// malformed `soc.topology` comes back as its `L0310` diagnostic.
    ///
    /// # Errors
    ///
    /// Returns the topology's defect diagnostic if `soc.topology` fails
    /// [`TopologyConfig::check`](aladdin_mem::TopologyConfig::check).
    pub fn try_from_arrays(
        arrays: &[ArrayInfo],
        cfg: &DatapathConfig,
        soc: &SocConfig,
    ) -> Result<Self, Diagnostic> {
        let traffic = soc
            .traffic
            .map(|t| TrafficGenerator::new(t.period, t.bytes, 0x4000_0000, 16 << 20));
        Ok(CacheDatapathMemory {
            client: CacheClient::from_arrays(arrays, cfg, soc, MasterId::ACCEL_CACHE),
            bus: build_interconnect(soc.bus, soc.dram, soc.topology)?,
            traffic,
        })
    }

    /// Make every access a single-cycle hit (Fig. 7 processing-time bound).
    pub fn set_ideal(&mut self, ideal: bool) {
        self.client.set_ideal(ideal);
    }

    /// Arm fault injection from `plan`: bus-grant delays, burst NACKs and
    /// DRAM latency spikes land on the fill path, TLB page-walk faults on
    /// translation. An empty plan leaves timing bit-identical.
    pub fn set_faults(&mut self, plan: &FaultPlan) {
        self.bus.set_faults(BusFaults::from_plan(plan));
        self.client.set_faults(plan);
    }

    /// One-line state summary for deadlock forensics.
    #[must_use]
    pub fn forensic_note(&self) -> String {
        format!(
            "cache-mem: {} TLB-delayed access(es); bus: {} queued request(s), {} in flight",
            self.client.delayed_count(),
            self.bus.queue_depths().iter().sum::<usize>(),
            self.bus.in_flight_count()
        )
    }

    /// Cache statistics so far.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.client.cache_stats()
    }

    /// TLB statistics so far.
    #[must_use]
    pub fn tlb_stats(&self) -> TlbStats {
        self.client.tlb_stats()
    }

    /// Bus statistics so far.
    #[must_use]
    pub fn bus_stats(&self) -> BusStats {
        self.bus.stats()
    }

    /// DRAM statistics so far.
    #[must_use]
    pub fn dram_stats(&self) -> DramStats {
        self.bus.dram_stats()
    }

    /// Scratchpad statistics (private arrays) so far.
    #[must_use]
    pub fn spad_stats(&self) -> SpadStats {
        self.client.spad_stats()
    }
}

impl DatapathMemory for CacheDatapathMemory {
    fn begin_cycle(&mut self, cycle: u64) {
        self.client.begin_cycle(cycle);
    }

    fn issue(&mut self, id: u64, addr: u64, bytes: u32, write: bool, cycle: u64) -> IssueResult {
        self.client.issue(id, addr, bytes, write, cycle)
    }

    fn drain_completions(&mut self) -> Vec<(u64, u64)> {
        self.client.drain_completions()
    }

    fn end_cycle(&mut self, cycle: u64) {
        // Forward new cache transactions to the interconnect.
        self.client.push_bus_requests(self.bus.as_mut());
        if let Some(t) = self.traffic.as_mut() {
            t.tick(cycle, self.bus.as_mut());
        }
        self.bus.tick(cycle);
        for c in self.bus.drain_completions() {
            if c.master == self.client.master() {
                self.client.on_bus_completion(c.token, c.at);
            }
        }
        // Fills may complete in the same tick; collect their waiters.
        self.client.collect_cache_completions();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aladdin_accel::schedule;
    use aladdin_ir::{ArrayKind as AK, Opcode, Tracer};

    fn streaming_trace(elems: usize) -> Trace {
        let mut t = Tracer::new("stream");
        let a = t.array_f64("a", &vec![1.0; elems], AK::Input);
        let mut o = t.array_f64("o", &vec![0.0; elems], AK::Output);
        for i in 0..elems {
            t.begin_iteration(i as u32);
            let x = t.load(&a, i);
            let y = t.binop(Opcode::FAdd, x, aladdin_ir::TVal::lit(1.0));
            t.store(&mut o, i, y);
        }
        t.finish()
    }

    #[test]
    fn cache_flow_completes_and_counts() {
        let trace = streaming_trace(256);
        let dp = DatapathConfig {
            lanes: 4,
            partition: 4,
            ..DatapathConfig::default()
        };
        let soc = SocConfig::default();
        let mut mem = CacheDatapathMemory::new(&trace, &dp, &soc);
        let r = schedule(&trace, &dp, &mut mem, 0);
        assert!(r.end > 0);
        let cs = mem.cache_stats();
        assert!(cs.misses > 0, "cold cache must miss: {cs:?}");
        assert!(cs.hits > 0, "line reuse must hit: {cs:?}");
        let ts = mem.tlb_stats();
        assert!(ts.misses >= 1);
        assert!(mem.bus_stats().bytes > 0);
    }

    #[test]
    fn ideal_mode_is_fastest() {
        let trace = streaming_trace(128);
        let dp = DatapathConfig {
            lanes: 4,
            partition: 4,
            ..DatapathConfig::default()
        };
        let soc = SocConfig::default();
        let mut real = CacheDatapathMemory::new(&trace, &dp, &soc);
        let r_real = schedule(&trace, &dp, &mut real, 0);
        let mut ideal = CacheDatapathMemory::new(&trace, &dp, &soc);
        ideal.set_ideal(true);
        let r_ideal = schedule(&trace, &dp, &mut ideal, 0);
        assert!(
            r_ideal.end < r_real.end,
            "ideal {} must beat real {}",
            r_ideal.end,
            r_real.end
        );
    }

    #[test]
    fn internal_arrays_bypass_the_cache() {
        let mut t = Tracer::new("internal");
        let mut m = t.array_f64("m", &vec![0.0; 64], AK::Internal);
        for i in 0..64 {
            t.begin_iteration(i as u32);
            t.store(&mut m, i, aladdin_ir::TVal::lit(1.0));
        }
        let trace = t.finish();
        let dp = DatapathConfig::default();
        let soc = SocConfig::default();
        let mut mem = CacheDatapathMemory::new(&trace, &dp, &soc);
        let _ = schedule(&trace, &dp, &mut mem, 0);
        assert_eq!(mem.cache_stats().accesses(), 0);
        assert_eq!(mem.spad_stats().writes, 64);
    }

    #[test]
    fn infinite_bus_bandwidth_helps_wide_designs() {
        let trace = streaming_trace(512);
        let dp = DatapathConfig {
            lanes: 16,
            partition: 16,
            ..DatapathConfig::default()
        };
        let soc = SocConfig::default();
        let mut cache_cfg = soc.cache;
        cache_cfg.ports = 8;
        let narrow_soc = SocConfig {
            cache: cache_cfg,
            ..soc
        };
        let mut inf_bus = narrow_soc.bus;
        inf_bus.infinite_bandwidth = true;
        let wide_soc = SocConfig {
            bus: inf_bus,
            ..narrow_soc
        };
        let mut narrow = CacheDatapathMemory::new(&trace, &dp, &narrow_soc);
        let rn = schedule(&trace, &dp, &mut narrow, 0);
        let mut wide = CacheDatapathMemory::new(&trace, &dp, &wide_soc);
        let rw = schedule(&trace, &dp, &mut wide, 0);
        assert!(
            rw.end <= rn.end,
            "infinite bandwidth cannot be slower: {} vs {}",
            rw.end,
            rn.end
        );
    }

    #[test]
    fn traffic_contention_slows_the_run() {
        let trace = streaming_trace(512);
        let dp = DatapathConfig {
            lanes: 8,
            partition: 8,
            ..DatapathConfig::default()
        };
        let quiet = SocConfig::default();
        let noisy = SocConfig {
            traffic: Some(crate::TrafficConfig {
                period: 20,
                bytes: 64,
            }),
            ..quiet
        };
        let mut q = CacheDatapathMemory::new(&trace, &dp, &quiet);
        let rq = schedule(&trace, &dp, &mut q, 0);
        let mut n = CacheDatapathMemory::new(&trace, &dp, &noisy);
        let rn = schedule(&trace, &dp, &mut n, 0);
        assert!(
            rn.end > rq.end,
            "contention must cost time: {} vs {}",
            rn.end,
            rq.end
        );
    }

    /// The original allocate-per-cycle retry of TLB-delayed accesses, kept
    /// as the reference for the order `begin_cycle` must reproduce.
    struct ReferenceRetry(CacheDatapathMemory);

    impl DatapathMemory for ReferenceRetry {
        fn begin_cycle(&mut self, cycle: u64) {
            let c = &mut self.0.client;
            c.spad.begin_cycle(cycle);
            c.cache.begin_cycle(cycle);
            let (due, mut still): (Vec<Delayed>, Vec<Delayed>) =
                c.delayed.drain(..).partition(|d| d.ready_at <= cycle);
            for d in due {
                match c.cache_try(d.id, d.addr, d.write, cycle) {
                    IssueResult::Done { at } => c.completions.push((d.id, at)),
                    IssueResult::Pending => {}
                    IssueResult::Reject => still.push(Delayed {
                        ready_at: cycle + 1,
                        ..d
                    }),
                }
            }
            c.delayed = still;
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

    #[test]
    fn delayed_retry_order_matches_reference() {
        let trace = streaming_trace(4096);
        for (lanes, entries, ports, size) in [
            (8, 1, 1, 2048),
            (16, 2, 1, 2048),
            (4, 1, 2, 4096),
            (16, 1, 4, 8192),
        ] {
            let dp = DatapathConfig {
                lanes,
                partition: lanes,
                ..DatapathConfig::default()
            };
            let mut soc = SocConfig::default();
            soc.tlb.entries = entries;
            soc.cache.ports = ports;
            soc.cache.size_bytes = size;
            let mut mem = CacheDatapathMemory::new(&trace, &dp, &soc);
            let got = schedule(&trace, &dp, &mut mem, 0);
            let mut reference = ReferenceRetry(CacheDatapathMemory::new(&trace, &dp, &soc));
            let want = schedule(&trace, &dp, &mut reference, 0);
            let case = format!("lanes {lanes}, {entries} TLB entries, {ports} ports, {size} B");
            assert!(got == want, "{case}: ends {} vs {}", got.end, want.end);
            assert_eq!(mem.cache_stats(), reference.0.cache_stats(), "{case}");
            assert_eq!(mem.tlb_stats(), reference.0.tlb_stats(), "{case}");
        }
    }
}
