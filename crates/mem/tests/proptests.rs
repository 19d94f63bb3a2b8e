//! Property-style tests of the memory substrate, driven by the in-tree
//! deterministic [`aladdin_rng::SmallRng`] (the workspace builds with no
//! crate registry, so `proptest` is unavailable). Each test replays many
//! seeded random stimulus sequences and asserts the invariant for each.

use aladdin_faults::{salt, FaultInjector, FaultSpec};
use aladdin_mem::{
    AccessKind, BusConfig, Cache, CacheConfig, CacheOutcome, DramConfig, IntervalSet, MasterId,
    PrefetcherConfig, SystemBus, Tlb, TlbConfig, TlbStats,
};
use aladdin_rng::SmallRng;
use std::collections::{HashMap, HashSet};

/// IntervalSet agrees with a naive bitset model.
#[test]
fn interval_set_matches_bitset() {
    for case in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(0xA001 + case);
        let n = rng.gen_range(0..40usize);
        let ranges: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(0..200u64), rng.gen_range(0..60u64)))
            .collect();
        let mut set = IntervalSet::new();
        let mut bits = vec![false; 300];
        for &(start, len) in &ranges {
            set.push(start, start + len);
            for b in bits
                .iter_mut()
                .take((start + len) as usize)
                .skip(start as usize)
            {
                *b = true;
            }
        }
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(set.contains(i as u64), b, "cycle {i}");
        }
        assert_eq!(set.total(), bits.iter().filter(|&&b| b).count() as u64);
        // Normalized intervals are sorted and disjoint.
        for w in set.as_slice().windows(2) {
            assert!(w[0].1 < w[1].0);
        }
    }
}

/// Sort-and-merge normalization, the reference `IntervalSet::push` must
/// agree with: append, sort everything, merge overlapping or touching runs.
fn sort_and_merge(ivals: &mut Vec<(u64, u64)>, start: u64, end: u64) {
    if end <= start {
        return;
    }
    ivals.push((start, end));
    ivals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(ivals.len());
    for &(s, e) in ivals.iter() {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    *ivals = merged;
}

/// IntervalSet agrees with the sort-and-merge oracle after every push of
/// mixed in-order, out-of-order, overlapping, touching, empty and inverted
/// intervals.
#[test]
fn interval_set_matches_sort_and_merge_oracle() {
    for case in 0..1_000u64 {
        let mut rng = SmallRng::seed_from_u64(0xA101 + case);
        let n = rng.gen_range(1..80usize);
        let mut set = IntervalSet::new();
        let mut oracle: Vec<(u64, u64)> = Vec::new();
        let mut cursor = 0u64;
        for _ in 0..n {
            let (start, end) = match rng.gen_range(0..6u32) {
                // In order, after a gap or touching the previous end.
                0 => {
                    let s = cursor + rng.gen_range(0..4u64);
                    (s, s + rng.gen_range(1..12u64))
                }
                // Touching: starts exactly where the last one ended.
                1 => (cursor, cursor + rng.gen_range(1..6u64)),
                // Overlapping the tail.
                2 => {
                    let s = cursor.saturating_sub(rng.gen_range(0..10u64));
                    (s, s + rng.gen_range(1..20u64))
                }
                // Anywhere, usually out of order.
                3 => {
                    let s = rng.gen_range(0..cursor + 50);
                    (s, s + rng.gen_range(1..30u64))
                }
                // Empty.
                4 => {
                    let s = rng.gen_range(0..cursor + 10);
                    (s, s)
                }
                // Inverted.
                _ => {
                    let s = rng.gen_range(1..cursor + 10);
                    (s, s - rng.gen_range(1..=s))
                }
            };
            set.push(start, end);
            sort_and_merge(&mut oracle, start, end);
            assert_eq!(
                set.as_slice(),
                oracle.as_slice(),
                "case {case} after push [{start}, {end})"
            );
            cursor = cursor.max(end);
        }
    }
}

/// A million in-order pushes — disjoint, touching and overlapping the
/// last interval — build the expected set.
#[test]
fn interval_set_million_in_order_pushes() {
    let mut set = IntervalSet::new();
    for i in 0..1_000_000u64 {
        let s = 10 * i;
        match i % 4 {
            0 => set.push(s, s + 3),
            1 => set.push(s - 7, s + 2), // touches the previous end: merges
            2 => set.push(s - 9, s - 8), // inside the previous interval
            _ => set.push(s + 1, s + 4),
        }
    }
    // Each group of four pushes yields [40k, 40k+12) and [40k+31, 40k+34).
    assert_eq!(set.as_slice().len(), 500_000);
    assert_eq!(set.as_slice()[0], (0, 12));
    assert_eq!(set.as_slice()[1], (31, 34));
    assert_eq!(set.total(), 250_000 * (12 + 3));
    assert_eq!(set.end(), 9_999_994);
    for w in set.as_slice().windows(2) {
        assert!(w[0].1 < w[1].0);
    }
}

/// A naive fully-associative LRU TLB keyed by last-use time.
struct ReferenceTlb {
    cfg: TlbConfig,
    last_use: HashMap<u64, u64>,
    clock: u64,
    stats: TlbStats,
    faults: Option<FaultInjector>,
}

impl ReferenceTlb {
    fn translate(&mut self, addr: u64, cycle: u64) -> u64 {
        let page = addr / self.cfg.page_bytes;
        self.clock += 1;
        if self.last_use.insert(page, self.clock).is_some() {
            self.stats.hits += 1;
            return cycle;
        }
        if self.last_use.len() > self.cfg.entries {
            let lru = *self
                .last_use
                .iter()
                .min_by_key(|&(_, &t)| t)
                .map(|(p, _)| p)
                .unwrap();
            self.last_use.remove(&lru);
        }
        self.stats.misses += 1;
        let walk = self.faults.as_mut().map_or(0, FaultInjector::extra_cycles);
        cycle + self.cfg.miss_cycles + walk
    }
}

/// `Tlb::translate` (with its most-recently-used fast path) agrees call by
/// call with the reference TLB on random page streams with repeated-page
/// runs, with and without page-fault walks armed.
#[test]
fn tlb_matches_reference_model() {
    for case in 0..600u64 {
        let mut rng = SmallRng::seed_from_u64(0xD104 + case);
        let cfg = TlbConfig {
            entries: [1, 2, 8][(case % 3) as usize],
            ..TlbConfig::default()
        };
        let faults = (case % 2 == 1).then(|| {
            let spec = FaultSpec {
                rate: 0.3,
                max_extra: 40,
            };
            FaultInjector::new(spec, case, salt::TLB)
        });
        let mut tlb = Tlb::new(cfg);
        tlb.set_faults(faults.clone());
        let mut reference = ReferenceTlb {
            cfg,
            last_use: HashMap::new(),
            clock: 0,
            stats: TlbStats::default(),
            faults,
        };
        let pages = rng.gen_range(1..24u64);
        let mut cycle = 0u64;
        for _ in 0..rng.gen_range(1..60usize) {
            let page = rng.gen_range(0..pages);
            for _ in 0..rng.gen_range(1..6u32) {
                let addr = page * cfg.page_bytes + rng.gen_range(0..cfg.page_bytes);
                cycle += rng.gen_range(0..3u64);
                assert_eq!(
                    tlb.translate(addr, cycle),
                    reference.translate(addr, cycle),
                    "case {case}, page {page}, cycle {cycle}"
                );
            }
        }
        assert_eq!(tlb.stats(), reference.stats, "case {case}");
    }
}

/// Every bus request completes exactly once, and never faster than the
/// wire-speed bound.
#[test]
fn bus_conserves_requests() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0xB002 + case);
        let n = rng.gen_range(1..60usize);
        let reqs: Vec<(u64, u32, bool, u8)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..1_000_000u64),
                    rng.gen_range(1..256u32),
                    rng.gen::<bool>(),
                    rng.gen_range(0..4u32) as u8,
                )
            })
            .collect();
        let mut bus = SystemBus::new(BusConfig::default(), DramConfig::default());
        let mut tokens = HashSet::new();
        let mut total_bytes = 0u64;
        for &(addr, bytes, write, master) in &reqs {
            tokens.insert(bus.request(MasterId(master), addr, bytes, write));
            total_bytes += u64::from(bytes);
        }
        let mut done = HashSet::new();
        let mut last = 0;
        for cycle in 0..2_000_000u64 {
            bus.tick(cycle);
            for c in bus.drain_completions() {
                assert!(done.insert(c.token), "token {} completed twice", c.token);
                assert!(tokens.contains(&c.token));
                last = last.max(c.at);
            }
            if bus.is_idle() {
                break;
            }
        }
        assert_eq!(done.len(), tokens.len(), "all requests complete");
        // Wire-speed lower bound: total bytes / bytes-per-cycle.
        assert!(last >= total_bytes / bus.bytes_per_cycle());
        assert_eq!(bus.stats().bytes, total_bytes);
    }
}

/// The cache never exceeds its port budget per cycle, never loses an
/// access, and its hit/miss counters are conserved.
#[test]
fn cache_conserves_accesses() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0xC003 + case);
        let n = rng.gen_range(1..300usize);
        let addrs: Vec<(u64, bool)> = (0..n)
            .map(|_| (rng.gen_range(0..4096u64), rng.gen::<bool>()))
            .collect();
        let ports = rng.gen_range(1..4u32);
        let cfg = CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
            assoc: 2,
            ports,
            mshrs: 4,
            hit_latency: 1,
            write_policy: aladdin_mem::WritePolicy::WriteBack,
            prefetch: PrefetcherConfig {
                enabled: false,
                ..PrefetcherConfig::default()
            },
        };
        let mut cache = Cache::new(cfg);
        let mut completed = HashSet::new();
        let mut issued = 0u64;
        let mut queue: Vec<(u64, u64, bool)> = addrs
            .iter()
            .enumerate()
            .map(|(i, &(a, w))| (i as u64, a, w))
            .collect();
        queue.reverse();
        let mut inflight: Vec<(u64, u64)> = Vec::new(); // (token, line)
        for cycle in 0..100_000u64 {
            cache.begin_cycle(cycle);
            // Model an infinitely fast bus: complete fills next cycle.
            for (id, at) in cache.drain_completions() {
                assert!(completed.insert(id));
                assert!(at >= cycle);
            }
            for (_, line) in inflight.drain(..) {
                cache.bus_completed(line, cycle);
            }
            let mut used = 0;
            while let Some(&(id, addr, write)) = queue.last() {
                let kind = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                match cache.access(id, addr, kind, cycle) {
                    CacheOutcome::Hit { .. } => {
                        assert!(completed.insert(id));
                        queue.pop();
                        used += 1;
                        issued += 1;
                    }
                    CacheOutcome::Miss => {
                        queue.pop();
                        used += 1;
                        issued += 1;
                    }
                    CacheOutcome::NoPort | CacheOutcome::NoMshr => break,
                }
                assert!(used <= ports, "port budget violated");
            }
            for req in cache.take_bus_requests() {
                if !req.write {
                    inflight.push((0, req.line_addr));
                }
            }
            if queue.is_empty() && cache.outstanding_misses() == 0 && inflight.is_empty() {
                // Final drain.
                for (id, _) in cache.drain_completions() {
                    assert!(completed.insert(id));
                }
                break;
            }
        }
        assert_eq!(completed.len(), addrs.len(), "every access completes once");
        assert_eq!(issued, addrs.len() as u64);
        let s = cache.stats();
        assert_eq!(s.accesses(), addrs.len() as u64);
    }
}

/// TLB: hits + misses equals translations; a second touch of the same
/// page with no intervening pressure is always a hit.
#[test]
fn tlb_counters_conserved() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0xD004 + case);
        let n = rng.gen_range(1..200usize);
        let pages: Vec<u64> = (0..n).map(|_| rng.gen_range(0..32u64)).collect();
        let mut tlb = Tlb::new(TlbConfig::default());
        for (i, &p) in pages.iter().enumerate() {
            let at = tlb.translate(p * 4096, i as u64);
            assert!(at == i as u64 || at == i as u64 + 20);
            let again = tlb.translate(p * 4096, i as u64);
            assert_eq!(again, i as u64, "immediate re-touch must hit");
        }
        let s = tlb.stats();
        assert_eq!(s.hits + s.misses, 2 * pages.len() as u64);
    }
}

/// Cache line state after a write is always dirty; after snooping a
/// shared read it is never Modified/Exclusive.
#[test]
fn moesi_transitions() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0xE005 + case);
        let n = rng.gen_range(1..50usize);
        let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..2048u64)).collect();
        let mut cache = Cache::new(CacheConfig {
            prefetch: PrefetcherConfig {
                enabled: false,
                ..PrefetcherConfig::default()
            },
            ..CacheConfig::default()
        });
        for (i, &addr) in addrs.iter().enumerate() {
            let cycle = i as u64;
            cache.begin_cycle(cycle);
            let _ = cache.access(i as u64, addr, AccessKind::Write, cycle);
            for req in cache.take_bus_requests() {
                if !req.write {
                    cache.bus_completed(req.line_addr, cycle);
                }
            }
            let _ = cache.drain_completions();
            if cache.contains(addr) {
                assert!(cache.state_of(addr).is_dirty());
                cache.snoop_shared(addr);
                let st = cache.state_of(addr);
                assert!(
                    st == aladdin_mem::MoesiState::Owned || st == aladdin_mem::MoesiState::Shared
                );
            }
        }
    }
}

/// The DMA engine moves exactly the requested bytes, delivers every
/// input byte exactly once, and cannot beat the bus's wire speed.
#[test]
fn dma_engine_conserves_bytes() {
    use aladdin_mem::{DmaConfig, DmaDirection, DmaEngine, DmaTransfer};
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xF006 + case);
        let n = rng.gen_range(1..6usize);
        let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..6000u64)).collect();
        let pipelined = rng.gen::<bool>();
        let elig_gap = rng.gen_range(0..500u64);
        let cfg = DmaConfig {
            pipelined,
            ..DmaConfig::default()
        };
        let transfers: Vec<DmaTransfer> = sizes
            .iter()
            .enumerate()
            .map(|(i, &bytes)| DmaTransfer {
                base: i as u64 * 0x10000,
                bytes,
                direction: DmaDirection::In,
            })
            .collect();
        let chunks = cfg.chunk_sizes(&transfers);
        let eligibility: Vec<u64> = (0..chunks.len() as u64).map(|k| k * elig_gap).collect();
        let mut engine = DmaEngine::new(cfg, &transfers, &eligibility);
        let mut bus = SystemBus::new(BusConfig::default(), DramConfig::default());
        let mut cycle = 0u64;
        while !engine.is_done() {
            engine.tick(cycle, &mut bus);
            bus.tick(cycle);
            for c in bus.drain_completions() {
                engine.on_bus_completion(c.token, c.at);
            }
            cycle += 1;
            assert!(cycle < 3_000_000, "engine never finished");
        }
        let total: u64 = sizes.iter().sum();
        assert_eq!(engine.stats().bytes, total);
        // Arrivals tile each transfer exactly.
        let mut arrivals = engine.drain_arrivals();
        arrivals.sort_by_key(|a| a.addr);
        for t in &transfers {
            let mut covered = 0u64;
            let mut next = t.base;
            for a in arrivals
                .iter()
                .filter(|a| a.addr >= t.base && a.addr < t.base + t.bytes)
            {
                assert_eq!(a.addr, next, "gap or overlap in arrivals");
                next += u64::from(a.bytes);
                covered += u64::from(a.bytes);
            }
            assert_eq!(covered, t.bytes);
        }
        // Wire-speed bound.
        let done = engine.done_at().unwrap();
        assert!(done >= total / bus.bytes_per_cycle());
    }
}

/// Flush schedules are monotone, cumulative, and their busy interval
/// covers exactly start..end.
#[test]
fn flush_schedule_is_cumulative() {
    use aladdin_mem::{Clock, FlushConfig, FlushSchedule};
    for case in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(0xF007 + case);
        let n = rng.gen_range(0..12usize);
        let chunks: Vec<u64> = (0..n).map(|_| rng.gen_range(1..10_000u64)).collect();
        let inval = rng.gen_range(0..20_000u64);
        let start = rng.gen_range(0..1000u64);
        let cfg = FlushConfig::default();
        let clock = Clock::default();
        let s = FlushSchedule::new(cfg, clock, start, &chunks, inval);
        let mut prev = start;
        for (k, &bytes) in chunks.iter().enumerate() {
            let done = s.chunk_done(k);
            assert_eq!(done - prev, cfg.flush_cycles(clock, bytes));
            assert!(done >= prev);
            prev = done;
        }
        assert_eq!(s.flush_end(), prev);
        assert_eq!(s.end(), prev + cfg.invalidate_cycles(clock, inval));
        if s.end() > start {
            assert_eq!(s.busy().total(), s.end() - start);
        } else {
            assert!(s.busy().is_empty());
        }
    }
}
