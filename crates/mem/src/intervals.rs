//! Half-open busy-interval sets used for runtime phase attribution.

/// A set of half-open `[start, end)` cycle intervals.
///
/// Components (DMA engine, flush schedule, datapath) record when they are
/// busy; the SoC flows classify every cycle of a run into the paper's four
/// phases (flush-only, DMA/flush, compute/DMA, compute-only) by intersecting
/// these sets (Section IV-C).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    /// Normalized (sorted, disjoint, non-empty) intervals.
    ivals: Vec<(u64, u64)>,
}

impl IntervalSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        IntervalSet::default()
    }

    /// Add `[start, end)`. Empty or inverted intervals are ignored.
    ///
    /// In-order pushes (starting at or after the last interval's start, as
    /// every simulator component records them) append or extend the last
    /// interval in O(1); an out-of-order push merges in place with two
    /// binary searches and one splice.
    pub fn push(&mut self, start: u64, end: u64) {
        if end <= start {
            return;
        }
        match self.ivals.last_mut() {
            Some(last) if (last.0..=last.1).contains(&start) => last.1 = last.1.max(end),
            Some(last) if start < last.0 => {
                // Merge with every interval in `lo..hi`: those that overlap
                // or touch `[start, end)`.
                let lo = self.ivals.partition_point(|&(_, e)| e < start);
                let hi = self.ivals.partition_point(|&(s, _)| s <= end);
                let merged = self.ivals[lo..hi]
                    .iter()
                    .fold((start, end), |(s, e), &(a, b)| (s.min(a), e.max(b)));
                self.ivals.splice(lo..hi, [merged]);
            }
            _ => self.ivals.push((start, end)),
        }
    }

    /// Whether `cycle` is covered.
    #[must_use]
    pub fn contains(&self, cycle: u64) -> bool {
        self.ivals
            .binary_search_by(|&(s, e)| {
                if cycle < s {
                    std::cmp::Ordering::Greater
                } else if cycle >= e {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Total number of covered cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.ivals.iter().map(|&(s, e)| e - s).sum()
    }

    /// Number of covered cycles within `[start, end)`.
    #[must_use]
    pub fn total_in(&self, start: u64, end: u64) -> u64 {
        self.ivals
            .iter()
            .map(|&(s, e)| e.min(end).saturating_sub(s.max(start)))
            .sum()
    }

    /// Largest covered cycle + 1, or 0 if empty.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.ivals.last().map_or(0, |&(_, e)| e)
    }

    /// Smallest covered cycle, or `None` if empty.
    #[must_use]
    pub fn start(&self) -> Option<u64> {
        self.ivals.first().map(|&(s, _)| s)
    }

    /// Whether the set covers nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ivals.is_empty()
    }

    /// The normalized intervals.
    #[must_use]
    pub fn as_slice(&self) -> &[(u64, u64)] {
        &self.ivals
    }

    /// Iterator over maximal runs of cycles in `[0, end)` classified by a
    /// predicate triple `(a, b, c)` — used by phase attribution. Yields
    /// `(run_start, run_end, (in_a, in_b, in_c))`.
    pub fn classify_runs<'a>(
        sets: [&'a IntervalSet; 3],
        end: u64,
    ) -> impl Iterator<Item = (u64, u64, (bool, bool, bool))> + 'a {
        // Collect all boundaries; between consecutive boundaries membership
        // is constant.
        let mut bounds: Vec<u64> = vec![0, end];
        for s in sets {
            for &(a, b) in &s.ivals {
                if a < end {
                    bounds.push(a);
                }
                if b < end {
                    bounds.push(b);
                }
            }
        }
        bounds.sort_unstable();
        bounds.dedup();
        bounds
            .windows(2)
            .map(|w| (w[0], w[1]))
            .filter(|&(a, b)| b > a)
            .map(move |(a, b)| {
                (
                    a,
                    b,
                    (
                        sets[0].contains(a),
                        sets[1].contains(a),
                        sets[2].contains(a),
                    ),
                )
            })
            .collect::<Vec<_>>()
            .into_iter()
    }
}

impl FromIterator<(u64, u64)> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = (u64, u64)>>(iter: I) -> Self {
        let mut s = IntervalSet::new();
        s.extend(iter);
        s
    }
}

impl Extend<(u64, u64)> for IntervalSet {
    fn extend<I: IntoIterator<Item = (u64, u64)>>(&mut self, iter: I) {
        for (start, end) in iter {
            self.push(start, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_merges_overlaps() {
        let mut s = IntervalSet::new();
        s.push(10, 20);
        s.push(15, 25);
        s.push(30, 40);
        assert_eq!(s.as_slice(), &[(10, 25), (30, 40)]);
        assert_eq!(s.total(), 25);
    }

    #[test]
    fn adjacent_intervals_merge() {
        let mut s = IntervalSet::new();
        s.push(0, 5);
        s.push(5, 10);
        assert_eq!(s.as_slice(), &[(0, 10)]);
    }

    #[test]
    fn empty_interval_ignored() {
        let mut s = IntervalSet::new();
        s.push(5, 5);
        s.push(7, 3);
        assert!(s.is_empty());
        assert_eq!(s.end(), 0);
        assert_eq!(s.start(), None);
    }

    #[test]
    fn contains_boundaries() {
        let s: IntervalSet = [(10, 20)].into_iter().collect();
        assert!(!s.contains(9));
        assert!(s.contains(10));
        assert!(s.contains(19));
        assert!(!s.contains(20));
    }

    #[test]
    fn total_in_window() {
        let s: IntervalSet = [(0, 10), (20, 30)].into_iter().collect();
        assert_eq!(s.total_in(5, 25), 10);
        assert_eq!(s.total_in(10, 20), 0);
        assert_eq!(s.total_in(0, 100), 20);
    }

    #[test]
    fn classify_runs_partitions_time() {
        let a: IntervalSet = [(0, 10)].into_iter().collect();
        let b: IntervalSet = [(5, 15)].into_iter().collect();
        let c: IntervalSet = [(12, 20)].into_iter().collect();
        let runs: Vec<_> = IntervalSet::classify_runs([&a, &b, &c], 20).collect();
        // Runs must tile [0, 20) exactly.
        assert_eq!(runs.first().unwrap().0, 0);
        assert_eq!(runs.last().unwrap().1, 20);
        for w in runs.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        // Membership checks at sample points.
        let at = |cycle: u64| runs.iter().find(|r| r.0 <= cycle && cycle < r.1).unwrap().2;
        assert_eq!(at(3), (true, false, false));
        assert_eq!(at(7), (true, true, false));
        assert_eq!(at(11), (false, true, false));
        assert_eq!(at(13), (false, true, true));
        assert_eq!(at(17), (false, false, true));
    }

    #[test]
    fn extend_and_collect() {
        let mut s: IntervalSet = [(1, 3)].into_iter().collect();
        s.extend([(2, 6), (8, 9)]);
        assert_eq!(s.as_slice(), &[(1, 6), (8, 9)]);
    }
}
