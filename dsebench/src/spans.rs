//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions — the program itself is not instrumented.
//! A span has a name, a start, an end and the span that was open when it
//! began; spans stay in memory and are written out once the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `accel.prepare`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times calls and, when enabled, records each one as a [`Span`].
///
/// A disabled recorder still times (callers derive paired metrics from
/// the returned durations) but keeps nothing, so comparing a disabled and
/// an enabled replay of the same calls measures the recording overhead.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that keeps spans when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span called `name`; returns its value and its
    /// wall time in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let start_ns = self.now_ns();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let value = f(self);
        let end_ns = self.now_ns();
        if let Some(i) = index {
            self.spans[i].end_ns = end_ns;
            self.open.pop();
        }
        (value, (end_ns - start_ns) as f64 / 1e9)
    }

    /// The spans recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span, after a `header` line, to `path`.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be written.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Spans come from one thread, so siblings never overlap.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Whether `name` belongs to one of the program's layers (the workspace
/// crates), as opposed to the benchmark's own glue spans.
#[must_use]
pub fn is_layer(name: &str) -> bool {
    const LAYERS: [&str; 7] = [
        "workloads.",
        "ir.",
        "accel.",
        "mem.",
        "core.",
        "dse.",
        "spec.",
    ];
    LAYERS.iter().any(|l| name.starts_with(l))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("replay", 0, 100, None),
            span("point", 10, 60, Some(0)),
            span("accel.schedule", 12, 30, Some(1)),
            span("core.flow.dma", 30, 55, Some(1)),
            span("workloads.trace", 70, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 7, 18, 25, 20]);
    }

    #[test]
    fn recorder_nests_spans_and_returns_durations() {
        let mut rec = Recorder::new(true);
        let (v, outer) = rec.span("point", |rec| {
            let (x, inner) = rec.span("core.flow.cache", |_| 21);
            assert!(inner >= 0.0);
            x * 2
        });
        assert_eq!(v, 42);
        assert!(outer >= 0.0);
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("point", None));
        assert_eq!((s[1].name, s[1].parent), ("core.flow.cache", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let (v, secs) = rec.span("point", |rec| rec.span("dse.cache.lookup", |_| 1).0);
        assert_eq!(v, 1);
        assert!(secs >= 0.0);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn layer_names() {
        assert!(is_layer("accel.prepare"));
        assert!(is_layer("core.multi.mesh"));
        assert!(!is_layer("point"));
        assert!(!is_layer("replay"));
    }
}
