//! The traced run's span recorder: one span around each call the benchmark
//! makes into a layer, kept in memory and written out as JSONL at exit.
//!
//! A span has a name (`layer.call`), a start and end on the run's monotonic
//! clock, the span that encloses it and the churn round it belongs to.
//! Consecutive calls of one kind inside a round (the read phase's queries,
//! the per-change `set_link`s) share one span whose `calls` field counts
//! them.  The untraced passes use [`Tracer::off`], which never reads the
//! clock.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Round id of spans recorded outside the churn loop (set-up, warm-up).
pub const SETUP_ROUND: i64 = -1;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, or `round` for the harness span around one round.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Churn round, or [`SETUP_ROUND`].
    pub round: i64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the span covers.
    pub calls: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span is charged to: the name up to the first `.`
    /// (`harness` for the round span itself).
    pub fn layer(&self) -> &'static str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            None => "harness",
        }
    }
}

/// Records spans when on; does nothing (and reads no clock) when off.
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: i64,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
            round: SETUP_ROUND,
        }
    }

    pub fn on() -> Self {
        Tracer {
            origin: Some(Instant::now()),
            ..Tracer::off()
        }
    }

    /// Round id stamped on spans opened from now on.
    pub fn set_round(&mut self, round: i64) {
        self.round = round;
    }

    fn now_ns(origin: Instant) -> u64 {
        origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        let origin = self.origin?;
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            round: self.round,
            start_ns: Self::now_ns(origin),
            end_ns: 0,
            calls: 1,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: Option<usize>, calls: u64) {
        let (Some(origin), Some(id)) = (self.origin, id) else {
            return;
        };
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id];
        span.end_ns = Self::now_ns(origin);
        span.calls = calls;
    }

    /// Runs `f` inside a span covering `calls` calls.
    pub fn span<T>(&mut self, name: &'static str, calls: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id, calls);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the header line, then one JSON object per span with its
    /// self time.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, (s, self_ns)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"kind\":\"span\",\"id\":{id},\"parent\":{parent},\"round\":{},\
                 \"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"calls\":{},\"self_ns\":{self_ns}}}",
                s.round,
                s.name,
                s.layer(),
                s.start_ns,
                s.end_ns,
                s.calls
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover, where overlapping children count once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.dur_ns() - covered(s.start_ns, s.end_ns, &mut kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        run = match run {
            Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
            Some((ra, rb)) => {
                total += rb - ra;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + run.map_or(0, |(ra, rb)| rb - ra)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            round: 0,
            start_ns,
            end_ns,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span("round", None, 0, 100),
            span("engine.commit", Some(0), 10, 30),
            span("compact.apply", Some(0), 40, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 50]);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // Children [10,50) and [30,70) overlap on [30,50): together they
        // cover 60 ns, not 80.  A nested grandchild never counts against
        // the root.
        let spans = [
            span("round", None, 0, 100),
            span("net.inject", Some(0), 10, 50),
            span("net.wait_quiesce", Some(0), 30, 70),
            span("net.poll", Some(2), 40, 45),
            span("net.inject", Some(0), 60, 65),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 35, 5, 5]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span("round", None, 10, 20),
            span("asim.drain", Some(0), 5, 15),
        ];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn tracer_nests_spans_and_off_records_nothing() {
        let mut tr = Tracer::on();
        tr.set_round(3);
        let root = tr.open("round");
        let v = tr.span("engine.commit", 1, || 7);
        tr.span("net.set_link", 4, || ());
        tr.close(root, 1);
        assert_eq!(v, 7);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert_eq!((s[0].round, s[2].calls), (3, 4));
        assert_eq!((s[0].layer(), s[1].layer()), ("harness", "engine"));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);

        let mut off = Tracer::off();
        let id = off.open("round");
        assert_eq!(off.span("engine.commit", 1, || 5), 5);
        off.close(id, 1);
        assert!(off.spans().is_empty());
    }
}
