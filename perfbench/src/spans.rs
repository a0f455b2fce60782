//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span has a name (`<layer>.<what>`, the layer being the crate the call
//! enters), a start and end relative to a shared origin, the span that
//! encloses it, the job it served and the thread that ran it. Spans stay in
//! memory while the benchmark runs and are written once, at the end, as
//! Chrome `trace_event` JSON through `r2d2_trace`'s JSON layer.

use std::time::Instant;

use r2d2_trace::json::{self, Value};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: String,
    /// Nanoseconds from the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The job (or request) the call served.
    pub job: u64,
    /// The benchmark thread that made the call.
    pub tid: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A span recorder for one thread; recorders of several threads [`merge`].
///
/// [`merge`]: Spans::merge
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    tid: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder for thread `tid`, timing from `origin`.
    pub fn new(origin: Instant, tid: u64) -> Spans {
        Spans {
            origin,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span inside the innermost open one.
    pub fn begin(&mut self, name: &str, job: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job,
            tid: self.tid,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as span `name`.
    pub fn time<R>(&mut self, name: &str, job: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, job);
        let out = f();
        self.end(id);
        out
    }

    /// Append another thread's spans (recorded against the same origin).
    pub fn merge(&mut self, other: Spans) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Each span's self time in ms: its duration minus the part of it that
    /// its child spans cover (children of one parent never overlap).
    pub fn self_ms(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.ms();
            }
        }
        out
    }

    /// Summed self time of the spans called `name`.
    pub fn self_total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_ms())
            .filter(|(s, _)| s.name == name)
            .fold(0.0, |acc, (_, ms)| acc + ms)
    }

    /// Summed duration of the spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.ms())
    }

    /// Durations of the spans called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Summed duration of the direct children of spans called `parent`.
    pub fn children_total_ms(&self, parent: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == parent))
            .fold(0.0, |acc, s| acc + s.ms())
    }

    /// Chrome `trace_event` JSON: one complete (`"ph": "X"`) event per span,
    /// categorised by layer, with the job, parent and self time as args.
    pub fn to_chrome(&self) -> Value {
        let events = self
            .spans
            .iter()
            .zip(self.self_ms())
            .map(|(s, self_ms)| {
                let layer = s.name.split('.').next().unwrap_or(&s.name);
                json::obj(vec![
                    ("name", json::s(&s.name)),
                    ("cat", json::s(layer)),
                    ("ph", json::s("X")),
                    ("ts", json::num(s.start_ns as f64 / 1e3)),
                    ("dur", json::num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", json::int(1)),
                    ("tid", json::int(s.tid)),
                    (
                        "args",
                        json::obj(vec![
                            ("job", json::int(s.job)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| json::int(p as u64)),
                            ),
                            ("self_ms", json::num(self_ms)),
                        ]),
                    ),
                ])
            })
            .collect();
        json::obj(vec![
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", json::s("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(Instant::now(), 0);
        let outer = spans.begin("job", 1);
        spans.time("sim.timing.baseline", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.end(outer);
        let selfs = spans.self_ms();
        let all = &spans.spans;
        assert!((selfs[0] + all[1].ms() - all[0].ms()).abs() < 1e-9);
        assert_eq!(all[1].parent, Some(0));
        assert!(spans.children_total_ms("job") >= 2.0);
        let chrome = spans.to_chrome().to_json();
        assert!(chrome.contains("\"cat\":\"sim\""), "{chrome}");
    }
}
