//! The result line the benchmark prints: operation counts plus metrics.

use r2d2_trace::json::{self, Value};

/// Failures kept verbatim for the stderr log; the rest are only counted.
const KEPT_ERRORS: usize = 20;

/// What one run attempted, how much of it failed, and what it measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (job runs, submissions, decompositions).
    pub attempted: u64,
    /// Operations that errored or produced a wrong result.
    pub failed: u64,
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
}

impl Report {
    /// Count one operation, failed when `outcome` is an error.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(e);
        }
    }

    /// Record a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// A recorded metric's value.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Whether every operation succeeded (and at least one ran).
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    json::obj(vec![("value", json::num(*value)), ("unit", json::s(unit))]),
                )
            })
            .collect();
        json::obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", json::int(self.attempted)),
            ("failed", json::int(self.failed)),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_json()
    }
}

/// The end-to-end metrics of one run, each already reduced over the run's
/// samples by the workload's module ([`crate::sweep`], [`crate::serve`]).
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Median duration in s of the user's one-time set-up.
    pub setup_s: f64,
    /// Answered jobs per host second.
    pub jobs_per_s: f64,
    /// Geomean over jobs of simulated cycles per host second.
    pub sim_cycles_per_s: f64,
    /// Fresh (simulated) job latency percentiles in ms.
    pub fresh_p50_ms: f64,
    /// See `fresh_p50_ms`.
    pub fresh_p90_ms: f64,
    /// Cache-hit latency percentiles in ms.
    pub hit_p50_ms: f64,
    /// See `hit_p50_ms`.
    pub hit_p95_ms: f64,
}

impl EndToEnd {
    /// Emit every end-to-end metric, with the process's peak heap, into
    /// `report`.
    pub fn emit(&self, report: &mut Report) {
        report.metric("setup_s", self.setup_s, "s");
        report.metric("jobs_per_s", self.jobs_per_s, "1/s");
        report.metric("sim_cycles_per_s", self.sim_cycles_per_s, "1/s");
        report.metric("peak_heap_mb", crate::heap::peak_mb(), "MiB");
        report.metric("fresh_p50_ms", self.fresh_p50_ms, "ms");
        report.metric("fresh_p90_ms", self.fresh_p90_ms, "ms");
        report.metric("hit_p50_ms", self.hit_p50_ms, "ms");
        report.metric("hit_p95_ms", self.hit_p95_ms, "ms");
    }
}
