//! The batch-sweep workload (`fig13_small`).
//!
//! A pass is what `r2d2 sweep run <set> --no-cache --jobs 1` does: one
//! sequential loop of `Executor::run` over the set, cache reads off and
//! writes on, into a fresh cache. Right after each job the pass runs it
//! once more with reads on, which rewrites the new entry with
//! `cached = true`. The pass ends with what regenerating a figure from
//! cached results costs: a warm re-run of the whole set, in which every
//! `Executor::run` only loads its entry. A run makes a fixed number of
//! passes, so two commits always measure the same work.

use std::path::PathBuf;
use std::time::Instant;

use r2d2_harness::{Cache, Executor, JobSpec};
use r2d2_sym::Rng;

use crate::decompose::trace_jobs;
use crate::digest::Expected;
use crate::report::{EndToEnd, Report};
use crate::sets::{dedup, shuffle};
use crate::spans::Spans;
use crate::stats::{geomean, median, percentile, ratio};
use crate::workdir::Workdir;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;

/// One sweep workload's inputs.
pub struct Sweep<'a> {
    /// Builds the spec set (timed as part of set-up).
    pub specs: &'a dyn Fn() -> Vec<JobSpec>,
    /// The recorded digests every result is checked against.
    pub expected: &'a Expected,
    /// Seeds the job order.
    pub seed: u64,
    /// Passes to measure (at least one).
    pub passes: usize,
}

/// A spec set and the cache it runs into.
struct Prepared {
    specs: Vec<JobSpec>,
    cache: Cache,
}

/// The user's one-time work, as `r2d2 sweep run` does it: build the spec
/// set, drop duplicate cache keys, and open a cache (in a fresh directory
/// the first store creates).
fn prepare(specs: &dyn Fn() -> Vec<JobSpec>, dir: PathBuf) -> Prepared {
    Prepared {
        specs: dedup(specs()),
        cache: Cache::at(&dir),
    }
}

/// One set-up, its time pushed onto `setup_s`.
fn timed_setup(sw: &Sweep, work: &Workdir, setup_s: &mut Vec<f64>) -> Prepared {
    let dir = work.fresh();
    let t0 = Instant::now();
    let p = prepare(sw.specs, dir);
    setup_s.push(t0.elapsed().as_secs_f64());
    p
}

/// The untraced run: end-to-end metrics.
///
/// Every job runs once per pass, in a new seeded order each pass, and the
/// pass ends with a warm re-run that loads every entry once. A job's (or
/// entry's) time is the fastest of its passes, so one the host disturbed
/// in some passes moves nothing; the fresh and hit percentiles are taken
/// over those per-job times. Set-ups are spread between the jobs of all
/// passes, so they sample the host over the whole run as the jobs do.
pub fn run(sw: &Sweep, work: &Workdir) -> Report {
    let mut report = Report::default();
    let mut rng = Rng::new(sw.seed);
    let passes = sw.passes.max(1);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut job_ms: Vec<Vec<f64>> = Vec::new();
    let mut cycles: Vec<u64> = Vec::new();
    let mut hit_ms: Vec<Vec<f64>> = Vec::new();
    let extra_setups = SETUP_REPS.saturating_sub(passes).div_ceil(passes);
    for _ in 0..passes {
        let p = timed_setup(sw, work, &mut setup_s);
        let n = p.specs.len();
        job_ms.resize(n, Vec::new());
        hit_ms.resize(n, Vec::new());
        cycles.resize(n, 0);
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(&mut order, &mut rng);
        let cold = Executor::new(&p.cache).use_cache(false);
        let warm = Executor::new(&p.cache);
        for (k, &j) in order.iter().enumerate() {
            let spec = &p.specs[j];
            let t0 = Instant::now();
            let out = cold.run(spec);
            let secs = t0.elapsed().as_secs_f64();
            report.op(out.and_then(|rec| {
                sw.expected.check(spec, &rec)?;
                job_ms[j].push(secs * 1e3);
                cycles[j] = rec.stats.cycles;
                Ok(())
            }));
            // The first hit flags the new entry `cached`, so the timed warm
            // re-run below only loads, as every later re-run does.
            report.op(warm_hit(&warm, spec, sw.expected).map(drop));
            if spread_after(k, n, extra_setups) && setup_s.len() < SETUP_REPS {
                timed_setup(sw, work, &mut setup_s);
            }
        }
        // A warm re-run of the set, in a new order: every entry loads once.
        shuffle(&mut order, &mut rng);
        for &j in &order {
            let out = warm_hit(&warm, &p.specs[j], sw.expected);
            report.op(out.map(|ms| hit_ms[j].push(ms)));
        }
    }
    while setup_s.len() < SETUP_REPS {
        timed_setup(sw, work, &mut setup_s);
    }
    // A job's (or entry's) time is its fastest pass: the run least
    // disturbed by the host.
    let fastest = |xs: &Vec<f64>| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let (best_ms, rates): (Vec<f64>, Vec<f64>) = job_ms
        .iter()
        .zip(&cycles)
        .filter(|(xs, _)| !xs.is_empty())
        .map(|(xs, &c)| (fastest(xs), c as f64 / (fastest(xs) / 1e3)))
        .unzip();
    let best_hit_ms: Vec<f64> = hit_ms
        .iter()
        .filter(|xs| !xs.is_empty())
        .map(fastest)
        .collect();
    EndToEnd {
        setup_s: median(&setup_s),
        jobs_per_s: ratio(best_ms.len() as f64, best_ms.iter().sum::<f64>() / 1e3),
        sim_cycles_per_s: geomean(&rates),
        fresh_p50_ms: median(&best_ms),
        fresh_p90_ms: percentile(&best_ms, 90.0),
        hit_p50_ms: median(&best_hit_ms),
        hit_p95_ms: percentile(&best_hit_ms, 95.0),
    }
    .emit(&mut report);
    report
}

/// Whether the `k`-th of `n` jobs is followed by one of `per_pass` events
/// spread evenly over the pass (one after every job when `per_pass >= n`).
fn spread_after(k: usize, n: usize, per_pass: usize) -> bool {
    (k + 1) * per_pass / n > k * per_pass / n
}

/// One warm-cache `Executor::run`, checked; returns its time in ms.
fn warm_hit(warm: &Executor, spec: &JobSpec, expected: &Expected) -> Result<f64, String> {
    let t0 = Instant::now();
    let rec = warm.run(spec)?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if !rec.cached {
        return Err(format!("{}: warm run missed the cache", spec.label()));
    }
    expected.check(spec, &rec)?;
    Ok(ms)
}

/// The traced run: per-layer metrics, from one decomposed pass.
pub fn run_traced(sw: &Sweep, work: &Workdir) -> (Report, Spans) {
    let mut report = Report::default();
    let mut rng = Rng::new(sw.seed);
    let mut spans = Spans::new(Instant::now(), 0);
    let p = spans.time("harness.setup", 0, || prepare(sw.specs, work.fresh()));
    let mut order = p.specs;
    shuffle(&mut order, &mut rng);
    trace_jobs(&order, sw.expected, work, &mut spans, &mut report);
    crate::serve::emit_idle_serve_layers(&mut report);
    (report, spans)
}

#[cfg(test)]
mod tests {
    use super::spread_after;

    #[test]
    fn spread_after_places_exactly_per_pass_events() {
        for (n, per_pass) in [(215, 44), (215, 20), (215, 215), (7, 3)] {
            let events = (0..n).filter(|&k| spread_after(k, n, per_pass)).count();
            assert_eq!(events, per_pass, "n = {n}");
        }
        assert_eq!((0..4).filter(|&k| spread_after(k, 4, 44)).count(), 4);
    }
}
