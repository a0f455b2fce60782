//! The traced run: `Executor::run`, decomposed into its calls per crate.
//!
//! For every job the traced run makes the calls `r2d2_harness::execute`
//! makes — build the workload, transform each launch for R2D2, simulate
//! each launch under the model's issue filter, derive energy, store the
//! record — each under its own span, and checks that the pieces reproduce
//! the `Stats` of an untraced `Executor::run` of the same job, interleaved
//! with it. The hit path (cache load, probe with its first-hit rewrite) and
//! functional-only execution of the baseline kernels are timed beside it.
//! Two extra measurements ride along: the sharding speed-up, at two
//! threads, of the job with the most simulated cycles, and the cost of
//! attaching a live `Progress` mirror.

use std::borrow::Cow;
use std::time::Instant;

use r2d2_core::transform::make_launch;
use r2d2_energy::EnergyModel;
use r2d2_harness::{resolve_threads, Cache, Executor, JobSpec, ModelSpec, Progress, RunRecord};
use r2d2_sim::{functional, BaselineFilter, IssueFilter, Launch, SimSession, Stats};
use r2d2_workloads::Workload;

use crate::digest::Expected;
use crate::report::Report;
use crate::sets::{model_key, MODEL_KEYS};
use crate::spans::Spans;
use crate::stats::ratio;
use crate::workdir::Workdir;

/// `Progress`-on/off pairs the ratio is taken over: one each on the jobs
/// with the fewest simulated cycles.
const PROGRESS_PAIRS: usize = 24;

/// Deterministic counts summed over the traced jobs.
#[derive(Debug, Default)]
struct Counts {
    cycles: [u64; 5],
    warp_instrs: [u64; 5],
    l1_misses: u64,
    l2_misses: u64,
    dram_txns: u64,
    fallbacks: u64,
}

impl Counts {
    fn add(&mut self, model: ModelSpec, s: &Stats) {
        if let Some(k) = MODEL_KEYS.iter().position(|&k| k == model_key(model)) {
            self.cycles[k] += s.cycles;
            self.warp_instrs[k] += s.warp_instrs;
        }
        self.l1_misses += s.l1_misses;
        self.l2_misses += s.l2_misses;
        self.dram_txns += s.dram_txns;
    }
}

fn timing_span(model: ModelSpec) -> String {
    format!("sim.timing.{}", model_key(model))
}

/// `execute`'s work for one job as separately timed calls, under a `job`
/// span. Returns the record and the built workload.
fn decompose(
    spec: &JobSpec,
    cache: &Cache,
    spans: &mut Spans,
    job: u64,
    counts: &mut Counts,
) -> Result<(RunRecord, Workload), String> {
    let root = spans.begin("job", job);
    let out = decompose_calls(spec, cache, spans, job, counts);
    spans.end(root);
    out
}

fn decompose_calls(
    spec: &JobSpec,
    cache: &Cache,
    spans: &mut Spans,
    job: u64,
    counts: &mut Counts,
) -> Result<(RunRecord, Workload), String> {
    let label = spec.label();
    let w = spans
        .time("workloads.build", job, || {
            r2d2_workloads::resolve(&spec.workload, spec.size)
        })
        .ok_or_else(|| format!("{label}: unknown workload"))?;
    let cfg = spec.overrides.apply();
    let mut gmem = w.gmem.clone();
    let mut filter: Box<dyn IssueFilter> = match spec.model {
        ModelSpec::Dac => Box::new(r2d2_baselines::DacFilter::new()),
        ModelSpec::Darsie => Box::new(r2d2_baselines::DarsieFilter::new()),
        ModelSpec::DarsieScalar => Box::new(r2d2_baselines::DarsieScalarFilter::new()),
        ModelSpec::Ideals => return Err(format!("{label}: no timing run to decompose")),
        _ => Box::new(BaselineFilter),
    };
    let timing = timing_span(spec.model);
    let mut stats = Stats::default();
    let mut used_r2d2 = false;
    for l in &w.launches {
        let launch = match spec.model {
            ModelSpec::R2d2 => {
                let (launch, used) = spans.time("core.transform", job, || {
                    make_launch(&cfg, &l.kernel, l.grid, l.block, l.params.clone())
                });
                used_r2d2 |= used;
                counts.fallbacks += u64::from(!used);
                Cow::Owned(launch)
            }
            ModelSpec::R2d2With(opts) => {
                let r2 = spans.time("core.transform", job, || {
                    r2d2_core::transform_with(&l.kernel, &opts)
                });
                if r2.meta.has_linear() {
                    used_r2d2 = true;
                    let mut launch = Launch::new(r2.kernel, l.grid, l.block, l.params.clone());
                    launch.meta = Some(r2.meta);
                    Cow::Owned(launch)
                } else {
                    counts.fallbacks += 1;
                    Cow::Borrowed(l)
                }
            }
            _ => Cow::Borrowed(l),
        };
        let s = spans
            .time(&timing, job, || {
                SimSession::new(&cfg)
                    .filter(filter.as_mut())
                    .threads(resolve_threads(spec))
                    .run(&launch, &mut gmem)
            })
            .map_err(|e| format!("{label}: {e}"))?;
        stats.merge_sequential(&s);
    }
    let energy = spans.time("energy.breakdown", job, || {
        EnergyModel::volta().breakdown(&stats.events)
    });
    let rec = RunRecord {
        stats,
        energy,
        used_r2d2,
        ideal: None,
        wall_ms: 0.0,
        cached: false,
    };
    spans
        .time("harness.cache_store", job, || cache.store(spec, &rec))
        .map_err(|e| format!("{label}: cache store: {e}"))?;
    Ok((rec, w))
}

/// An untraced `Executor::run` with reads off, timed as one span; also
/// returns its duration in ms.
fn executor_run(
    cache: &Cache,
    spec: &JobSpec,
    spans: &mut Spans,
    name: &str,
    job: u64,
) -> (Result<RunRecord, String>, f64) {
    let t0 = Instant::now();
    let out = spans.time(name, job, || {
        Executor::new(cache).use_cache(false).run(spec)
    });
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Run the traced decomposition over `order`, checking every result, and
/// emit the per-layer metrics of the simulation stack into `report`.
pub fn trace_jobs(
    order: &[JobSpec],
    expected: &Expected,
    work: &Workdir,
    spans: &mut Spans,
    report: &mut Report,
) {
    let exec_cache = Cache::at(&work.fresh());
    let dec_cache = Cache::at(&work.fresh());
    let mut counts = Counts::default();
    // Simulated cycles per job (0 for a failed one): a cost order that does
    // not depend on the host, so every commit measures the same jobs.
    let mut cycles = vec![0u64; order.len()];
    for (i, spec) in order.iter().enumerate() {
        let job = i as u64;
        // Alternate which side runs first so neither always finds warm
        // host caches.
        let ((exec, _), dec) = if i % 2 == 0 {
            let e = executor_run(&exec_cache, spec, spans, "harness.executor_run", job);
            (e, decompose(spec, &dec_cache, spans, job, &mut counts))
        } else {
            let d = decompose(spec, &dec_cache, spans, job, &mut counts);
            let e = executor_run(&exec_cache, spec, spans, "harness.executor_run", job);
            (e, d)
        };
        let workload = match check_pair(spec, exec, dec, expected) {
            Ok((rec, w)) => {
                counts.add(spec.model, &rec.stats);
                cycles[i] = rec.stats.cycles;
                report.op(Ok(()));
                w
            }
            Err(e) => {
                report.op(Err(e));
                continue;
            }
        };
        report.op(hit_path(spec, &dec_cache, spans, job));
        if spec.model == ModelSpec::Baseline {
            report.op(functional_runs(spec, &workload, spans, job));
        }
    }
    let shard_speedup = shard_speedup(order, &cycles, expected, work, spans, report);
    let progress_ratio = progress_ratio(order, &cycles, expected, work, spans, report);
    emit_layers(spans, &counts, shard_speedup, progress_ratio, report);
}

fn check_pair(
    spec: &JobSpec,
    exec: Result<RunRecord, String>,
    dec: Result<(RunRecord, Workload), String>,
    expected: &Expected,
) -> Result<(RunRecord, Workload), String> {
    let exec = exec?;
    let (rec, w) = dec?;
    if rec.stats != exec.stats || rec.used_r2d2 != exec.used_r2d2 {
        return Err(format!(
            "{}: decomposition does not reproduce Executor::run",
            spec.label()
        ));
    }
    expected.check(spec, &exec)?;
    expected.check(spec, &rec)?;
    Ok((rec, w))
}

/// The cache-hit path: a plain load, then a probe (which rewrites the entry
/// with `cached = true` on its first hit).
fn hit_path(spec: &JobSpec, cache: &Cache, spans: &mut Spans, job: u64) -> Result<(), String> {
    let loaded = spans.time("harness.cache_load", job, || cache.load(spec));
    let probed = spans.time("harness.probe", job, || Executor::new(cache).probe(spec));
    match (loaded, probed) {
        (Some(l), Some(p)) if l.stats == p.stats && p.cached => Ok(()),
        _ => Err(format!("{}: cache hit path lost the record", spec.label())),
    }
}

/// Functional-only execution of the job's (baseline) launches.
fn functional_runs(
    spec: &JobSpec,
    w: &Workload,
    spans: &mut Spans,
    job: u64,
) -> Result<(), String> {
    let watchdog = spec.overrides.apply().watchdog_warp_instrs;
    let mut gmem = w.gmem.clone();
    for l in &w.launches {
        spans
            .time("sim.functional", job, || {
                functional::run(l, &mut gmem, watchdog, None)
            })
            .map_err(|e| format!("{}: functional: {e}", spec.label()))?;
    }
    Ok(())
}

/// The longest job's (most simulated cycles) `Executor::run` time at one
/// thread over its time at two (sharded SMs; results are bit-identical, so
/// the digest still holds), the two runs back to back.
fn shard_speedup(
    order: &[JobSpec],
    cycles: &[u64],
    expected: &Expected,
    work: &Workdir,
    spans: &mut Spans,
    report: &mut Report,
) -> f64 {
    let Some((i, _)) = cycles.iter().enumerate().max_by_key(|&(_, c)| c) else {
        return 0.0;
    };
    let cache = Cache::at(&work.fresh());
    let (out, t1) = executor_run(&cache, &order[i], spans, "sim.shard_t1", i as u64);
    report.op(out.and_then(|rec| expected.check(&order[i], &rec)));
    let spec = JobSpec {
        threads: 2,
        ..order[i].clone()
    };
    let (out, t2) = executor_run(&cache, &spec, spans, "sim.shard_t2", i as u64);
    report.op(out.and_then(|rec| expected.check(&spec, &rec)));
    ratio(t1, t2)
}

/// `Executor::run` with a `Progress` mirror attached over without, on the
/// [`PROGRESS_PAIRS`] jobs with the fewest simulated cycles, interleaved
/// pairwise.
fn progress_ratio(
    order: &[JobSpec],
    cycles: &[u64],
    expected: &Expected,
    work: &Workdir,
    spans: &mut Spans,
    report: &mut Report,
) -> f64 {
    let mut by_cost: Vec<usize> = (0..order.len()).filter(|&i| cycles[i] > 0).collect();
    by_cost.sort_by_key(|&i| (cycles[i], order[i].content_hash()));
    let cache = Cache::at(&work.fresh());
    let (mut on, mut off) = (0.0, 0.0);
    for i in by_cost.into_iter().take(PROGRESS_PAIRS) {
        let spec = &order[i];
        let job = i as u64;
        let (plain, plain_ms) = executor_run(&cache, spec, spans, "trace.progress_off", job);
        let t0 = Instant::now();
        let watched = spans.time("trace.progress_on", job, || {
            Executor::new(&cache)
                .use_cache(false)
                .progress(Progress::new())
                .run(spec)
        });
        off += plain_ms;
        on += t0.elapsed().as_secs_f64() * 1e3;
        report.op(plain.and_then(|rec| expected.check(spec, &rec)));
        report.op(watched.and_then(|rec| expected.check(spec, &rec)));
    }
    ratio(on, off)
}

fn emit_layers(
    spans: &Spans,
    counts: &Counts,
    shard_speedup: f64,
    progress_ratio: f64,
    report: &mut Report,
) {
    let ms = |name: &str| spans.self_total_ms(name);
    report.metric("workloads.build_ms", ms("workloads.build"), "ms");
    report.metric("core.transform_ms", ms("core.transform"), "ms");
    report.metric("core.fallback_count", counts.fallbacks as f64, "count");
    report.metric("sim.functional_ms", ms("sim.functional"), "ms");
    let timing: Vec<f64> = MODEL_KEYS
        .iter()
        .map(|k| ms(&format!("sim.timing.{k}")))
        .collect();
    let ns_per_cycle: Vec<f64> = (0..5)
        .map(|k| ratio(timing[k] * 1e6, counts.cycles[k] as f64))
        .collect();
    for (k, key) in MODEL_KEYS.iter().enumerate() {
        report.metric(format!("sim.timing_ms.{key}"), timing[k], "ms");
        report.metric(format!("sim.ns_per_cycle.{key}"), ns_per_cycle[k], "ns");
        report.metric(
            format!("sim.ns_per_warp_instr.{key}"),
            ratio(timing[k] * 1e6, counts.warp_instrs[k] as f64),
            "ns",
        );
        report.metric(
            format!("sim.cycles.{key}"),
            counts.cycles[k] as f64,
            "count",
        );
        report.metric(
            format!("sim.warp_instrs.{key}"),
            counts.warp_instrs[k] as f64,
            "count",
        );
    }
    report.metric(
        "sim.r2d2_over_baseline",
        ratio(ns_per_cycle[4], ns_per_cycle[0]),
        "ratio",
    );
    report.metric("sim.l1_misses", counts.l1_misses as f64, "count");
    report.metric("sim.l2_misses", counts.l2_misses as f64, "count");
    report.metric("sim.dram_txns", counts.dram_txns as f64, "count");
    report.metric("sim.shard_speedup_t2", shard_speedup, "ratio");
    for (k, key) in MODEL_KEYS.iter().enumerate().skip(1).take(3) {
        report.metric(
            format!("baselines.filter_ratio.{key}"),
            ratio(ns_per_cycle[k], ns_per_cycle[0]),
            "ratio",
        );
    }
    report.metric("trace.progress_ratio", progress_ratio, "ratio");
    report.metric("harness.cache_store_ms", ms("harness.cache_store"), "ms");
    report.metric("harness.cache_load_ms", ms("harness.cache_load"), "ms");
    report.metric("harness.probe_ms", ms("harness.probe"), "ms");
    let exec = spans.total_ms("harness.executor_run");
    let phases = spans.children_total_ms("job");
    report.metric("harness.untraced_ms", exec - phases, "ms");
    report.metric("tracing.coverage", ratio(phases, exec), "ratio");
    let job = spans.total_ms("job");
    report.metric("tracing.uncovered_share", ratio(job - phases, job), "ratio");
    report.metric(
        "tracing.overhead_pct",
        (ratio(job, exec) - 1.0) * 100.0,
        "%",
    );
}
