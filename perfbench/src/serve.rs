//! The service workload (`serve_dse`).
//!
//! A design-space-exploration script drives an in-process `r2d2-serve`
//! instance (two workers, a fresh results dir) over loopback `/v1`: a
//! closed loop of two client threads, each waiting for one `?wait=1`
//! answer before it sends its next submission. Each client sends its share
//! of the distinct specs once fresh and twice more as repeats; a repeat goes
//! to the client that sent the spec fresh and only after that answer
//! arrived, so a hit never waits on an in-flight run. A round is one such
//! load against a fresh server; a run makes a fixed number of rounds.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use r2d2_harness::json::Value;
use r2d2_harness::{JobSpec, RunRecord};
use r2d2_serve::{fetch_metrics, healthz, submit, Server, ServerConfig, ServerHandle};
use r2d2_sym::Rng;

use crate::decompose::trace_jobs;
use crate::digest::Expected;
use crate::report::{EndToEnd, Report};
use crate::sets::shuffle;
use crate::spans::Spans;
use crate::stats::{geomean, median, percentile, ratio};
use crate::workdir::Workdir;

/// Closed-loop client threads.
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Repeat submissions per distinct spec, after its fresh one.
pub const REPEATS: usize = 2;
/// Server start-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// `GET /v1/healthz` probes in the traced run.
const HEALTHZ_PROBES: usize = 21;
/// Client-side bound on one request.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(300);

/// The service workload's inputs.
pub struct Dse<'a> {
    /// The distinct specs the clients submit.
    pub specs: &'a [JobSpec],
    /// The recorded digests every answer is checked against.
    pub expected: &'a Expected,
    /// Seeds the submission sequences.
    pub seed: u64,
    /// Rounds to measure (at least one).
    pub rounds: usize,
}

/// One submission in a client's sequence: a spec index and whether it is
/// the spec's first (fresh) submission.
pub type Submission = (usize, bool);

/// Seeded submission sequences, one per client. The shuffled specs are dealt
/// round-robin; each client then interleaves its fresh submissions with the
/// repeats of specs it has already had answered.
pub fn plan(n_specs: usize, rng: &mut Rng) -> Vec<Vec<Submission>> {
    let mut order: Vec<usize> = (0..n_specs).collect();
    shuffle(&mut order, rng);
    (0..CLIENTS)
        .map(|c| {
            let mut fresh: Vec<usize> = order.iter().copied().skip(c).step_by(CLIENTS).collect();
            fresh.reverse();
            let mut pending: Vec<(usize, usize)> = Vec::new();
            let mut seq = Vec::new();
            loop {
                let repeats: usize = pending.iter().map(|&(_, left)| left).sum();
                if fresh.is_empty() && repeats == 0 {
                    break;
                }
                if rng.below((fresh.len() + repeats) as u64) < fresh.len() as u64 {
                    let i = fresh.pop().expect("fresh specs left");
                    seq.push((i, true));
                    pending.push((i, REPEATS));
                } else {
                    let k = rng.below(pending.len() as u64) as usize;
                    seq.push((pending[k].0, false));
                    pending[k].1 -= 1;
                    if pending[k].1 == 0 {
                        pending.swap_remove(k);
                    }
                }
            }
            seq
        })
        .collect()
}

/// A started server.
struct Running {
    addr: String,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// Bind, spawn the accept loop and its workers, and wait for the first
    /// `GET /v1/healthz` 200; returns the server and that set-up time in s.
    ///
    /// The probe connects before the accept loop starts, so the loop's first
    /// `accept` finds it and the measured time does not depend on where the
    /// loop's poll sleep happens to be.
    fn start(results_dir: &Path) -> Result<(Running, f64), String> {
        let t0 = Instant::now();
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: WORKERS,
            use_cache: true,
            results_dir: Some(results_dir.to_path_buf()),
            verbose: false,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let handle = server.handle();
        let mut probe = TcpStream::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        let thread = std::thread::spawn(move || server.run());
        let running = Running {
            addr,
            handle,
            thread,
        };
        let mut answer = String::new();
        let healthy = probe
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
            .and_then(|()| probe.read_to_string(&mut answer));
        let secs = t0.elapsed().as_secs_f64();
        match healthy {
            Ok(_) if answer.starts_with("HTTP/1.1 200") => Ok((running, secs)),
            other => {
                let _ = running.stop();
                Err(format!("first healthz: {other:?} {answer:?}"))
            }
        }
    }

    /// Request graceful shutdown and wait for the drain.
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// One answered (or failed) submission, as the client saw it.
struct Answer {
    spec: usize,
    fresh: bool,
    ms: f64,
    record: Result<RunRecord, String>,
}

/// Validate a `?wait=1` answer: 200, `done`, `deduped` exactly for repeats,
/// and a record.
fn answer_record(
    out: std::io::Result<r2d2_serve::SubmitOutcome>,
    fresh: bool,
) -> Result<RunRecord, String> {
    let out = out.map_err(|e| format!("submit: {e}"))?;
    if out.status != 200 || out.job_status() != Some("done") {
        return Err(format!("answer {}: {}", out.status, out.body.to_json()));
    }
    if out.body.get("deduped").and_then(Value::as_bool) != Some(!fresh) {
        return Err(format!(
            "{} submission answered with deduped = {:?}",
            if fresh { "fresh" } else { "repeat" },
            out.body.get("deduped")
        ));
    }
    out.body
        .get("record")
        .and_then(RunRecord::from_json)
        .ok_or_else(|| "answer carries no record".to_string())
}

/// One client's closed loop.
fn client(
    addr: &str,
    specs: &[JobSpec],
    seq: &[Submission],
    spans: &mut Option<Spans>,
) -> Vec<Answer> {
    seq.iter()
        .map(|&(i, fresh)| {
            let t0 = Instant::now();
            let out = match spans {
                Some(sp) => sp.time("serve.submit", i as u64, || {
                    submit(addr, &specs[i], true, REQUEST_TIMEOUT)
                }),
                None => submit(addr, &specs[i], true, REQUEST_TIMEOUT),
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            Answer {
                spec: i,
                fresh,
                ms,
                record: answer_record(out, fresh),
            }
        })
        .collect()
}

/// What the server's `/v1/metrics` reports at the end of a round.
struct Counters {
    submitted: f64,
    deduped: f64,
    cache_hits: f64,
    simulated: f64,
    failed: f64,
    shed: f64,
}

fn counters(addr: &str) -> Result<Counters, String> {
    let text = fetch_metrics(addr, REQUEST_TIMEOUT).map_err(|e| format!("metrics: {e}"))?;
    let get = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("r2d2_serve_{name} ")))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("metrics lack r2d2_serve_{name}"))
    };
    Ok(Counters {
        submitted: get("jobs_submitted_total")?,
        deduped: get("jobs_deduped_total")?,
        cache_hits: get("cache_hits_total")?,
        simulated: get("jobs_simulated_total")?,
        failed: get("jobs_failed_total")?,
        shed: get("jobs_shed_total")?,
    })
}

/// Everything one round measured.
struct Round {
    answers: Vec<Answer>,
    wall_s: f64,
    counters: Result<Counters, String>,
}

/// Drive one round of load against a running server.
fn round(
    dse: &Dse,
    running: &Running,
    rng: &mut Rng,
    spans: Option<Instant>,
) -> (Round, Vec<Spans>) {
    let seqs = plan(dse.specs.len(), rng);
    let t0 = Instant::now();
    let per_client: Vec<(Vec<Answer>, Option<Spans>)> = std::thread::scope(|s| {
        let handles: Vec<_> = seqs
            .iter()
            .enumerate()
            .map(|(c, seq)| {
                let addr = running.addr.as_str();
                s.spawn(move || {
                    let mut sp = spans.map(|origin| Spans::new(origin, c as u64 + 1));
                    (client(addr, dse.specs, seq, &mut sp), sp)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut answers = Vec::new();
    let mut client_spans = Vec::new();
    for (a, sp) in per_client {
        answers.extend(a);
        client_spans.extend(sp);
    }
    let round = Round {
        answers,
        wall_s,
        counters: counters(&running.addr),
    };
    (round, client_spans)
}

/// Check every answer against the digests, and the server's end counts:
/// every distinct spec simulated exactly once, every repeat answered by a
/// cache probe, nothing failed or shed.
fn check_round(dse: &Dse, r: &Round, report: &mut Report) {
    let repeats = r.answers.iter().filter(|a| !a.fresh).count() as f64;
    for a in &r.answers {
        let spec = &dse.specs[a.spec];
        let outcome = match &a.record {
            Ok(rec) => dse.expected.check(spec, rec),
            Err(e) => Err(format!("{}: {e}", spec.label())),
        };
        report.op(outcome);
    }
    report.op(r.counters.as_ref().map_err(Clone::clone).and_then(|c| {
        if c.simulated == dse.specs.len() as f64
            && c.cache_hits == repeats
            && c.failed == 0.0
            && c.shed == 0.0
        {
            Ok(())
        } else {
            Err(format!(
                "server simulated {} of {} distinct specs, answered {} of {repeats} \
                 repeats from the cache, failed {}, shed {}",
                c.simulated,
                dse.specs.len(),
                c.cache_hits,
                c.failed,
                c.shed
            ))
        }
    }));
}

/// Start a server, time its start-up into `setup_s`, and stop it again.
fn timed_start_stop(work: &Workdir, setup_s: &mut Vec<f64>) -> Result<(), String> {
    let (running, secs) = Running::start(&work.fresh())?;
    setup_s.push(secs);
    running.stop()
}

/// The untraced run: end-to-end metrics.
///
/// The latency percentiles are taken over all rounds' answers pooled, so a
/// tail percentile rests on every round's samples rather than on one.
/// `sim_cycles_per_s` takes each distinct spec's fastest server-side
/// execution over the rounds, as the sweep takes a job's fastest pass.
/// Server start-ups beyond the rounds' own are spread between the rounds.
pub fn run(dse: &Dse, work: &Workdir) -> Report {
    let mut report = Report::default();
    let mut rng = Rng::new(dse.seed);
    let rounds = dse.rounds.max(1);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let (mut fresh_ms, mut hit_ms) = (Vec::new(), Vec::new());
    let (mut answered, mut wall_s) = (0usize, 0.0);
    // Per distinct spec: its fastest server-side execution and its cycles.
    let mut best_wall_ms = vec![f64::INFINITY; dse.specs.len()];
    let mut cycles = vec![0u64; dse.specs.len()];
    let extra_setups = SETUP_REPS.saturating_sub(rounds).div_ceil(rounds);
    'rounds: for _ in 0..rounds {
        let (running, secs) = match Running::start(&work.fresh()) {
            Ok(started) => started,
            Err(e) => {
                report.op(Err(e));
                break;
            }
        };
        setup_s.push(secs);
        let (r, _) = round(dse, &running, &mut rng, None);
        report.op(running.stop());
        check_round(dse, &r, &mut report);
        for a in &r.answers {
            if let Ok(rec) = &a.record {
                if a.fresh {
                    fresh_ms.push(a.ms);
                    best_wall_ms[a.spec] = best_wall_ms[a.spec].min(rec.wall_ms);
                    cycles[a.spec] = rec.stats.cycles;
                } else {
                    hit_ms.push(a.ms);
                }
            }
        }
        answered += r.answers.len();
        wall_s += r.wall_s;
        for _ in 0..extra_setups {
            if setup_s.len() >= SETUP_REPS {
                break;
            }
            if let Err(e) = timed_start_stop(work, &mut setup_s) {
                report.op(Err(e));
                break 'rounds;
            }
        }
    }
    let cycle_rates: Vec<f64> = best_wall_ms
        .iter()
        .zip(&cycles)
        .filter(|(ms, _)| ms.is_finite())
        .map(|(ms, &c)| c as f64 / (ms / 1e3))
        .collect();
    EndToEnd {
        setup_s: median(&setup_s),
        jobs_per_s: ratio(answered as f64, wall_s),
        sim_cycles_per_s: geomean(&cycle_rates),
        fresh_p50_ms: median(&fresh_ms),
        fresh_p90_ms: percentile(&fresh_ms, 90.0),
        hit_p50_ms: median(&hit_ms),
        hit_p95_ms: percentile(&hit_ms, 95.0),
    }
    .emit(&mut report);
    report
}

/// The traced run: one traced round of load, healthz probes, then the
/// decomposition of every distinct spec for the simulation-stack layers.
pub fn run_traced(dse: &Dse, work: &Workdir) -> (Report, Spans) {
    let mut report = Report::default();
    let mut rng = Rng::new(dse.seed);
    let origin = Instant::now();
    let mut spans = Spans::new(origin, 0);
    let started = spans.time("serve.start", 0, || Running::start(&work.fresh()));
    let (running, _) = match started {
        Ok(s) => s,
        Err(e) => {
            report.op(Err(e));
            emit_idle_serve_layers(&mut report);
            return (report, spans);
        }
    };
    let (r, client_spans) = round(dse, &running, &mut rng, Some(origin));
    for sp in client_spans {
        spans.merge(sp);
    }
    for i in 0..HEALTHZ_PROBES {
        let out = spans.time("serve.healthz", i as u64, || {
            healthz(&running.addr, REQUEST_TIMEOUT)
        });
        report.op(match out {
            Ok((200, _)) => Ok(()),
            other => Err(format!("healthz: {other:?}")),
        });
    }
    report.op(running.stop());
    check_round(dse, &r, &mut report);

    let queue_wait: Vec<f64> = r
        .answers
        .iter()
        .filter(|a| a.fresh)
        .filter_map(|a| a.record.as_ref().ok().map(|rec| a.ms - rec.wall_ms))
        .collect();
    report.metric(
        "serve.healthz_p50_ms",
        median(&spans.durations_ms("serve.healthz")),
        "ms",
    );
    report.metric("serve.queue_wait_p50_ms", median(&queue_wait), "ms");
    let c = r.counters.as_ref().ok();
    let count = |f: fn(&Counters) -> f64| c.map_or(0.0, f);
    report.metric(
        "serve.dedup_ratio",
        ratio(count(|c| c.deduped), count(|c| c.submitted)),
        "ratio",
    );
    report.metric("serve.simulated_total", count(|c| c.simulated), "count");
    report.metric("serve.failed_total", count(|c| c.failed), "count");
    report.metric("serve.shed_total", count(|c| c.shed), "count");

    let mut order = dse.specs.to_vec();
    shuffle(&mut order, &mut rng);
    trace_jobs(&order, dse.expected, work, &mut spans, &mut report);
    (report, spans)
}

/// The `serve.*` layer metrics of a workload that runs no server: zero.
pub fn emit_idle_serve_layers(report: &mut Report) {
    for (name, unit) in [
        ("serve.healthz_p50_ms", "ms"),
        ("serve.queue_wait_p50_ms", "ms"),
        ("serve.dedup_ratio", "ratio"),
        ("serve.simulated_total", "count"),
        ("serve.failed_total", "count"),
        ("serve.shed_total", "count"),
    ] {
        report.metric(name, 0.0, unit);
    }
}
