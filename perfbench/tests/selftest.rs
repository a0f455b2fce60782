//! Tiny runs of every workload: each emits every metric that
//! `BENCHMARK.json` names, and a wrong recorded digest shows up as failed
//! operations.

use r2d2_harness::json::{self, Value};
use r2d2_harness::{execute, JobSpec, ModelSpec};
use r2d2_perfbench::digest::{digest, Expected};
use r2d2_perfbench::report::Report;
use r2d2_perfbench::serve::{self, plan, Dse, REPEATS};
use r2d2_perfbench::sets::{pin, pin_environment};
use r2d2_perfbench::sweep::{self, Sweep};
use r2d2_perfbench::workdir::Workdir;
use r2d2_sym::Rng;
use r2d2_workloads::Size;

fn metric_names(section: &str) -> Vec<String> {
    let bench = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    bench
        .get(section)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn assert_emits(report: &Report, section: &str) {
    let names = metric_names(section);
    for name in &names {
        assert!(
            report.value(name).is_some(),
            "{section} metric {name} missing"
        );
    }
    assert_eq!(
        report.metrics.len(),
        names.len(),
        "{section}: extra metrics"
    );
    assert!(report.correct(), "{:?}", report.errors);
}

/// A few cheap specs covering every arm `execute` has for timed models.
fn tiny_specs() -> Vec<JobSpec> {
    let ablation = r2d2_harness::sets::ablation_variants()[1].1;
    [
        ModelSpec::Baseline,
        ModelSpec::Dac,
        ModelSpec::R2d2,
        ModelSpec::R2d2With(ablation),
    ]
    .into_iter()
    .map(|m| pin(JobSpec::new("NN", Size::Small, m)))
    .collect()
}

fn recorded(specs: &[JobSpec]) -> Expected {
    let mut expected = Expected::default();
    for spec in specs {
        let rec = execute(spec).expect("tiny spec runs");
        expected.insert(spec, digest(spec, &rec));
    }
    expected
}

fn tiny_sweep(expected: &Expected, traced: bool) -> Report {
    pin_environment();
    let work = Workdir::create().expect("temp dir");
    let build = tiny_specs;
    let sw = Sweep {
        specs: &build,
        expected,
        seed: 3,
        passes: 1,
    };
    if traced {
        sweep::run_traced(&sw, &work).0
    } else {
        sweep::run(&sw, &work)
    }
}

fn tiny_serve(expected: &Expected, traced: bool) -> Report {
    pin_environment();
    let work = Workdir::create().expect("temp dir");
    let specs = tiny_specs();
    let dse = Dse {
        specs: &specs,
        expected,
        seed: 3,
        rounds: 1,
    };
    if traced {
        serve::run_traced(&dse, &work).0
    } else {
        serve::run(&dse, &work)
    }
}

#[test]
fn sweep_emits_every_metric() {
    let expected = recorded(&tiny_specs());
    assert_emits(&tiny_sweep(&expected, false), "end_to_end");
    assert_emits(&tiny_sweep(&expected, true), "per_layer");
}

#[test]
fn serve_emits_every_metric() {
    let expected = recorded(&tiny_specs());
    assert_emits(&tiny_serve(&expected, false), "end_to_end");
    let traced = tiny_serve(&expected, true);
    assert_emits(&traced, "per_layer");
    assert_eq!(traced.value("serve.simulated_total"), Some(4.0));
    assert_eq!(traced.value("serve.failed_total"), Some(0.0));
}

#[test]
fn wrong_digest_is_a_failed_operation() {
    let specs = tiny_specs();
    let mut expected = recorded(&specs);
    expected.insert(&specs[2], 0xdead_beef);
    for report in [
        tiny_sweep(&expected, false),
        tiny_sweep(&expected, true),
        tiny_serve(&expected, false),
        tiny_serve(&expected, true),
    ] {
        assert!(!report.correct());
        assert!(report.failed > 0 && report.failed < report.attempted);
        assert!(
            report.errors.iter().any(|e| e.contains("NN/R2D2")),
            "{:?}",
            report.errors
        );
    }
}

#[test]
fn recorded_digests_cover_every_workload() {
    let expected = Expected::recorded();
    for w in r2d2_perfbench::sets::Workload::ALL {
        for spec in w.specs() {
            let err = expected.check(&spec, &execute_stub(&spec)).unwrap_err();
            assert!(!err.contains("no recorded digest"), "{err}");
        }
    }
}

/// A record no real run produces, so `check` reaches the digest comparison.
fn execute_stub(_spec: &JobSpec) -> r2d2_harness::RunRecord {
    r2d2_harness::RunRecord {
        stats: Default::default(),
        energy: Default::default(),
        used_r2d2: false,
        ideal: None,
        wall_ms: 0.0,
        cached: false,
    }
}

#[test]
fn plan_sends_repeats_after_their_fresh_answer() {
    let n = 37;
    let seqs = plan(n, &mut Rng::new(11));
    assert_eq!(seqs, plan(n, &mut Rng::new(11)), "seeded");
    let mut seen = vec![0usize; n];
    for seq in &seqs {
        let mut fresh_done = vec![false; n];
        for &(i, fresh) in seq {
            assert_eq!(fresh, !fresh_done[i], "spec {i}: fresh first, then repeats");
            fresh_done[i] = true;
            seen[i] += 1;
        }
    }
    assert!(seen.iter().all(|&c| c == 1 + REPEATS));
}
