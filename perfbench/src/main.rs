//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1` (whose
//! spans also land in `.perfbench/traces/`). `--record-digests` prints the
//! `digests.tsv` table from `r2d2_harness::execute` instead.

use std::process::ExitCode;

use r2d2_perfbench::digest::Expected;
use r2d2_perfbench::report::Report;
use r2d2_perfbench::serve::{self, Dse};
use r2d2_perfbench::sets::{pin_environment, Workload};
use r2d2_perfbench::spans::Spans;
use r2d2_perfbench::sweep::{self, Sweep};
use r2d2_perfbench::workdir::{base_dir, Workdir};

const USAGE: &str = "usage: perfbench --workload <fig13_small|serve_dse> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --record-digests";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn record_digests() {
    println!("# spec hash\tdigest of run_records.csv columns 1-34\tjob");
    for w in Workload::ALL {
        println!("# {}", w.name());
        for spec in w.specs() {
            let rec =
                r2d2_harness::execute(&spec).unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
            println!("{}", Expected::line(&spec, &rec));
        }
    }
}

fn run(args: &Args, work: &Workdir) -> (Report, Option<Spans>) {
    let expected = Expected::recorded();
    let w = args.workload;
    if w == Workload::ServeDse {
        let specs = w.specs();
        let dse = Dse {
            specs: &specs,
            expected: &expected,
            seed: args.seed,
            rounds: w.passes(args.seconds),
        };
        return if args.trace {
            let (r, s) = serve::run_traced(&dse, work);
            (r, Some(s))
        } else {
            (serve::run(&dse, work), None)
        };
    }
    let build = move || w.specs();
    let sw = Sweep {
        specs: &build,
        expected: &expected,
        seed: args.seed,
        passes: w.passes(args.seconds),
    };
    if args.trace {
        let (r, s) = sweep::run_traced(&sw, work);
        (r, Some(s))
    } else {
        (sweep::run(&sw, work), None)
    }
}

fn write_trace(args: &Args, spans: &Spans) -> std::io::Result<std::path::PathBuf> {
    let dir = base_dir().join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    std::fs::write(&path, spans.to_chrome().to_json())?;
    Ok(path)
}

fn main() -> ExitCode {
    pin_environment();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--record-digests"] {
        record_digests();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = match Workdir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the temp dir: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut report, spans) = run(&args, &work);
    if let Some(spans) = spans {
        match write_trace(&args, &spans) {
            Ok(path) => eprintln!("perfbench: trace written to {}", path.display()),
            Err(e) => report.op(Err(format!("trace write: {e}"))),
        }
    }
    for e in &report.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    drop(work);
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
