//! The SVQA benchmark: builds each workload from a seed, drives SVQA
//! through its public API, checks the answers, and prints every metric
//! listed in `BENCHMARK.json` by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! the result: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the workload again with
//! spans around every call into a layer and reports the per-layer metrics.
//! The run record (seed, held-out seed, commit, machine, sample counts) and
//! the traced run's spans are written under `perfbench/out/`.

mod batch_cold;
mod http;
mod ingest_mixed;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;
mod world;

use report::{Manifest, Outcome};
use serde_json::json;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// A second seed, never used while tuning a change: a claimed gain must
/// also hold on it.
pub const HELD_OUT_SEED: u64 = 20_261_017;
/// The traced run fails when its top-level spans cover less of the run's
/// wall time than this.
pub const MIN_COVERAGE: f64 = 0.95;
const OUT_DIR: &str = "perfbench/out";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => trace = Some(number()? != 0),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let manifest = match Manifest::load(Path::new("BENCHMARK.json")) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e} (run from the repository root)");
            return ExitCode::from(2);
        }
    };
    if !manifest.has_workload(&args.workload) {
        eprintln!(
            "perfbench: workload {} is not in BENCHMARK.json",
            args.workload
        );
        return ExitCode::from(2);
    }

    let tracer = Tracer::new(args.trace, started);
    let mut outcome = match args.workload.as_str() {
        "batch-cold" => batch_cold::run(&args, &tracer),
        "ingest-mixed" => ingest_mixed::run(&args, &tracer),
        other => {
            eprintln!("perfbench: workload {other} is not implemented");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = manifest.check(&outcome.metrics, args.trace) {
        eprintln!("perfbench: metrics do not match BENCHMARK.json: {e}");
        return ExitCode::from(2);
    }
    let coverage = outcome.metrics.get("trace.coverage");
    if let Some(c) = coverage.filter(|&c| c < MIN_COVERAGE) {
        outcome.problem(format!(
            "span coverage {c:.3} is below {MIN_COVERAGE}: wall time is going somewhere no span sees"
        ));
    }
    finish(&args, &tracer, &outcome)
}

/// Print the metrics and the result line, write the run record (and the
/// spans of a traced run).
fn finish(args: &Args, tracer: &Tracer, outcome: &Outcome) -> ExitCode {
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    for (name, value, unit) in outcome.metrics.iter() {
        println!("{name:<32} {value:>14.4} {unit}");
    }
    for p in &outcome.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let run = json!({
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": report::commit(),
        "source_digest": report::source_digest(),
        "nproc": report::nproc(),
        "machine": report::machine(),
        "notes": serde_json::Value::Object(outcome.notes.clone()),
    });
    let result = json!({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics.to_json(),
    });
    let record = json!({ "run": run, "result": result, "problems": outcome.problems });
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        let record_path = Path::new(OUT_DIR).join(format!("{stem}.json"));
        std::fs::write(
            &record_path,
            serde_json::to_string_pretty(&record).expect("json"),
        )?;
        if args.trace {
            let spans_path = Path::new(OUT_DIR).join(format!("spans-{stem}.json"));
            std::fs::write(spans_path, tracer.to_json())?;
        }
        Ok(record_path)
    });
    match written {
        Ok(path) => println!("# run record: {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write the run record: {e}"),
    }
    println!("# run {}", serde_json::to_string(&run).expect("json"));
    println!("{}", serde_json::to_string(&result).expect("json"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
