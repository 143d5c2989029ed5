//! The repo benchmark: four workloads, wall-clock end-to-end metrics and
//! a layer-attributed traced pass. See `benchmark/README.md`.
//!
//! ```text
//! scallop-benchmark [--seed N] [--seconds S] [--scale F] [--out DIR] [--record FILE]
//! scallop-benchmark --workload NAME --trace 0|1 [--seed N] [--seconds S] ...
//! scallop-benchmark compare BASE.json[,BASE2.json..] NEW.json[,NEW2.json..]
//! scallop-benchmark describe [json|markdown]
//! ```
//!
//! Without `--workload` every workload gets its timed and its traced pass
//! and the results are written to `--out`. With `--workload` one pass of
//! one workload runs (the form the driver uses) and the last line printed
//! is the result object. `describe` prints `BENCHMARK.json` (or the README's
//! tables) from the tables in `metrics.rs` and `workloads/mod.rs`.

mod alloc;
mod json;
mod metrics;
mod report;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{RunConfig, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: scallop-benchmark [--workload NAME] [--trace 0|1] [--seed N] \
[--seconds S] [--scale F] [--out DIR] [--record FILE]\n       \
scallop-benchmark compare BASE.json[,..] NEW.json[,..]\n       \
scallop-benchmark describe [json|markdown]";

/// Where result files go unless `--out` says otherwise.
const DEFAULT_OUT: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    traced: bool,
    cfg: RunConfig,
    out: Option<PathBuf>,
    record: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        traced: false,
        cfg: RunConfig {
            seed: 1,
            seconds: 10.0,
            scale: 1.0,
        },
        out: None,
        record: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--seed" => args.cfg.seed = num(flag, value()?)?,
            "--seconds" => args.cfg.seconds = num(flag, value()?)?,
            "--scale" => args.cfg.scale = num(flag, value()?)?,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--record" => args.record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let finite_positive = |x: f64| x.is_finite() && x > 0.0;
    if !finite_positive(args.cfg.seconds) || args.cfg.seconds > 600.0 {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    if !finite_positive(args.cfg.scale) || args.cfg.scale > 4.0 {
        return Err("--scale must be in (0, 4]".to_string());
    }
    Ok(args)
}

/// One pass of one workload, the way the driver asks for it.
fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("no workload named {name:?}"))?;
    let pass = if args.traced {
        w.traced(&args.cfg)
    } else {
        w.timed(&args.cfg)
    };
    report::print_pass(w, &pass, args.traced);
    if args.out.is_some() || args.record.is_some() {
        let (timed, traced) = if args.traced {
            (None, Some(&pass))
        } else {
            (Some(&pass), None)
        };
        let entry = report::workload_json(timed, traced);
        let results = report::results_json(&args.cfg, vec![(name.to_string(), entry)]);
        persist(args, &results, &[(w.name, &pass)])?;
    }
    println!("{}", report::driver_line(&pass, args.traced));
    Ok(ExitCode::SUCCESS)
}

/// Every workload, both passes.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let mut entries = Vec::new();
    let mut passes = Vec::new();
    let mut clean = true;
    for w in &WORKLOADS {
        let timed = w.timed(&args.cfg);
        report::print_pass(w, &timed, false);
        let traced = w.traced(&args.cfg);
        report::print_pass(w, &traced, true);
        if timed.fingerprint != traced.fingerprint {
            println!(
                "!! {}: timed and traced passes did different work:\n   timed  {:?}\n   traced {:?}",
                w.name, timed.fingerprint, traced.fingerprint
            );
            clean = false;
        }
        clean &= timed.failed == 0 && traced.failed == 0;
        entries.push((
            w.name.to_string(),
            report::workload_json(Some(&timed), Some(&traced)),
        ));
        passes.push((w.name, traced));
    }
    let results = report::results_json(&args.cfg, entries);
    let traces: Vec<_> = passes.iter().map(|(n, p)| (*n, p)).collect();
    persist(args, &results, &traces)?;
    println!(
        "{}",
        if clean {
            "all workloads: 0 failed operations, timed and traced counters identical"
        } else {
            "FAILED: see above"
        }
    );
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn persist(
    args: &Args,
    results: &json::Value,
    traces: &[(&'static str, &workloads::Pass)],
) -> Result<(), String> {
    let default_out = args.workload.is_none().then(|| PathBuf::from(DEFAULT_OUT));
    if let Some(dir) = args.out.clone().or(default_out) {
        report::write_out(&dir, results, traces).map_err(|e| format!("{}: {e}", dir.display()))?;
        println!("results written to {}", dir.display());
    }
    if let Some(file) = &args.record {
        report::append_record(file, results).map_err(|e| format!("{}: {e}", file.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [base, new] => report::compare(base, new).map(|ok| {
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
            _ => Err("compare takes two arguments".to_string()),
        },
        Some("describe") => {
            match argv.get(1).map(String::as_str) {
                Some("markdown") => print!("{}", report::tables_markdown()),
                _ => print!("{}", report::benchmark_json().to_pretty()),
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => parse_args(&argv).and_then(|args| match args.workload.clone() {
            Some(name) => run_one(&args, &name),
            None => run_all(&args),
        }),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        ExitCode::from(2)
    })
}
