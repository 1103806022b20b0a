//! `xmlshred-perf` — see `perf/README.md`.
//!
//! ```text
//! xmlshred-perf --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//! xmlshred-perf [--seed N] [--seconds S] [--trace 0|1] [--out FILE]     # every workload
//! xmlshred-perf compare A.json B.json
//! xmlshred-perf spec [--markdown]                  # BENCHMARK.json / the README's tables
//! ```

use std::process::{Command, ExitCode, Stdio};
use xmlshred_perf::json::Json;
use xmlshred_perf::report::stamp;
use xmlshred_perf::spec::{benchmark_json, markdown, Workload, RUN_SECONDS};
use xmlshred_perf::{compare, workloads};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

fn write_result_file(path: &str, args: &Args, results: Vec<(String, Json)>) -> Result<(), String> {
    let file = Json::obj(vec![
        ("stamp", stamp(args.seed, args.seconds, args.traced)),
        ("workloads", Json::Obj(results)),
    ]);
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, file.pretty()).map_err(|e| format!("write {path}: {e}"))
}

/// One workload, in this process. The last line of standard output is the
/// result object.
fn run_one(args: &Args, workload: Workload) -> Result<bool, String> {
    let result = workloads::run(workload, args.seed, args.seconds, args.traced)?;
    print!("{}", result.human());
    if let Some(path) = &args.out {
        write_result_file(
            path,
            args,
            vec![(workload.name().to_string(), result.to_json())],
        )?;
    }
    println!("{}", result.final_line());
    Ok(result.correct())
}

/// Every workload, each in a fresh child process so peak memory and set-up
/// time are the workload's own.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    let mut correct = true;
    for workload in Workload::ALL {
        // The child writes its result (with round spreads) to a file of
        // its own; its standard output is passed through.
        let child_out = workloads::out_dir().join(format!("result-{}.json", workload.name()));
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&child_out)
            .stdin(Stdio::null())
            .status()
            .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
        correct &= status.success();
        let text = std::fs::read_to_string(&child_out)
            .map_err(|e| format!("{} left no result: {e}", workload.name()))?;
        let parsed = Json::parse(&text).map_err(|e| format!("{}: {e}", workload.name()))?;
        let entry = parsed
            .get("workloads")
            .and_then(|w| w.get(workload.name()))
            .ok_or_else(|| format!("{}: malformed result file", workload.name()))?;
        results.push((workload.name().to_string(), entry.clone()));
    }
    if let Some(path) = &args.out {
        write_result_file(path, args, results)?;
    }
    Ok(correct)
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (report, acceptable) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{report}");
    Ok(acceptable)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => run_compare(&args[1], &args[2]),
        Some("compare") => Err("usage: xmlshred-perf compare A.json B.json".into()),
        Some("spec") if args.get(1).is_some_and(|a| a == "--markdown") => {
            print!("{}", markdown());
            Ok(true)
        }
        Some("spec") => {
            print!("{}", benchmark_json().pretty());
            Ok(true)
        }
        _ => parse_args(&args).and_then(|parsed| match parsed.workload {
            Some(workload) => run_one(&parsed, workload),
            None => run_all(&parsed),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("xmlshred-perf: {message}");
            ExitCode::from(2)
        }
    }
}
