//! Regenerate the paper's tables and figures, run the engine's
//! determinism matrices, and check their pinned hashes.
//!
//! ```sh
//! cargo run --release -p xmlshred-bench --bin reproduce -- all
//! cargo run --release -p xmlshred-bench --bin reproduce -- fig5 --threads 4
//! cargo run --release -p xmlshred-bench --bin reproduce -- fig7 --scale 0.2
//! cargo run --release -p xmlshred-bench --bin reproduce -- fig4 --scale 0.25 --seed 8
//! cargo run --release -p xmlshred-bench --bin reproduce -- figures --threads 1
//! cargo run --release -p xmlshred-bench --bin reproduce -- claims --scale 0.25
//! cargo run --release -p xmlshred-bench --bin reproduce -- faults --seed 3 --points 1
//! cargo run --release -p xmlshred-bench --bin reproduce -- pins heal faults
//! ```
//!
//! Experiments: the ids [`xmlshred_bench::experiments::run`] lists; the
//! README's Quickstart says what each one checks.
//! `--scale X` scales the datasets; normalized figures are scale-stable.
//! `--seed K` picks draw K of the figure experiments' dataset and workload
//! seeds (default 0); `claims` judges draws 0-11 and rejects it.
//! `--threads N` and `--no-plan-cache` shape the advisor search and
//! `--exec-threads N` the executor; none changes a recommendation, an
//! answer or a measured cost, so no closing hash line (`figures`,
//! `claims`, `crash`/`heal`/`faults` matrix, `soak`, `serve`, `adapt`,
//! `exec` sweep) moves with them. `--deadline-ms N` arms an anytime
//! deadline on the evaluation runs. `--seed`, `--points` and `--ops` are
//! one flag each across the seeded experiments, each with the
//! experiment's own default; `--data-dir PATH` keeps a matrix's per-cell
//! databases and reports, `--list-cells` lists its cells without running
//! them, and `--metrics-out` belongs to `profile` ([`RunOptions`]
//! documents every knob). Timings here are for reading, not for gating:
//! the repo's one benchmark is `perf/` (see `perf/README.md`).
//!
//! `reproduce pins [name…] [--data-dir DIR]` checks the hashes pinned in
//! the working directory's `PINS` file (all of them when no name is
//! given): it reruns this binary once per variant of each entry and exits
//! nonzero on any hash that differs from its pin or from another variant
//! ([`xmlshred_bench::pins`]). Under `--data-dir` each run keeps its
//! stdout and its data directory in `DIR/<name>-<variant>`.
//!
//! A flag whose value is missing or does not parse, and any argument after
//! the experiment name that is not a known flag, is an error naming it.

// Robustness gate: library code must propagate typed errors, not unwrap.
// Tests are exempt (unwrap there is an assertion).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::time::Instant;
use xmlshred_bench::experiments::RunOptions;
use xmlshred_bench::harness::Draw;
use xmlshred_core::SearchOptions;

const UNSIGNED: &str = "an unsigned integer";
const NUMBER: &str = "a number";
const PATH: &str = "a path";

/// Remove `flag` and its value from `args` and parse the value, or `None`
/// when the flag is absent. A missing or unparsable value is fatal.
fn take_value<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
    expected: &str,
) -> Option<T> {
    let pos = args.iter().position(|a| a == flag)?;
    let Some(raw) = args.get(pos + 1).cloned() else {
        fail(&format!("{flag}: expected {expected}, got nothing"));
    };
    args.drain(pos..=pos + 1);
    match raw.parse() {
        Ok(value) => Some(value),
        Err(_) => fail(&format!("{flag}: expected {expected}, got '{raw}'")),
    }
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let data_dir = take_value::<String>(&mut args, "--data-dir", PATH);
    if args.first().is_some_and(|a| a == "pins") {
        let names = &args[1..];
        if let Some(flag) = names.iter().find(|a| a.starts_with('-')) {
            fail(&format!("unknown argument '{flag}'"));
        }
        if let Err(message) = xmlshred_bench::pins::run(names, data_dir.as_deref()) {
            fail(&message);
        }
        return;
    }
    let scale = take_value::<f64>(&mut args, "--scale", NUMBER).unwrap_or(1.0);
    let mut search = SearchOptions::default();
    if let Some(n) = take_value::<usize>(&mut args, "--threads", UNSIGNED) {
        search.threads = n;
    }
    if let Some(pos) = args.iter().position(|a| a == "--no-plan-cache") {
        search.plan_cache = false;
        args.remove(pos);
    }
    let mut exec = xmlshred_rel::ExecOptions::default();
    if let Some(n) = take_value::<usize>(&mut args, "--exec-threads", UNSIGNED) {
        exec.threads = n;
    }
    let deadline_ms = take_value::<u64>(&mut args, "--deadline-ms", UNSIGNED);
    let seed = take_value::<u64>(&mut args, "--seed", UNSIGNED);
    let draw =
        Draw::new(scale, seed.unwrap_or(0)).unwrap_or_else(|m| fail(&format!("--scale: {m}")));
    let points = take_value::<usize>(&mut args, "--points", UNSIGNED);
    let ops = take_value::<usize>(&mut args, "--ops", UNSIGNED);
    let metrics_out = take_value::<String>(&mut args, "--metrics-out", PATH);
    let mut list_cells = false;
    if let Some(pos) = args.iter().position(|a| a == "--list-cells") {
        list_cells = true;
        args.remove(pos);
    }
    if let Some(extra) = args.get(1) {
        fail(&format!("unknown argument '{extra}'"));
    }
    let experiment = args.first().map(String::as_str).unwrap_or("all");
    if experiment == "pins" {
        fail("pins takes pin names and --data-dir only");
    }

    let threads = |n: usize| match n {
        0 => "auto".to_string(),
        n => n.to_string(),
    };
    println!(
        "xmlshred reproduction harness — experiment '{experiment}', scale {:.2}, threads {}, exec-threads {}, plan cache {}",
        scale,
        threads(search.threads),
        threads(exec.threads),
        if search.plan_cache { "on" } else { "off" }
    );
    let opts = RunOptions {
        search,
        deadline_ms,
        seed,
        points,
        ops,
        exec,
        metrics_out,
        data_dir,
        list_cells,
    };
    if let Some(ms) = deadline_ms {
        println!("anytime deadline: {ms}ms per search");
    }
    let start = Instant::now();
    match xmlshred_bench::experiments::run(experiment, &draw, &opts) {
        Ok(()) => println!("\ncompleted in {:.1}s", start.elapsed().as_secs_f64()),
        Err(message) => fail(&message),
    }
}
