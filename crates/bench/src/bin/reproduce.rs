//! Regenerate the paper's tables and figures, and run the engine's
//! determinism matrices.
//!
//! ```sh
//! cargo run --release -p xmlshred-bench --bin reproduce -- all
//! cargo run --release -p xmlshred-bench --bin reproduce -- fig5 --threads 4
//! XMLSHRED_SCALE=0.2 cargo run --release -p xmlshred-bench --bin reproduce -- fig7
//! cargo run --release -p xmlshred-bench --bin reproduce -- figures --threads 1
//! cargo run --release -p xmlshred-bench --bin reproduce -- faults --seed 3 --points 1
//! ```
//!
//! Experiments: `table1`, `motivating`, `fig4`/`fig5`/`fig6` (one shared
//! evaluation run), `fig7`, `fig8`, `fig9`, `updates`, `figures` (all of
//! those), `crash`, `heal`, `faults`, `profile`, `exec`, `serve`, `soak`,
//! `adapt`, `all`; the README's Quickstart says what each one checks.
//! `--scale X` (or `XMLSHRED_SCALE`) scales the datasets; normalized
//! figures are scale-stable. `--threads N` and `--no-plan-cache` shape the
//! advisor search and `--exec-threads N` the executor; none changes a
//! recommendation, an answer or a measured cost, and every closing hash
//! line (`figures`, `crash`/`heal`/`faults` matrix, `soak`, `serve`,
//! `adapt`, `exec` sweep) is identical across them. `--deadline-ms N` arms
//! an anytime deadline on the evaluation runs. `--seed`, `--points` and
//! `--ops` are one flag each across the seeded experiments, each with the
//! experiment's own default; `--data-dir PATH` keeps a matrix's per-cell
//! databases and reports, `--list-cells` lists its cells without running
//! them, and `--metrics-out`, `--serve-clients` and `--adapt-window` belong
//! to `profile`, `serve` and `adapt` ([`RunOptions`] documents every knob).
//! Timings here are for reading, not for gating: the repo's one benchmark
//! is `perf/` (see `perf/README.md`).
//!
//! A flag whose value is missing or does not parse, and any argument after
//! the experiment name that is not a known flag, is an error naming it.

// Robustness gate: library code must propagate typed errors, not unwrap.
// Tests are exempt (unwrap there is an assertion).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::time::Instant;
use xmlshred_bench::experiments::RunOptions;
use xmlshred_bench::harness::BenchScale;
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
    let mut scale = BenchScale::from_env().unwrap_or_else(|m| fail(&m));
    if let Some(s) = take_value::<f64>(&mut args, "--scale", NUMBER) {
        scale = BenchScale::try_new(s).unwrap_or_else(|m| fail(&format!("--scale: {m}")));
    }
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
    let points = take_value::<usize>(&mut args, "--points", UNSIGNED);
    let ops = take_value::<usize>(&mut args, "--ops", UNSIGNED);
    let metrics_out = take_value::<String>(&mut args, "--metrics-out", PATH);
    let mut list_cells = false;
    if let Some(pos) = args.iter().position(|a| a == "--list-cells") {
        list_cells = true;
        args.remove(pos);
    }
    let data_dir = take_value::<String>(&mut args, "--data-dir", PATH);
    let serve_clients = take_value::<usize>(&mut args, "--serve-clients", UNSIGNED);
    let adapt_window = take_value::<usize>(&mut args, "--adapt-window", UNSIGNED).unwrap_or(64);
    if let Some(extra) = args.get(1) {
        fail(&format!("unknown argument '{extra}'"));
    }
    let experiment = args.first().map(String::as_str).unwrap_or("all");

    println!(
        "xmlshred reproduction harness — experiment '{experiment}', scale {:.2}, threads {}, exec-threads {}, plan cache {}",
        scale.0,
        if search.threads == 0 {
            "auto".to_string()
        } else {
            search.threads.to_string()
        },
        if exec.threads == 0 {
            "auto".to_string()
        } else {
            exec.threads.to_string()
        },
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
        serve_clients,
        adapt_window,
    };
    if let Some(ms) = deadline_ms {
        println!("anytime deadline: {ms}ms per search");
    }
    let start = Instant::now();
    match xmlshred_bench::experiments::run(experiment, scale, &opts) {
        Ok(()) => println!("\ncompleted in {:.1}s", start.elapsed().as_secs_f64()),
        Err(message) => fail(&message),
    }
}
