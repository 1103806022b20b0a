//! Regenerate the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p xmlshred-bench --bin reproduce -- all
//! cargo run --release -p xmlshred-bench --bin reproduce -- fig4
//! cargo run --release -p xmlshred-bench --bin reproduce -- fig5 --threads 4
//! XMLSHRED_SCALE=0.2 cargo run --release -p xmlshred-bench --bin reproduce -- fig7
//! cargo run --release -p xmlshred-bench --bin reproduce -- chaos --fault-p 0.1 --deadline-ms 250
//! ```
//!
//! Experiments: `table1`, `motivating`, `fig4`/`fig5`/`fig6` (one shared
//! evaluation run), `fig7`, `fig8`, `fig9`, `updates`, `chaos`, `crash`,
//! `heal`, `profile`, `exec`, `serve`, `soak`, `adapt`, `all`. The `XMLSHRED_SCALE` environment
//! variable (or `--scale X`)
//! scales the dataset sizes; normalized figures are scale-stable.
//! `--threads N` sets the advisor worker-thread count (0 = all cores, the
//! default) and `--no-plan-cache` disables the what-if plan cache; neither
//! changes any recommendation, only running time and the cache counters.
//! `--exec-threads N` sets the query executor's morsel worker-thread count
//! (default 1; 0 = all cores) — rows, measured costs, and deterministic
//! metrics are bit-identical for any value, which the `exec` experiment
//! verifies by sweeping thread counts and comparing output hashes.
//! `profile` emits the three-tier metrics report; `--metrics-out PATH`
//! writes it as JSON.
//! `serve` benchmarks the multi-session TCP server: N concurrent clients
//! (sweep 1/4/8; `--serve-clients N` extends it) run a deterministic mixed
//! read/write workload, reporting p50/p99 latency and throughput; the
//! single-client run is asserted bit-identical to a library-path replay.
//! `soak` runs the seeded network-chaos soak matrix: 16 cells (client
//! count x wire-fault kind x overload on/off), each driving a durable
//! multi-session server through torn frames, disconnects, delays, and
//! admission-control shedding while every client operation is retried to
//! exactly-once completion; each cell must converge bit-identically —
//! live state == recovered state == a serial oracle replaying the
//! committed WAL prefix in commit-LSN order (rows and ExecStats) — and
//! the printed `soak hash` is a pure function of `(scale, ops)`,
//! bit-identical across `--exec-threads` values, which CI verifies.
//! `--seed S` seeds the fault scripts and backoff schedules (default 13),
//! `--ops N` sets the operations per client (default scale-derived), and
//! `--data-dir PATH` keeps the per-cell databases and writes a
//! `soak-reports.json` artifact (per-cell server counters and drain
//! reports). `--list-cells` prints the matrix without running it.
//! `adapt` runs the online self-tuning scenario: a seeded statement
//! schedule shifts character at its midpoint, the adaptive advisor
//! detects the drift and installs new designs via non-blocking online
//! swaps, and the shifted workload's measured cost must not rise.
//! `--seed S` seeds the schedule and drift jitter (default 5), `--ops N`
//! sets the statement count (default scale-derived), and
//! `--adapt-window N` sets the statements-per-drift-check window (default
//! 64). The printed `adapt hash` is a pure function of those knobs —
//! bit-identical across `--exec-threads` values, which CI verifies.
//! Timings here are for reading, not for gating: the repo's one benchmark
//! is `perf/` (see `perf/README.md`).
//!
//! Robustness knobs: `--fault-p X` injects what-if planner faults with
//! probability X, `--deadline-ms N` gives each strategy an anytime budget
//! of N milliseconds, and `--seed S` seeds the deterministic fault plane
//! (default 42). For `chaos` these override the built-in sweep grid;
//! for the evaluation experiments they apply directly to the search runs.
//!
//! Crash-recovery knobs (`crash` experiment): `--seed S` seeds the
//! deterministic crash positions (default 7), `--points N` sets the
//! number of crash seeds per (fixture, kind) cell (default 4, for a
//! 2x3x4 = 24-cell matrix), and `--data-dir PATH` keeps the durable
//! databases on disk and writes a `recovery-reports.json` artifact there
//! (without it, a temporary directory is used and removed).
//!
//! Self-healing knobs (`heal` experiment): `--seed S` seeds the
//! deterministic corruption sites (default 9) and `--points N` sets the
//! number of corruption seeds per (fixture, kind) cell (default 3, for
//! a 2x3x3 = 18-cell matrix over index/view/heap corruption).
//! `--data-dir PATH` keeps the durable databases and writes a
//! `heal-reports.json` artifact there. Both `crash` and `heal` accept
//! `--list-cells` to print their deterministic cell matrix (fixture, kind,
//! seed, site) without running any cell.
//!
//! `--seed`, `--points` and `--ops` are one flag each across experiments:
//! every seeded experiment reads the same three and keeps its own default.
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
    let fault_p = take_value::<f64>(&mut args, "--fault-p", NUMBER);
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
        fault_p,
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
    if fault_p.is_some() || deadline_ms.is_some() {
        println!(
            "robustness: fault-p {}, deadline {}, fault seed {}",
            fault_p.map_or("off".to_string(), |p| p.to_string()),
            deadline_ms.map_or("none".to_string(), |ms| format!("{ms}ms")),
            opts.fault_seed(),
        );
    }
    let start = Instant::now();
    match xmlshred_bench::experiments::run(experiment, scale, &opts) {
        Ok(()) => println!("\ncompleted in {:.1}s", start.elapsed().as_secs_f64()),
        Err(message) => fail(&message),
    }
}
