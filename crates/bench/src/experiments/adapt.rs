//! `adapt`: online self-tuning under a shifting live workload.
//!
//! Drives an [`AdaptiveDb`] with a seeded statement schedule that changes
//! character halfway through: the first half filters on one column, the
//! second half on another, with insert batches interleaved throughout
//! (each followed by an `ANALYZE`, and feeding the tuner's update loads).
//! The advisor watches the sliding profile, detects the drift, re-tunes on
//! a background thread, and installs each winning design via a
//! non-blocking online swap.
//!
//! Two things are checked and printed:
//!
//! * **Convergence** — a probe set of shifted-phase queries is costed at
//!   the shift point (design still tuned for the old phase) and again at
//!   the end (post-convergence). Measured cost must not increase; it
//!   drops when the advisor installed a design for the new phase.
//! * **Determinism** — the `adapt hash` folds every query answer, every
//!   drift decision, every installed configuration fingerprint, and the
//!   probe costs. It is a pure function of `(scale, seed, ops)` — decay
//!   is statement-count-based and the tuner is thread-invariant — so it
//!   must not move with `--exec-threads`; the repository's `PINS` file
//!   pins it.

use crate::experiments::RunOptions;
use crate::harness::{fold, fold_answer, mix, render_table};
use xmlshred_core::profile::{AdaptiveDb, ProfileOptions};
use xmlshred_rel::{
    ColumnDef, DataType, Database, Filter, FilterOp, Output, Row, SelectQuery, SessionDb, SqlQuery,
    TableDef, TableId, Value,
};

/// Statements per drift-check window, and the statements the profile
/// must hold before the first check.
const WINDOW: u64 = 64;
/// Distinct values in the first-phase filter column `a`.
const A_CARD: i64 = 50;
/// Distinct values in the second-phase filter column `b`.
const B_CARD: i64 = 11;

fn table_def() -> TableDef {
    TableDef::new(
        "adapt_log",
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("b", DataType::Int),
            ColumnDef::new("payload", DataType::Str),
        ],
    )
}

fn make_row(id: i64) -> Row {
    vec![
        Value::Int(id),
        Value::Int(id % A_CARD),
        Value::Int(id % B_CARD),
        Value::str(format!("payload-{id}")),
    ]
}

/// Equality query on column `col` (1 = `a`, 2 = `b`).
fn filter_query(table: TableId, col: usize, v: i64) -> SqlQuery {
    let mut q = SelectQuery::single(table);
    q.filters = vec![Filter::new(0, col, FilterOp::Eq, Value::Int(v))];
    q.outputs = vec![Output::col(0, 0), Output::col(0, col)];
    SqlQuery::Select(q)
}

/// Probe the shifted workload (every distinct second-phase query) outside
/// the profile: summed measured cost plus an answer digest.
fn probe_shifted(db: &SessionDb, table: TableId) -> Result<(f64, u64), String> {
    let mut cost = 0.0;
    let mut digest = 0x1ad4_a970_0b3e_5eedu64;
    for v in 0..B_CARD {
        let outcome = db
            .execute(&filter_query(table, 2, v))
            .map_err(|e| format!("probe query failed: {e}"))?;
        cost += outcome.exec.measured_cost();
        digest = fold_answer(digest, &outcome.rows, &outcome.exec);
    }
    Ok((cost, digest))
}

/// Run the adapt scenario: seeded shifting workload, advisor loop,
/// convergence check, and the pinned `adapt hash`.
pub fn run(scale: f64, opts: &RunOptions) -> Result<(), String> {
    let seed = opts.seed.unwrap_or(5);
    let ops = opts
        .ops
        .unwrap_or_else(|| ((scale * 512.0) as usize).max(256));
    let shift_at = ops / 2;
    let initial_rows = ((scale * 2048.0) as i64).max(512);
    println!(
        "\n=== Online adaptation bench (seed {seed}, {ops} stmts, window {WINDOW}, \
         shift at {shift_at}) ==="
    );

    let mut db = Database::new();
    db.set_exec_options(opts.exec);
    let table = db
        .create_table(table_def())
        .map_err(|e| format!("create_table failed: {e}"))?;
    db.insert_rows(table, (0..initial_rows).map(make_row))
        .map_err(|e| format!("initial load failed: {e}"))?;
    // The advisor tunes against statistics of the loaded heap; each later
    // insert through `AdaptiveDb` analyzes again.
    db.analyze()
        .map_err(|e| format!("initial analyze failed: {e}"))?;

    let mut adb = AdaptiveDb::new(
        SessionDb::new(db),
        ProfileOptions {
            window: WINDOW,
            min_statements: WINDOW,
            seed,
            drift_threshold: 0.25,
            ..ProfileOptions::default()
        },
    );

    let mut hash = mix(seed ^ ops as u64 ^ WINDOW << 32);
    let mut next_id = initial_rows;
    let mut pre = None;
    for i in 0..ops {
        if i == shift_at {
            // Cost the shifted workload before the advisor has seen it:
            // the installed design still reflects the first phase.
            let (cost, digest) = probe_shifted(adb.session(), table)?;
            hash = fold(hash, digest);
            pre = Some(cost);
        }
        let roll = mix(seed ^ 0xada9_7000 ^ i as u64);
        if roll.is_multiple_of(8) {
            let batch: Vec<Row> = (next_id..next_id + 8).map(make_row).collect();
            next_id += 8;
            adb.insert_rows(table, batch)
                .map_err(|e| format!("insert at stmt {i} failed: {e}"))?;
        } else {
            let pick = (roll >> 8) as i64;
            let query = if i < shift_at {
                filter_query(table, 1, pick.rem_euclid(A_CARD))
            } else {
                filter_query(table, 2, pick.rem_euclid(B_CARD))
            };
            let outcome = adb
                .execute(&query)
                .map_err(|e| format!("query at stmt {i} failed: {e}"))?;
            hash = fold_answer(hash, &outcome.rows, &outcome.exec);
        }
    }
    let pre_cost = pre.ok_or("shift point never reached")?;
    let (post_cost, post_digest) = probe_shifted(adb.session(), table)?;
    hash = fold(hash, post_digest);
    hash = fold(hash, pre_cost.to_bits());
    hash = fold(hash, post_cost.to_bits());
    hash = fold(hash, adb.digest());

    let events = adb.events();
    let swaps = events.iter().filter(|e| e.applied.is_some()).count();
    let rows: Vec<Vec<String>> = events
        .iter()
        .map(|e| {
            vec![
                e.statement.to_string(),
                format!("{:.3}", e.decision.divergence),
                format!("{:.3}", e.decision.threshold),
                if e.decision.drifted { "yes" } else { "no" }.to_string(),
                e.applied
                    .map(|fp| format!("{fp:016x}"))
                    .unwrap_or_else(|| "-".to_string()),
                if e.est_cost.is_nan() {
                    "-".to_string()
                } else {
                    format!("{:.1}", e.est_cost)
                },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "stmt",
                "divergence",
                "threshold",
                "drift",
                "installed",
                "est cost"
            ],
            &rows,
        )
    );
    println!(
        "shifted-workload measured cost: {pre_cost:.1} before adaptation, \
         {post_cost:.1} after ({swaps} online swap(s))"
    );
    if swaps == 0 {
        return Err("advisor never installed a design".to_string());
    }
    if post_cost > pre_cost {
        return Err(format!(
            "adaptation regressed the shifted workload: {post_cost:.1} > {pre_cost:.1}"
        ));
    }
    println!("adapt hash: {hash:016x}");
    Ok(())
}
