//! `reproduce` argument handling: a flag whose value does not parse, and
//! any argument it does not know, stop the run with an error naming the
//! flag instead of being dropped in favour of the defaults.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
}

fn assert_rejected(args: &[&str], flag: &str) {
    let out = reproduce(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} exited 0");
    assert!(
        stderr.contains(flag),
        "{args:?}: stderr does not name {flag}: {stderr}"
    );
}

#[test]
fn unknown_flag_is_rejected() {
    assert_rejected(&["heal", "--list-cells", "--sede", "5"], "'--sede'");
}

#[test]
fn unparsable_value_is_rejected() {
    assert_rejected(
        &["heal", "--list-cells", "--exec-threads", "x"],
        "--exec-threads: expected an unsigned integer, got 'x'",
    );
}

/// `--layout` once picked the `exec` sweep's storage layout; a script that
/// still passes it must fail rather than silently run the one layout left.
#[test]
fn removed_layout_flag_is_rejected() {
    assert_rejected(&["exec", "--layout", "columnar"], "'--layout'");
}

#[test]
fn heal_matrix_lists_its_cells() {
    let out = reproduce(&["heal", "--list-cells"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("heal matrix: 18 cells"), "{stdout}");
}

/// The table rows of a matrix's stdout: the lines that start with a fixture.
fn fixture_rows(out: &Output) -> Vec<Vec<String>> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|line| line.starts_with("dblp ") || line.starts_with("movie "))
        .map(|line| line.split_whitespace().map(str::to_string).collect())
        .collect()
}

/// `--list-cells` once printed a seed mix the crash cells never reduce;
/// every listed `crash@N` must be the frame the run's `crash@` column shows.
#[test]
fn crash_listing_names_the_frames_the_run_crashes_at() {
    let listed = reproduce(&["crash", "--list-cells"]);
    assert!(listed.status.success(), "{listed:?}");
    assert!(String::from_utf8_lossy(&listed.stdout).contains("crash matrix: 24 cells"));
    let run = reproduce(&["crash"]);
    assert!(run.status.success(), "{run:?}");
    let listed: Vec<Vec<String>> = fixture_rows(&listed)
        .into_iter()
        .map(|row| {
            let frame = row[3].strip_prefix("crash@").unwrap_or("?").to_string();
            vec![row[0].clone(), row[1].clone(), row[2].clone(), frame]
        })
        .collect();
    let ran: Vec<Vec<String>> = fixture_rows(&run)
        .into_iter()
        .map(|row| row[..4].to_vec())
        .collect();
    assert_eq!(listed.len(), 24);
    assert_eq!(listed, ran);
}

#[test]
fn faults_matrix_lists_its_schedules() {
    let out = reproduce(&["faults", "--list-cells"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("faults matrix: 20 cells"), "{stdout}");
}
