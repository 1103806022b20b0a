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
