//! `reproduce` argument handling: a flag whose value does not parse, and
//! any argument it does not know, stop the run with an error naming the
//! flag instead of being dropped in favour of the defaults. Also
//! `reproduce pins` against the repository's `PINS` file.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    reproduce_in(Path::new(env!("CARGO_MANIFEST_DIR")), args)
}

fn reproduce_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("reproduce runs")
}

/// The repository root, where `PINS` lives.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
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

/// `--fault-p` once armed what-if planner faults; the planner has no
/// transient failure to model, so a script that still passes it must fail
/// rather than run unfaulted.
#[test]
fn removed_fault_p_flag_is_rejected() {
    assert_rejected(
        &["fig4", "--scale", "0.01", "--fault-p", "0.1"],
        "'--fault-p'",
    );
}

/// `chaos` once swept planner-fault probabilities; its storage half is now
/// an event of the `faults` schedules.
#[test]
fn removed_chaos_experiment_is_unknown() {
    assert_rejected(&["chaos", "--scale", "0.01"], "unknown experiment 'chaos'");
}

/// `--serve-clients` once appended a client count to the serve sweep,
/// and `--adapt-window` once set the adapt scenario's drift window to its
/// one value in use; scripts that still pass them must fail.
#[test]
fn removed_serve_clients_and_adapt_window_flags_are_rejected() {
    assert_rejected(&["serve", "--serve-clients", "8"], "'--serve-clients'");
    assert_rejected(&["adapt", "--adapt-window", "64"], "'--adapt-window'");
}

#[test]
fn unknown_pin_is_rejected_with_the_known_names() {
    let out = reproduce_in(&repo_root(), &["pins", "nosuch"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{out:?}");
    assert!(
        stderr.contains(
            "unknown pin 'nosuch'; known: figures crash heal faults exec serve soak adapt"
        ),
        "{stderr}"
    );
}

/// A `PINS` file whose `heal` hash is one digit off fails `reproduce pins
/// heal`, naming the pin and both hashes.
#[test]
fn mutated_pin_fails_naming_both_hashes() {
    let pins = std::fs::read_to_string(repo_root().join("PINS")).unwrap();
    let line = pins
        .lines()
        .find(|line| line.starts_with("heal "))
        .expect("PINS pins heal");
    let pinned = line.split_whitespace().nth(1).unwrap().to_string();
    let last = pinned.chars().last().unwrap();
    let flipped = if last == '0' { '1' } else { '0' };
    let mutated = format!("{}{flipped}", &pinned[..15]);
    let dir = std::env::temp_dir().join(format!("xmlshred-pins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("PINS"), pins.replace(&pinned, &mutated)).unwrap();
    let out = reproduce_in(&dir, &["pins", "heal"]);
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{out:?}");
    assert!(
        stderr.contains(&format!(
            "pin heal (--exec-threads 1): PINS expects {mutated}, the run printed {pinned}"
        )),
        "{stderr}"
    );
    assert!(stderr.contains(line), "no re-pin line: {stderr}");
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

/// `--seed K` picks draw K of the figure experiments: Table 1's element
/// counts move with it, so the seed reaches the runners.
#[test]
fn seed_picks_the_figures_draw() {
    let elements = |seed: &str| {
        let out = reproduce(&["table1", "--scale", "0.01", "--seed", seed]);
        assert!(out.status.success(), "{out:?}");
        let rows = fixture_rows(&out);
        assert_eq!(rows.len(), 2, "{out:?}");
        rows.into_iter()
            .map(|row| row[1].clone())
            .collect::<Vec<_>>()
    };
    let (draw0, draw1) = (elements("0"), elements("1"));
    assert_eq!(elements("0"), draw0);
    assert_ne!(draw0[0], draw1[0]);
    assert_ne!(draw0[1], draw1[1]);
}
