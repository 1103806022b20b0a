//! End-to-end smoke tests for `reproduce profile` and the CLI's scale
//! validation: the profile experiment must emit a well-formed JSON metrics
//! report carrying counters from all three tiers, and an invalid `--scale`
//! must fail fast with a clear error instead of silently collapsing to the
//! floor configuration.

use std::process::Command;

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

#[test]
fn profile_emits_valid_metrics_json() {
    let out_path = std::env::temp_dir().join(format!(
        "xmlshred-profile-smoke-{}.json",
        std::process::id()
    ));
    let output = reproduce()
        .args([
            "profile",
            "--scale",
            "0.01",
            "--metrics-out",
            out_path.to_str().expect("utf-8 temp path"),
        ])
        .output()
        .expect("reproduce binary runs");
    assert!(
        output.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("self-check passed"), "{stdout}");

    let json = std::fs::read_to_string(&out_path).expect("metrics report written");
    std::fs::remove_file(&out_path).ok();
    assert!(json.contains("\"schema\": \"xmlshred-metrics-v1\""));
    // Counters from all three tiers.
    assert!(
        json.contains("search.greedy.transformations_searched"),
        "{json}"
    );
    assert!(json.contains("tune.candidates_generated"), "{json}");
    assert!(json.contains("oracle.cache.lookups"), "{json}");
    assert!(json.contains("optimizer.plans_costed"), "{json}");
    assert!(json.contains("exec.tuples_processed"), "{json}");
    assert!(json.contains("space.built_bytes"), "{json}");
    // Cheap well-formedness check: balanced braces and brackets.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

#[test]
fn invalid_scale_flag_fails_fast() {
    let output = reproduce()
        .args(["profile", "--scale", "-2"])
        .output()
        .expect("reproduce binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("scale"), "{stderr}");
}
