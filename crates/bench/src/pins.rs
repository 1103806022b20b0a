//! `reproduce pins`: the determinism hashes, each stated once in the
//! repository's `PINS` file and checked by re-running `reproduce`.
//!
//! A `PINS` line reads `<name> <hash> <experiment> [arg…] ; <variant> ; …`,
//! where each variant is a list of arguments appended to the entry's;
//! blank lines and `#` lines are comments. Every variant runs in a fresh
//! `reproduce` process and must print the entry's hash on its one
//! `… hash: <16 hex digits>` line, so the variants also agree with each
//! other. Re-pinning a hash is a hand edit of its one line, which a
//! failing check prints.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The pin file, read from the working directory.
const PINS_FILE: &str = "PINS";

/// One `PINS` entry.
#[derive(Debug)]
struct Pin {
    name: String,
    /// The expected hash: 16 lowercase hex digits.
    hash: String,
    /// The experiment and the arguments every variant shares.
    args: Vec<String>,
    /// The arguments each run appends; never empty, nor is any variant.
    variants: Vec<Vec<String>>,
}

impl Pin {
    /// This entry's `PINS` line, pinned at `hash`.
    fn line(&self, hash: &str) -> String {
        let mut line = format!("{} {hash} {}", self.name, self.args.join(" "));
        for variant in &self.variants {
            line.push_str(" ; ");
            line.push_str(&variant.join(" "));
        }
        line
    }
}

fn is_hash(text: &str) -> bool {
    text.len() == 16
        && text
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// Parse the text of a `PINS` file. A line without a name, a hash, an
/// experiment and at least one non-empty variant, or whose name an earlier
/// line already took, is an error naming its line number.
fn parse(text: &str) -> Result<Vec<Pin>, String> {
    let mut pins: Vec<Pin> = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let error = |what: String| format!("{PINS_FILE} line {}: {what}: '{line}'", number + 1);
        let mut parts = line
            .split(';')
            .map(|part| part.split_whitespace().map(str::to_string).collect());
        let head: Vec<String> = parts.next().unwrap_or_default();
        let [name, hash, args @ ..] = head.as_slice() else {
            return Err(error(
                "expected '<name> <hash> <experiment> [arg…] ; <variant> …'".into(),
            ));
        };
        if args.is_empty() {
            return Err(error("no experiment".into()));
        }
        if !is_hash(hash) {
            return Err(error(format!("'{hash}' is not 16 lowercase hex digits")));
        }
        let variants: Vec<Vec<String>> = parts.collect();
        if variants.is_empty() || variants.iter().any(Vec::is_empty) {
            return Err(error(format!(
                "pin '{name}' needs non-empty variants after ';'"
            )));
        }
        if pins.iter().any(|pin| &pin.name == name) {
            return Err(error(format!("duplicate pin '{name}'")));
        }
        pins.push(Pin {
            name: name.clone(),
            hash: hash.clone(),
            args: args.to_vec(),
            variants,
        });
    }
    Ok(pins)
}

/// The entries `names` picks, in the order given; no names picks all. An
/// unknown name is an error listing the known ones.
fn select<'a>(pins: &'a [Pin], names: &[String]) -> Result<Vec<&'a Pin>, String> {
    if names.is_empty() {
        return Ok(pins.iter().collect());
    }
    names
        .iter()
        .map(|name| {
            pins.iter().find(|pin| &pin.name == name).ok_or_else(|| {
                let known: Vec<&str> = pins.iter().map(|pin| pin.name.as_str()).collect();
                format!("unknown pin '{name}'; known: {}", known.join(" "))
            })
        })
        .collect()
}

/// The hash on the one `… hash: <16 hex digits>` line of a run's stdout.
fn printed_hash(stdout: &str) -> Result<String, String> {
    let hashes: Vec<&str> = stdout
        .lines()
        .filter_map(|line| line.trim_end().rsplit_once("hash: "))
        .map(|(_, hash)| hash)
        .filter(|hash| is_hash(hash))
        .collect();
    match hashes.as_slice() {
        [hash] => Ok(hash.to_string()),
        _ => Err(format!(
            "expected one '… hash: <16 hex digits>' line, found {}",
            hashes.len()
        )),
    }
}

/// Run every variant of every pin through `run`, which takes the run's
/// full argument list and its name (`<pin>-<variant>`) and returns its
/// stdout. Prints an expected/actual row per run as it ends, and fails
/// naming every run whose hash differs from its pin or from its pin's
/// other variants, with the `PINS` line that would re-pin an entry whose
/// variants agree.
fn check(
    pins: &[&Pin],
    mut run: impl FnMut(&[String], &str) -> Result<String, String>,
) -> Result<(), String> {
    println!(
        "{:<8} {:<18} {:<16}  {:<16}",
        "pin", "variant", "expected", "actual"
    );
    let mut failures = Vec::new();
    for pin in pins {
        let mut printed: Vec<(String, String)> = Vec::new();
        for variant in &pin.variants {
            let label = variant.join(" ");
            let args: Vec<String> = pin.args.iter().chain(variant).cloned().collect();
            let slug: Vec<&str> = variant.iter().map(|a| a.trim_start_matches('-')).collect();
            let outcome = run(&args, &format!("{}-{}", pin.name, slug.join("-")))
                .and_then(|stdout| printed_hash(&stdout));
            let (actual, verdict) = match &outcome {
                Ok(hash) if *hash == pin.hash => (hash.as_str(), "ok"),
                Ok(hash) => (hash.as_str(), "DIFFERS"),
                Err(_) => ("-", "FAILED"),
            };
            println!(
                "{:<8} {:<18} {:<16}  {:<16}  {verdict}",
                pin.name, label, pin.hash, actual
            );
            match outcome {
                Ok(hash) => printed.push((label, hash)),
                Err(e) => failures.push(format!("pin {} ({label}): {e}", pin.name)),
            }
        }
        let Some((first_label, first)) = printed.first() else {
            continue;
        };
        if let Some((label, other)) = printed.iter().find(|(_, hash)| hash != first) {
            failures.push(format!(
                "pin {}: its variants disagree: {first_label} printed {first}, {label} printed {other}",
                pin.name
            ));
            continue;
        }
        if *first != pin.hash {
            for (label, hash) in &printed {
                failures.push(format!(
                    "pin {} ({label}): {PINS_FILE} expects {}, the run printed {hash}",
                    pin.name, pin.hash
                ));
            }
            if printed.len() == pin.variants.len() {
                failures.push(format!(
                    "a change that means to move it re-pins it with this {PINS_FILE} line:\n  {}",
                    pin.line(first)
                ));
            }
        }
    }
    if failures.is_empty() {
        println!("{} pin(s) hold", pins.len());
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// One variant's run: this executable, with stderr passed through. Under `data_dir` the run gets `--data-dir
/// <data_dir>/<run>` and its stdout is kept there as `output.txt`.
fn run_reproduce(args: &[String], run: &str, data_dir: Option<&Path>) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate reproduce: {e}"))?;
    let mut command = Command::new(&exe);
    command.args(args).stderr(Stdio::inherit());
    let dir: Option<PathBuf> = data_dir.map(|base| base.join(run));
    if let Some(dir) = &dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        command.arg("--data-dir").arg(dir);
    }
    let out = command
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if let Some(dir) = &dir {
        let path = dir.join("output.txt");
        std::fs::write(&path, &stdout).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if !out.status.success() {
        return Err(format!(
            "reproduce {} failed ({})",
            args.join(" "),
            out.status
        ));
    }
    Ok(stdout)
}

/// `reproduce pins [name…]`: check the named entries of the working
/// directory's `PINS` file (all of them when none is named), each variant
/// in its own `reproduce` process.
pub fn run(names: &[String], data_dir: Option<&str>) -> Result<(), String> {
    let text = std::fs::read_to_string(PINS_FILE)
        .map_err(|e| format!("cannot read ./{PINS_FILE} (run from the repository root): {e}"))?;
    let pins = parse(&text)?;
    let selected = select(&pins, names)?;
    check(&selected, |args, run| {
        run_reproduce(args, run, data_dir.map(Path::new))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO: &str = "# a comment\n\nheal 543d4b397872116e heal ; --exec-threads 1 ; --exec-threads 4\n\
                       exec a0893f0a656e7409 exec --scale 0.2 ; --exec-threads 1 ; --exec-threads 4\n";

    fn parse_error(text: &str) -> String {
        parse(text).expect_err("the text does not parse")
    }

    #[test]
    fn parses_entries_and_skips_comments() {
        let pins = parse(TWO).unwrap();
        assert_eq!(pins.len(), 2);
        assert_eq!(pins[1].name, "exec");
        assert_eq!(pins[1].args, ["exec", "--scale", "0.2"]);
        assert_eq!(pins[1].variants[1], ["--exec-threads", "4"]);
        assert_eq!(
            pins[1].line(&pins[1].hash),
            "exec a0893f0a656e7409 exec --scale 0.2 ; --exec-threads 1 ; --exec-threads 4"
        );
    }

    #[test]
    fn malformed_lines_are_errors_naming_the_line() {
        let short = parse_error("# c\nheal 543d4b397872116e\n");
        assert!(short.contains("line 2"), "{short}");
        let bad_hash = parse_error("heal 543d4b39787211 heal ; --exec-threads 1\n");
        assert!(bad_hash.contains("line 1") && bad_hash.contains("543d4b39787211"));
        let upper = parse_error("heal 543D4B397872116E heal ; --exec-threads 1\n");
        assert!(upper.contains("not 16 lowercase hex digits"), "{upper}");
    }

    #[test]
    fn duplicate_name_is_an_error_naming_the_line() {
        let text = format!("{TWO}heal 0000000000000000 heal ; --exec-threads 2\n");
        let e = parse_error(&text);
        assert!(
            e.contains("line 5") && e.contains("duplicate pin 'heal'"),
            "{e}"
        );
    }

    #[test]
    fn entry_without_a_variant_is_an_error_naming_the_line() {
        let none = parse_error("heal 543d4b397872116e heal\n");
        assert!(
            none.contains("line 1") && none.contains("variants"),
            "{none}"
        );
        let empty = parse_error("\nheal 543d4b397872116e heal ; --exec-threads 1 ;\n");
        assert!(empty.contains("line 2"), "{empty}");
    }

    #[test]
    fn a_run_must_print_exactly_one_hash_line() {
        assert_eq!(
            printed_hash("header\n\nheal matrix hash: 543d4b397872116e\ncompleted\n").unwrap(),
            "543d4b397872116e"
        );
        assert!(printed_hash("no hash here\n").is_err());
        let two = "a hash: 543d4b397872116e\nb hash: a0893f0a656e7409\n";
        assert!(printed_hash(two).unwrap_err().contains("found 2"));
    }

    /// A fake `reproduce` that prints `hash` for `--exec-threads 1` and
    /// `other` for every other variant, recording the runs' names.
    fn fake<'a>(
        hash: &'static str,
        other: &'static str,
        runs: &'a mut Vec<String>,
    ) -> impl FnMut(&[String], &str) -> Result<String, String> + 'a {
        move |args, run| {
            runs.push(run.to_string());
            let printed = if args.ends_with(&["1".to_string()]) {
                hash
            } else {
                other
            };
            Ok(format!("=== run ===\nheal matrix hash: {printed}\n"))
        }
    }

    #[test]
    fn matching_variants_pass() {
        let pins = parse(TWO).unwrap();
        let mut runs = Vec::new();
        let fake = fake("543d4b397872116e", "543d4b397872116e", &mut runs);
        check(&[&pins[0]], fake).unwrap();
        assert_eq!(runs, ["heal-exec-threads-1", "heal-exec-threads-4"]);
    }

    #[test]
    fn disagreeing_variants_are_an_error_naming_both() {
        let pins = parse(TWO).unwrap();
        let mut runs = Vec::new();
        let fake = fake("543d4b397872116e", "0123456789abcdef", &mut runs);
        let e = check(&[&pins[0]], fake).unwrap_err();
        assert!(e.contains("pin heal: its variants disagree"), "{e}");
        assert!(
            e.contains("--exec-threads 1 printed 543d4b397872116e"),
            "{e}"
        );
        assert!(
            e.contains("--exec-threads 4 printed 0123456789abcdef"),
            "{e}"
        );
        assert!(
            !e.contains("re-pins"),
            "disagreeing variants cannot be re-pinned: {e}"
        );
    }

    #[test]
    fn agreeing_variants_off_the_pin_print_the_re_pin_line() {
        let pins = parse(TWO).unwrap();
        let mut runs = Vec::new();
        let fake = fake("0123456789abcdef", "0123456789abcdef", &mut runs);
        let e = check(&[&pins[0]], fake).unwrap_err();
        assert!(
            e.contains("pin heal (--exec-threads 4): PINS expects 543d4b397872116e, the run printed 0123456789abcdef"),
            "{e}"
        );
        assert!(
            e.contains("heal 0123456789abcdef heal ; --exec-threads 1 ; --exec-threads 4"),
            "{e}"
        );
    }
}
