//! `cli_contract` — every bench binary turns a bad command line into a
//! usage error before it does any work.
//!
//! For each binary in `bench::cli::COMMANDS` it runs, one process at a
//! time: an unknown flag, a flag missing its value, and a rejected value
//! for each value kind in the binary's table (`--scale` gets `0`, `NaN`
//! and `inf`). Each run must exit with status 2, print the usage line
//! built from the table on stderr, and leave its working directory —
//! which every output flag points into — empty.

use bench::cli::{usage, Command, Kind, Leading, COMMANDS, FLEETGEN};
use std::path::Path;
use std::process::Stdio;

fn binary(bin: &str) -> &'static str {
    match bin {
        "repro" => env!("CARGO_BIN_EXE_repro"),
        "faultsweep" => env!("CARGO_BIN_EXE_faultsweep"),
        "scored" => env!("CARGO_BIN_EXE_scored"),
        "survd" => env!("CARGO_BIN_EXE_survd"),
        "servecheck" => env!("CARGO_BIN_EXE_servecheck"),
        "fleetbench" => env!("CARGO_BIN_EXE_fleetbench"),
        "fleetgen" => env!("CARGO_BIN_EXE_fleetgen"),
        "policybench" => env!("CARGO_BIN_EXE_policybench"),
        "artifact-check" => env!("CARGO_BIN_EXE_artifact-check"),
        other => panic!("no binary {other}"),
    }
}

/// Values `kind` must reject; `None` for kinds that take any value.
fn rejected(kind: Kind) -> Option<Vec<String>> {
    let values: &[&str] = match kind {
        Kind::Positive => &["0", "NaN", "inf"],
        Kind::Count(min) => return Some(vec![min.saturating_sub(1).to_string()]),
        Kind::U64 => &["-1"],
        Kind::Fraction => &["1.5"],
        Kind::Fractions => &["0.1,2"],
        Kind::Choice => &["nope"],
        Kind::Text | Kind::Switch => return None,
    };
    Some(values.iter().map(|v| v.to_string()).collect())
}

/// Every bad command line for `command`; `dir` is where outputs go.
fn cases(command: &Command, dir: &Path) -> Vec<Vec<String>> {
    let mut prefix: Vec<String> = match command.leading {
        Leading::Nothing => vec![],
        Leading::Choice(ids) => vec![ids.split('|').next().unwrap().to_string()],
        Leading::Paths => vec![dir.join("missing.json").display().to_string()],
    };
    for flag in command.flags {
        if matches!(flag.metavar, "DIR" | "PATH") {
            prefix.push(flag.name.to_string());
            prefix.push(dir.join(&flag.name[2..]).display().to_string());
        }
    }
    let with = |tail: &[&str]| {
        let mut args = prefix.clone();
        args.extend(tail.iter().map(|t| t.to_string()));
        args
    };

    let mut cases = vec![with(&["--nope"])];
    if let Some(flag) = command.flags.iter().find(|f| f.kind != Kind::Switch) {
        cases.push(with(&[flag.name]));
    }
    let mut kinds_seen = Vec::new();
    for flag in command.flags {
        if kinds_seen.contains(&flag.kind) {
            continue;
        }
        kinds_seen.push(flag.kind);
        for value in rejected(flag.kind).unwrap_or_default() {
            cases.push(with(&[flag.name, &value]));
        }
    }
    match command.leading {
        Leading::Nothing => {}
        Leading::Choice(_) => {
            let mut args = prefix.clone();
            args[0] = "nope".to_string();
            cases.push(args);
        }
        Leading::Paths => cases.push(vec![]),
    }
    if command.bin == FLEETGEN.bin {
        // Valid flags, but no output asked for: "nothing to do".
        cases.push(vec!["--scale".to_string(), "1".to_string()]);
    }
    cases
}

#[test]
fn bad_command_lines_exit_2_with_the_table_usage_and_write_nothing() {
    let root = std::env::temp_dir().join(format!("survdb-cli-contract-{}", std::process::id()));
    let mut runs = 0;
    for command in COMMANDS {
        let dir = root.join(command.bin);
        std::fs::create_dir_all(&dir).unwrap();
        for args in cases(command, &dir) {
            let output = std::process::Command::new(binary(command.bin))
                .args(&args)
                .current_dir(&dir)
                .env("SURVDB_THREADS", "1")
                .stdin(Stdio::null())
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(
                output.status.code(),
                Some(2),
                "{} {args:?}: {stderr}",
                command.bin
            );
            assert!(
                stderr.contains(&usage(command)),
                "{} {args:?}: no usage line in {stderr}",
                command.bin
            );
            let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
            assert!(
                written.is_empty(),
                "{} {args:?} wrote {written:?}",
                command.bin
            );
            runs += 1;
        }
    }
    assert!(runs >= 40, "only {runs} command lines ran");
    std::fs::remove_dir_all(&root).unwrap();
}
