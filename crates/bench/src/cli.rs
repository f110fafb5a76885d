//! The command lines of the bench binaries: one flag table per binary
//! and the one parser that reads them.
//!
//! Each [`Command`] lists its flags with name, metavar, typed [`Kind`]
//! and a one-line help. [`parse`] checks the arguments against the
//! table and rejects unknown flags, missing values and out-of-range
//! values, each as `SUBJECT: PROBLEM`. [`parse_or_exit`] logs that
//! message and the usage line built from the same table, then exits
//! with status 2 before the binary does any work; [`fail`] is the
//! status-1 exit of a run that cannot go on. Defaults stay with
//! each binary's options; a flag left out reads as `None`.
//! `tests/docs_check.rs` holds every command the docs show to
//! [`COMMANDS`].

use std::path::PathBuf;

/// How a flag's value is read, and which values it accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A positive finite float.
    Positive,
    /// An integer count of at least the given minimum.
    Count(usize),
    /// Any `u64`, zero included.
    U64,
    /// A float in `[0, 1]`.
    Fraction,
    /// A non-empty comma-separated list of floats in `[0, 1]`.
    Fractions,
    /// A path or other string, taken as given.
    Text,
    /// One of the metavar's `|`-separated alternatives.
    Choice,
    /// A switch: takes no value.
    Switch,
}

/// One flag of a command line.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag itself, `--` included.
    pub name: &'static str,
    /// The value's placeholder in the usage line (empty for a switch).
    pub metavar: &'static str,
    /// How the value is read.
    pub kind: Kind,
    /// One line of help.
    pub help: &'static str,
}

/// What a command takes ahead of its flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leading {
    /// Nothing: flags only.
    Nothing,
    /// Exactly one of these `|`-separated alternatives.
    Choice(&'static str),
    /// One or more paths.
    Paths,
}

/// One binary's command line.
#[derive(Debug)]
pub struct Command {
    /// The binary's name.
    pub bin: &'static str,
    /// What comes ahead of the flags.
    pub leading: Leading,
    /// Every flag the binary accepts.
    pub flags: &'static [Flag],
}

const fn flag(name: &'static str, metavar: &'static str, kind: Kind, help: &'static str) -> Flag {
    Flag {
        name,
        metavar,
        kind,
        help,
    }
}

use Kind::{Choice, Count, Fraction, Fractions, Positive, Switch, Text, U64};

/// `repro`: one table or figure of the paper, or `all` of them.
#[rustfmt::skip]
pub const REPRO: Command = Command {
    bin: "repro",
    leading: Leading::Choice(
        "fig1|fig2|fig3|fig5|fig6|fig7|fig8|fig9|tab1|tab2|obs|factors|prov|sweep|calib|models|ablate|segments|all",
    ),
    flags: &[
        flag("--scale", "F", Positive, "population scale (1.0 = canonical region sizes)"),
        flag("--seed", "N", U64, "master seed"),
        flag("--grid", "off|light|full", Choice, "grid-search preset"),
        flag("--reps", "N", Count(1), "repetitions per subgroup"),
        flag("--out", "DIR", Text, "artifact directory"),
    ],
};

/// `faultsweep`: the end-to-end degradation sweep.
#[rustfmt::skip]
pub const FAULTSWEEP: Command = Command { bin: "faultsweep", leading: Leading::Nothing, flags: &[
    flag("--scale", "F", Positive, "population scale of the swept fleet"),
    flag("--seed", "N", U64, "master seed"),
    flag("--rates", "R1,R2,...", Fractions, "fault rates to sweep"),
    flag("--out", "PATH", Text, "report file"),
] };

/// `scored`: train or load a model, score, write `scoring.json`.
#[rustfmt::skip]
pub const SCORED: Command = Command { bin: "scored", leading: Leading::Nothing, flags: &[
    flag("--scale", "F", Positive, "population scale of the scoring fleet"),
    flag("--seed", "N", U64, "master seed"),
    flag("--out", "DIR", Text, "artifact directory"),
    flag("--model", "PATH", Text, "load this model instead of training one"),
    flag("--tune", "", Switch, "when training, grid-search the hyper-parameters"),
] };

/// `survd`: the online scoring daemon.
#[rustfmt::skip]
pub const SURVD: Command = Command { bin: "survd", leading: Leading::Nothing, flags: &[
    flag("--addr", "A:P", Text, "bind address"),
    flag("--scale", "F", Positive, "population scale of the training fleet"),
    flag("--seed", "N", U64, "master seed"),
    flag("--model", "PATH", Text, "load this model instead of training one"),
    flag("--tune", "", Switch, "when training, grid-search the hyper-parameters"),
    flag("--workers", "N", Count(1), "connection workers"),
    flag("--queue", "N", Count(1), "admission-queue capacity"),
    flag("--batch-rows", "N", Count(1), "micro-batch row threshold"),
    flag("--batch-wait-ms", "N", U64, "micro-batch flush deadline in ms"),
    flag("--deadline-ms", "N", U64, "request deadline in ms; older admitted work sheds with 503 (0 = off)"),
    flag("--out", "DIR", Text, "model and artifact directory"),
] };

/// `servecheck`: the load phase and chaos sweep against in-process daemons.
#[rustfmt::skip]
pub const SERVECHECK: Command = Command { bin: "servecheck", leading: Leading::Nothing, flags: &[
    flag("--scale", "F", Positive, "population scale of the fixture fleet"),
    flag("--seed", "N", U64, "master seed"),
    flag("--workers", "N", Count(1), "daemon worker threads"),
    flag("--out", "DIR", Text, "artifact directory"),
] };

/// `fleetbench`: the streaming fleet pipeline over all three regions.
#[rustfmt::skip]
pub const FLEETBENCH: Command = Command { bin: "fleetbench", leading: Leading::Nothing, flags: &[
    flag("--scale", "F", Positive, "population scale (1.0 = canonical region sizes)"),
    flag("--seed", "N", U64, "master seed"),
    flag("--shards", "N", Count(1), "shards per region"),
    flag("--chunk", "N", Count(1), "whole subscriptions per ingest chunk"),
    flag("--order", "forward|backward", Choice, "shard visit order"),
    flag("--fault", "F", Fraction, "per-event fault probability"),
    flag("--out", "DIR", Text, "artifact directory"),
] };

/// `fleetgen`: generate and export one region's fleet.
#[rustfmt::skip]
pub const FLEETGEN: Command = Command { bin: "fleetgen", leading: Leading::Nothing, flags: &[
    flag("--region", "1|2|3", Choice, "region to generate"),
    flag("--scale", "F", Positive, "population scale"),
    flag("--seed", "N", U64, "master seed"),
    flag("--shards", "N", Count(1), "shards generated and written one at a time"),
    flag("--jsonl", "PATH", Text, "write the records as JSON Lines"),
    flag("--csv", "PATH", Text, "write a flat CSV summary"),
    flag("--events", "PATH", Text, "write the raw telemetry event stream"),
] };

/// `policybench`: what-if runs of the provisioning decision layer.
#[rustfmt::skip]
pub const POLICYBENCH: Command = Command { bin: "policybench", leading: Leading::Nothing, flags: &[
    flag("--scale", "F", Positive, "population scale of every cohort"),
    flag("--seed", "N", U64, "master seed"),
    flag("--shards", "N", Count(1), "subscription shards per region"),
    flag("--grid", "N", Count(2), "threshold-grid resolution"),
    flag("--model", "PATH", Text, "load this model instead of training one"),
    flag("--out", "DIR", Text, "artifact directory"),
] };

/// `artifact-check`: validate artifacts, compare their deterministic sections.
#[rustfmt::skip]
pub const ARTIFACT_CHECK: Command = Command { bin: "artifact-check", leading: Leading::Paths, flags: &[] };

/// Every bench binary's command line.
#[rustfmt::skip]
pub const COMMANDS: [&Command; 9] = [
    &REPRO, &FAULTSWEEP, &SCORED, &SURVD, &SERVECHECK, &FLEETBENCH, &FLEETGEN, &POLICYBENCH,
    &ARTIFACT_CHECK,
];

fn is_fraction(raw: &str) -> bool {
    raw.trim()
        .parse::<f64>()
        .is_ok_and(|x| (0.0..=1.0).contains(&x))
}

/// Why `flag` rejects `raw`, or `None` if it accepts it.
fn rejection(flag: &Flag, raw: &str) -> Option<String> {
    let (ok, expected) = match flag.kind {
        Positive => (
            raw.parse::<f64>().is_ok_and(|x| x > 0.0 && x.is_finite()),
            "a positive finite number".to_string(),
        ),
        Count(min) => (
            raw.parse::<usize>().is_ok_and(|n| n >= min),
            format!("an integer >= {min}"),
        ),
        U64 => (
            raw.parse::<u64>().is_ok(),
            "an unsigned integer".to_string(),
        ),
        Fraction => (is_fraction(raw), "a number in [0, 1]".to_string()),
        Fractions => (
            raw.split(',').all(is_fraction),
            "a comma-separated list of numbers in [0, 1]".to_string(),
        ),
        Choice => (
            flag.metavar.split('|').any(|c| c == raw),
            format!("one of {}", flag.metavar),
        ),
        Text | Switch => return None,
    };
    (!ok).then(|| format!("{} {raw}: expected {expected}", flag.name))
}

/// One binary's checked command line.
#[derive(Debug)]
pub struct Args {
    command: &'static Command,
    leading: Vec<String>,
    /// Per flag of the table: its value if given (empty for a switch).
    values: Vec<Option<String>>,
}

/// Checks `args` (the program name already dropped) against
/// `command`'s table. Leading arguments are the ones before the first
/// `--`-prefixed argument; a flag's value is the argument after it,
/// whatever it looks like. A repeated flag keeps its last value. Flags
/// are checked before the leading arguments.
pub fn parse(command: &'static Command, args: &[String]) -> Result<Args, String> {
    let split = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let (leading, rest) = args.split_at(split);
    let mut values = vec![None; command.flags.len()];
    let mut rest = rest.iter();
    while let Some(name) = rest.next() {
        let Some(i) = command.flags.iter().position(|f| f.name == name) else {
            return Err(format!("{name}: unknown flag"));
        };
        let flag = &command.flags[i];
        let raw = match flag.kind {
            Switch => "",
            _ => rest
                .next()
                .ok_or_else(|| format!("{name}: missing value {}", flag.metavar))?,
        };
        if let Some(message) = rejection(flag, raw) {
            return Err(message);
        }
        values[i] = Some(raw.to_string());
    }
    let wanted = match command.leading {
        Leading::Nothing => 0,
        Leading::Choice(_) => 1,
        Leading::Paths => leading.len().max(1),
    };
    if let Some(extra) = leading.get(wanted) {
        return Err(format!("{extra}: unknown flag"));
    }
    if leading.len() < wanted {
        return Err(format!(
            "{}: missing",
            leading_metavar(command).trim_start()
        ));
    }
    if let Leading::Choice(ids) = command.leading {
        if !ids.split('|').any(|id| id == leading[0]) {
            return Err(format!("{}: expected one of {ids}", leading[0]));
        }
    }
    let leading = leading.to_vec();
    Ok(Args {
        command,
        leading,
        values,
    })
}

/// The leading arguments' placeholder, after a space (empty if none).
fn leading_metavar(command: &Command) -> String {
    match command.leading {
        Leading::Nothing => String::new(),
        Leading::Choice(ids) => format!(" <{ids}>"),
        Leading::Paths => " PATH...".to_string(),
    }
}

/// The usage line, built from the table.
pub fn usage(command: &Command) -> String {
    let mut line = format!("usage: {}{}", command.bin, leading_metavar(command));
    for flag in command.flags {
        line += &match flag.kind {
            Switch => format!(" [{}]", flag.name),
            _ => format!(" [{} {}]", flag.name, flag.metavar),
        };
    }
    line
}

/// Logs `message`, the usage line and one help line per flag, then
/// exits with status 2.
pub fn usage_error(command: &Command, message: &str) -> ! {
    obs::error!(command.bin, "{message}");
    let mut text = usage(command);
    for flag in command.flags {
        let spelled = format!("{} {}", flag.name, flag.metavar);
        text += &format!("\n  {spelled:<24} {}", flag.help);
    }
    obs::error!(command.bin, "{text}");
    std::process::exit(2)
}

/// Logs `message` as `bin`'s error and exits with status 1: the run
/// cannot go on.
pub fn fail(bin: &'static str, message: impl std::fmt::Display) -> ! {
    obs::error!(bin, "{message}");
    std::process::exit(1)
}

/// Checks the process's arguments against `command`, or reports the
/// error through [`usage_error`].
pub fn parse_or_exit(command: &'static Command) -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse(command, &args).unwrap_or_else(|e| usage_error(command, &e))
}

impl Args {
    /// The arguments ahead of the flags.
    pub fn leading(&self) -> &[String] {
        &self.leading
    }

    /// The flag called `name` and its value, if given. Panics if `name`
    /// is not in the table or `fits` rejects its kind: both are slips
    /// in the calling binary, and every run of it makes the lookup.
    fn get(&self, name: &str, fits: fn(Kind) -> bool) -> (&Flag, Option<&str>) {
        let bin = self.command.bin;
        let i = self.command.flags.iter().position(|f| f.name == name);
        let i = i.unwrap_or_else(|| panic!("{name} is not a flag of {bin}"));
        let flag = &self.command.flags[i];
        assert!(fits(flag.kind), "{name} of {bin} read as the wrong kind");
        (flag, self.values[i].as_deref())
    }

    /// The value of a flag whose kind `fits`, parsed as `T`.
    fn parsed<T: std::str::FromStr>(&self, name: &str, fits: fn(Kind) -> bool) -> Option<T> {
        self.get(name, fits).1?.parse().ok()
    }

    /// A [`Kind::Positive`] or [`Kind::Fraction`] flag.
    pub fn float(&self, name: &str) -> Option<f64> {
        self.parsed(name, |k| matches!(k, Positive | Fraction))
    }

    /// A [`Kind::Count`] flag.
    pub fn count(&self, name: &str) -> Option<usize> {
        self.parsed(name, |k| matches!(k, Count(_)))
    }

    /// A [`Kind::U64`] flag.
    pub fn u64(&self, name: &str) -> Option<u64> {
        self.parsed(name, |k| k == U64)
    }

    /// A [`Kind::Fractions`] flag.
    pub fn floats(&self, name: &str) -> Option<Vec<f64>> {
        let value = self.get(name, |k| k == Fractions).1?;
        value.split(',').map(|r| r.trim().parse().ok()).collect()
    }

    /// A [`Kind::Text`] flag.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.get(name, |k| k == Text).1
    }

    /// A [`Kind::Text`] flag, as a path.
    pub fn path(&self, name: &str) -> Option<PathBuf> {
        self.text(name).map(PathBuf::from)
    }

    /// A [`Kind::Choice`] flag, mapped to the entry of `values` at the
    /// chosen alternative's place in the metavar.
    pub fn pick<T, const N: usize>(&self, name: &str, values: [T; N]) -> Option<T> {
        let (flag, chosen) = self.get(name, |k| k == Choice);
        let alternatives: Vec<&str> = flag.metavar.split('|').collect();
        assert_eq!(alternatives.len(), N, "{name} maps {N} values");
        let i = alternatives.iter().position(|a| Some(*a) == chosen)?;
        values.into_iter().nth(i)
    }

    /// Whether a [`Kind::Switch`] flag was given.
    pub fn switch(&self, name: &str) -> bool {
        self.get(name, |k| k == Switch).1.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::VisitOrder;

    fn run(command: &'static Command, args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(command, &args)
    }

    #[test]
    fn usage_lines_keep_every_flag_and_metavar() {
        // The hand-written usage strings the table replaced, verbatim
        // (repro's spelled its flags out only in its module docs).
        let lines = [
            (&REPRO, "usage: repro <fig1|fig2|fig3|fig5|fig6|fig7|fig8|fig9|tab1|tab2|obs|factors|prov|sweep|calib|models|ablate|segments|all> [--scale F] [--seed N] [--grid off|light|full] [--reps N] [--out DIR]"),
            (&FAULTSWEEP, "usage: faultsweep [--scale F] [--seed N] [--rates R1,R2,...] [--out PATH]"),
            (&SCORED, "usage: scored [--scale F] [--seed N] [--out DIR] [--model PATH] [--tune]"),
            (&SURVD, "usage: survd [--addr A:P] [--scale F] [--seed N] [--model PATH] [--tune] [--workers N] [--queue N] [--batch-rows N] [--batch-wait-ms N] [--deadline-ms N] [--out DIR]"),
            (&SERVECHECK, "usage: servecheck [--scale F] [--seed N] [--workers N] [--out DIR]"),
            (&FLEETBENCH, "usage: fleetbench [--scale F] [--seed N] [--shards N] [--chunk N] [--order forward|backward] [--fault F] [--out DIR]"),
            (&FLEETGEN, "usage: fleetgen [--region 1|2|3] [--scale F] [--seed N] [--shards N] [--jsonl PATH] [--csv PATH] [--events PATH]"),
            (&POLICYBENCH, "usage: policybench [--scale F] [--seed N] [--shards N] [--grid N] [--model PATH] [--out DIR]"),
            (&ARTIFACT_CHECK, "usage: artifact-check PATH..."),
        ];
        for (command, line) in lines {
            assert_eq!(usage(command), line);
        }
        let flags: usize = COMMANDS.iter().map(|c| c.flags.len()).sum();
        assert_eq!(flags, 49);
    }

    #[test]
    fn tables_are_well_formed() {
        for (i, command) in COMMANDS.iter().enumerate() {
            assert!(COMMANDS[..i].iter().all(|c| c.bin != command.bin));
            for (j, flag) in command.flags.iter().enumerate() {
                assert!(flag.name.starts_with("--"), "{}", flag.name);
                assert!(command.flags[..j].iter().all(|f| f.name != flag.name));
                assert_eq!(flag.metavar.is_empty(), flag.kind == Switch);
                assert!(!flag.help.is_empty());
            }
        }
    }

    #[test]
    fn every_kind_reads_its_values() {
        let repro = run(
            &REPRO,
            &[
                "fig1", "--scale", "0.1", "--seed", "7", "--grid", "full", "--reps", "2", "--out",
                "x",
            ],
        )
        .unwrap();
        assert_eq!(repro.leading(), ["fig1"]);
        assert_eq!(repro.float("--scale"), Some(0.1));
        assert_eq!(repro.u64("--seed"), Some(7));
        assert_eq!(repro.pick("--grid", [0, 1, 2]), Some(2));
        assert_eq!(repro.count("--reps"), Some(2));
        assert_eq!(repro.path("--out"), Some(PathBuf::from("x")));

        let defaults = run(&REPRO, &["all"]).unwrap();
        assert_eq!(defaults.float("--scale"), None);
        assert_eq!(defaults.pick("--grid", [0, 1, 2]), None);

        let sweep = run(&FAULTSWEEP, &["--rates", " 0.1, 1,0"]).unwrap();
        assert_eq!(sweep.floats("--rates"), Some(vec![0.1, 1.0, 0.0]));

        let fleet = run(
            &FLEETBENCH,
            &["--fault", "0", "--fault", "1", "--order", "backward"],
        );
        let fleet = fleet.unwrap();
        assert_eq!(fleet.float("--fault"), Some(1.0), "the last value wins");
        let orders = [VisitOrder::Forward, VisitOrder::Backward];
        assert_eq!(fleet.pick("--order", orders), Some(VisitOrder::Backward));

        let survd = run(&SURVD, &["--tune", "--deadline-ms", "0", "--addr", "--x"]).unwrap();
        assert!(survd.switch("--tune"));
        assert_eq!(survd.u64("--deadline-ms"), Some(0));
        assert_eq!(
            survd.text("--addr"),
            Some("--x"),
            "a value is taken as given"
        );
        assert!(!run(&SURVD, &[]).unwrap().switch("--tune"));

        assert_eq!(
            run(&POLICYBENCH, &["--grid", "2"]).unwrap().count("--grid"),
            Some(2)
        );
        assert_eq!(
            run(&ARTIFACT_CHECK, &["a", "b"]).unwrap().leading(),
            ["a", "b"]
        );
    }

    #[test]
    fn rejects_with_one_message_form() {
        let ids = "fig1|fig2|fig3|fig5|fig6|fig7|fig8|fig9|tab1|tab2|obs|factors|prov|sweep|calib|models|ablate|segments|all";
        let positive = "expected a positive finite number";
        let cases: Vec<(&'static Command, &[&str], String)> = vec![
            (&FLEETBENCH, &["--nope"], "--nope: unknown flag".into()),
            (&SCORED, &["stray"], "stray: unknown flag".into()),
            (&FLEETBENCH, &["--scale"], "--scale: missing value F".into()),
            (&SCORED, &["--scale", "0"], format!("--scale 0: {positive}")),
            (
                &SERVECHECK,
                &["--scale", "NaN"],
                format!("--scale NaN: {positive}"),
            ),
            (
                &POLICYBENCH,
                &["--scale", "-1"],
                format!("--scale -1: {positive}"),
            ),
            (
                &FLEETBENCH,
                &["--scale", "inf"],
                format!("--scale inf: {positive}"),
            ),
            (
                &SURVD,
                &["--workers", "0"],
                "--workers 0: expected an integer >= 1".into(),
            ),
            (
                &POLICYBENCH,
                &["--grid", "1"],
                "--grid 1: expected an integer >= 2".into(),
            ),
            (
                &SURVD,
                &["--seed", "-1"],
                "--seed -1: expected an unsigned integer".into(),
            ),
            (
                &FLEETBENCH,
                &["--fault", "1.5"],
                "--fault 1.5: expected a number in [0, 1]".into(),
            ),
            (
                &FAULTSWEEP,
                &["--rates", "0.1,,0.2"],
                "--rates 0.1,,0.2: expected a comma-separated list of numbers in [0, 1]".into(),
            ),
            (
                &FLEETBENCH,
                &["--order", "sideways"],
                "--order sideways: expected one of forward|backward".into(),
            ),
            (&REPRO, &[], format!("<{ids}>: missing")),
            (&REPRO, &["fig4"], format!("fig4: expected one of {ids}")),
            (&REPRO, &["fig1", "fig2"], "fig2: unknown flag".into()),
            (
                &REPRO,
                &["fig4", "--reps", "0"],
                "--reps 0: expected an integer >= 1".into(),
            ),
            (&ARTIFACT_CHECK, &[], "PATH...: missing".into()),
            (&ARTIFACT_CHECK, &["a", "--x"], "--x: unknown flag".into()),
        ];
        for (command, args, message) in cases {
            assert_eq!(run(command, args).unwrap_err(), message, "{args:?}");
        }
    }

    #[test]
    #[should_panic(expected = "--sclae is not a flag of scored")]
    fn reading_a_flag_outside_the_table_panics() {
        run(&SCORED, &[]).unwrap().float("--sclae");
    }
}
