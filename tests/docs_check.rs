//! `docs_check` — the bench commands the docs show must name real
//! binaries and real flags.
//!
//! Reads README.md, CONTRIBUTING.md, DESIGN.md, EXPERIMENTS.md and the
//! verify skill. Every `--bin X` must name a binary in
//! `bench::cli::COMMANDS`, and every `--flag` passed to a binary — after
//! `--bin X --`, or after the binary's name or path (`repro`,
//! `./target/release/repro`) — must be in that binary's table. A
//! command ends at the end of its line (or of a `\`-continued run of
//! lines), a backtick, ` | `, `&&`, `;` or a ` #` comment.

use bench::cli::{Command, COMMANDS};

const DOCS: [&str; 5] = [
    "README.md",
    "CONTRIBUTING.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().copied().find(|c| c.bin == name)
}

/// A token without the punctuation prose puts around it.
fn bare(token: &str) -> &str {
    token.trim_matches(|c: char| ".,:;()[]'\"".contains(c))
}

/// Stale bench references in one command segment.
fn check_segment(segment: &str, problems: &mut Vec<String>) {
    let mut current: Option<&Command> = None;
    // After `--bin X`, cargo's own flags run until the `--` separator.
    let mut cargo_flags = false;
    let mut tokens = segment.split_whitespace().map(bare);
    while let Some(token) = tokens.next() {
        if token == "--bin" {
            let name = tokens.next().map(bare).unwrap_or("");
            current = command(name);
            cargo_flags = true;
            if current.is_none() {
                problems.push(format!("--bin {name}: no such bench binary"));
            }
        } else if token == "--" {
            cargo_flags = false;
        } else if let Some(found) = command(token.rsplit('/').next().unwrap_or(token)) {
            current = Some(found);
            cargo_flags = false;
        } else if let (Some(c), false, true) = (current, cargo_flags, token.starts_with("--")) {
            for name in token.split('/').map(|f| f.split('=').next().unwrap_or(f)) {
                if !c.flags.iter().any(|f| f.name == name) {
                    problems.push(format!("{} {name}: no such flag", c.bin));
                }
            }
        }
    }
}

/// Stale bench references in a document, each with its line number.
fn stale_references(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let mut lines = text.lines().enumerate();
    while let Some((start, first)) = lines.next() {
        let mut line = first.to_string();
        while line.ends_with('\\') {
            line.pop();
            match lines.next() {
                Some((_, next)) => line += next,
                None => break,
            }
        }
        let mut found = Vec::new();
        for segment in line
            .split('`')
            .flat_map(|s| s.split(" | "))
            .flat_map(|s| s.split("&&"))
            .flat_map(|s| s.split(';'))
            .flat_map(|s| s.split(" #"))
        {
            check_segment(segment, &mut found);
        }
        problems.extend(
            found
                .into_iter()
                .map(|p| format!("line {}: {p}", start + 1)),
        );
    }
    problems
}

#[test]
fn documented_bench_commands_use_real_binaries_and_flags() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut problems = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(format!("{root}/{doc}")).unwrap();
        problems.extend(
            stale_references(&text)
                .into_iter()
                .map(|p| format!("{doc} {p}")),
        );
    }
    assert!(
        problems.is_empty(),
        "stale references:\n{}",
        problems.join("\n")
    );
}

#[test]
fn the_check_catches_stale_binaries_and_flags() {
    let doc = "\
cargo run --release -p bench --bin scored -- --scale 0.05 --tune
cargo run --release -p bench --bin scorer -- --scale 0.05
./target/release/fleetbench --scale 1 \\
    --shard 8 --out /tmp/a   # --shard is not a flag
Prose: `survd --addr A:P` and `servecheck --worker 4`; `--queue N` alone is not checked.
";
    assert_eq!(
        stale_references(doc),
        [
            "line 2: --bin scorer: no such bench binary",
            "line 3: fleetbench --shard: no such flag",
            "line 5: servecheck --worker: no such flag",
        ]
    );
}
