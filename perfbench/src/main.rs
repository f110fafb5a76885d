//! `perfbench` — runs one workload of survdb's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet|study|score|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a context line (machine, thread limit, seed, the workload's
//! reason) and, last, the result line: one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer ones with `--trace 1`.

use perfbench::{machine, run_workload, Run, Size, WORKLOADS};
use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 2018,
        seconds: 10.0,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == out.workload) {
        return Err(format!("unknown workload {:?}", out.workload));
    }
    if !out.seconds.is_finite() || out.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload fleet|study|score|serve --seed N --seconds S \
                 --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let (cores, cpu) = machine();
    forest::parallel::set_thread_limit(Some(cores));
    let work_dir =
        PathBuf::from(".perfbench").join(format!("{}-{}", args.workload, std::process::id()));
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads: cores,
        work_dir: work_dir.clone(),
    };
    let why = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map_or("", |(_, why)| why);
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"why\": \"{why}\", \"seed\": {}, \"trace\": {}, \
         \"nproc\": {cores}, \"cpu\": \"{}\", \"thread_limit\": {}}}}}",
        args.workload,
        args.seed,
        args.trace,
        cpu.replace('"', "'"),
        forest::parallel::thread_limit()
    );
    let outcome = run_workload(&args.workload, &run, Size::Full).expect("workload was validated");
    std::fs::remove_dir_all(&work_dir).ok();
    std::fs::remove_dir(".perfbench").ok();
    println!("{}", outcome.render(args.trace));
}
