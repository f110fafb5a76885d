//! `artifact-check` — validates artifacts of every family so producer
//! drift fails the build.
//!
//! ```text
//! cargo run -p bench --bin artifact-check -- PATH...
//! ```
//!
//! Each PATH must parse and satisfy the validator its `schema` names
//! (see `bench::artifact`). All PATHs given together must share one
//! schema and have byte-identical deterministic sections, so passing
//! runs that differ only in thread count or shard layout checks that
//! neither leaks into them. Exits nonzero on the first violation.

use std::process::ExitCode;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    match bench::artifact::check_artifacts(&paths) {
        Ok(schema) => {
            println!(
                "[artifact-check] {} file(s) valid {schema}, deterministic sections byte-identical",
                paths.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            obs::error!("artifact-check", "{e}");
            ExitCode::FAILURE
        }
    }
}
