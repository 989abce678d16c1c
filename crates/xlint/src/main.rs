//! CLI for the workspace linter.
//!
//! ```text
//! xlint [--root DIR]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/IO error. CI runs `cargo run -p
//! xlint --release` as a hard gate; `cargo test` runs the fixture corpus
//! (`rule_tests.rs`'s `embedded_self_test_passes`).

use std::path::PathBuf;
use std::process::ExitCode;

use xlint::config::Config;
use xlint::report::render;

const USAGE: &str = "xlint [--root DIR]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root takes a directory"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root.or_else(|| {
        let cwd = std::env::current_dir().ok()?;
        xlint::find_workspace_root(&cwd)
    }) {
        Some(r) => r,
        None => return usage("no workspace root found (run inside the repo or pass --root)"),
    };

    let cfg = match Config::load(&root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("xlint: {e}");
            return ExitCode::from(2);
        }
    };

    match xlint::lint_root(&root, &cfg) {
        Ok(findings) => {
            print!("{}", render(&findings));
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xlint: io error: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("xlint: {msg}");
    eprintln!("usage: {USAGE}");
    ExitCode::from(2)
}
