//! CLI for the workspace linter.
//!
//! ```text
//! xlint [--root DIR] [--self-test] [--list-rules]
//! ```
//!
//! Exit codes: 0 clean, 1 findings (or self-test failure), 2 usage/IO
//! error. CI runs `cargo run -p xlint --release` as a hard gate.

use std::path::PathBuf;
use std::process::ExitCode;

use xlint::config::Config;
use xlint::report::render;
use xlint::rules::RULE_NAMES;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut self_test = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root takes a directory"),
            },
            "--self-test" => self_test = true,
            "--list-rules" => {
                for r in RULE_NAMES {
                    println!("{r}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("xlint [--root DIR] [--self-test] [--list-rules]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    if self_test {
        let failures = xlint::fixtures::run_self_test();
        if failures.is_empty() {
            println!(
                "xlint --self-test: all {} fixtures behaved",
                xlint::fixtures::FIXTURES.len()
            );
            return ExitCode::SUCCESS;
        }
        for f in &failures {
            eprintln!("self-test failure: {f}");
        }
        return ExitCode::FAILURE;
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
    eprintln!("usage: xlint [--root DIR] [--self-test] [--list-rules]");
    ExitCode::from(2)
}
