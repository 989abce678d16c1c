//! CLI for the workspace linter.
//!
//! ```text
//! xlint
//! ```
//!
//! Takes no arguments: it walks up from the current directory to the
//! workspace root and lints every workspace `.rs` file under it. Exit
//! codes: 0 clean, 1 findings, 2 usage/IO error. CI runs `cargo run -p
//! xlint --release` as a hard gate; `cargo test` runs the fixture corpus
//! (`rule_tests.rs`'s `embedded_self_test_passes`).

use std::process::ExitCode;

use xlint::report::render;

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        return usage(&format!("unexpected argument `{arg}`"));
    }
    let cwd = std::env::current_dir().ok();
    let Some(root) = cwd.and_then(|cwd| xlint::find_workspace_root(&cwd)) else {
        return usage("no workspace root found (run inside the repo)");
    };
    match xlint::lint_root(&root) {
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
    eprintln!("usage: xlint (no arguments; run inside the workspace)");
    ExitCode::from(2)
}
