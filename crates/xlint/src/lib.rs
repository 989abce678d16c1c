//! `xlint` — the workspace's offline, flow-aware protocol linter.
//!
//! Every figure and table this reproduction regenerates depends on the
//! replication protocol closing every lock, abort tombstone, multipart
//! upload and trace span on every path, and on wall-clock values never
//! reaching simulated state. Those are path properties no token scan or
//! clippy lint sees, so xlint parses each function into a small AST and
//! walks its paths (see [`flow`]): `protocol-resource-balance`,
//! `span-balance` and `determinism-taint`, plus `bad-pragma` for its own
//! suppression comments and `parse-error` for any item it cannot read. What
//! it tracks is the constant table in [`policy`]; xlint has no options and
//! no config file. No `syn`, no registry, no dependencies. The token-level
//! determinism rules (wall clock, OS entropy, hash order, threads, unwraps,
//! ad-hoc output, dropped results, layering) are clippy lints and Cargo
//! facts; see DESIGN.md "Determinism invariants and how they're enforced".
//!
//! Entry points:
//! * [`rules::check_file`] — lint one source text.
//! * [`lint_root`] — walk a workspace and lint every `.rs` file.
//! * [`fixtures::run_self_test`] — run the engine against the embedded
//!   violating/clean/pragma'd corpus (`cargo test` runs it).

pub mod ast;
pub mod fixtures;
pub mod flow;
pub mod lexer;
pub mod policy;
pub mod report;
pub mod rules;

use rules::{Finding, Prepared};
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into, besides dot-directories: build
/// output, the vendored registry stand-ins (third-party API surface, not
/// our code) and replbench, a separate workspace that times the host by
/// design and only reads the simulator's public API.
const SKIP_DIRS: [&str; 3] = ["target", "vendor", "replbench"];

/// Reads and prepares every workspace `.rs` file under `root`, in path
/// order.
pub fn prepare_root(root: &Path) -> io::Result<Vec<Prepared>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    files
        .iter()
        .map(|rel| {
            let src = std::fs::read_to_string(root.join(rel))?;
            Ok(rules::prepare(
                &rel.to_string_lossy().replace('\\', "/"),
                &src,
            ))
        })
        .collect()
}

/// Walks `root` and lints every workspace `.rs` file. Every file is parsed
/// before any is checked, so cross-file call summaries see the whole
/// workspace. Findings come back sorted by path, then line.
pub fn lint_root(root: &Path) -> io::Result<Vec<Finding>> {
    let prepared = prepare_root(root)?;
    let summaries = rules::build_summaries(&prepared);
    let mut findings: Vec<Finding> = prepared
        .iter()
        .flat_map(|p| rules::check_prepared(p, &summaries))
        .collect();
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(findings)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !name.starts_with('.') && !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
    Ok(())
}

/// Finds the workspace root: walks up from `start` looking for a
/// `Cargo.toml` containing `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        cur = dir.parent();
    }
    None
}
