//! `xlint` — the workspace's offline, flow-aware protocol linter.
//!
//! Every figure and table this reproduction regenerates depends on the
//! replication protocol closing every lock, abort tombstone, multipart
//! upload and trace span on every path, and on wall-clock values never
//! reaching simulated state. Those are path properties no token scan or
//! clippy lint sees, so xlint parses each function into a small AST and
//! walks its paths (see [`flow`]): `protocol-resource-balance`,
//! `span-balance` and `determinism-taint`, plus `bad-pragma` for its own
//! suppression comments. No `syn`, no registry, no dependencies. The
//! token-level determinism rules (wall clock, OS entropy, hash order,
//! threads, unwraps, ad-hoc output, dropped results, layering) are clippy
//! lints and Cargo facts; see DESIGN.md "Determinism invariants and how
//! they're enforced".
//!
//! Entry points:
//! * [`rules::check_file`] — lint one source text.
//! * [`lint_root`] — walk a workspace and lint every `.rs` file.
//! * [`fixtures::run_self_test`] — run the engine against the embedded
//!   violating/clean/pragma'd corpus (`cargo test` runs it).

pub mod ast;
pub mod config;
pub mod fixtures;
pub mod flow;
pub mod lexer;
pub mod report;
pub mod rules;

use config::Config;
use rules::Finding;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into, regardless of config.
const ALWAYS_SKIP_DIRS: [&str; 3] = ["target", ".git", ".github"];

/// Walks `root` and lints every workspace `.rs` file, honouring
/// `cfg.skip` path prefixes. Every file is parsed before any is checked, so
/// cross-file call summaries see the whole workspace. Findings come back
/// sorted by path, then line.
pub fn lint_root(root: &Path, cfg: &Config) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, cfg, &mut files)?;
    files.sort();
    let mut prepared = Vec::new();
    for rel in files {
        let abs = root.join(&rel);
        let src = std::fs::read_to_string(&abs)?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        prepared.push(rules::prepare(&rel_str, &src));
    }
    let summaries = rules::build_summaries(&prepared, cfg);
    let mut findings = Vec::new();
    for p in &prepared {
        findings.extend(rules::check_prepared(p, cfg, &summaries));
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(findings)
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<PathBuf>,
) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || ALWAYS_SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            if cfg
                .skip
                .iter()
                .any(|s| rel_str == *s || rel_str.starts_with(&format!("{s}/")))
            {
                continue;
            }
            collect_rs_files(root, &path, cfg, out)?;
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
