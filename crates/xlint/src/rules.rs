//! The rule engine: the flow-aware protocol rules (see [`crate::flow`])
//! plus `bad-pragma` and `parse-error`, evaluated one prepared file at a
//! time.
//!
//! The token-level determinism rules live in clippy and the Cargo graph
//! (`clippy.toml`, the packages' `[lints.clippy]` tables, the lib roots'
//! `#![warn]`s); DESIGN.md "Determinism invariants and how they're
//! enforced" maps each invariant to its gate. The `xlint::allow(rule,
//! reason)` pragma is the pressure valve for the rare construct the flow
//! heuristics misread.

use crate::ast::{self, ParsedFile};
use crate::flow::{self, SemInput, Summaries};
use crate::lexer::{lex, LexedFile};

/// The rules a pragma may name. `parse-error` is not one: a pragma naming
/// it is itself a `bad-pragma` finding.
pub const RULE_NAMES: [&str; 4] = [
    "bad-pragma",
    "protocol-resource-balance",
    "span-balance",
    "determinism-taint",
];

/// A single lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// Where a file sits in the workspace, which determines rule applicability.
#[derive(Debug)]
struct FileScope {
    /// Owning crate's directory name under `crates/` ("areplica-core",
    /// "cloudsim", …); empty for the root package.
    krate: String,
    /// File lives in a tests/, benches/, or examples/ tree.
    test_tree: bool,
    /// File lives under a crate's src/ (library or bin target).
    in_src: bool,
}

fn classify(rel: &str) -> FileScope {
    let (krate, rest) = match rel.strip_prefix("crates/").and_then(|t| t.split_once('/')) {
        Some((k, rest)) => (k.to_string(), rest),
        None => (String::new(), rel),
    };
    let test_tree =
        rest.starts_with("tests/") || rest.starts_with("benches/") || rest.starts_with("examples/");
    FileScope {
        krate,
        test_tree,
        in_src: rest.starts_with("src/"),
    }
}

/// One lexed + parsed file, ready for the two-pass workspace lint: parse
/// everything first, build cross-file call summaries, then check each file.
pub struct Prepared {
    pub rel: String,
    scope: FileScope,
    pub lexed: LexedFile,
    pub parsed: ParsedFile,
}

impl Prepared {
    /// Lines where the parser gave up. Each is a `parse-error` finding:
    /// the item it sits in escapes the flow rules.
    pub fn parse_errors(&self) -> &[ast::ParseError] {
        &self.parsed.errors
    }

    fn sem_input(&self) -> SemInput<'_> {
        SemInput {
            rel: &self.rel,
            krate: &self.scope.krate,
            in_src: self.scope.in_src,
            test_tree: self.scope.test_tree,
            lexed: &self.lexed,
            parsed: &self.parsed,
        }
    }
}

/// Lexes and parses one file. Never fails: parse errors are recorded per
/// item, and [`check_prepared`] reports each one.
pub fn prepare(rel: &str, src: &str) -> Prepared {
    let scope = classify(rel);
    let lexed = lex(src);
    let parsed = ast::parse(&lexed.tokens);
    Prepared {
        rel: rel.to_string(),
        scope,
        lexed,
        parsed,
    }
}

/// Builds cross-file call summaries from every prepared file.
pub fn build_summaries(files: &[Prepared]) -> Summaries {
    let inputs: Vec<SemInput<'_>> = files.iter().map(|p| p.sem_input()).collect();
    flow::build_summaries(&inputs)
}

/// Runs every rule over one prepared file.
pub fn check_prepared(p: &Prepared, summaries: &Summaries) -> Vec<Finding> {
    let mut out = Vec::new();
    pragma_hygiene(&p.rel, &p.lexed, &mut out);
    parse_coverage(p, &mut out);
    flow::check_semantic(&p.sem_input(), summaries, &mut out);

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out.dedup();
    out
}

/// Lints one file's source text in isolation (fixtures, unit tests):
/// interprocedural summaries are built from this file alone. `rel` is the
/// workspace-relative path used for scoping and reporting.
pub fn check_file(rel: &str, src: &str) -> Vec<Finding> {
    let files = [prepare(rel, src)];
    let summaries = build_summaries(&files);
    check_prepared(&files[0], &summaries)
}

/// parse-error: an item the parser could not read. Every function in it
/// would silently escape the flow rules, so no pragma suppresses this.
fn parse_coverage(p: &Prepared, out: &mut Vec<Finding>) {
    for e in p.parse_errors() {
        out.push(Finding {
            rule: "parse-error",
            file: p.rel.clone(),
            line: e.line,
            message: format!(
                "xlint cannot parse this item ({}), so the flow rules would skip its functions",
                e.message
            ),
        });
    }
}

/// bad-pragma: malformed pragmas and pragmas naming unknown rules. Not
/// itself suppressible.
fn pragma_hygiene(rel: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    for bp in &lexed.bad_pragmas {
        out.push(Finding {
            rule: "bad-pragma",
            file: rel.to_string(),
            line: bp.line,
            message: bp.message.clone(),
        });
    }
    for p in &lexed.pragmas {
        if !RULE_NAMES.contains(&p.rule.as_str()) {
            out.push(Finding {
                rule: "bad-pragma",
                file: rel.to_string(),
                line: p.line,
                message: format!(
                    "pragma names unknown rule `{}` (known: {})",
                    p.rule,
                    RULE_NAMES.join(", ")
                ),
            });
        }
    }
}
