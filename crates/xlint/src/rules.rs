//! The rule engine: named determinism/layering invariants evaluated over the
//! token stream of one file at a time.
//!
//! Every rule is heuristic-by-design (token patterns, not type inference) —
//! the `xlint::allow(rule, reason)` pragma is the pressure valve for the
//! rare construct the heuristics misread. Rules, what they catch, and why,
//! are documented in DESIGN.md ("Determinism invariants").

use crate::ast::{self, ParsedFile};
use crate::config::Config;
use crate::flow::{self, SemInput, Summaries};
use crate::lexer::{lex, LexedFile, Tok, Token};
use std::collections::BTreeSet;

/// All rule names, for pragma validation and `--list-rules`. The last four
/// are the v2 flow-aware rules (see `flow`).
pub const RULE_NAMES: [&str; 12] = [
    "no-wall-clock",
    "no-os-entropy",
    "no-unordered-iteration",
    "layering",
    "no-unwrap-in-lib",
    "no-adhoc-stderr",
    "thread-confinement",
    "bad-pragma",
    "protocol-resource-balance",
    "span-balance",
    "determinism-taint",
    "no-dropped-result",
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
    /// Owning crate name ("areplica-core", "cloudsim", root crate, …).
    krate: String,
    /// File lives in a tests/, benches/, or examples/ tree.
    test_tree: bool,
    /// File lives under a crate's src/ (library or bin target).
    in_src: bool,
    /// File is library source: under src/ but not src/bin.
    lib_src: bool,
}

fn classify(rel: &str, cfg: &Config) -> FileScope {
    let (krate, rest) = match rel.strip_prefix("crates/") {
        Some(tail) => match tail.split_once('/') {
            Some((k, rest)) => (k.to_string(), rest),
            None => (cfg.root_crate.clone(), tail),
        },
        None => (cfg.root_crate.clone(), rel),
    };
    let test_tree =
        rest.starts_with("tests/") || rest.starts_with("benches/") || rest.starts_with("examples/");
    let in_src = rest.starts_with("src/");
    let lib_src = in_src && !rest.starts_with("src/bin/");
    FileScope {
        krate,
        test_tree,
        in_src,
        lib_src,
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
    /// Lines where the parser gave up; those functions degrade to
    /// token-level rules only.
    pub fn parse_errors(&self) -> &[ast::ParseError] {
        &self.parsed.errors
    }

    fn sem_input(&self) -> SemInput<'_> {
        SemInput {
            rel: &self.rel,
            krate: &self.scope.krate,
            in_src: self.scope.in_src,
            lib_src: self.scope.lib_src,
            test_tree: self.scope.test_tree,
            lexed: &self.lexed,
            parsed: &self.parsed,
        }
    }
}

/// Lexes and parses one file. Never fails: parse errors are recorded per
/// item and the affected functions simply drop out of the semantic pass.
pub fn prepare(rel: &str, src: &str, cfg: &Config) -> Prepared {
    let scope = classify(rel, cfg);
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
pub fn build_summaries(files: &[Prepared], cfg: &Config) -> Summaries {
    let inputs: Vec<SemInput<'_>> = files.iter().map(|p| p.sem_input()).collect();
    flow::build_summaries(&inputs, cfg)
}

/// Runs all rules — token-level and flow-aware — over one prepared file.
pub fn check_prepared(p: &Prepared, cfg: &Config, summaries: &Summaries) -> Vec<Finding> {
    let rel = p.rel.as_str();
    let scope = &p.scope;
    let lexed = &p.lexed;
    let mut out = Vec::new();

    pragma_hygiene(rel, lexed, &mut out);
    wall_clock(rel, scope, lexed, cfg, &mut out);
    os_entropy(rel, scope, lexed, &mut out);
    unordered_iteration(rel, scope, lexed, cfg, &mut out);
    layering(rel, scope, lexed, cfg, &mut out);
    unwrap_in_lib(rel, scope, lexed, cfg, &mut out);
    adhoc_stderr(rel, scope, lexed, cfg, &mut out);
    thread_confinement(rel, scope, lexed, cfg, &mut out);
    flow::check_semantic(&p.sem_input(), cfg, summaries, &mut out);

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out.dedup();
    out
}

/// Lints one file's source text in isolation (fixtures, unit tests):
/// interprocedural summaries are built from this file alone. `rel` is the
/// workspace-relative path used for scoping and reporting.
pub fn check_file(rel: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let p = prepare(rel, src, cfg);
    let files = [p];
    let summaries = build_summaries(&files, cfg);
    check_prepared(&files[0], cfg, &summaries)
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(w)) => Some(w.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Emits `finding` unless a pragma or test region suppresses it.
#[allow(clippy::too_many_arguments)]
fn emit(
    out: &mut Vec<Finding>,
    lexed: &LexedFile,
    rule: &'static str,
    file: &str,
    line: u32,
    skip_test_lines: bool,
    message: String,
) {
    if skip_test_lines && lexed.is_test_line(line) {
        return;
    }
    if lexed.allowed(rule, line) {
        return;
    }
    out.push(Finding {
        rule,
        file: file.to_string(),
        line,
        message,
    });
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

/// no-wall-clock: `std::time::Instant` / `SystemTime` outside tests. All
/// simulation and measurement time must flow through the `Clock` backend
/// trait / simkernel virtual time.
fn wall_clock(
    rel: &str,
    scope: &FileScope,
    lexed: &LexedFile,
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    if scope.test_tree
        || cfg
            .wall_clock_exempt
            .iter()
            .any(|p| rel.starts_with(p.as_str()))
    {
        return;
    }
    for (i, t) in lexed.tokens.iter().enumerate() {
        if let Tok::Ident(w) = &t.tok {
            if w == "Instant" || w == "SystemTime" {
                // `Instant` as a method/field name (`x.Instant`) is not std.
                if i > 0 && punct_at(&lexed.tokens, i - 1, '.') {
                    continue;
                }
                emit(
                    out,
                    lexed,
                    "no-wall-clock",
                    rel,
                    t.line,
                    true,
                    format!("`{w}` is wall-clock time; use the `Clock` backend trait (sim time) so replays stay bit-identical"),
                );
            }
        }
    }
}

/// no-os-entropy: `thread_rng` / `from_entropy` / `OsRng` anywhere,
/// including tests — all randomness must come from a seeded `RngSource`.
fn os_entropy(rel: &str, _scope: &FileScope, lexed: &LexedFile, out: &mut Vec<Finding>) {
    for t in &lexed.tokens {
        if let Tok::Ident(w) = &t.tok {
            if w == "thread_rng" || w == "from_entropy" || w == "OsRng" {
                emit(
                    out,
                    lexed,
                    "no-os-entropy",
                    rel,
                    t.line,
                    false,
                    format!("`{w}` draws OS entropy; use a seeded `RngSource`/`StdRng::seed_from_u64` so runs are reproducible"),
                );
            }
        }
    }
}

/// layering: configured `forbid::…` references inside a crate's library
/// sources, outside the allow-listed adapter files.
fn layering(rel: &str, scope: &FileScope, lexed: &LexedFile, cfg: &Config, out: &mut Vec<Finding>) {
    for rule in &cfg.layering {
        if scope.krate != rule.krate || !scope.in_src || rule.allow.iter().any(|a| a == rel) {
            continue;
        }
        let toks = &lexed.tokens;
        for i in 0..toks.len() {
            if ident_at(toks, i) == Some(rule.forbid.as_str())
                && !(i > 0 && punct_at(toks, i - 1, ':'))
                && punct_at(toks, i + 1, ':')
                && punct_at(toks, i + 2, ':')
            {
                emit(
                    out,
                    lexed,
                    "layering",
                    rel,
                    toks[i].line,
                    true,
                    format!(
                        "`{}::` reference in `{}` violates layering; route through {}",
                        rule.forbid,
                        rule.krate,
                        rule.allow
                            .first()
                            .map(String::as_str)
                            .unwrap_or("the allowed adapter")
                    ),
                );
            }
        }
    }
}

/// thread-confinement: OS threading and shared-state primitives (`thread`,
/// `mpsc`, `Mutex`, …) in library sources outside `simkernel::par`.
/// Parallel runs stay deterministic because `par_map` owns every worker
/// thread, runs only independent simulations, and returns results in
/// input order — concurrency smuggled in anywhere else (a stray spawn, a
/// lock, a thread-local stash) can leak wall-clock interleaving into results.
/// Bins and test trees are exempt: they never produce pinned output
/// through a simulator they share with other threads.
fn thread_confinement(
    rel: &str,
    scope: &FileScope,
    lexed: &LexedFile,
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    if !scope.lib_src || cfg.thread_allow.iter().any(|a| a == rel) {
        return;
    }
    for (i, t) in lexed.tokens.iter().enumerate() {
        if let Tok::Ident(w) = &t.tok {
            if cfg.thread_idents.iter().any(|p| p == w) {
                // Method/field position (`x.thread`) is not the primitive.
                if i > 0 && punct_at(&lexed.tokens, i - 1, '.') {
                    continue;
                }
                emit(
                    out,
                    lexed,
                    "thread-confinement",
                    rel,
                    t.line,
                    true,
                    format!(
                        "`{w}` is a threading/shared-state primitive; concurrency is confined to `simkernel::par_map`, which returns results in input order so parallel runs stay byte-identical"
                    ),
                );
            }
        }
    }
}

/// no-unwrap-in-lib: `.unwrap()` / `.expect(` in non-test library code of
/// the configured crates. Invariant `expect`s carry a pragma with the
/// justification; fallible paths must return typed errors.
fn unwrap_in_lib(
    rel: &str,
    scope: &FileScope,
    lexed: &LexedFile,
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    if !cfg.unwrap_crates.contains(&scope.krate) || !scope.lib_src {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if punct_at(toks, i, '.') {
            if let Some(w @ ("unwrap" | "expect")) = ident_at(toks, i + 1) {
                if punct_at(toks, i + 2, '(') {
                    emit(
                        out,
                        lexed,
                        "no-unwrap-in-lib",
                        rel,
                        toks[i + 1].line,
                        true,
                        format!(
                            "`.{w}(…)` in library code can panic mid-replication; return a typed error, or pragma it with the invariant that makes it unreachable"
                        ),
                    );
                }
            }
        }
    }
}

/// no-adhoc-stderr: `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!` in the
/// non-test sources of result-producing crates. Diagnostics belong in the
/// simtrace registry (events/counters survive replay and land in the metrics
/// snapshot); the few designated operator-facing report sinks carry pragmas.
fn adhoc_stderr(
    rel: &str,
    scope: &FileScope,
    lexed: &LexedFile,
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    if !cfg.stderr_crates.contains(&scope.krate) || !scope.in_src {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if let Some(w @ ("println" | "eprintln" | "print" | "eprint" | "dbg")) = ident_at(toks, i) {
            // `x.println` / `foo::println` would not be the std macro.
            if (i > 0 && (punct_at(toks, i - 1, '.') || punct_at(toks, i - 1, ':')))
                || !punct_at(toks, i + 1, '!')
            {
                continue;
            }
            emit(
                out,
                lexed,
                "no-adhoc-stderr",
                rel,
                toks[i].line,
                true,
                format!(
                    "`{w}!` is ad-hoc terminal output in a result-producing crate; record a simtrace event/counter instead, or pragma a designated report sink"
                ),
            );
        }
    }
}

/// Iterator adaptors whose call on a hash container starts an
/// order-sensitive traversal.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Identifiers that neutralize iteration order within the same statement:
/// explicit sorts, collection into ordered containers, and order-insensitive
/// terminal reductions. `sum`/`product` are deliberately *absent* — float
/// accumulation is order-sensitive at the bit level, which is exactly the
/// drift this rule exists to stop.
const NEUTRALIZERS: [&str; 18] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sorted",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "count",
    "len",
    "is_empty",
    "all",
    "any",
    "min",
    "max",
    "contains",
];

/// no-unordered-iteration: traversing a `HashMap`/`HashSet` in a
/// result-producing crate. Names are gathered from bindings, fields, and
/// parameters typed or initialised as hash containers within the same file.
fn unordered_iteration(
    rel: &str,
    scope: &FileScope,
    lexed: &LexedFile,
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    if !cfg.unordered_crates.contains(&scope.krate) || !scope.in_src {
        return;
    }
    let toks = &lexed.tokens;
    let names = hash_container_names(toks);
    if names.is_empty() {
        return;
    }

    for i in 0..toks.len() {
        // `name.iter()` / `self.name.keys()` / …
        if let Some(name) = ident_at(toks, i) {
            if names.contains(name)
                && punct_at(toks, i + 1, '.')
                && ident_at(toks, i + 2).is_some_and(|m| ITER_METHODS.contains(&m))
                && punct_at(toks, i + 3, '(')
                && !statement_neutralized(toks, i)
            {
                emit(
                    out,
                    lexed,
                    "no-unordered-iteration",
                    rel,
                    toks[i].line,
                    true,
                    format!(
                        "iterating hash container `{name}` has platform/seed-dependent order; use BTreeMap/BTreeSet, sort first, or pragma with why order cannot reach results"
                    ),
                );
            }
        }
        // `for x in &name { … }` / `for (k, v) in name { … }`
        if ident_at(toks, i) == Some("for") {
            if let Some((expr_start, expr_end)) = for_loop_expr(toks, i) {
                let iterates_map = (expr_start..expr_end).any(|j| {
                    ident_at(toks, j).is_some_and(|w| names.contains(w))
                        // Exclude `name.method()` calls inside the expr that
                        // are themselves neutral (e.g. `0..name.len()`).
                        && !(punct_at(toks, j + 1, '.')
                            && ident_at(toks, j + 2)
                                .is_some_and(|m| NEUTRALIZERS.contains(&m)))
                });
                if iterates_map && !range_neutralized(toks, expr_start, expr_end) {
                    emit(
                        out,
                        lexed,
                        "no-unordered-iteration",
                        rel,
                        toks[i].line,
                        true,
                        "for-loop over a hash container has platform/seed-dependent order; use BTreeMap/BTreeSet, sort first, or pragma with why order cannot reach results"
                            .to_string(),
                    );
                }
            }
        }
    }
}

/// Collects identifiers bound to `HashMap`/`HashSet` in this file: typed
/// bindings/fields/params (`name: [&mut] [std::collections::] HashMap<…>`)
/// and constructed bindings (`let [mut] name = HashMap::new()`).
fn hash_container_names(toks: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        let Some(w) = ident_at(toks, i) else { continue };
        if w != "HashMap" && w != "HashSet" {
            continue;
        }
        // Walk backwards over `: & mut std :: collections ::` noise.
        let mut j = i;
        while j > 0 {
            let prev = &toks[j - 1].tok;
            let skip = matches!(prev, Tok::Punct(':') | Tok::Punct('&') | Tok::Lifetime)
                || matches!(prev, Tok::Ident(p) if p == "std" || p == "collections" || p == "mut" || p == "dyn");
            if !skip {
                break;
            }
            j -= 1;
        }
        // Typed position: the token before the skipped prefix is the name,
        // and the prefix must have contained a ':'.
        let had_colon = (j..i).any(|k| punct_at(toks, k, ':'));
        if had_colon && j > 0 {
            if let Some(name) = ident_at(toks, j - 1) {
                if !name.is_empty() && name != "fn" {
                    names.insert(name.to_string());
                }
            }
        }
        // Constructed position: `name = HashMap::new(…)`-likes.
        if punct_at(toks, i + 1, ':')
            && punct_at(toks, i + 2, ':')
            && ident_at(toks, i + 3)
                .is_some_and(|m| matches!(m, "new" | "default" | "with_capacity" | "from"))
            && i >= 2
            && punct_at(toks, i - 1, '=')
        {
            if let Some(name) = ident_at(toks, i - 2) {
                names.insert(name.to_string());
            }
        }
    }
    names
}

/// True when the statement containing the access at `site` also contains an
/// order-neutralizing identifier (scan to `;`, a block `{`, or a bounded
/// window).
fn statement_neutralized(toks: &[Token], site: usize) -> bool {
    let mut depth = 0i32;
    for t in &toks[site..toks.len().min(site + 150)] {
        match &t.tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => {
                depth -= 1;
                if depth < 0 {
                    return false; // end of enclosing call/expression
                }
            }
            Tok::Punct(';') | Tok::Punct('{') if depth <= 0 => return false,
            Tok::Ident(w) if NEUTRALIZERS.contains(&w.as_str()) => return true,
            _ => {}
        }
    }
    false
}

/// The token range of a for-loop's iterated expression: `(after `in`,
/// index of body `{`)`, if the loop header is well-formed.
fn for_loop_expr(toks: &[Token], for_idx: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut in_idx = None;
    for (j, t) in toks
        .iter()
        .enumerate()
        .take(toks.len().min(for_idx + 80))
        .skip(for_idx + 1)
    {
        match &t.tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Ident(w) if w == "in" && depth == 0 => {
                in_idx = Some(j);
                break;
            }
            Tok::Punct('{') => return None,
            _ => {}
        }
    }
    let start = in_idx? + 1;
    depth = 0;
    for (j, t) in toks
        .iter()
        .enumerate()
        .take(toks.len().min(start + 80))
        .skip(start)
    {
        match &t.tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('{') if depth == 0 => return Some((start, j)),
            _ => {}
        }
    }
    None
}

/// Sorted-before-loop escape: `for x in name.iter().collect::<BTreeSet…>`-
/// style headers where a neutralizer appears inside the iterated expression.
fn range_neutralized(toks: &[Token], start: usize, end: usize) -> bool {
    (start..end).any(|j| ident_at(toks, j).is_some_and(|w| NEUTRALIZERS.contains(&w)))
}
