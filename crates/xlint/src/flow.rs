//! Flow-aware protocol-invariant analysis over the [`crate::ast`] tree.
//!
//! Three semantic rules run here:
//!
//! * **protocol-resource-balance** — a value obtained from a configured
//!   acquire site (`try_lock_tx`, `create_multipart`, `adopt_tx`, …) must
//!   reach a configured release/conclude site on every path, checked
//!   interprocedurally through per-function call summaries.
//! * **span-balance** — every `span_begin` is closed by
//!   `span_end`/`span_end_tagged` on all exit paths (the static twin of
//!   simtrace's TASK-span parity oracle).
//! * **determinism-taint** — values derived from the pragma'd wall-clock
//!   escape hatches (`bench::WallTimer`, `Instant`, …) must not flow into
//!   sim-state or KV/object writes.
//!
//! The analysis walks each function body once, cloning path state at
//! branches and joining afterwards — linear in AST size, not in path
//! count. Design choices tuned to this codebase's continuation-passing
//! style, in leak-detection (under-report) direction unless noted:
//!
//! * Closure literals passed as call arguments are inlined as the
//!   continuation of the enclosing path — that is where the protocol
//!   lives (`sim.db_transact(…, tx, move |sim, outcome| { … })`).
//! * Passing a tracked value to a function with a *summary* uses the
//!   summary; passing it to an unknown callee counts as a handoff
//!   (ownership trusted away). Mentioning it in a macro does **not**
//!   conclude it — `format!("…{upload_id}")` is not a release.
//! * `if` without `else` joins optimistically (the ubiquitous
//!   `if tracer.enabled() { span_end(…) }` guard must not flag); `match`
//!   arms and `if/else` require all non-diverging arms to conclude.
//! * Arms whose pattern names a configured `exempt_arms` identifier
//!   (`Busy`, `Concluded`, `Gone`, …) discharge the obligation: they are
//!   the not-acquired / peer-owns-it outcomes of the protocol.
//! * Paths ending in `panic!`/`unreachable!`/`return` are checked at the
//!   exit and then considered diverged.

use crate::ast::{Block, Expr, FnItem, ParsedFile, Pat, Stmt};
use crate::config::Config;
use crate::lexer::LexedFile;
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// How an acquire site binds the tracked value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bind {
    /// The call's return value is the resource (`span_begin` → SpanId).
    Return,
    /// Parameter `i` of the call's trailing closure argument
    /// (`create_multipart(…, |sim, upload| …)` → 1).
    CallbackParam(usize),
    /// The acquire call appears as an *argument* of an enclosing call (a
    /// `db_transact(…, adopt_tx(…), cb)` transaction builder); parameter
    /// `i` of the enclosing call's trailing closure binds the resource.
    TransactCallbackParam(usize),
    /// No value is tracked: every path from the acquire must *reach* a
    /// release call, directly or through the call graph
    /// (`try_lock_tx` → `unlock_tx`).
    Reach,
}

/// A resolved acquire/release pair the walker enforces.
#[derive(Debug, Clone)]
pub struct Spec {
    pub rule: &'static str,
    pub kind: String,
    pub acquire: String,
    pub bind: Bind,
    pub releases: Vec<String>,
    /// Calls that take *ownership* of the value (passing it concludes the
    /// local obligation — e.g. `adopt_tx` records the upload id in the
    /// pool row, whose deleters clean up orphans).
    pub handoffs: Vec<String>,
    pub exempt_arms: Vec<String>,
    pub crates: Vec<String>,
}

/// Builds the active spec list: configured `[[resource]]` entries plus the
/// built-in span-balance pair.
pub fn specs_from(cfg: &Config) -> Vec<Spec> {
    let mut specs: Vec<Spec> = cfg
        .resources
        .iter()
        .map(|r| Spec {
            rule: "protocol-resource-balance",
            kind: r.kind.clone(),
            acquire: r.acquire.clone(),
            bind: parse_bind(&r.bind),
            releases: r.release.clone(),
            handoffs: r.handoff.clone(),
            exempt_arms: r.exempt_arms.clone(),
            crates: r.crates.clone(),
        })
        .collect();
    if !cfg.span_crates.is_empty() {
        specs.push(Spec {
            rule: "span-balance",
            kind: "trace span".into(),
            acquire: "span_begin".into(),
            bind: Bind::Return,
            releases: vec!["span_end".into(), "span_end_tagged".into()],
            handoffs: Vec::new(),
            exempt_arms: Vec::new(),
            crates: cfg.span_crates.clone(),
        });
    }
    specs
}

fn parse_bind(s: &str) -> Bind {
    if s == "return" {
        Bind::Return
    } else if s == "reach" {
        Bind::Reach
    } else if let Some(n) = s.strip_prefix("callback-param:") {
        Bind::CallbackParam(n.parse().unwrap_or(0))
    } else if let Some(n) = s.strip_prefix("transact-callback-param:") {
        Bind::TransactCallbackParam(n.parse().unwrap_or(0))
    } else {
        // Config::parse validates; default defensively.
        Bind::Return
    }
}

/// One prepared file, as the summary builder and checker consume it.
pub struct SemInput<'a> {
    pub rel: &'a str,
    pub krate: &'a str,
    pub in_src: bool,
    pub test_tree: bool,
    pub lexed: &'a LexedFile,
    pub parsed: &'a ParsedFile,
}

/// What a callee does with a tracked value passed as one of its params.
#[derive(Debug, Clone)]
enum Fate {
    Concludes,
    Leaks { file: String, line: u32 },
}

/// Cross-crate call summaries, keyed by bare function name. Functions
/// whose name is defined more than once get no `concludes` entry (callers
/// fall back to trusting the handoff) and a unioned `reaches` set.
pub struct Summaries {
    specs: Vec<Spec>,
    /// (fn name, spec index, param index) → fate of a value passed there.
    concludes: BTreeMap<(String, usize, usize), Fate>,
    /// fn name → release-site names reachable through its call graph.
    reaches: BTreeMap<String, BTreeSet<String>>,
    /// Functions whose first parameter is `self`: method-call argument `j`
    /// maps to parameter `j + 1` there.
    selfish: BTreeSet<String>,
}

impl Summaries {
    pub fn specs(&self) -> &[Spec] {
        &self.specs
    }
}

/// Builds interprocedural summaries for every function in `inputs`.
///
/// `reaches` is a standard may-reach fixpoint over the name-resolved call
/// graph. `concludes` starts optimistic (every param concludes) and
/// re-walks bodies against the current table until stable — the greatest
/// fixpoint, so mutual/self recursion (`stream_chunk_loop`) settles on
/// "concludes" unless some path concretely drops the value.
pub fn build_summaries(inputs: &[SemInput<'_>], cfg: &Config) -> Summaries {
    let specs = specs_from(cfg);
    let release_names: BTreeSet<&str> = specs
        .iter()
        .flat_map(|s| s.releases.iter().map(String::as_str))
        .collect();

    // Collect functions; detect duplicate names and methods.
    let mut seen = BTreeSet::new();
    let mut dupes = BTreeSet::new();
    let mut selfish = BTreeSet::new();
    for inp in inputs {
        for f in &inp.parsed.fns {
            if !seen.insert(f.name.clone()) {
                dupes.insert(f.name.clone());
            }
            if f.params.first().is_some_and(|p| p == "self") {
                selfish.insert(f.name.clone());
            }
        }
    }

    // Reach sets: direct calls, then propagate release reachability.
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for inp in inputs {
        for f in &inp.parsed.fns {
            let mut calls = BTreeSet::new();
            collect_calls_block(&f.body, &mut calls);
            direct.entry(f.name.clone()).or_default().extend(calls);
        }
    }
    let mut reaches: BTreeMap<String, BTreeSet<String>> = direct
        .iter()
        .map(|(name, calls)| {
            let hit: BTreeSet<String> = calls
                .iter()
                .filter(|c| release_names.contains(c.as_str()))
                .cloned()
                .collect();
            (name.clone(), hit)
        })
        .collect();
    loop {
        let mut changed = false;
        for (name, calls) in &direct {
            let mut acc = reaches.get(name).cloned().unwrap_or_default();
            let before = acc.len();
            for c in calls {
                if let Some(r) = reaches.get(c) {
                    acc.extend(r.iter().cloned());
                }
            }
            if acc.len() != before {
                reaches.insert(name.clone(), acc);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut summaries = Summaries {
        specs,
        concludes: BTreeMap::new(),
        reaches,
        selfish,
    };

    // Greatest fixpoint for param fates. Start optimistic: absence from the
    // table reads as Concludes during the walks below.
    for _round in 0..12 {
        let mut changed = false;
        for inp in inputs {
            for f in &inp.parsed.fns {
                if dupes.contains(&f.name) {
                    continue;
                }
                for spec_idx in 0..summaries.specs.len() {
                    for (param_idx, pname) in f.params.iter().enumerate() {
                        if pname == "_" || pname == "self" {
                            continue;
                        }
                        let fate = param_fate(f, spec_idx, param_idx, inp, &summaries);
                        let key = (f.name.clone(), spec_idx, param_idx);
                        let prev_leaks =
                            matches!(summaries.concludes.get(&key), Some(Fate::Leaks { .. }));
                        match fate {
                            Fate::Concludes => {
                                if prev_leaks {
                                    summaries.concludes.remove(&key);
                                    changed = true;
                                }
                            }
                            Fate::Leaks { .. } => {
                                if !prev_leaks {
                                    summaries.concludes.insert(key, fate);
                                    changed = true;
                                }
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    summaries
}

/// Walks `f` with parameter `param_idx` seeded as an open resource of
/// `spec_idx`; pragma'd leaks inside the callee count as concluded (the
/// suppression is honoured once, at the drop site, instead of at every
/// caller).
fn param_fate(
    f: &FnItem,
    spec_idx: usize,
    param_idx: usize,
    inp: &SemInput<'_>,
    summaries: &Summaries,
) -> Fate {
    let spec = &summaries.specs[spec_idx];
    if spec.bind == Bind::Reach {
        return Fate::Concludes; // reach obligations are not value-carried
    }
    let mut w = Walker {
        specs: &summaries.specs,
        active: (0..summaries.specs.len()).collect(),
        summaries: Some(summaries),
        taint: None,
        rel: inp.rel,
        leaks: Vec::new(),
        taint_findings: Vec::new(),
        track_acquires: false,
    };
    let mut st = PathState::default();
    st.res.push(ResState {
        spec: spec_idx,
        names: std::iter::once(f.params[param_idx].clone()).collect(),
        acq_line: f.line,
        concluded: false,
        seeded: true,
    });
    let carry = w.walk_block(&f.body, &mut st);
    for idx in carry.res {
        st.res[idx].concluded = true; // returned to caller
    }
    if !st.diverged {
        w.check_exit(&mut st, f.body.end_line, "function end");
    }
    for leak in &w.leaks {
        if !leak.seeded {
            continue;
        }
        let rule = summaries.specs[leak.spec].rule;
        if inp.lexed.allowed(rule, leak.exit_line) || inp.lexed.is_test_line(f.line) {
            continue;
        }
        return Fate::Leaks {
            file: inp.rel.to_string(),
            line: leak.exit_line,
        };
    }
    Fate::Concludes
}

/// Runs the semantic rules over one prepared file, appending findings.
pub fn check_semantic(
    inp: &SemInput<'_>,
    cfg: &Config,
    summaries: &Summaries,
    out: &mut Vec<Finding>,
) {
    if !inp.in_src || inp.test_tree {
        return;
    }
    let active: Vec<usize> = summaries
        .specs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.crates.iter().any(|c| c == inp.krate))
        .map(|(i, _)| i)
        .collect();
    let taint_active = cfg.taint_crates.iter().any(|c| c == inp.krate);
    if active.is_empty() && !taint_active {
        return;
    }

    for f in &inp.parsed.fns {
        let mut w = Walker {
            specs: &summaries.specs,
            active: active.clone(),
            summaries: Some(summaries),
            taint: taint_active.then_some((&cfg.taint_sources, &cfg.taint_sinks)),
            rel: inp.rel,
            leaks: Vec::new(),
            taint_findings: Vec::new(),
            track_acquires: true,
        };
        let mut st = PathState::default();
        let carry = w.walk_block(&f.body, &mut st);
        for idx in carry.res {
            st.res[idx].concluded = true;
        }
        if !st.diverged {
            w.check_exit(&mut st, f.body.end_line, "function end");
        }
        let leaks = std::mem::take(&mut w.leaks);
        let taints = std::mem::take(&mut w.taint_findings);
        for leak in leaks {
            let spec = &summaries.specs[leak.spec];
            if inp.lexed.is_test_line(leak.acq_line)
                || inp.lexed.allowed(spec.rule, leak.exit_line)
                || inp.lexed.allowed(spec.rule, leak.acq_line)
            {
                continue;
            }
            out.push(Finding {
                rule: spec.rule,
                file: inp.rel.to_string(),
                line: leak.exit_line,
                message: leak.message,
            });
        }
        for tf in taints {
            if inp.lexed.is_test_line(tf.line) || inp.lexed.allowed("determinism-taint", tf.line) {
                continue;
            }
            out.push(tf);
        }
    }
}

/// Applies `f` to `block` and every nested block reachable without leaving
/// the function (closures included).
fn visit_blocks(block: &Block, f: &mut impl FnMut(&Block)) {
    f(block);
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let {
                init, else_block, ..
            } => {
                if let Some(e) = init {
                    visit_expr_blocks(e, f);
                }
                if let Some(b) = else_block {
                    visit_blocks(b, f);
                }
            }
            Stmt::Expr { expr, .. } => visit_expr_blocks(expr, f),
            Stmt::Item => {}
        }
    }
}

fn visit_expr_blocks(e: &Expr, f: &mut impl FnMut(&Block)) {
    match e {
        Expr::Call { args, .. } | Expr::Macro { args, .. } => {
            for a in args {
                visit_expr_blocks(a, f);
            }
        }
        Expr::MethodCall { recv, args, .. } => {
            visit_expr_blocks(recv, f);
            for a in args {
                visit_expr_blocks(a, f);
            }
        }
        Expr::Closure { body, .. } => visit_expr_blocks(body, f),
        Expr::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            visit_expr_blocks(cond, f);
            visit_blocks(then_branch, f);
            if let Some(e2) = else_branch {
                visit_expr_blocks(e2, f);
            }
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            visit_expr_blocks(scrutinee, f);
            for a in arms {
                if let Some(g) = &a.guard {
                    visit_expr_blocks(g, f);
                }
                visit_expr_blocks(&a.body, f);
            }
        }
        Expr::Loop { header, body, .. } => {
            for h in header {
                visit_expr_blocks(h, f);
            }
            visit_blocks(body, f);
        }
        Expr::Block { block, .. } => visit_blocks(block, f),
        Expr::StructLit { fields, rest, .. } => {
            for fi in fields {
                if let Some(v) = &fi.value {
                    visit_expr_blocks(v, f);
                }
            }
            if let Some(r) = rest {
                visit_expr_blocks(r, f);
            }
        }
        Expr::Try { inner, .. } => visit_expr_blocks(inner, f),
        Expr::Return { inner, .. } => {
            if let Some(i) = inner {
                visit_expr_blocks(i, f);
            }
        }
        Expr::Field { base, .. } => visit_expr_blocks(base, f),
        Expr::Tuple { items, .. }
        | Expr::Other {
            children: items, ..
        } => {
            for i in items {
                visit_expr_blocks(i, f);
            }
        }
        Expr::Path { .. } | Expr::Lit { .. } | Expr::Jump { .. } => {}
    }
}

/// Collects every callee name (calls, method calls, bare fn-reference
/// paths are *not* included) in a block, closures included.
fn collect_calls_block(block: &Block, out: &mut BTreeSet<String>) {
    visit_blocks(block, &mut |b| {
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let { init: Some(e), .. } => collect_calls_expr(e, out),
                Stmt::Expr { expr, .. } => collect_calls_expr(expr, out),
                _ => {}
            }
        }
    });
}

fn collect_calls_expr(e: &Expr, out: &mut BTreeSet<String>) {
    let mut stack = vec![e];
    while let Some(e) = stack.pop() {
        match e {
            Expr::Call { path, args, .. } => {
                if let Some(last) = path.last() {
                    out.insert(last.clone());
                }
                stack.extend(args.iter());
            }
            Expr::MethodCall {
                recv, name, args, ..
            } => {
                out.insert(name.clone());
                stack.push(recv);
                stack.extend(args.iter());
            }
            Expr::Macro { args, .. } => stack.extend(args.iter()),
            Expr::Closure { body, .. } => stack.push(body),
            Expr::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                stack.push(cond);
                push_block(then_branch, &mut stack);
                if let Some(e2) = else_branch {
                    stack.push(e2);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                stack.push(scrutinee);
                for a in arms {
                    if let Some(g) = &a.guard {
                        stack.push(g);
                    }
                    stack.push(&a.body);
                }
            }
            Expr::Loop { header, body, .. } => {
                stack.extend(header.iter());
                push_block(body, &mut stack);
            }
            Expr::Block { block, .. } => push_block(block, &mut stack),
            Expr::StructLit { fields, rest, .. } => {
                for fi in fields {
                    if let Some(v) = &fi.value {
                        stack.push(v);
                    }
                }
                if let Some(r) = rest {
                    stack.push(r);
                }
            }
            Expr::Try { inner, .. } => stack.push(inner),
            Expr::Return { inner: Some(i), .. } => stack.push(i),
            Expr::Field { base, .. } => stack.push(base),
            Expr::Tuple { items, .. }
            | Expr::Other {
                children: items, ..
            } => stack.extend(items.iter()),
            _ => {}
        }
    }
}

fn push_block<'b>(block: &'b Block, stack: &mut Vec<&'b Expr>) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { init: Some(e), .. } => stack.push(e),
            Stmt::Expr { expr, .. } => stack.push(expr),
            _ => {}
        }
    }
}

// ---- the path walker ------------------------------------------------------

/// One tracked obligation on the current path.
#[derive(Debug, Clone)]
struct ResState {
    spec: usize,
    /// Binding names carrying the value (aliases accumulate).
    names: BTreeSet<String>,
    acq_line: u32,
    concluded: bool,
    /// True for the parameter seeded by summary computation.
    seeded: bool,
}

#[derive(Debug, Clone, Default)]
struct PathState {
    res: Vec<ResState>,
    /// Tainted binding name → origin description.
    taint: BTreeMap<String, String>,
    diverged: bool,
}

/// What a walked expression's value carries.
#[derive(Debug, Clone, Default)]
struct Carry {
    res: Vec<usize>,
    taint: Option<String>,
}

impl Carry {
    fn merge(&mut self, other: Carry) {
        for idx in other.res {
            if !self.res.contains(&idx) {
                self.res.push(idx);
            }
        }
        if self.taint.is_none() {
            self.taint = other.taint;
        }
    }
}

/// A leak record: resource of `spec` acquired at `acq_line` is open at
/// `exit_line`.
struct Leak {
    spec: usize,
    acq_line: u32,
    exit_line: u32,
    seeded: bool,
    message: String,
}

/// Callees through which a carried value keeps flowing instead of being
/// handed off (constructors, conversions, projections).
const WRAPPERS: [&str; 16] = [
    "Some",
    "Ok",
    "Err",
    "new",
    "clone",
    "into",
    "from",
    "unwrap",
    "expect",
    "borrow",
    "borrow_mut",
    "as_ref",
    "as_mut",
    "to_owned",
    "to_string",
    "min",
];

/// Macros that diverge.
const DIVERGING: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

struct Walker<'a> {
    specs: &'a [Spec],
    /// Spec indices whose acquires are tracked in this file.
    active: Vec<usize>,
    summaries: Option<&'a Summaries>,
    /// (sources, sinks) when determinism-taint applies to this file.
    taint: Option<(&'a [String], &'a [String])>,
    rel: &'a str,
    leaks: Vec<Leak>,
    taint_findings: Vec<Finding>,
    /// False during summary computation (only the seeded param matters).
    track_acquires: bool,
}

impl<'a> Walker<'a> {
    fn walk_block(&mut self, block: &Block, st: &mut PathState) -> Carry {
        let mut tail = Carry::default();
        for stmt in &block.stmts {
            if st.diverged {
                break;
            }
            tail = Carry::default();
            match stmt {
                Stmt::Let {
                    pat,
                    init,
                    else_block,
                    line: _,
                } => {
                    let carry = match init {
                        Some(e) => self.walk_expr(e, st),
                        None => Carry::default(),
                    };
                    if let Some(b) = else_block {
                        // The else block must diverge; walk it on a clone.
                        let mut s_else = st.clone();
                        let _ = self.walk_block(b, &mut s_else);
                        if !s_else.diverged {
                            self.check_exit(&mut s_else, b.end_line, "let-else divergence");
                        }
                    }
                    let bound: Vec<String> = match pat {
                        Pat::Name(n) => vec![n.clone()],
                        Pat::Wild => Vec::new(),
                        Pat::Other(ids) => ids.clone(),
                    };
                    for idx in &carry.res {
                        for n in &bound {
                            st.res[*idx].names.insert(n.clone());
                        }
                    }
                    if let Some(origin) = &carry.taint {
                        for n in &bound {
                            st.taint.insert(n.clone(), origin.clone());
                        }
                    }
                }
                Stmt::Expr { expr, semi } => {
                    let c = self.walk_expr(expr, st);
                    if !semi {
                        tail = c;
                    }
                }
                Stmt::Item => {}
            }
        }
        tail
    }

    fn walk_expr(&mut self, e: &Expr, st: &mut PathState) -> Carry {
        match e {
            Expr::Lit { .. } | Expr::Jump { .. } => Carry::default(),
            Expr::Path { segs, line: _ } => {
                let mut c = Carry::default();
                if let Some(first) = segs.first() {
                    if segs.len() == 1 {
                        for (idx, r) in st.res.iter().enumerate() {
                            if r.names.contains(first) {
                                c.res.push(idx);
                            }
                        }
                        if let Some(origin) = st.taint.get(first) {
                            c.taint = Some(origin.clone());
                        }
                    }
                    if let Some((sources, _)) = self.taint {
                        if segs.iter().any(|s| sources.contains(s)) {
                            c.taint = Some(segs.join("::"));
                        }
                    }
                }
                c
            }
            Expr::Field { base, .. } => {
                let b = self.walk_expr(base, st);
                Carry {
                    res: Vec::new(),
                    taint: b.taint,
                }
            }
            Expr::Try { inner, line } => {
                let c = self.walk_expr(inner, st);
                self.check_exit_except(st, *line, "`?` early return", *line);
                c
            }
            Expr::Return { inner, line } => {
                let mut c = Carry::default();
                if let Some(i) = inner {
                    c = self.walk_expr(i, st);
                }
                for idx in &c.res {
                    st.res[*idx].concluded = true; // returned to caller
                }
                self.check_exit(st, *line, "return");
                st.diverged = true;
                Carry::default()
            }
            Expr::Macro { name, args, line } => {
                let mut c = Carry::default();
                for a in args {
                    let ac = self.walk_expr(a, st);
                    // Mentions inside macros never conclude a resource.
                    c.taint = c.taint.or(ac.taint);
                }
                if DIVERGING.contains(&name.as_str()) {
                    st.diverged = true;
                }
                let _ = line;
                c
            }
            Expr::Closure { params, body, .. } => {
                // A bare closure (not consumed by an acquire site): inline
                // its body as part of the current path; shadowed names drop
                // out of resource alias sets for the duration.
                let shadowed: Vec<(usize, Vec<String>)> = st
                    .res
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        (
                            i,
                            params
                                .iter()
                                .filter(|p| r.names.contains(*p))
                                .cloned()
                                .collect(),
                        )
                    })
                    .collect();
                for (i, names) in &shadowed {
                    for n in names {
                        st.res[*i].names.remove(n);
                    }
                }
                let _ = self.walk_expr(body, st);
                for (i, names) in &shadowed {
                    for n in names {
                        st.res[*i].names.insert(n.clone());
                    }
                }
                Carry::default()
            }
            Expr::Block { block, .. } => self.walk_block(block, st),
            Expr::StructLit { fields, rest, .. } => {
                let mut taint = None;
                for fi in fields {
                    match &fi.value {
                        Some(v) => {
                            let c = self.walk_expr(v, st);
                            for idx in c.res {
                                st.res[idx].concluded = true; // escapes into a struct
                            }
                            taint = taint.or(c.taint);
                        }
                        None => {
                            // Shorthand `Foo { name }` — the field name IS
                            // the binding.
                            for r in st.res.iter_mut() {
                                if r.names.contains(&fi.name) {
                                    r.concluded = true;
                                }
                            }
                            if let Some(origin) = st.taint.get(&fi.name) {
                                taint = taint.or(Some(origin.clone()));
                            }
                        }
                    }
                }
                if let Some(r) = rest {
                    let _ = self.walk_expr(r, st);
                }
                Carry {
                    res: Vec::new(),
                    taint,
                }
            }
            Expr::Tuple { items, .. }
            | Expr::Other {
                children: items, ..
            } => {
                let mut c = Carry::default();
                for i in items {
                    let ic = self.walk_expr(i, st);
                    c.merge(ic);
                }
                c
            }
            Expr::If {
                pat_idents,
                cond,
                then_branch,
                else_branch,
                line: _,
            } => {
                let c_cond = self.walk_expr(cond, st);
                let base_len = st.res.len();
                let mut s_then = st.clone();
                if !pat_idents.is_empty() {
                    for idx in &c_cond.res {
                        for n in pat_idents {
                            s_then.res[*idx].names.insert(n.clone());
                        }
                    }
                    if let Some(origin) = &c_cond.taint {
                        for n in pat_idents {
                            s_then.taint.insert(n.clone(), origin.clone());
                        }
                    }
                }
                let c_then = self.walk_block(then_branch, &mut s_then);
                match else_branch {
                    Some(else_e) => {
                        let mut s_else = st.clone();
                        let c_else = self.walk_expr(else_e, &mut s_else);
                        self.join2(st, base_len, s_then, c_then, s_else, c_else)
                    }
                    None => {
                        // Optimistic join: the guard pattern
                        // `if enabled { span_end(…) }` must count.
                        self.join_optimistic(st, base_len, s_then);
                        Carry::default()
                    }
                }
            }
            Expr::Match {
                scrutinee,
                arms,
                line: _,
            } => {
                let c_scr = self.walk_expr(scrutinee, st);
                if arms.is_empty() {
                    return Carry::default();
                }
                let base_len = st.res.len();
                let mut branch_states = Vec::new();
                let mut branch_carries = Vec::new();
                for arm in arms {
                    let mut s_arm = st.clone();
                    // Bind payload idents when the scrutinee carries.
                    for idx in &c_scr.res {
                        for n in &arm.pat_idents {
                            s_arm.res[*idx].names.insert(n.clone());
                        }
                    }
                    if let Some(origin) = &c_scr.taint {
                        for n in &arm.pat_idents {
                            s_arm.taint.insert(n.clone(), origin.clone());
                        }
                    }
                    // Exempt arms discharge obligations: the not-acquired /
                    // peer-owned outcomes of the protocol.
                    for r in s_arm.res.iter_mut() {
                        if !r.concluded
                            && self.specs[r.spec]
                                .exempt_arms
                                .iter()
                                .any(|x| arm.pat_idents.iter().any(|p| p == x))
                        {
                            r.concluded = true;
                        }
                    }
                    if let Some(g) = &arm.guard {
                        let _ = self.walk_expr(g, &mut s_arm);
                    }
                    let c_arm = self.walk_expr(&arm.body, &mut s_arm);
                    branch_states.push(s_arm);
                    branch_carries.push(c_arm);
                }
                self.join_n(st, base_len, branch_states, branch_carries)
            }
            Expr::Loop { header, body, .. } => {
                for h in header {
                    let _ = self.walk_expr(h, st);
                }
                let base_len = st.res.len();
                let mut s_body = st.clone();
                let _ = self.walk_block(body, &mut s_body);
                // The body may run zero times: optimistic join.
                self.join_optimistic(st, base_len, s_body);
                Carry::default()
            }
            Expr::Call { path, args, line } => {
                let callee = path.last().cloned().unwrap_or_default();
                self.call(&callee, Some(path), None, args, *line, st)
            }
            Expr::MethodCall {
                recv,
                name,
                args,
                line,
            } => {
                let c_recv = self.walk_expr(recv, st);
                let mut c = self.call(name, None, Some(c_recv), args, *line, st);
                // Method results on a carried receiver keep carrying
                // (`upload.expect(…)`, `.clone()`): c already merged.
                c.res.dedup();
                c
            }
        }
    }

    /// Shared call handling for `Call` and `MethodCall`.
    fn call(
        &mut self,
        callee: &str,
        path: Option<&[String]>,
        recv_carry: Option<Carry>,
        args: &[Expr],
        line: u32,
        st: &mut PathState,
    ) -> Carry {
        // Split the trailing closure (the continuation) from plain args.
        let closure_split = args
            .iter()
            .rposition(|a| matches!(a, Expr::Closure { .. }))
            .filter(|i| *i + 1 == args.len());

        // 1. Walk non-closure args, keeping per-arg carries.
        let mut arg_carries: Vec<Carry> = Vec::new();
        for (i, a) in args.iter().enumerate() {
            if Some(i) == closure_split {
                arg_carries.push(Carry::default()); // walked after acquire
            } else {
                arg_carries.push(self.walk_expr(a, st));
            }
        }

        // 2. Per-arg semantic effects.
        let is_wrapper = WRAPPERS.contains(&callee);
        let is_method = recv_carry.is_some();
        let mut result = Carry::default();
        if let Some(rc) = recv_carry {
            result.merge(rc);
        }
        for (argpos, carry) in arg_carries.iter().enumerate() {
            for idx in &carry.res {
                let (spec_idx, concluded) = {
                    let r = &st.res[*idx];
                    (r.spec, r.concluded)
                };
                let spec = &self.specs[spec_idx];
                if concluded {
                    continue;
                }
                if spec.releases.iter().any(|r| r == callee)
                    || spec.handoffs.iter().any(|h| h == callee)
                {
                    st.res[*idx].concluded = true;
                    continue;
                }
                if is_wrapper {
                    continue; // value keeps flowing
                }
                // Interprocedural: consult the callee's summary. For a
                // method call on a fn with a leading `self` param, argument
                // `j` is parameter `j + 1`.
                let fate = self.summaries.and_then(|s| {
                    let pos = if is_method && s.selfish.contains(callee) {
                        argpos + 1
                    } else {
                        argpos
                    };
                    s.concludes.get(&(callee.to_string(), spec_idx, pos))
                });
                match fate {
                    Some(Fate::Leaks { file, line: l }) => {
                        let seeded = st.res[*idx].seeded;
                        let acq_line = st.res[*idx].acq_line;
                        self.leaks.push(Leak {
                            spec: spec_idx,
                            acq_line,
                            exit_line: line,
                            seeded,
                            message: format!(
                                "{} acquired at {}:{} via `{}` is passed to `{}`, which drops it on the path exiting at {}:{}; expected {} on every path",
                                spec.kind, self.rel, acq_line, spec.acquire, callee, file, l,
                                or_list(&spec.releases),
                            ),
                        });
                        st.res[*idx].concluded = true; // reported once
                    }
                    _ => {
                        // Summary says concludes, or unknown callee:
                        // ownership handed off.
                        st.res[*idx].concluded = true;
                    }
                }
            }
            if is_wrapper {
                result.merge(carry.clone());
            }
            // Taint sink?
            if let Some((_, sinks)) = self.taint {
                if sinks.iter().any(|s| s == callee) {
                    if let Some(origin) = &carry.taint {
                        self.taint_findings.push(Finding {
                            rule: "determinism-taint",
                            file: self.rel.to_string(),
                            line,
                            message: format!(
                                "value derived from wall-clock/entropy source `{origin}` flows into `{callee}`; sim state, KV writes, and results must stay deterministic"
                            ),
                        });
                    }
                }
            }
            result.taint = result.taint.clone().or(carry.taint.clone());
        }

        // 3. Reach discharge: any call that (transitively) reaches a release
        // site discharges open reach obligations — the release needn't take
        // the value. Bare fn-reference args count (callback registration).
        let mut reached: BTreeSet<&str> = BTreeSet::new();
        reached.insert(callee);
        for a in args {
            if let Expr::Path { segs, .. } = a {
                if segs.len() == 1 {
                    reached.insert(segs[0].as_str());
                }
            }
        }
        for r in st.res.iter_mut() {
            if r.concluded || self.specs[r.spec].bind != Bind::Reach {
                continue;
            }
            let spec = &self.specs[r.spec];
            let discharged = reached.iter().any(|name| {
                spec.releases.iter().any(|rel| rel == name)
                    || self
                        .summaries
                        .and_then(|s| s.reaches.get(*name))
                        .is_some_and(|set| spec.releases.iter().any(|rel| set.contains(rel)))
            });
            if discharged {
                r.concluded = true;
            }
        }

        // 4. Acquire sites.
        if self.track_acquires {
            let mut bind_closure_param: Option<(usize, usize)> = None; // (res idx, param idx)
            for spec_idx in self.active.clone() {
                let spec = &self.specs[spec_idx];
                match &spec.bind {
                    Bind::Return if spec.acquire == callee => {
                        st.res.push(ResState {
                            spec: spec_idx,
                            names: BTreeSet::new(),
                            acq_line: line,
                            concluded: false,
                            seeded: false,
                        });
                        result.res.push(st.res.len() - 1);
                    }
                    // No closure literal (delegating wrapper) means nothing
                    // to track — a documented blind spot.
                    Bind::CallbackParam(p) if spec.acquire == callee && closure_split.is_some() => {
                        st.res.push(ResState {
                            spec: spec_idx,
                            names: BTreeSet::new(),
                            acq_line: line,
                            concluded: false,
                            seeded: false,
                        });
                        bind_closure_param = Some((st.res.len() - 1, *p));
                    }
                    Bind::TransactCallbackParam(p) => {
                        let triggered = args.iter().any(|a| {
                            matches!(a, Expr::Call { path, .. }
                                if path.last().map(String::as_str) == Some(spec.acquire.as_str()))
                        });
                        if triggered && closure_split.is_some() {
                            st.res.push(ResState {
                                spec: spec_idx,
                                names: BTreeSet::new(),
                                acq_line: line,
                                concluded: false,
                                seeded: false,
                            });
                            bind_closure_param = Some((st.res.len() - 1, *p));
                        }
                    }
                    Bind::Reach => {
                        let triggered = spec.acquire == callee
                            || args.iter().any(|a| {
                                matches!(a, Expr::Call { path, .. }
                                    if path.last().map(String::as_str) == Some(spec.acquire.as_str()))
                            });
                        if triggered {
                            st.res.push(ResState {
                                spec: spec_idx,
                                names: BTreeSet::new(),
                                acq_line: line,
                                concluded: false,
                                seeded: false,
                            });
                        }
                    }
                    _ => {}
                }
            }
            // 5. Walk the trailing closure as the continuation, with the
            // acquired value bound to its parameter.
            if let Some(ci) = closure_split {
                if let Expr::Closure { params, body, .. } = &args[ci] {
                    if let Some((res_idx, param_idx)) = bind_closure_param {
                        if let Some(pname) = params.get(param_idx) {
                            if pname != "_" {
                                st.res[res_idx].names.insert(pname.clone());
                            }
                        }
                    }
                    let _ = self.walk_expr(body, st);
                }
            }
        } else if let Some(ci) = closure_split {
            // Summary mode still inlines continuations (the seeded param
            // may conclude inside them).
            if let Expr::Closure { body, .. } = &args[ci] {
                let _ = self.walk_expr(body, st);
            }
        }

        // Taint source?
        if let Some((sources, _)) = self.taint {
            let named = path
                .map(|p| p.iter().any(|s| sources.contains(s)))
                .unwrap_or(false);
            if named || sources.iter().any(|s| s == callee) {
                result.taint = Some(
                    path.map(|p| p.join("::"))
                        .unwrap_or_else(|| callee.to_string()),
                );
            }
        }
        let _ = path;
        result
    }

    // ---- joins ------------------------------------------------------------

    /// Joins an if-without-else / loop body: resources concluded in the
    /// branch count as concluded (may-conclude), taint unions, appended
    /// resources carry over.
    fn join_optimistic(&mut self, st: &mut PathState, base_len: usize, branch: PathState) {
        if !branch.diverged {
            for i in 0..base_len {
                if branch.res[i].concluded {
                    st.res[i].concluded = true;
                }
                let names: Vec<String> = branch.res[i].names.iter().cloned().collect();
                st.res[i].names.extend(names);
            }
            for r in branch.res.into_iter().skip(base_len) {
                st.res.push(r);
            }
        }
        st.taint.extend(branch.taint);
    }

    /// Joins two exhaustive branches (if/else).
    fn join2(
        &mut self,
        st: &mut PathState,
        base_len: usize,
        s_then: PathState,
        c_then: Carry,
        s_else: PathState,
        c_else: Carry,
    ) -> Carry {
        self.join_n(st, base_len, vec![s_then, s_else], vec![c_then, c_else])
    }

    /// Joins N exhaustive branches: a prefix resource is concluded after
    /// the join iff every non-diverged branch concluded it; appended
    /// resources from each branch are carried over (with carry remapping).
    fn join_n(
        &mut self,
        st: &mut PathState,
        base_len: usize,
        branches: Vec<PathState>,
        carries: Vec<Carry>,
    ) -> Carry {
        let live: Vec<bool> = branches.iter().map(|b| !b.diverged).collect();
        if live.iter().all(|l| !l) {
            st.diverged = true;
            return Carry::default();
        }
        for i in 0..base_len {
            let all_conclude = branches
                .iter()
                .zip(&live)
                .filter(|(_, l)| **l)
                .all(|(b, _)| b.res[i].concluded);
            if all_conclude {
                st.res[i].concluded = true;
            }
            for (b, l) in branches.iter().zip(&live) {
                if *l {
                    let names: Vec<String> = b.res[i].names.iter().cloned().collect();
                    st.res[i].names.extend(names);
                }
            }
        }
        let mut out = Carry::default();
        for ((branch, carry), is_live) in branches.into_iter().zip(carries).zip(live) {
            if !is_live {
                continue;
            }
            // Remap this branch's appended resources into st.
            let mut remap: BTreeMap<usize, usize> = BTreeMap::new();
            for (off, r) in branch.res.into_iter().enumerate().skip(base_len) {
                st.res.push(r);
                remap.insert(off, st.res.len() - 1);
            }
            for idx in carry.res {
                let mapped = remap.get(&idx).copied().unwrap_or(idx);
                if !out.res.contains(&mapped) {
                    out.res.push(mapped);
                }
            }
            out.taint = out.taint.or(carry.taint);
            st.taint.extend(branch.taint);
        }
        out
    }

    // ---- exits ------------------------------------------------------------

    fn check_exit(&mut self, st: &mut PathState, line: u32, why: &str) {
        self.check_exit_except(st, line, why, u32::MAX);
    }

    /// Records a leak for every open obligation, except ones acquired on
    /// `skip_acq_line` (a `?` on the acquiring statement itself).
    fn check_exit_except(&mut self, st: &mut PathState, line: u32, why: &str, skip_acq_line: u32) {
        for r in st.res.iter_mut() {
            if r.concluded || r.acq_line == skip_acq_line {
                continue;
            }
            let spec = &self.specs[r.spec];
            self.leaks.push(Leak {
                spec: r.spec,
                acq_line: r.acq_line,
                exit_line: line,
                seeded: r.seeded,
                message: format!(
                    "{} acquired at {}:{} via `{}` is not concluded on the path exiting at line {line} ({why}); expected {} on every path",
                    spec.kind, self.rel, r.acq_line, spec.acquire,
                    or_list(&spec.releases),
                ),
            });
            r.concluded = true; // report each acquisition once per path
        }
    }
}

fn or_list(names: &[String]) -> String {
    let quoted: Vec<String> = names.iter().map(|n| format!("`{n}`")).collect();
    quoted.join(" or ")
}

impl Summaries {
    /// Debug helper (examples/fates.rs): prints the summary rows for `name`.
    pub fn debug_fn(&self, name: &str) {
        for ((f, spec, param), fate) in &self.concludes {
            if f == name {
                println!(
                    "{f} spec={} ({}) param={param}: {fate:?}",
                    spec, self.specs[*spec].kind
                );
            }
        }
        if let Some(r) = self.reaches.get(name) {
            println!("{name} reaches: {r:?}");
        }
    }
}
