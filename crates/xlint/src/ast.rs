//! A zero-dependency recursive-descent parser over the [`crate::lexer`]
//! token stream, producing the lightweight item/function AST the semantic
//! rules (`crates/xlint/src/flow.rs`) walk.
//!
//! Scope is deliberately narrow: the tree keeps exactly the structure the
//! flow rules need — calls, method calls, macros, closures, branches
//! (`if`/`match`), loops, `?`, `return`, `let` bindings, struct literals —
//! and flattens everything else (operators, casts, references, indexing)
//! into [`Expr::Other`] children. There is no precedence climbing and no
//! type syntax: generics, type ascriptions, and where-clauses are skipped
//! with bracket matching.
//!
//! Recovery: parsing is per-item. A function body the parser cannot make
//! sense of is dropped (recorded in [`ParsedFile::errors`]) and the rest of
//! the file still parses; the flow rules skip the dropped function.

use crate::lexer::{Tok, Token};

/// One parsed source file: every `fn` found (at any nesting depth — module,
/// impl, trait default method, nested fn), plus per-item recovery notes.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
    pub errors: Vec<ParseError>,
}

/// A recovered-from parse failure; the enclosing item was skipped.
#[derive(Debug)]
pub struct ParseError {
    pub line: u32,
    pub message: String,
}

/// A function item with its parameter names and body.
#[derive(Debug)]
pub struct FnItem {
    pub name: String,
    /// Bare binding names, in order; `_` for destructured/unnamed patterns.
    pub params: Vec<String>,
    pub body: Block,
    pub line: u32,
}

/// `{ … }` — a statement sequence. The value of the block is the final
/// expression statement when it has no trailing semicolon.
#[derive(Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub end_line: u32,
}

#[derive(Debug)]
pub enum Stmt {
    Let {
        pat: Pat,
        init: Option<Expr>,
        /// `let … else { … }` — the block must diverge.
        else_block: Option<Block>,
        line: u32,
    },
    Expr {
        expr: Expr,
        /// False only for a block-tail expression (the block's value).
        semi: bool,
    },
    /// A nested item (fn/struct/use/…). Nested `fn`s are hoisted into
    /// [`ParsedFile::fns`]; the statement itself carries no structure.
    Item,
}

#[derive(Debug)]
pub enum Pat {
    /// A plain binding (`x`, `mut x`, `ref x`).
    Name(String),
    /// `_`
    Wild,
    /// Anything else (tuples, struct patterns); carries the idents bound.
    Other(Vec<String>),
}

/// A struct-literal field; `value: None` is shorthand (`Foo { name }`).
#[derive(Debug)]
pub struct FieldInit {
    pub name: String,
    pub value: Option<Expr>,
}

/// One `match` arm. `pat_idents` holds every identifier in the pattern —
/// variant names and bindings alike (the flow rules match configured
/// exempt-arm names against this set, and alias bindings when the
/// scrutinee carries a tracked resource).
#[derive(Debug)]
pub struct Arm {
    pub pat_idents: Vec<String>,
    pub guard: Option<Expr>,
    pub body: Expr,
    pub line: u32,
}

#[derive(Debug)]
pub enum Expr {
    /// `path::to::f(args)` — also covers calls through plain idents.
    Call {
        path: Vec<String>,
        args: Vec<Expr>,
        line: u32,
    },
    /// `recv.name(args)`
    MethodCall {
        recv: Box<Expr>,
        name: String,
        args: Vec<Expr>,
        line: u32,
    },
    /// `name!(args)` — args are best-effort expressions.
    Macro {
        name: String,
        args: Vec<Expr>,
        line: u32,
    },
    /// `move |params| body`
    Closure {
        params: Vec<String>,
        body: Box<Expr>,
        line: u32,
    },
    If {
        /// Idents bound by an `if let` pattern; empty otherwise.
        pat_idents: Vec<String>,
        cond: Box<Expr>,
        then_branch: Block,
        /// `Block` or a nested `If` (for `else if`).
        else_branch: Option<Box<Expr>>,
        line: u32,
    },
    Match {
        scrutinee: Box<Expr>,
        arms: Vec<Arm>,
        line: u32,
    },
    /// `loop`/`while`/`for` — header holds the condition / iterated
    /// expression (and `while let`/`for` pattern idents are not tracked).
    Loop {
        header: Vec<Expr>,
        body: Block,
        line: u32,
    },
    Block {
        block: Block,
        line: u32,
    },
    /// A path used as a value (`x`, `Enum::Variant`, `CONST`).
    Path {
        segs: Vec<String>,
        line: u32,
    },
    /// `base.name` (no call); tuple indices get `"#"` names.
    Field {
        base: Box<Expr>,
        name: String,
        line: u32,
    },
    StructLit {
        path: Vec<String>,
        fields: Vec<FieldInit>,
        /// `..base` functional-update expression, when present.
        rest: Option<Box<Expr>>,
        line: u32,
    },
    /// `inner?` — a potential early return.
    Try {
        inner: Box<Expr>,
        line: u32,
    },
    /// `return expr` in expression position (e.g. a match-arm body).
    Return {
        inner: Option<Box<Expr>>,
        line: u32,
    },
    /// `break`/`continue` (labels/values dropped).
    Jump {
        line: u32,
    },
    Lit {
        line: u32,
    },
    /// `(a, b)`, arrays, and parenthesized groups.
    Tuple {
        items: Vec<Expr>,
        line: u32,
    },
    /// Operator soup, references, casts, indexing: structure dropped,
    /// children kept for mention/taint scans.
    Other {
        children: Vec<Expr>,
        line: u32,
    },
}

impl Expr {
    pub fn line(&self) -> u32 {
        match self {
            Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Macro { line, .. }
            | Expr::Closure { line, .. }
            | Expr::If { line, .. }
            | Expr::Match { line, .. }
            | Expr::Loop { line, .. }
            | Expr::Block { line, .. }
            | Expr::Path { line, .. }
            | Expr::Field { line, .. }
            | Expr::StructLit { line, .. }
            | Expr::Try { line, .. }
            | Expr::Return { line, .. }
            | Expr::Jump { line }
            | Expr::Lit { line }
            | Expr::Tuple { line, .. }
            | Expr::Other { line, .. } => *line,
        }
    }
}

/// Parses a lexed file. Never panics; unparseable items are skipped and
/// recorded in `errors`.
pub fn parse(tokens: &[Token]) -> ParsedFile {
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        out: ParsedFile::default(),
        depth: 0,
    };
    p.items(tokens.len());
    p.out
}

/// Keywords that introduce items we skip wholesale (their bodies hold no
/// functions — or, for `impl`/`mod`/`trait`, are descended into instead).
const SKIP_ITEMS: [&str; 8] = [
    "use",
    "struct",
    "enum",
    "union",
    "type",
    "static",
    "extern",
    "macro_rules",
];

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    out: ParsedFile,
    /// Expression recursion depth guard.
    depth: u32,
}

/// Internal parse failure; recovery happens at item granularity.
struct Fail {
    line: u32,
    message: String,
}

type PResult<T> = Result<T, Fail>;

impl<'a> Parser<'a> {
    // ---- token helpers ----------------------------------------------------

    fn tok(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn is_punct(&self, c: char) -> bool {
        matches!(self.tok(), Some(Tok::Punct(p)) if *p == c)
    }

    fn punct_at(&self, off: usize, c: char) -> bool {
        matches!(self.toks.get(self.pos + off).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
    }

    fn ident(&self) -> Option<&str> {
        match self.tok() {
            Some(Tok::Ident(w)) => Some(w.as_str()),
            _ => None,
        }
    }

    fn ident_at(&self, off: usize) -> Option<&str> {
        match self.toks.get(self.pos + off).map(|t| &t.tok) {
            Some(Tok::Ident(w)) => Some(w.as_str()),
            _ => None,
        }
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.is_punct(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, c: char) -> PResult<()> {
        if self.eat_punct(c) {
            Ok(())
        } else {
            Err(self.fail(format!("expected `{c}`")))
        }
    }

    fn fail(&self, message: String) -> Fail {
        Fail {
            line: self.line(),
            message,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Skips one balanced `( … )` / `[ … ]` / `{ … }` group (cursor on the
    /// opener), or a single token.
    fn skip_group_or_token(&mut self) {
        match self.tok() {
            Some(Tok::Punct('(')) => self.skip_balanced('(', ')'),
            Some(Tok::Punct('[')) => self.skip_balanced('[', ']'),
            Some(Tok::Punct('{')) => self.skip_balanced('{', '}'),
            _ => self.bump(),
        }
    }

    fn skip_balanced(&mut self, open: char, close: char) {
        let mut depth = 0i32;
        while !self.at_end() {
            match self.tok() {
                Some(Tok::Punct(p)) if *p == open => depth += 1,
                Some(Tok::Punct(p)) if *p == close => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Skips a generic-argument group with the cursor on `<`. `>` preceded
    /// by `-` is an arrow (`->`), not a closer.
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        while !self.at_end() {
            match self.tok() {
                Some(Tok::Punct('<')) => depth += 1,
                Some(Tok::Punct('>')) => {
                    let arrow =
                        self.pos > 0 && matches!(self.toks[self.pos - 1].tok, Tok::Punct('-'));
                    if !arrow {
                        depth -= 1;
                        if depth == 0 {
                            self.bump();
                            return;
                        }
                    }
                }
                Some(Tok::Punct('(')) => {
                    self.skip_balanced('(', ')');
                    continue;
                }
                Some(Tok::Punct('[')) => {
                    self.skip_balanced('[', ']');
                    continue;
                }
                None => return,
                _ => {}
            }
            self.bump();
        }
    }

    /// Skips attributes (`#[…]` / `#![…]`), any number.
    fn skip_attrs(&mut self) {
        loop {
            if self.is_punct('#')
                && (self.punct_at(1, '[') || (self.punct_at(1, '!') && self.punct_at(2, '[')))
            {
                self.bump(); // '#'
                if self.is_punct('!') {
                    self.bump();
                }
                self.skip_balanced('[', ']');
            } else {
                return;
            }
        }
    }

    // ---- items ------------------------------------------------------------

    /// Parses items until `end` (token index, exclusive).
    fn items(&mut self, end: usize) {
        while self.pos < end && !self.at_end() {
            self.skip_attrs();
            if self.pos >= end {
                break;
            }
            match self.ident() {
                Some("fn") => {
                    let start = self.pos;
                    if let Err(e) = self.fn_item() {
                        self.out.errors.push(ParseError {
                            line: e.line,
                            message: e.message,
                        });
                        // Recover: skip the whole item from its `fn`.
                        self.pos = start;
                        self.skip_item();
                    }
                }
                Some("impl") | Some("trait") => {
                    self.bump();
                    // Skip generics / type path / where clause to the body.
                    while !self.at_end() && !self.is_punct('{') {
                        if self.is_punct('<') {
                            self.skip_angles();
                        } else if self.is_punct('(') {
                            self.skip_balanced('(', ')');
                        } else {
                            self.bump();
                        }
                    }
                    if self.is_punct('{') {
                        self.bump();
                        let close = self.matching_brace_end();
                        self.items(close);
                        self.eat_punct('}');
                    }
                }
                Some("mod") => {
                    self.bump();
                    self.bump(); // name
                    if self.is_punct('{') {
                        self.bump();
                        let close = self.matching_brace_end();
                        self.items(close);
                        self.eat_punct('}');
                    } else {
                        self.eat_punct(';');
                    }
                }
                Some("const") if self.ident_at(1) != Some("fn") => self.skip_item(),
                Some("const") => self.bump(), // `const fn` — fall through to fn
                Some(w) if SKIP_ITEMS.contains(&w) => self.skip_item(),
                Some("pub") => {
                    self.bump();
                    if self.is_punct('(') {
                        self.skip_balanced('(', ')'); // pub(crate)
                    }
                }
                Some("unsafe") | Some("async") | Some("default") => self.bump(),
                _ => self.bump(),
            }
        }
        self.pos = self.pos.max(end.min(self.toks.len()));
    }

    /// Token index of the `}` matching the `{` we just consumed (cursor is
    /// one past the `{`).
    fn matching_brace_end(&self) -> usize {
        let mut depth = 1i32;
        let mut i = self.pos;
        while i < self.toks.len() {
            match self.toks[i].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// Skips a non-fn item: to its body's matching `}`, or the first `;`
    /// outside brackets.
    fn skip_item(&mut self) {
        let mut guard = 0usize;
        while !self.at_end() {
            guard += 1;
            if guard > 500_000 {
                self.pos = self.toks.len();
                return;
            }
            match self.tok() {
                Some(Tok::Punct(';')) => {
                    self.bump();
                    return;
                }
                Some(Tok::Punct('{')) => {
                    self.skip_balanced('{', '}');
                    return;
                }
                Some(Tok::Punct('(')) => self.skip_balanced('(', ')'),
                Some(Tok::Punct('[')) => self.skip_balanced('[', ']'),
                _ => self.bump(),
            }
        }
    }

    /// Parses `fn name<…>(params) -> … where … { body }`. Trait method
    /// declarations without a body are skipped silently.
    fn fn_item(&mut self) -> PResult<()> {
        let line = self.line();
        self.bump(); // `fn`
        let name = self
            .ident()
            .ok_or_else(|| self.fail("expected fn name".into()))?
            .to_string();
        self.bump();
        if self.is_punct('<') {
            self.skip_angles();
        }
        self.expect_punct('(')?;
        let params = self.fn_params()?;
        // Return type / where clause: skip to the body `{` or a decl `;`.
        loop {
            match self.tok() {
                None => return Ok(()), // decl fragment at EOF
                Some(Tok::Punct('{')) => break,
                Some(Tok::Punct(';')) => {
                    self.bump();
                    return Ok(()); // bodyless trait method
                }
                Some(Tok::Punct('<')) => self.skip_angles(),
                Some(Tok::Punct('(')) => self.skip_balanced('(', ')'),
                Some(Tok::Punct('[')) => self.skip_balanced('[', ']'),
                _ => self.bump(),
            }
        }
        let body = self.block()?;
        self.out.fns.push(FnItem {
            name,
            params,
            body,
            line,
        });
        Ok(())
    }

    /// Parses the parameter list with the cursor just past `(`. Returns the
    /// bare binding names.
    fn fn_params(&mut self) -> PResult<Vec<String>> {
        let mut params = Vec::new();
        let mut current: Vec<String> = Vec::new();
        let mut seen_colon = false;
        loop {
            match self.tok() {
                None => return Err(self.fail("unterminated fn params".into())),
                Some(Tok::Punct(')')) => {
                    if !current.is_empty() || seen_colon {
                        params.push(param_name(&current));
                    }
                    self.bump();
                    return Ok(params);
                }
                Some(Tok::Punct(',')) => {
                    params.push(param_name(&current));
                    current.clear();
                    seen_colon = false;
                    self.bump();
                }
                Some(Tok::Punct(':')) => {
                    // Start of the type: skip it (balanced) to `,` or `)`.
                    seen_colon = true;
                    self.bump();
                    self.skip_type_to(&[',', ')'])?;
                }
                Some(Tok::Punct('(')) | Some(Tok::Punct('[')) | Some(Tok::Punct('{')) => {
                    // Destructuring pattern — bindings untracked.
                    current.push("_".into());
                    self.skip_group_or_token();
                }
                Some(Tok::Punct('#')) => self.skip_attrs(),
                Some(Tok::Ident(w)) => {
                    if w != "mut" && w != "ref" {
                        current.push(w.clone());
                    }
                    self.bump();
                }
                _ => self.bump(),
            }
        }
    }

    /// With the cursor on the first type token, skips to (not past) the
    /// first of `stops` at bracket depth 0. `>` after `-` is an arrow.
    fn skip_type_to(&mut self, stops: &[char]) -> PResult<()> {
        let mut guard = 0usize;
        while !self.at_end() {
            guard += 1;
            if guard > 200_000 {
                return Err(self.fail("runaway type".into()));
            }
            match self.tok() {
                Some(Tok::Punct(p)) if stops.contains(p) => return Ok(()),
                Some(Tok::Punct('<')) => self.skip_angles(),
                Some(Tok::Punct('(')) => self.skip_balanced('(', ')'),
                Some(Tok::Punct('[')) => self.skip_balanced('[', ']'),
                Some(Tok::Punct('{')) => self.skip_balanced('{', '}'),
                _ => self.bump(),
            }
        }
        Ok(())
    }

    // ---- statements -------------------------------------------------------

    /// Parses a block with the cursor on `{`.
    fn block(&mut self) -> PResult<Block> {
        self.expect_punct('{')?;
        let mut stmts = Vec::new();
        loop {
            self.skip_attrs();
            match self.tok() {
                None => {
                    return Ok(Block {
                        stmts,
                        end_line: self.line(),
                    })
                }
                Some(Tok::Punct('}')) => {
                    let end_line = self.line();
                    self.bump();
                    return Ok(Block { stmts, end_line });
                }
                Some(Tok::Punct(';')) => self.bump(),
                _ => stmts.push(self.stmt()?),
            }
        }
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        let line = self.line();
        match self.ident() {
            Some("let") => self.let_stmt(line),
            Some("fn") | Some("const") if self.is_fn_start() => {
                // Nested function: parse and hoist.
                if self.ident() == Some("const") {
                    self.bump();
                }
                self.fn_item()?;
                Ok(Stmt::Item)
            }
            Some(w) if SKIP_ITEMS.contains(&w) || w == "impl" || w == "trait" || w == "mod" => {
                self.skip_item();
                Ok(Stmt::Item)
            }
            Some("const") => {
                self.skip_item();
                Ok(Stmt::Item)
            }
            Some("pub") => {
                self.bump();
                if self.is_punct('(') {
                    self.skip_balanced('(', ')');
                }
                self.stmt()
            }
            _ => {
                let expr = self.expr(false)?;
                let semi = self.eat_punct(';');
                Ok(Stmt::Expr { expr, semi })
            }
        }
    }

    fn is_fn_start(&self) -> bool {
        self.ident() == Some("fn")
            || (self.ident() == Some("const") && self.ident_at(1) == Some("fn"))
    }

    fn let_stmt(&mut self, line: u32) -> PResult<Stmt> {
        self.bump(); // `let`
        let pat = self.pattern_to(&['=', ':', ';'])?;
        if self.is_punct(':') {
            self.bump();
            self.skip_type_to(&['=', ';'])?;
        }
        let mut init = None;
        let mut else_block = None;
        if self.eat_punct('=') {
            init = Some(self.expr(false)?);
            if self.ident() == Some("else") {
                self.bump();
                else_block = Some(self.block()?);
            }
        }
        self.eat_punct(';');
        Ok(Stmt::Let {
            pat,
            init,
            else_block,
            line,
        })
    }

    /// Parses a pattern up to (not past) one of `stops` at depth 0, and
    /// classifies it.
    fn pattern_to(&mut self, stops: &[char]) -> PResult<Pat> {
        let mut idents = Vec::new();
        let mut wild = false;
        let mut compound = false;
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > 100_000 {
                return Err(self.fail("runaway pattern".into()));
            }
            match self.tok() {
                None => break,
                Some(Tok::Punct(p)) if stops.contains(p) => break,
                Some(Tok::Punct('(')) | Some(Tok::Punct('[')) | Some(Tok::Punct('{')) => {
                    compound = true;
                    let (open, close) = match self.tok() {
                        Some(Tok::Punct('(')) => ('(', ')'),
                        Some(Tok::Punct('[')) => ('[', ']'),
                        _ => ('{', '}'),
                    };
                    // Collect idents inside the group.
                    let start = self.pos;
                    self.skip_balanced(open, close);
                    for t in &self.toks[start..self.pos] {
                        if let Tok::Ident(w) = &t.tok {
                            if w != "mut" && w != "ref" && w != "box" {
                                idents.push(w.clone());
                            }
                        }
                    }
                }
                Some(Tok::Ident(w)) => {
                    match w.as_str() {
                        "_" | "mut" | "ref" | "box" => {
                            if w == "_" {
                                wild = true;
                            }
                        }
                        other => idents.push(other.to_string()),
                    }
                    self.bump();
                }
                Some(Tok::Punct('&')) | Some(Tok::Punct('|')) | Some(Tok::Punct('@')) => {
                    compound = compound || self.is_punct('|') || self.is_punct('@');
                    self.bump();
                }
                _ => {
                    compound = true;
                    self.bump();
                }
            }
        }
        if wild && idents.is_empty() && !compound {
            Ok(Pat::Wild)
        } else if idents.len() == 1 && !compound {
            Ok(Pat::Name(idents.remove(0)))
        } else {
            Ok(Pat::Other(idents))
        }
    }

    // ---- expressions ------------------------------------------------------

    /// Parses an expression: units joined by binary operators (flattened
    /// into [`Expr::Other`]). `no_struct` suppresses struct-literal parsing
    /// (condition/scrutinee position).
    fn expr(&mut self, no_struct: bool) -> PResult<Expr> {
        self.depth += 1;
        if self.depth > 400 {
            self.depth -= 1;
            return Err(self.fail("expression too deep".into()));
        }
        let r = self.expr_inner(no_struct);
        self.depth -= 1;
        r
    }

    fn expr_inner(&mut self, no_struct: bool) -> PResult<Expr> {
        let line = self.line();
        let first = self.unit(no_struct)?;
        let mut children = vec![first];
        loop {
            match self.tok() {
                Some(Tok::Punct(p))
                    if matches!(
                        p,
                        '+' | '-' | '*' | '/' | '%' | '<' | '>' | '=' | '&' | '|' | '^' | '!'
                    ) =>
                {
                    // `=>` ends a match-arm pattern context upstream; here a
                    // lone `=` is assignment, `==`/`<=`… comparisons — all
                    // flattened. But `=` followed by `>` is fat-arrow: stop.
                    if *p == '=' && self.punct_at(1, '>') {
                        break;
                    }
                    // Consume the operator run (`==`, `<<=`, `&&`…).
                    while matches!(
                        self.tok(),
                        Some(Tok::Punct(
                            '+' | '-' | '*' | '/' | '%' | '<' | '>' | '=' | '&' | '|' | '^' | '!'
                        ))
                    ) {
                        if self.is_punct('=') && self.punct_at(1, '>') {
                            break;
                        }
                        self.bump();
                    }
                    // Right operand (may be absent: `x ==` never valid, but
                    // `..` ranges and `break` edges appear — be lenient).
                    if self.starts_unit() {
                        let rhs = self.unit(no_struct)?;
                        children.push(rhs);
                    }
                }
                Some(Tok::Punct('.')) if self.punct_at(1, '.') => {
                    // Range `..` / `..=`.
                    self.bump();
                    self.bump();
                    self.eat_punct('=');
                    if self.starts_unit() {
                        let rhs = self.unit(no_struct)?;
                        children.push(rhs);
                    }
                }
                Some(Tok::Ident(w)) if w == "as" => {
                    self.bump();
                    self.skip_cast_type();
                }
                _ => break,
            }
        }
        if children.len() == 1 {
            Ok(children.remove(0))
        } else {
            Ok(Expr::Other { children, line })
        }
    }

    /// Whether the current token can begin a unit.
    fn starts_unit(&self) -> bool {
        match self.tok() {
            Some(Tok::Ident(w)) => w != "in" && w != "else" && w != "as",
            Some(Tok::Lit) | Some(Tok::Lifetime) => true,
            Some(Tok::Punct(p)) => matches!(p, '(' | '[' | '{' | '&' | '*' | '-' | '!' | '|'),
            None => false,
        }
    }

    /// Skips the type after `as`: a path with optional generics/parens.
    fn skip_cast_type(&mut self) {
        loop {
            match self.tok() {
                Some(Tok::Ident(_)) => self.bump(),
                Some(Tok::Punct(':')) if self.punct_at(1, ':') => {
                    self.bump();
                    self.bump();
                }
                Some(Tok::Punct('<')) => self.skip_angles(),
                Some(Tok::Punct('&')) | Some(Tok::Punct('*')) => self.bump(),
                Some(Tok::Punct('(')) => {
                    self.skip_balanced('(', ')');
                    return;
                }
                _ => return,
            }
        }
    }

    /// Parses one unit: prefix ops, a primary, then the postfix chain.
    fn unit(&mut self, no_struct: bool) -> PResult<Expr> {
        let line = self.line();
        // Prefix: references / deref / negation / not.
        let mut prefixed = false;
        loop {
            match self.tok() {
                Some(Tok::Punct('&'))
                | Some(Tok::Punct('*'))
                | Some(Tok::Punct('-'))
                | Some(Tok::Punct('!')) => {
                    prefixed = true;
                    self.bump();
                    if self.ident() == Some("mut") {
                        self.bump();
                    }
                }
                Some(Tok::Lifetime) => {
                    // Loop label `'a:`.
                    self.bump();
                    self.eat_punct(':');
                }
                _ => break,
            }
        }
        let core = self.primary(no_struct)?;
        let with_postfix = self.postfix(core, no_struct)?;
        if prefixed {
            Ok(Expr::Other {
                children: vec![with_postfix],
                line,
            })
        } else {
            Ok(with_postfix)
        }
    }

    fn primary(&mut self, no_struct: bool) -> PResult<Expr> {
        let line = self.line();
        match self.tok() {
            Some(Tok::Lit) => {
                self.bump();
                Ok(Expr::Lit { line })
            }
            Some(Tok::Punct('(')) => {
                self.bump();
                let mut items = Vec::new();
                while !self.at_end() && !self.is_punct(')') {
                    items.push(self.expr(false)?);
                    if !self.eat_punct(',') {
                        break;
                    }
                }
                self.expect_punct(')')?;
                Ok(Expr::Tuple { items, line })
            }
            Some(Tok::Punct('[')) => {
                self.bump();
                let mut items = Vec::new();
                while !self.at_end() && !self.is_punct(']') {
                    items.push(self.expr(false)?);
                    if !self.eat_punct(',') && !self.eat_punct(';') {
                        break;
                    }
                }
                self.expect_punct(']')?;
                Ok(Expr::Tuple { items, line })
            }
            Some(Tok::Punct('{')) => {
                let block = self.block()?;
                Ok(Expr::Block { block, line })
            }
            Some(Tok::Punct('|')) => self.closure(line),
            Some(Tok::Ident(w)) => {
                let w = w.clone();
                match w.as_str() {
                    "move" => {
                        self.bump();
                        if self.is_punct('|') {
                            self.closure(line)
                        } else {
                            // `move` before a block (async blocks etc.).
                            let block = self.block()?;
                            Ok(Expr::Block { block, line })
                        }
                    }
                    "if" => self.if_expr(line),
                    "match" => self.match_expr(line),
                    "loop" => {
                        self.bump();
                        let body = self.block()?;
                        Ok(Expr::Loop {
                            header: Vec::new(),
                            body,
                            line,
                        })
                    }
                    "while" => {
                        self.bump();
                        if self.ident() == Some("let") {
                            self.bump();
                            self.pattern_to(&['='])?;
                            self.expect_punct('=')?;
                        }
                        let cond = self.expr(true)?;
                        let body = self.block()?;
                        Ok(Expr::Loop {
                            header: vec![cond],
                            body,
                            line,
                        })
                    }
                    "for" => {
                        self.bump();
                        // Pattern to `in` (an ident, so scan manually).
                        let mut guard = 0usize;
                        while !self.at_end() && self.ident() != Some("in") {
                            guard += 1;
                            if guard > 100_000 {
                                return Err(self.fail("runaway for-pattern".into()));
                            }
                            self.skip_group_or_token();
                        }
                        self.bump(); // `in`
                        let iter = self.expr(true)?;
                        let body = self.block()?;
                        Ok(Expr::Loop {
                            header: vec![iter],
                            body,
                            line,
                        })
                    }
                    "unsafe" => {
                        self.bump();
                        let block = self.block()?;
                        Ok(Expr::Block { block, line })
                    }
                    "return" => {
                        self.bump();
                        let inner = if self.starts_unit() {
                            Some(Box::new(self.expr(no_struct)?))
                        } else {
                            None
                        };
                        Ok(Expr::Return { inner, line })
                    }
                    "break" | "continue" => {
                        self.bump();
                        if matches!(self.tok(), Some(Tok::Lifetime)) {
                            self.bump();
                        }
                        if w == "break" && self.starts_unit() {
                            self.expr(no_struct)?;
                        }
                        Ok(Expr::Jump { line })
                    }
                    _ => self.path_based(no_struct, line),
                }
            }
            Some(Tok::Lifetime) => {
                self.bump();
                self.eat_punct(':');
                self.primary(no_struct)
            }
            Some(Tok::Punct(p)) => Err(self.fail(format!("unexpected `{p}` in expression"))),
            None => Err(self.fail("unexpected end of input in expression".into())),
        }
    }

    fn closure(&mut self, line: u32) -> PResult<Expr> {
        self.bump(); // first `|`
        let mut params = Vec::new();
        if !self.eat_punct('|') {
            // Parameters until the closing `|`.
            let mut current: Vec<String> = Vec::new();
            loop {
                match self.tok() {
                    None => return Err(self.fail("unterminated closure params".into())),
                    Some(Tok::Punct('|')) => {
                        if !current.is_empty() {
                            params.push(param_name(&current));
                        }
                        self.bump();
                        break;
                    }
                    Some(Tok::Punct(',')) => {
                        params.push(param_name(&current));
                        current.clear();
                        self.bump();
                    }
                    Some(Tok::Punct(':')) => {
                        self.bump();
                        self.skip_type_to(&[',', '|'])?;
                    }
                    Some(Tok::Punct('(')) | Some(Tok::Punct('[')) => {
                        current.push("_".into());
                        self.skip_group_or_token();
                    }
                    Some(Tok::Ident(w)) => {
                        if w == "_" {
                            current.push("_".into());
                        } else if w != "mut" && w != "ref" {
                            current.push(w.clone());
                        }
                        self.bump();
                    }
                    _ => self.bump(),
                }
            }
        }
        // Optional `-> Type` (body must then be a block).
        if self.is_punct('-') && self.punct_at(1, '>') {
            self.bump();
            self.bump();
            self.skip_type_to(&['{'])?;
        }
        let body = self.expr(false)?;
        Ok(Expr::Closure {
            params,
            body: Box::new(body),
            line,
        })
    }

    fn if_expr(&mut self, line: u32) -> PResult<Expr> {
        self.bump(); // `if`
        let mut pat_idents = Vec::new();
        if self.ident() == Some("let") {
            self.bump();
            pat_idents = ids_of(self.pattern_to(&['='])?);
            self.expect_punct('=')?;
        }
        let cond = self.expr(true)?;
        let then_branch = self.block()?;
        let else_branch = if self.ident() == Some("else") {
            self.bump();
            if self.ident() == Some("if") {
                let l2 = self.line();
                Some(Box::new(self.if_expr(l2)?))
            } else {
                let l2 = self.line();
                let block = self.block()?;
                Some(Box::new(Expr::Block { block, line: l2 }))
            }
        } else {
            None
        };
        Ok(Expr::If {
            pat_idents,
            cond: Box::new(cond),
            then_branch,
            else_branch,
            line,
        })
    }

    fn match_expr(&mut self, line: u32) -> PResult<Expr> {
        self.bump(); // `match`
        let scrutinee = self.expr(true)?;
        self.expect_punct('{')?;
        let mut arms = Vec::new();
        loop {
            self.skip_attrs();
            if self.at_end() || self.is_punct('}') {
                self.eat_punct('}');
                break;
            }
            let arm_line = self.line();
            let (pat_idents, has_guard) = self.arm_pattern()?;
            let guard = if has_guard {
                let g = self.expr_to_fat_arrow()?;
                Some(g)
            } else {
                None
            };
            // `=>`
            self.expect_punct('=')?;
            self.expect_punct('>')?;
            let body = self.expr(false)?;
            self.eat_punct(',');
            arms.push(Arm {
                pat_idents,
                guard,
                body,
                line: arm_line,
            });
        }
        Ok(Expr::Match {
            scrutinee: Box::new(scrutinee),
            arms,
            line,
        })
    }

    /// Reads a match-arm pattern up to `=>` or a guard `if`; returns the
    /// idents and whether a guard follows.
    fn arm_pattern(&mut self) -> PResult<(Vec<String>, bool)> {
        let mut idents = Vec::new();
        let mut depth = 0i32;
        let mut guard_count = 0usize;
        loop {
            guard_count += 1;
            if guard_count > 100_000 {
                return Err(self.fail("runaway match-arm pattern".into()));
            }
            match self.tok() {
                None => return Err(self.fail("unterminated match arm".into())),
                Some(Tok::Punct('=')) if depth == 0 && self.punct_at(1, '>') => {
                    return Ok((idents, false));
                }
                Some(Tok::Ident(w)) if w == "if" && depth == 0 => {
                    self.bump();
                    return Ok((idents, true));
                }
                Some(Tok::Punct('(')) | Some(Tok::Punct('[')) | Some(Tok::Punct('{')) => {
                    depth += 1;
                    self.bump();
                }
                Some(Tok::Punct(')')) | Some(Tok::Punct(']')) | Some(Tok::Punct('}')) => {
                    depth -= 1;
                    if depth < 0 {
                        return Err(self.fail("unbalanced match arm pattern".into()));
                    }
                    self.bump();
                }
                Some(Tok::Ident(w)) => {
                    if w != "mut" && w != "ref" && w != "box" && w != "_" {
                        idents.push(w.clone());
                    }
                    self.bump();
                }
                _ => self.bump(),
            }
        }
    }

    /// Parses a guard expression, stopping before `=>`.
    fn expr_to_fat_arrow(&mut self) -> PResult<Expr> {
        // The general expr parser stops at `=>` (fat-arrow checks), so this
        // is just expr with struct literals suppressed.
        self.expr(true)
    }

    /// A path-started primary: path, then macro / call / struct literal.
    fn path_based(&mut self, no_struct: bool, line: u32) -> PResult<Expr> {
        let mut segs = Vec::new();
        while let Some(Tok::Ident(w)) = self.tok() {
            segs.push(w.clone());
            self.bump();
            if self.is_punct(':') && self.punct_at(1, ':') {
                self.bump();
                self.bump();
                if self.is_punct('<') {
                    // Turbofish.
                    self.skip_angles();
                    if self.is_punct(':') && self.punct_at(1, ':') {
                        self.bump();
                        self.bump();
                        continue;
                    }
                    break;
                }
            } else {
                break;
            }
        }
        if segs.is_empty() {
            return Err(self.fail("expected path".into()));
        }
        // Macro?
        if self.is_punct('!') && !self.punct_at(1, '=') {
            self.bump();
            let name = segs.last().cloned().unwrap_or_default();
            return self.macro_args(name, line);
        }
        // Call?
        if self.is_punct('(') {
            self.bump();
            let args = self.call_args()?;
            return Ok(Expr::Call {
                path: segs,
                args,
                line,
            });
        }
        // Struct literal?
        if self.is_punct('{') && !no_struct && struct_lit_ahead(self.toks, self.pos) {
            return self.struct_lit(segs, line);
        }
        Ok(Expr::Path { segs, line })
    }

    /// Parses macro arguments. `(…)`/`[…]` delimiters get best-effort
    /// expression parsing (recovering per argument); `{…}` is skipped.
    fn macro_args(&mut self, name: String, line: u32) -> PResult<Expr> {
        let (close, is_brace) = match self.tok() {
            Some(Tok::Punct('(')) => (')', false),
            Some(Tok::Punct('[')) => (']', false),
            Some(Tok::Punct('{')) => ('}', true),
            _ => {
                return Ok(Expr::Macro {
                    name,
                    args: Vec::new(),
                    line,
                })
            }
        };
        if is_brace {
            self.skip_balanced('{', '}');
            return Ok(Expr::Macro {
                name,
                args: Vec::new(),
                line,
            });
        }
        let _open = if close == ')' { '(' } else { '[' };
        self.bump(); // opener
        let mut args = Vec::new();
        loop {
            match self.tok() {
                None => break,
                Some(Tok::Punct(p)) if *p == close => {
                    self.bump();
                    break;
                }
                Some(Tok::Punct(',')) | Some(Tok::Punct(';')) => {
                    self.bump();
                }
                _ => {
                    let start = self.pos;
                    match self.expr(false) {
                        Ok(e) => args.push(e),
                        Err(_) => {
                            // Not expression-shaped (pattern arm of
                            // `matches!`, format spec, …): skip the token
                            // run to the next separator.
                            self.pos = start;
                            let mut depth = 0i32;
                            while !self.at_end() {
                                match self.tok() {
                                    Some(Tok::Punct(p))
                                        if depth == 0 && (*p == ',' || *p == close) =>
                                    {
                                        break;
                                    }
                                    Some(Tok::Punct('('))
                                    | Some(Tok::Punct('['))
                                    | Some(Tok::Punct('{')) => {
                                        depth += 1;
                                        self.bump();
                                    }
                                    Some(Tok::Punct(')'))
                                    | Some(Tok::Punct(']'))
                                    | Some(Tok::Punct('}')) => {
                                        depth -= 1;
                                        if depth < 0 {
                                            break;
                                        }
                                        self.bump();
                                    }
                                    _ => self.bump(),
                                }
                            }
                        }
                    }
                    // If no progress was made, force it (malformed input).
                    if self.pos == start {
                        self.bump();
                    }
                }
            }
        }
        Ok(Expr::Macro { name, args, line })
    }

    /// Call arguments with the cursor just past `(`.
    fn call_args(&mut self) -> PResult<Vec<Expr>> {
        let mut args = Vec::new();
        loop {
            match self.tok() {
                None => return Err(self.fail("unterminated call arguments".into())),
                Some(Tok::Punct(')')) => {
                    self.bump();
                    return Ok(args);
                }
                Some(Tok::Punct(',')) => self.bump(),
                _ => args.push(self.expr(false)?),
            }
        }
    }

    fn struct_lit(&mut self, path: Vec<String>, line: u32) -> PResult<Expr> {
        self.expect_punct('{')?;
        let mut fields = Vec::new();
        let mut rest = None;
        loop {
            match self.tok() {
                None => break,
                Some(Tok::Punct('}')) => {
                    self.bump();
                    break;
                }
                Some(Tok::Punct(',')) => self.bump(),
                Some(Tok::Punct('.')) if self.punct_at(1, '.') => {
                    self.bump();
                    self.bump();
                    rest = Some(Box::new(self.expr(false)?));
                }
                Some(Tok::Ident(_)) => {
                    let name = self.ident().unwrap_or("_").to_string();
                    self.bump();
                    let value = if self.is_punct(':') && !self.punct_at(1, ':') {
                        self.bump();
                        Some(self.expr(false)?)
                    } else {
                        None
                    };
                    fields.push(FieldInit { name, value });
                }
                _ => self.bump(),
            }
        }
        Ok(Expr::StructLit {
            path,
            fields,
            rest,
            line,
        })
    }

    /// Postfix chain: `.method(args)`, `.field`, `.await`, `?`, indexing.
    fn postfix(&mut self, mut cur: Expr, _no_struct: bool) -> PResult<Expr> {
        loop {
            match self.tok() {
                Some(Tok::Punct('?')) => {
                    let line = self.line();
                    self.bump();
                    cur = Expr::Try {
                        inner: Box::new(cur),
                        line,
                    };
                }
                Some(Tok::Punct('.')) if !self.punct_at(1, '.') => {
                    let line = self.line();
                    self.bump();
                    match self.tok() {
                        Some(Tok::Ident(w)) => {
                            let name = w.clone();
                            self.bump();
                            if name == "await" {
                                continue;
                            }
                            // Turbofish before call parens.
                            if self.is_punct(':') && self.punct_at(1, ':') {
                                self.bump();
                                self.bump();
                                if self.is_punct('<') {
                                    self.skip_angles();
                                }
                            }
                            if self.is_punct('(') {
                                self.bump();
                                let args = self.call_args()?;
                                cur = Expr::MethodCall {
                                    recv: Box::new(cur),
                                    name,
                                    args,
                                    line,
                                };
                            } else {
                                cur = Expr::Field {
                                    base: Box::new(cur),
                                    name,
                                    line,
                                };
                            }
                        }
                        Some(Tok::Lit) => {
                            // Tuple index `.0`.
                            self.bump();
                            cur = Expr::Field {
                                base: Box::new(cur),
                                name: "#".into(),
                                line,
                            };
                        }
                        _ => break,
                    }
                }
                Some(Tok::Punct('[')) => {
                    let line = self.line();
                    self.bump();
                    let mut children = vec![cur];
                    if !self.is_punct(']') {
                        children.push(self.expr(false)?);
                    }
                    // Tolerate range indexing leftovers.
                    while !self.at_end() && !self.is_punct(']') {
                        self.skip_group_or_token();
                    }
                    self.eat_punct(']');
                    cur = Expr::Other { children, line };
                }
                Some(Tok::Punct('(')) => {
                    // Calling a non-path expression: `(cb)(x)`, `self.f(x)`
                    // already handled; this is e.g. a closure variable deref.
                    let line = self.line();
                    self.bump();
                    let args = self.call_args()?;
                    let mut children = vec![cur];
                    children.extend(args);
                    cur = Expr::Other { children, line };
                }
                _ => break,
            }
        }
        Ok(cur)
    }
}

/// The binding name for a parameter token run (idents with `mut`/`ref`
/// already filtered): a single ident is the name, anything else is `_`.
fn param_name(idents: &[String]) -> String {
    if idents.len() == 1 {
        idents[0].clone()
    } else if idents.first().map(String::as_str) == Some("self") {
        "self".into()
    } else {
        "_".into()
    }
}

fn ids_of(p: Pat) -> Vec<String> {
    match p {
        Pat::Name(n) => vec![n],
        Pat::Wild => Vec::new(),
        Pat::Other(v) => v,
    }
}

/// Disambiguates `path {` between a struct literal and a block that merely
/// follows a path expression: inside the braces, a struct literal starts
/// with `ident :`/`ident ,`/`ident }`/`..`/`}`  — with `::` excluded.
fn struct_lit_ahead(toks: &[Token], brace_pos: usize) -> bool {
    let at = |i: usize| toks.get(brace_pos + i).map(|t| &t.tok);
    match at(1) {
        Some(Tok::Punct('}')) => true,
        Some(Tok::Punct('.')) => matches!(at(2), Some(Tok::Punct('.'))),
        Some(Tok::Ident(_)) => match at(2) {
            Some(Tok::Punct(':')) => !matches!(at(3), Some(Tok::Punct(':'))),
            Some(Tok::Punct(',')) | Some(Tok::Punct('}')) => true,
            _ => false,
        },
        _ => false,
    }
}
