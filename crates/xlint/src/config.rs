//! `xlint.toml` — per-crate rule configuration.
//!
//! The registry is unreachable, so this is a hand-rolled parser for the
//! small TOML subset the config actually uses: `[table.sub]` headers,
//! `[[array-of-tables]]` headers, string values, string arrays, and `#`
//! comments. Anything else is a parse error — better loud than silently
//! ignored configuration.

use std::fmt;
use std::path::Path;

/// A `[[resource]]` entry: an acquire/release pair the flow analysis
/// (`protocol-resource-balance`) enforces.
#[derive(Debug, Clone)]
pub struct ResourceSpec {
    /// Human name used in findings ("replication lock", "multipart upload").
    pub kind: String,
    /// Crates whose sources are checked for acquires.
    pub crates: Vec<String>,
    /// Function whose call is the acquire site.
    pub acquire: String,
    /// How the acquired value binds: `"return"`, `"callback-param:N"`,
    /// `"transact-callback-param:N"`, or `"reach"` (no value — every path
    /// must reach a release call through the call graph).
    pub bind: String,
    /// Functions that conclude the obligation when the value reaches them
    /// (or, for `reach` binds, when any path calls into them).
    pub release: Vec<String>,
    /// Functions that take over the obligation (ownership handoff).
    pub handoff: Vec<String>,
    /// Match-arm pattern identifiers that discharge the obligation — the
    /// not-acquired / peer-owns-it outcomes of the protocol.
    pub exempt_arms: Vec<String>,
}

/// Parsed configuration with per-rule scoping.
#[derive(Debug, Clone)]
pub struct Config {
    /// Top-level directories never scanned (path prefixes).
    pub skip: Vec<String>,
    /// Acquire/release pairs for `protocol-resource-balance`.
    pub resources: Vec<ResourceSpec>,
    /// Crates where `span-balance` applies (span_begin/span_end pairing).
    pub span_crates: Vec<String>,
    /// Crates where `determinism-taint` applies.
    pub taint_crates: Vec<String>,
    /// Identifiers whose values are wall-clock/entropy tainted.
    pub taint_sources: Vec<String>,
    /// Functions tainted values must not flow into.
    pub taint_sinks: Vec<String>,
}

/// Config file parse error.
#[derive(Debug)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xlint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Loads `xlint.toml` from `root`. A missing file is an error: there is
    /// no built-in fallback policy.
    pub fn load(root: &Path) -> Result<Config, ConfigError> {
        let path = root.join("xlint.toml");
        let text = std::fs::read_to_string(&path).map_err(|e| ConfigError {
            line: 0,
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        Config::parse(&text)
    }

    /// The committed workspace policy, embedded at build time, so the
    /// self-test and the unit tests check the fixtures against the same
    /// policy the workspace run enforces.
    pub fn committed() -> Result<Config, ConfigError> {
        Config::parse(include_str!("../../../xlint.toml"))
    }

    /// Parses the TOML subset described in the module docs.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config {
            skip: Vec::new(),
            resources: Vec::new(),
            span_crates: Vec::new(),
            taint_crates: Vec::new(),
            taint_sources: Vec::new(),
            taint_sinks: Vec::new(),
        };
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(h) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
                section = format!("[[{}]]", h.trim());
                if h.trim() == "resource" {
                    cfg.resources.push(ResourceSpec {
                        kind: String::new(),
                        crates: Vec::new(),
                        acquire: String::new(),
                        bind: "return".into(),
                        release: Vec::new(),
                        handoff: Vec::new(),
                        exempt_arms: Vec::new(),
                    });
                } else {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown array-of-tables [[{}]]", h.trim()),
                    });
                }
                continue;
            }
            if let Some(h) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = h.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let key = key.trim();
            let value = value.trim();
            let err = |m: String| ConfigError {
                line: lineno,
                message: m,
            };
            match (section.as_str(), key) {
                ("", "skip") => cfg.skip = parse_string_array(value).map_err(err)?,
                ("rules.span-balance", "crates") => {
                    cfg.span_crates = parse_string_array(value).map_err(err)?
                }
                ("rules.determinism-taint", "crates") => {
                    cfg.taint_crates = parse_string_array(value).map_err(err)?
                }
                ("rules.determinism-taint", "sources") => {
                    cfg.taint_sources = parse_string_array(value).map_err(err)?
                }
                ("rules.determinism-taint", "sinks") => {
                    cfg.taint_sinks = parse_string_array(value).map_err(err)?
                }
                ("[[resource]]", k) => {
                    let entry = cfg.resources.last_mut().ok_or_else(|| ConfigError {
                        line: lineno,
                        message: "resource key outside [[resource]]".into(),
                    })?;
                    match k {
                        "kind" => entry.kind = parse_string(value).map_err(err)?,
                        "crates" => entry.crates = parse_string_array(value).map_err(err)?,
                        "acquire" => entry.acquire = parse_string(value).map_err(err)?,
                        "bind" => entry.bind = parse_string(value).map_err(err)?,
                        "release" => entry.release = parse_string_array(value).map_err(err)?,
                        "handoff" => entry.handoff = parse_string_array(value).map_err(err)?,
                        "exempt_arms" => {
                            entry.exempt_arms = parse_string_array(value).map_err(err)?
                        }
                        other => {
                            return Err(ConfigError {
                                line: lineno,
                                message: format!("unknown resource key `{other}`"),
                            })
                        }
                    }
                }
                (sec, k) => {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown key `{k}` in section `{sec}`"),
                    })
                }
            }
        }
        for (i, r) in cfg.resources.iter().enumerate() {
            if r.kind.is_empty() || r.acquire.is_empty() || r.release.is_empty() {
                return Err(ConfigError {
                    line: 0,
                    message: format!(
                        "[[resource]] entry {i} needs `kind`, `acquire`, and `release`"
                    ),
                });
            }
            let bind_ok = r.bind == "return"
                || r.bind == "reach"
                || r.bind
                    .strip_prefix("callback-param:")
                    .is_some_and(|n| n.parse::<usize>().is_ok())
                || r.bind
                    .strip_prefix("transact-callback-param:")
                    .is_some_and(|n| n.parse::<usize>().is_ok());
            if !bind_ok {
                return Err(ConfigError {
                    line: 0,
                    message: format!("[[resource]] entry {i}: unknown bind `{}`", r.bind),
                });
            }
        }
        Ok(cfg)
    }
}

/// Drops a trailing `#` comment, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(v: &str) -> Result<String, String> {
    let v = v.trim();
    v.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(|s| s.to_string())
        .ok_or_else(|| format!("expected a quoted string, got `{v}`"))
}

fn parse_string_array(v: &str) -> Result<Vec<String>, String> {
    let v = v.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected [\"a\", \"b\"], got `{v}`"))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part)?);
    }
    Ok(out)
}
