//! `xlint.toml` — per-crate rule configuration.
//!
//! The registry is unreachable, so this is a hand-rolled parser for the
//! small TOML subset the config actually uses: `[table.sub]` headers,
//! `[[array-of-tables]]` headers, string values, string arrays, and `#`
//! comments. Anything else is a parse error — better loud than silently
//! ignored configuration.

use std::fmt;
use std::path::Path;

/// A `[[layering]]` entry: references to `forbid::…` inside `crate` are
/// errors outside the `allow`ed files.
#[derive(Debug, Clone)]
pub struct LayeringRule {
    /// Crate whose sources are constrained.
    pub krate: String,
    /// Root path segment that must not be referenced (`forbid::`).
    pub forbid: String,
    /// Workspace-relative files where the reference is legal.
    pub allow: Vec<String>,
}

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
    /// Crate name of the workspace-root package.
    pub root_crate: String,
    /// Crates where `no-unordered-iteration` applies.
    pub unordered_crates: Vec<String>,
    /// Crates where `no-unwrap-in-lib` applies.
    pub unwrap_crates: Vec<String>,
    /// Crates where `no-adhoc-stderr` applies.
    pub stderr_crates: Vec<String>,
    /// Path prefixes exempt from `no-wall-clock` (tests are always exempt).
    pub wall_clock_exempt: Vec<String>,
    /// Layering constraints.
    pub layering: Vec<LayeringRule>,
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
    /// Crates where `no-dropped-result` applies (lib sources only).
    pub dropped_result_crates: Vec<String>,
    /// Identifiers `thread-confinement` flags in library sources: OS
    /// threading and shared-state primitives.
    pub thread_idents: Vec<String>,
    /// Files where those primitives are legal (`simkernel::par`, the one
    /// module that runs independent simulations on worker threads).
    pub thread_allow: Vec<String>,
}

impl Default for Config {
    /// The workspace's real policy — also used by `--self-test`, which must
    /// not depend on an on-disk config.
    fn default() -> Config {
        Config {
            skip: vec!["vendor".into(), "target".into()],
            root_crate: "areplica".into(),
            unordered_crates: vec![
                "areplica-core".into(),
                "areplica-control".into(),
                "cloudsim".into(),
                "simkernel".into(),
                "baselines".into(),
            ],
            unwrap_crates: vec!["areplica-core".into(), "areplica-control".into()],
            stderr_crates: vec![
                "areplica-core".into(),
                "areplica-control".into(),
                "cloudsim".into(),
                "simkernel".into(),
                "baselines".into(),
                "bench".into(),
            ],
            wall_clock_exempt: Vec::new(),
            layering: vec![
                LayeringRule {
                    krate: "areplica-core".into(),
                    forbid: "cloudsim".into(),
                    allow: vec!["crates/areplica-core/src/backend/sim.rs".into()],
                },
                LayeringRule {
                    krate: "areplica-control".into(),
                    forbid: "cloudsim".into(),
                    allow: Vec::new(),
                },
                LayeringRule {
                    krate: "areplica-core".into(),
                    forbid: "areplica_control".into(),
                    allow: Vec::new(),
                },
            ],
            resources: default_resources(),
            span_crates: vec!["areplica-core".into()],
            taint_crates: vec![
                "areplica-core".into(),
                "areplica-control".into(),
                "cloudsim".into(),
                "simkernel".into(),
                "baselines".into(),
                "bench".into(),
            ],
            taint_sources: vec![
                "WallTimer".into(),
                "Instant".into(),
                "SystemTime".into(),
                "elapsed_secs".into(),
            ],
            taint_sinks: vec![
                "schedule_in".into(),
                "schedule_at".into(),
                "db_transact".into(),
                "db_put".into(),
                "put_object".into(),
                "user_put".into(),
                "upload_part".into(),
                "create_multipart".into(),
                "complete_multipart".into(),
                "invoke".into(),
                "invoke_after".into(),
                "write_report".into(),
                "write_dash".into(),
                "record_alert".into(),
                "flight_dump_open".into(),
            ],
            dropped_result_crates: vec![
                "areplica-core".into(),
                "areplica-control".into(),
                "cloudsim".into(),
                "simkernel".into(),
                "simtrace".into(),
                "cloudapi".into(),
                "baselines".into(),
                "bench".into(),
                "areplica-traces".into(),
                "stats".into(),
                "pricing".into(),
            ],
            thread_idents: vec![
                "thread".into(),
                "thread_local".into(),
                "mpsc".into(),
                "Mutex".into(),
                "RwLock".into(),
                "Condvar".into(),
                "JoinHandle".into(),
                "Barrier".into(),
                "Arc".into(),
            ],
            thread_allow: vec!["crates/simkernel/src/par.rs".into()],
        }
    }
}

/// The workspace's real protocol resources — mirrored in `xlint.toml`.
fn default_resources() -> Vec<ResourceSpec> {
    let multipart_exempt = vec![
        "Concluded".to_string(),
        "NothingClaimable".to_string(),
        "AlreadyConcluded".to_string(),
        "Gone".to_string(),
        "NoSuchUpload".to_string(),
        "Busy".to_string(),
    ];
    vec![
        ResourceSpec {
            kind: "replication lock".into(),
            crates: vec!["areplica-core".into()],
            acquire: "try_lock_tx".into(),
            bind: "reach".into(),
            release: vec!["unlock_tx".into()],
            handoff: Vec::new(),
            exempt_arms: vec!["Busy".into()],
        },
        ResourceSpec {
            kind: "abort tombstone".into(),
            crates: vec!["areplica-core".into()],
            acquire: "abort_tx".into(),
            bind: "reach".into(),
            release: vec!["conclude_aborted".into()],
            handoff: Vec::new(),
            exempt_arms: vec!["Gone".into()],
        },
        ResourceSpec {
            kind: "multipart upload".into(),
            crates: vec!["areplica-core".into()],
            acquire: "create_multipart".into(),
            bind: "callback-param:1".into(),
            release: vec!["complete_multipart".into(), "abort_multipart_now".into()],
            handoff: vec!["adopt_tx".into()],
            exempt_arms: multipart_exempt.clone(),
        },
        ResourceSpec {
            kind: "adopted upload".into(),
            crates: vec!["areplica-core".into()],
            acquire: "adopt_tx".into(),
            bind: "transact-callback-param:1".into(),
            release: vec!["complete_multipart".into(), "abort_multipart_now".into()],
            handoff: Vec::new(),
            exempt_arms: multipart_exempt,
        },
        ResourceSpec {
            kind: "flight dump".into(),
            crates: vec!["simtrace".into(), "bench".into(), "simcheck".into()],
            acquire: "flight_dump_open".into(),
            bind: "return".into(),
            release: vec!["flight_dump_close".into()],
            handoff: Vec::new(),
            exempt_arms: Vec::new(),
        },
        ResourceSpec {
            kind: "breaker probe".into(),
            crates: vec!["areplica-core".into()],
            acquire: "probe_open".into(),
            bind: "reach".into(),
            release: vec!["probe_resolve".into()],
            handoff: Vec::new(),
            exempt_arms: Vec::new(),
        },
    ]
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
    /// Loads `xlint.toml` from `root`, falling back to the built-in default
    /// when absent.
    pub fn load(root: &Path) -> Result<Config, ConfigError> {
        let path = root.join("xlint.toml");
        match std::fs::read_to_string(&path) {
            Ok(text) => Config::parse(&text),
            Err(_) => Ok(Config::default()),
        }
    }

    /// Parses the TOML subset described in the module docs.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config {
            skip: Vec::new(),
            root_crate: "areplica".into(),
            unordered_crates: Vec::new(),
            unwrap_crates: Vec::new(),
            stderr_crates: Vec::new(),
            wall_clock_exempt: Vec::new(),
            layering: Vec::new(),
            resources: Vec::new(),
            span_crates: Vec::new(),
            taint_crates: Vec::new(),
            taint_sources: Vec::new(),
            taint_sinks: Vec::new(),
            dropped_result_crates: Vec::new(),
            thread_idents: Vec::new(),
            thread_allow: Vec::new(),
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
                if h.trim() == "layering" {
                    cfg.layering.push(LayeringRule {
                        krate: String::new(),
                        forbid: String::new(),
                        allow: Vec::new(),
                    });
                } else if h.trim() == "resource" {
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
                ("", "root_crate") => cfg.root_crate = parse_string(value).map_err(err)?,
                ("rules.no-unordered-iteration", "crates") => {
                    cfg.unordered_crates = parse_string_array(value).map_err(err)?
                }
                ("rules.no-unwrap-in-lib", "crates") => {
                    cfg.unwrap_crates = parse_string_array(value).map_err(err)?
                }
                ("rules.no-adhoc-stderr", "crates") => {
                    cfg.stderr_crates = parse_string_array(value).map_err(err)?
                }
                ("rules.no-wall-clock", "exempt_paths") => {
                    cfg.wall_clock_exempt = parse_string_array(value).map_err(err)?
                }
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
                ("rules.no-dropped-result", "crates") => {
                    cfg.dropped_result_crates = parse_string_array(value).map_err(err)?
                }
                ("rules.thread-confinement", "idents") => {
                    cfg.thread_idents = parse_string_array(value).map_err(err)?
                }
                ("rules.thread-confinement", "allow") => {
                    cfg.thread_allow = parse_string_array(value).map_err(err)?
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
                ("[[layering]]", k) => {
                    let entry = cfg.layering.last_mut().ok_or_else(|| ConfigError {
                        line: lineno,
                        message: "layering key outside [[layering]]".into(),
                    })?;
                    match k {
                        "crate" => entry.krate = parse_string(value).map_err(err)?,
                        "forbid" => entry.forbid = parse_string(value).map_err(err)?,
                        "allow" => entry.allow = parse_string_array(value).map_err(err)?,
                        other => {
                            return Err(ConfigError {
                                line: lineno,
                                message: format!("unknown layering key `{other}`"),
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
        for (i, l) in cfg.layering.iter().enumerate() {
            if l.krate.is_empty() || l.forbid.is_empty() {
                return Err(ConfigError {
                    line: 0,
                    message: format!("[[layering]] entry {i} needs both `crate` and `forbid`"),
                });
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
