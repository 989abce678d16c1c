//! Integration tests: every embedded fixture behaves, the real workspace is
//! lint-clean, and a seeded violation is caught.

use std::fs;
use std::path::{Path, PathBuf};

use xlint::config::Config;
use xlint::fixtures::{run_self_test, Expect, FIXTURES};
use xlint::rules::check_file;
use xlint::{find_workspace_root, lint_root};

/// Runs every fixture tagged with `rule` through the engine and checks its
/// expectation, returning how many fixtures were exercised.
fn check_rule_fixtures(rule: &str) -> usize {
    let cfg = Config::default();
    let mut n = 0;
    for fx in FIXTURES.iter().filter(|f| f.rule == rule) {
        n += 1;
        let findings = check_file(fx.rel_path, fx.source, &cfg);
        match fx.expect {
            Expect::Fires => assert!(
                findings.iter().any(|f| f.rule == fx.rule),
                "fixture {} should fire {}, got: {:?}",
                fx.name,
                fx.rule,
                findings
            ),
            Expect::Clean => assert!(
                findings.is_empty(),
                "fixture {} should be clean, got: {:?}",
                fx.name,
                findings
            ),
        }
    }
    n
}

#[test]
fn no_wall_clock_fixtures() {
    assert!(check_rule_fixtures("no-wall-clock") >= 3);
}

#[test]
fn no_os_entropy_fixtures() {
    assert!(check_rule_fixtures("no-os-entropy") >= 3);
}

#[test]
fn no_unordered_iteration_fixtures() {
    assert!(check_rule_fixtures("no-unordered-iteration") >= 3);
}

#[test]
fn layering_fixtures() {
    assert!(check_rule_fixtures("layering") >= 3);
}

#[test]
fn no_unwrap_in_lib_fixtures() {
    assert!(check_rule_fixtures("no-unwrap-in-lib") >= 3);
}

#[test]
fn no_adhoc_stderr_fixtures() {
    assert!(check_rule_fixtures("no-adhoc-stderr") >= 3);
}

#[test]
fn thread_confinement_fixtures() {
    assert!(check_rule_fixtures("thread-confinement") >= 5);
}

#[test]
fn bad_pragma_fixtures() {
    assert!(check_rule_fixtures("bad-pragma") >= 2);
}

#[test]
fn protocol_resource_balance_fixtures() {
    assert!(check_rule_fixtures("protocol-resource-balance") >= 4);
}

#[test]
fn span_balance_fixtures() {
    assert!(check_rule_fixtures("span-balance") >= 4);
}

#[test]
fn determinism_taint_fixtures() {
    assert!(check_rule_fixtures("determinism-taint") >= 4);
}

#[test]
fn no_dropped_result_fixtures() {
    assert!(check_rule_fixtures("no-dropped-result") >= 4);
}

/// The three historical protocol bugs this analysis was built to re-catch
/// (ROADMAP PRs 3–4) must each fire as a dedicated fixture, with the finding
/// carrying the acquisition site in its message.
#[test]
fn historical_bugs_are_reseeded() {
    let cfg = Config::default();
    for name in [
        "prb-lost-abort-historical",
        "prb-rival-upload-historical",
        "prb-orphan-upload-historical",
    ] {
        let fx = FIXTURES
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("fixture {name} missing"));
        let findings = check_file(fx.rel_path, fx.source, &cfg);
        let hit = findings
            .iter()
            .find(|f| f.rule == "protocol-resource-balance")
            .unwrap_or_else(|| panic!("{name} did not fire: {findings:?}"));
        assert!(
            hit.message.contains("acquired"),
            "{name} finding should name the acquisition site: {}",
            hit.message
        );
    }
}

#[test]
fn embedded_self_test_passes() {
    let failures = run_self_test();
    assert!(failures.is_empty(), "self-test failures: {failures:#?}");
}

fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(&manifest).expect("workspace root above crates/xlint")
}

/// The hard gate: the repository itself must be lint-clean under its own
/// committed `xlint.toml`.
#[test]
fn workspace_is_lint_clean() {
    let root = repo_root();
    let cfg = Config::load(&root).expect("xlint.toml parses");
    let findings = lint_root(&root, &cfg).expect("workspace walk");
    assert!(
        findings.is_empty(),
        "workspace has xlint findings:\n{}",
        findings
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Seeding a violating file into a scratch mini-workspace must be caught
/// (i.e. the gate actually fails when someone introduces a hazard).
#[test]
fn seeded_violation_is_caught() {
    let scratch = repo_root().join("target/xlint-seeded-violation-test");
    let src_dir = scratch.join("crates/areplica-core/src");
    fs::create_dir_all(&src_dir).expect("scratch dirs");
    fs::write(
        scratch.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .expect("scratch manifest");
    fs::write(
        src_dir.join("seeded.rs"),
        "pub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    )
    .expect("seeded source");

    let findings = lint_root(&scratch, &Config::default()).expect("scratch walk");
    assert!(
        findings.iter().any(|f| f.rule == "no-wall-clock"),
        "seeded wall-clock violation not caught: {findings:?}"
    );

    fs::remove_dir_all(&scratch).ok();
}

/// A pragma with a reason suppresses; stripping the reason turns it into a
/// non-suppressible bad-pragma finding (end-to-end through `check_file`).
#[test]
fn pragma_reason_is_mandatory() {
    let cfg = Config::default();
    let rel = "crates/areplica-core/src/pragma_e2e.rs";
    let good = "pub fn f(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {\n\
                \x20   // xlint::allow(no-unordered-iteration, order folded through a sort below)\n\
                \x20   let mut v: Vec<u32> = m.keys().copied().collect();\n\
                \x20   v.sort_unstable();\n\
                \x20   v\n\
                }\n";
    assert!(
        check_file(rel, good, &cfg).is_empty(),
        "reasoned pragma should suppress"
    );
    let bad = good.replace(", order folded through a sort below", "");
    let findings = check_file(rel, &bad, &cfg);
    assert!(
        findings.iter().any(|f| f.rule == "bad-pragma"),
        "reasonless pragma should be flagged: {findings:?}"
    );
}

/// Config parsing round-trips the committed policy file.
#[test]
fn committed_config_parses() {
    let root = repo_root();
    let cfg = Config::load(&root).expect("xlint.toml parses");
    assert!(cfg.unordered_crates.iter().any(|c| c == "areplica-core"));
    assert!(cfg.unwrap_crates.iter().any(|c| c == "areplica-core"));
    assert!(cfg.stderr_crates.iter().any(|c| c == "bench"));
    assert!(!cfg.layering.is_empty());
    assert!(cfg.skip.iter().any(|s| Path::new(s) == Path::new("vendor")));
    // The v2 semantic sections: all six protocol resources plus the taint
    // and dropped-result policies must survive the round-trip.
    assert_eq!(cfg.resources.len(), 6, "six [[resource]] blocks");
    for acquire in [
        "try_lock_tx",
        "abort_tx",
        "create_multipart",
        "adopt_tx",
        "flight_dump_open",
        "probe_open",
    ] {
        assert!(
            cfg.resources.iter().any(|r| r.acquire == acquire),
            "missing resource acquired via {acquire}"
        );
    }
    assert!(cfg.taint_sources.iter().any(|s| s == "WallTimer"));
    assert!(cfg.taint_sinks.iter().any(|s| s == "schedule_in"));
    assert!(cfg.span_crates.iter().any(|c| c == "areplica-core"));
    assert!(cfg.dropped_result_crates.iter().any(|c| c == "cloudsim"));
    // thread-confinement policy: primitives named, the par module (and
    // nothing else) allow-listed.
    assert!(cfg.thread_idents.iter().any(|i| i == "thread"));
    assert!(cfg.thread_idents.iter().any(|i| i == "mpsc"));
    assert_eq!(
        cfg.thread_allow,
        vec!["crates/simkernel/src/par.rs".to_string()]
    );
}

/// `--changed-only` semantics: summaries come from the whole tree, findings
/// only from the listed files. A leak whose conclusion lives in another file
/// must still resolve interprocedurally when only the leaky file is listed.
#[test]
fn changed_only_filters_findings_but_keeps_summaries() {
    let scratch = repo_root().join("target/xlint-changed-only-test");
    let src_dir = scratch.join("crates/areplica-core/src");
    fs::create_dir_all(&src_dir).expect("scratch dirs");
    fs::write(
        scratch.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .expect("scratch manifest");
    // caller.rs holds the lock through a helper defined in helper.rs.
    fs::write(
        src_dir.join("caller.rs"),
        "pub fn with_lock(sim: &mut Sim, key: u64) {\n\
         \x20   sim.db_transact(key, try_lock_tx(key), move |sim, got| match got {\n\
         \x20       LockResult::Busy => {}\n\
         \x20       LockResult::Acquired => helper_unlock(sim, key),\n\
         \x20   });\n\
         }\n\
         pub fn wall() -> std::time::Instant {\n\
         \x20   std::time::Instant::now()\n\
         }\n",
    )
    .expect("caller source");
    fs::write(
        src_dir.join("helper.rs"),
        "pub fn helper_unlock(sim: &mut Sim, key: u64) {\n\
         \x20   sim.db_transact(key, unlock_tx(key), move |_sim, _o| {});\n\
         }\n\
         pub fn other_wall() -> std::time::Instant {\n\
         \x20   std::time::Instant::now()\n\
         }\n",
    )
    .expect("helper source");

    let only = ["crates/areplica-core/src/caller.rs".to_string()];
    let findings =
        xlint::lint_root_filtered(&scratch, &Config::default(), Some(&only)).expect("walk");
    // helper.rs's wall-clock hit is filtered out; caller.rs's still fires.
    assert!(
        findings.iter().all(|f| f.file.contains("caller.rs")),
        "findings leaked from unlisted files: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.rule == "no-wall-clock"),
        "caller.rs wall-clock not caught: {findings:?}"
    );
    // The lock is concluded through helper.rs — if summaries were built only
    // from the listed file this would be a false leak.
    assert!(
        !findings
            .iter()
            .any(|f| f.rule == "protocol-resource-balance"),
        "cross-file conclusion missed under --changed-only: {findings:?}"
    );

    fs::remove_dir_all(&scratch).ok();
}

/// A file with a syntax error degrades to token rules instead of dropping
/// out of the lint entirely, and reports the parse error location.
#[test]
fn parse_errors_degrade_gracefully() {
    let cfg = Config::default();
    let rel = "crates/areplica-core/src/broken.rs";
    let src = "pub fn broken( {\n    let t0 = std::time::Instant::now();\n}\n";
    let prepared = xlint::rules::prepare(rel, src, &cfg);
    assert!(
        !prepared.parse_errors().is_empty(),
        "parser should report an error"
    );
    let findings = check_file(rel, src, &cfg);
    assert!(
        findings.iter().any(|f| f.rule == "no-wall-clock"),
        "token rules should survive parse errors: {findings:?}"
    );
}
