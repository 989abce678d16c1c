//! Integration tests: every embedded fixture behaves, the real workspace is
//! lint-clean, and a seeded violation is caught.

use std::fs;
use std::path::{Path, PathBuf};

use xlint::config::Config;
use xlint::fixtures::{run_self_test, FIXTURES};
use xlint::rules::check_file;
use xlint::{find_workspace_root, lint_root};

fn committed() -> Config {
    Config::committed().expect("committed xlint.toml parses")
}

/// How many embedded fixtures exercise `rule`; `embedded_self_test_passes`
/// checks each one's expectation.
fn fixtures_of(rule: &str) -> usize {
    FIXTURES.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn bad_pragma_fixtures() {
    assert!(fixtures_of("bad-pragma") >= 2);
}

#[test]
fn protocol_resource_balance_fixtures() {
    assert!(fixtures_of("protocol-resource-balance") >= 4);
}

#[test]
fn span_balance_fixtures() {
    assert!(fixtures_of("span-balance") >= 4);
}

#[test]
fn determinism_taint_fixtures() {
    assert!(fixtures_of("determinism-taint") >= 4);
}

/// The three historical protocol bugs this analysis was built to re-catch
/// must each fire as a dedicated fixture, with the finding carrying the
/// acquisition site in its message.
#[test]
fn historical_bugs_are_reseeded() {
    let cfg = committed();
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

/// Writes `files` (name, source) into `crates/areplica-core/src/` of a
/// scratch mini-workspace under `target/` and returns its root.
fn scratch_workspace(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let scratch = repo_root().join("target").join(name);
    fs::remove_dir_all(&scratch).ok();
    let src_dir = scratch.join("crates/areplica-core/src");
    fs::create_dir_all(&src_dir).expect("scratch dirs");
    fs::write(
        scratch.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .expect("scratch manifest");
    for (file, src) in files {
        let path = src_dir.join(file);
        fs::create_dir_all(path.parent().expect("file has a parent")).expect("scratch dirs");
        fs::write(path, src).expect("scratch source");
    }
    scratch
}

/// Every `.rs` file under `dir`, as (path relative to `root`, source).
fn sources_under(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            sources_under(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).expect("under root");
            let src = fs::read_to_string(&path).expect("readable source");
            out.push((rel.to_string_lossy().replace('\\', "/"), src));
        }
    }
}

/// Lints a scratch copy of the committed `crates/areplica-core/src/`, with
/// `anchor` replaced by `seeded` in `file` (which must hold the anchor
/// exactly once, so a moved anchor fails loudly instead of passing
/// vacuously).
fn lint_core_copy(name: &str, edit: Option<(&str, &str, &str)>) -> Vec<xlint::rules::Finding> {
    let core_src = repo_root().join("crates/areplica-core/src");
    let mut files = Vec::new();
    sources_under(&core_src, &core_src, &mut files);
    if let Some((file, anchor, seeded)) = edit {
        let (_, src) = files
            .iter_mut()
            .find(|(rel, _)| rel == file)
            .unwrap_or_else(|| panic!("{file} missing from the core's sources"));
        assert_eq!(
            src.matches(anchor).count(),
            1,
            "seeded-edit anchor `{anchor}` must occur exactly once in {file}"
        );
        *src = src.replace(anchor, seeded);
    }
    let borrowed: Vec<(&str, &str)> = files
        .iter()
        .map(|(rel, src)| (rel.as_str(), src.as_str()))
        .collect();
    let scratch = scratch_workspace(name, &borrowed);
    let findings = lint_root(&scratch, &committed()).expect("scratch walk");
    fs::remove_dir_all(&scratch).ok();
    findings
}

/// xlint still sees the real replication pipeline: the committed core is
/// clean on its own, and two seeded leaks in it are caught. Both checks
/// depend on the TASK span and the adopted upload id travelling as
/// parameters: the flow walk treats a value moved into a struct literal as
/// concluded, so folding either into a record would silence them.
#[test]
fn real_pipeline_leaks_are_caught() {
    let clean = lint_core_copy("xlint-core-clean", None);
    assert!(clean.is_empty(), "committed core has findings: {clean:?}");

    // The orchestrator's lock-busy arm forgets to end the TASK span.
    let span = lint_core_copy(
        "xlint-core-span-leak",
        Some((
            "service.rs",
            "sim.tracer().span_end_tagged(now, span, status);",
            "",
        )),
    );
    assert!(
        span.iter()
            .any(|f| f.rule == "span-balance" && f.file.ends_with("service.rs")),
        "TASK span leak not caught: {span:?}"
    );

    // A replicator that finds every part uploaded retires without
    // completing the multipart upload.
    let upload = lint_core_copy(
        "xlint-core-upload-leak",
        Some((
            "engine.rs",
            "ClaimResult::AllPartsDone => conclude_distributed(sim, r, upload_id),",
            "ClaimResult::AllPartsDone => record_and_finish(sim, &r),",
        )),
    );
    assert!(
        upload.iter().any(|f| f.rule == "protocol-resource-balance"
            && f.file.ends_with("engine.rs")
            && f.message.contains("adopted upload")
            && f.message.contains("`invoke_replicators`")),
        "adopted-upload leak not caught: {upload:?}"
    );
}

/// Seeding a violating file into a scratch mini-workspace must be caught
/// (i.e. the gate actually fails when someone introduces a hazard): a
/// replication lock whose `Acquired` arm never unlocks.
#[test]
fn seeded_violation_is_caught() {
    let scratch = scratch_workspace(
        "xlint-seeded-violation-test",
        &[(
            "seeded.rs",
            "pub fn hold(sim: &mut Sim, key: u64) {\n\
             \x20   sim.db_transact(key, try_lock_tx(key), move |sim, got| match got {\n\
             \x20       LockResult::Busy => {}\n\
             \x20       LockResult::Acquired => sim.finish(),\n\
             \x20   });\n\
             }\n",
        )],
    );
    let findings = lint_root(&scratch, &committed()).expect("scratch walk");
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "protocol-resource-balance" && f.file.ends_with("seeded.rs")),
        "seeded lock leak not caught: {findings:?}"
    );

    fs::remove_dir_all(&scratch).ok();
}

/// A pragma with a reason suppresses; stripping the reason turns it into a
/// non-suppressible bad-pragma finding (end-to-end through `check_file`).
#[test]
fn pragma_reason_is_mandatory() {
    let cfg = committed();
    let rel = "crates/areplica-core/src/pragma_e2e.rs";
    let good = "pub fn hold(sim: &mut Sim, key: u64) {\n\
                \x20   sim.db_transact(key, try_lock_tx(key), move |sim, got| match got {\n\
                \x20       LockResult::Busy => {}\n\
                \x20       LockResult::Acquired => {\n\
                \x20           if sim.overloaded() {\n\
                \x20               // xlint::allow(protocol-resource-balance, the lease-expiry reaper unlocks abandoned rows)\n\
                \x20               return;\n\
                \x20           }\n\
                \x20           release(sim, key);\n\
                \x20       }\n\
                \x20   });\n\
                }\n\
                fn release(sim: &mut Sim, key: u64) {\n\
                \x20   sim.db_transact(key, unlock_tx(key), move |_sim, _o| {});\n\
                }\n";
    assert!(
        check_file(rel, good, &cfg).is_empty(),
        "reasoned pragma should suppress: {:?}",
        check_file(rel, good, &cfg)
    );
    let bad = good.replace(", the lease-expiry reaper unlocks abandoned rows", "");
    let findings = check_file(rel, &bad, &cfg);
    assert!(
        findings.iter().any(|f| f.rule == "bad-pragma"),
        "reasonless pragma should be flagged: {findings:?}"
    );
}

/// A pragma naming a rule xlint does not have, such as one of the
/// determinism bans clippy enforces, suppresses nothing: it is an
/// unknown-rule finding.
#[test]
fn pragma_naming_a_migrated_rule_is_unknown() {
    let src = "pub fn now() -> u64 {\n\
               \x20   // xlint::allow(no-wall-clock, progress logging only)\n\
               \x20   0\n\
               }\n";
    let findings = check_file("crates/bench/src/timer.rs", src, &committed());
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "bad-pragma" && f.message.contains("unknown rule `no-wall-clock`")),
        "migrated-rule pragma should be an unknown rule: {findings:?}"
    );
}

/// Config parsing round-trips the committed policy file.
#[test]
fn committed_config_parses() {
    let root = repo_root();
    let cfg = Config::load(&root).expect("xlint.toml parses");
    assert!(cfg.skip.iter().any(|s| Path::new(s) == Path::new("vendor")));
    assert!(cfg.skip.iter().any(|s| s == "replbench"));
    // All five protocol resources plus the span and taint policies must
    // survive the round-trip.
    assert_eq!(cfg.resources.len(), 5, "five [[resource]] blocks");
    for acquire in [
        "try_lock_tx",
        "abort_tx",
        "create_multipart",
        "adopt_tx",
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
}

/// A missing `xlint.toml` is an error, not a silent fallback policy.
#[test]
fn missing_config_is_an_error() {
    let empty = repo_root().join("target/xlint-missing-config-test");
    fs::create_dir_all(&empty).expect("scratch dir");
    assert!(Config::load(&empty).is_err());
    fs::remove_dir_all(&empty).ok();
}

/// Summaries come from the whole tree: a lock acquired in `caller.rs` and
/// concluded through a helper in `helper.rs` raises no finding.
#[test]
fn cross_file_summaries_conclude_in_other_files() {
    let scratch = scratch_workspace(
        "xlint-cross-file-test",
        &[
            (
                "caller.rs",
                "pub fn with_lock(sim: &mut Sim, key: u64) {\n\
                 \x20   sim.db_transact(key, try_lock_tx(key), move |sim, got| match got {\n\
                 \x20       LockResult::Busy => {}\n\
                 \x20       LockResult::Acquired => helper_unlock(sim, key),\n\
                 \x20   });\n\
                 }\n",
            ),
            (
                "helper.rs",
                "pub fn helper_unlock(sim: &mut Sim, key: u64) {\n\
                 \x20   sim.db_transact(key, unlock_tx(key), move |_sim, _o| {});\n\
                 }\n",
            ),
        ],
    );
    let findings = lint_root(&scratch, &committed()).expect("walk");
    assert!(
        findings.is_empty(),
        "cross-file conclusion missed: {findings:?}"
    );

    fs::remove_dir_all(&scratch).ok();
}

/// A file the parser cannot digest still reports where it gave up, and the
/// pragma check, which needs no parse, still covers it.
#[test]
fn parse_errors_degrade_gracefully() {
    let cfg = committed();
    let rel = "crates/areplica-core/src/broken.rs";
    let src = "pub fn broken( {\n    // xlint::allow(span-balance)\n    let t0 = 1;\n}\n";
    let prepared = xlint::rules::prepare(rel, src);
    assert!(
        !prepared.parse_errors().is_empty(),
        "parser should report an error"
    );
    let findings = check_file(rel, src, &cfg);
    assert!(
        findings.iter().any(|f| f.rule == "bad-pragma"),
        "bad-pragma should survive parse errors: {findings:?}"
    );
}
