//! An experiment whose report cannot be saved fails loudly: exit code 2 and
//! an error naming the path. Drives `fig06_bandwidth_config`, which runs no
//! simulation events.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fig06(results_dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig06_bandwidth_config"))
        .env("AREPLICA_RESULTS_DIR", results_dir)
        .output()
        .expect("fig06_bandwidth_config runs")
}

/// A fresh, empty directory named `name` under the test target directory.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_results_dir_under_a_regular_file_exits_2_naming_the_path() {
    let file = fresh_dir("save-under-file").join("not-a-dir");
    fs::write(&file, "").unwrap();
    let dir = file.join("results");
    let out = fig06(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(&dir.display().to_string()),
        "stderr does not name {}: {stderr}",
        dir.display()
    );
}

#[test]
fn a_fresh_results_dir_receives_the_report() {
    let dir = fresh_dir("save-fresh").join("results");
    let out = fig06(&dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = fs::read_to_string(dir.join("fig06_bandwidth_config.txt")).unwrap();
    assert!(report.starts_with("Figure 6"), "{report}");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        format!("{report}\n")
    );
}
