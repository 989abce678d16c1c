//! `areplica-cli` rejects bad input: a value that does not parse, a flag
//! the command does not take, or a flag without its value exits with code 2
//! and an error naming the flag, before any profiling starts.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_areplica-cli"))
        .args(args)
        .output()
        .expect("areplica-cli starts")
}

const REPLICATE: &[&str] = &[
    "replicate",
    "--src",
    "aws:us-east-1",
    "--dst",
    "azure:eastus",
    "--size",
    "64MB",
];

#[test]
fn bad_values_and_unknown_flags_exit_2_naming_the_flag() {
    let cases: &[(&[&str], &[&str], &str)] = &[
        (REPLICATE, &["--seed", "-1"], "--seed"),
        (REPLICATE, &["--trials", "two"], "--trials"),
        (REPLICATE, &["--slo", "30s"], "--slo"),
        (REPLICATE, &["--size", "12XB"], "--size"),
        (REPLICATE, &["--size", "-5MB"], "--size"),
        // Flags are checked before values: the misspelt one is named.
        (
            REPLICATE,
            &["--slo", "30s", "--trials", "two", "--slp", "5"],
            "--slp",
        ),
        (REPLICATE, &["--slp", "5"], "--slp"),
        (REPLICATE, &["--minutes", "5"], "--minutes"),
        (REPLICATE, &["--trials"], "--trials"),
        (&["trace"], &["--minutes", "ten"], "--minutes"),
        (&["trace"], &["--rate", "fast"], "--rate"),
        (&["trace"], &["--rate", "-5"], "--rate"),
        (&["trace"], &["--slo", "1.5"], "--slo"),
        (&["trace"], &["--seed", "0x10"], "--seed"),
        (&["trace"], &["--trials", "3"], "--trials"),
        (&["regions"], &["--verbose"], "--verbose"),
    ];
    for (command, extra, flag) in cases {
        let args = [*command, *extra].concat();
        let out = cli(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(!stderr.contains("profiling"), "{args:?} profiled: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn regions_lists_the_regions_and_exits_0() {
    let out = cli(&["regions"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("available regions:\n"));
    assert!(stdout.contains("  aws:us-east-1  "));
}
