//! Records the compiler version and the source revision the benchmark was
//! built from, so every result names them.

use std::path::Path;
use std::process::Command;

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = stdout_of(Command::new(rustc).arg("--version")).unwrap_or_default();
    println!("cargo:rustc-env=REPLBENCH_RUSTC={version}");

    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = manifest.parent().unwrap_or(manifest);
    // Stop git at the repository root, so a checkout without history that
    // happens to sit inside another git work tree reports no revision.
    let ceiling = repo.parent().unwrap_or(repo);
    let git = stdout_of(
        Command::new("git")
            .env("GIT_CEILING_DIRECTORIES", ceiling)
            .arg("-C")
            .arg(repo)
            .args(["rev-parse", "--short=12", "HEAD"]),
    )
    .unwrap_or_else(|| "none (not a git checkout)".to_string());
    println!("cargo:rustc-env=REPLBENCH_GIT_REV={git}");

    println!("cargo:rerun-if-changed=build.rs");
    for path in [".git/HEAD", ".git/index"] {
        let path = repo.join(path);
        if path.exists() {
            println!("cargo:rerun-if-changed={}", path.display());
        }
    }
}
