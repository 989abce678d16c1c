//! Debug tool: prints the interprocedural summary rows for named functions.
//!
//! ```text
//! cargo run -p xlint --example fates -- conclude_aborted claim_loop
//! ```
//!
//! Each row is a `(function, resource spec, parameter) -> Concludes | Leaks`
//! fate from the whole-workspace fixpoint — the first thing to look at when
//! a `protocol-resource-balance` finding (or its absence) is surprising.

use std::path::Path;

fn main() {
    let cwd = std::env::current_dir().expect("cwd");
    let root = xlint::find_workspace_root(&cwd).expect("run inside the workspace");
    let cfg = xlint::config::Config::load(&root).expect("xlint.toml");
    // Re-do lint_root's prepare pass by hand.
    let mut prepared = Vec::new();
    collect(&root, &root, &cfg, &mut prepared);
    let files: Vec<_> = prepared
        .iter()
        .map(|(rel, src)| xlint::rules::prepare(rel, src))
        .collect();
    let summaries = xlint::rules::build_summaries(&files, &cfg);
    for name in std::env::args().skip(1) {
        summaries.debug_fn(&name);
    }
}

fn collect(root: &Path, dir: &Path, cfg: &xlint::config::Config, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .to_string();
        if path.is_dir() {
            if name.starts_with('.') || name == "target" || name == ".git" || name == ".github" {
                continue;
            }
            let rel = path
                .strip_prefix(root)
                .expect("under root")
                .to_string_lossy()
                .replace('\\', "/");
            if cfg
                .skip
                .iter()
                .any(|s| rel == *s || rel.starts_with(&format!("{s}/")))
            {
                continue;
            }
            collect(root, &path, cfg, out);
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("under root")
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, std::fs::read_to_string(&path).expect("readable file")));
        }
    }
}
