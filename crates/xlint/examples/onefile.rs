//! Debug tool: lints one file in isolation under the committed config.
//!
//! ```text
//! cargo run -p xlint --example onefile -- /tmp/repro.rs [workspace-rel-path]
//! ```
//!
//! The optional second argument sets the workspace-relative path the file is
//! *treated as* (which decides crate policy and whether it is test code);
//! it defaults to an `areplica-core` lib path, the strictest scope. Handy for
//! minimizing a finding outside the full workspace walk — note summaries
//! here come from this file alone, so cross-file conclusions won't resolve.

fn main() {
    let path = std::env::args()
        .nth(1)
        .expect("usage: onefile <file.rs> [rel-path]");
    let src = std::fs::read_to_string(path).expect("readable file");
    let rel = std::env::args()
        .nth(2)
        .unwrap_or("crates/areplica-core/src/t.rs".into());
    let cfg = xlint::config::Config::committed().expect("committed xlint.toml parses");
    for f in xlint::rules::check_file(&rel, &src, &cfg) {
        println!("{}:{} [{}] {}", f.file, f.line, f.rule, f.message);
    }
}
