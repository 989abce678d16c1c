//! Finding reporter: one `file:line: [rule] message` per line (grep- and
//! editor-friendly), then a summary line.

use crate::rules::Finding;

/// Renders findings, one per line, followed by a summary.
pub fn render(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.rule, f.message
        ));
    }
    if findings.is_empty() {
        out.push_str("xlint: clean\n");
    } else {
        out.push_str(&format!(
            "xlint: {} finding{}\n",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        ));
    }
    out
}
