//! Machine-readable output: a hand-rolled JSON emitter.
//!
//! The workspace is hermetic (no serde), so the emitter is written out
//! longhand. It produces the stable schema consumed by editor
//! integrations and CI:
//!
//! ```json
//! {
//!   "file": "assets/sor_c2.tirl",
//!   "module": "sor_l1_v1_pipe_B",
//!   "target": "Stratix-V-GSD8",
//!   "cost_evaluated": true,
//!   "errors": 0,
//!   "warnings": 1,
//!   "diagnostics": [
//!     { "code": "TL1001", "severity": "warning", "message": "...",
//!       "line": 21, "col": 1, "hint": "..." }
//!   ]
//! }
//! ```
//!
//! `line`/`col` and `hint` are `null` when absent. The output parses with
//! [`tytra_trace::json::parse`].

use crate::LintReport;
use std::fmt::Write as _;
use tytra_trace::json::escape;

/// Render `report` as a single JSON object (trailing newline included).
pub fn render_json(report: &LintReport, path: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"file\": \"{}\",", escape(path));
    let _ = writeln!(out, "  \"module\": \"{}\",", escape(&report.module));
    let _ = writeln!(out, "  \"target\": \"{}\",", escape(&report.target));
    let _ = writeln!(out, "  \"cost_evaluated\": {},", report.cost_evaluated);
    let _ = writeln!(out, "  \"errors\": {},", report.errors());
    let _ = writeln!(out, "  \"warnings\": {},", report.warnings());
    out.push_str("  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "    {{ \"code\": \"{}\", \"severity\": \"{}\", \"message\": \"{}\", ",
            escape(d.code),
            escape(d.severity.label()),
            escape(&d.message)
        );
        match d.span {
            Some(sp) => {
                let _ = write!(out, "\"line\": {}, \"col\": {}, ", sp.line, sp.col);
            }
            None => out.push_str("\"line\": null, \"col\": null, "),
        }
        match &d.hint {
            Some(h) => {
                let _ = write!(out, "\"hint\": \"{}\" }}", escape(h));
            }
            None => out.push_str("\"hint\": null }"),
        }
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_ir::{Diagnostic, Span};
    use tytra_trace::json::{parse, Json};

    #[test]
    fn emitted_report_round_trips() {
        let report = LintReport {
            module: "m\"q".into(),
            target: "dev".into(),
            diagnostics: vec![
                Diagnostic::error("TL1003", "offset !+300 on `%b`")
                    .with_span(Span { line: 9, col: 3 })
                    .with_hint("check the linearization"),
                Diagnostic::warn("TL1005", "near capacity"),
            ],
            cost_evaluated: true,
        };
        let text = render_json(&report, "fix.tirl");
        let v = parse(&text).unwrap();
        assert_eq!(v.get("file").unwrap().as_str(), Some("fix.tirl"));
        assert_eq!(v.get("module").unwrap().as_str(), Some("m\"q"));
        assert_eq!(v.get("errors").unwrap().as_num(), Some(1.0));
        assert_eq!(v.get("warnings").unwrap().as_num(), Some(1.0));
        let diags = v.get("diagnostics").unwrap().as_arr().unwrap();
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].get("code").unwrap().as_str(), Some("TL1003"));
        assert_eq!(diags[0].get("severity").unwrap().as_str(), Some("error"));
        assert_eq!(diags[0].get("line").unwrap().as_num(), Some(9.0));
        assert_eq!(diags[0].get("hint").unwrap().as_str(), Some("check the linearization"));
        assert_eq!(diags[1].get("line"), Some(&Json::Null));
        assert_eq!(diags[1].get("hint"), Some(&Json::Null));
    }
}
