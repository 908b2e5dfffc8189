//! The runtime lock-order witness cross-check.
//!
//! `dg-engine`'s `lock-witness` feature records the lock classes and
//! acquisition-order edges a real run actually exercised (`cargo test
//! --features dg-engine/lock-witness`, or the dg-chaos smoke with
//! `--witness`). The file format is line-oriented and append-friendly:
//!
//! ```text
//! # dg-lock-witness v1
//! class engine.stream.window
//! edge serve.queue.state serve.completions
//! ```
//!
//! `dg-analyze --witness FILE` parses that file and cross-checks it against
//! the static lock-order graph from [`crate::flow`]:
//!
//! * every runtime **class** must be declared statically (a class the
//!   parser cannot see means the binding-resolution heuristics lost track
//!   of a lock — fix the declaration shape, don't ignore it);
//! * every runtime **edge** must be explained by a static edge (active or
//!   `allow(lock-order)`-sanctioned);
//! * a runtime edge whose reverse direction is statically reachable
//!   *contradicts* the graph — the run proved a cycle the static pass
//!   believed impossible.
//!
//! Violations are reported against the witness file itself, under the
//! `lock-order` rule.

use crate::flow::LockGraph;
use crate::rules::{Finding, RuleId};

/// A parsed witness file.
#[derive(Debug, Default)]
pub struct Witness {
    /// `class NAME` lines: `(class, line)`.
    pub classes: Vec<(String, usize)>,
    /// `edge FROM TO` lines: `(from, to, line)`.
    pub edges: Vec<(String, String, usize)>,
}

/// Parses the `dg-lock-witness v1` format. Blank lines and `#` comments
/// are skipped; duplicates are tolerated (the recorder appends).
pub fn parse_witness(text: &str) -> Result<Witness, (usize, String)> {
    let mut witness = Witness::default();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("class") => match (parts.next(), parts.next()) {
                (Some(name), None) => witness.classes.push((name.to_string(), line_no)),
                _ => return Err((line_no, "expected `class NAME`".into())),
            },
            Some("edge") => match (parts.next(), parts.next(), parts.next()) {
                (Some(from), Some(to), None) => {
                    witness
                        .edges
                        .push((from.to_string(), to.to_string(), line_no))
                }
                _ => return Err((line_no, "expected `edge FROM TO`".into())),
            },
            Some(other) => {
                return Err((
                    line_no,
                    format!("unknown record `{other}` (expected `class` or `edge`)"),
                ))
            }
            None => unreachable!("blank lines are skipped"),
        }
    }
    Ok(witness)
}

/// Cross-checks a runtime witness against the static lock-order graph.
/// Findings carry witness-file line numbers.
pub fn check_witness(witness: &Witness, graph: &LockGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut flagged_classes = std::collections::BTreeSet::new();
    let mut check_class = |name: &str, line: usize, out: &mut Vec<Finding>| {
        if !graph.classes.contains(name) && flagged_classes.insert(name.to_string()) {
            out.push(Finding {
                rule: RuleId::LockOrder,
                line,
                message: format!("runtime lock class `{name}` is not declared in the static graph"),
                help: "declare the lock via `TrackedMutex::new(\"class\", …)` in a shape \
                       the scope parser resolves (let-binding, struct field, or accessor fn)"
                    .into(),
            });
        }
    };
    for (name, line) in &witness.classes {
        check_class(name, *line, &mut out);
    }
    for (from, to, line) in &witness.edges {
        check_class(from, *line, &mut out);
        check_class(to, *line, &mut out);
        if graph.explains(from, to) {
            continue;
        }
        let message = if graph.reaches(to, from) {
            format!(
                "runtime edge `{from}` → `{to}` contradicts the static lock-order graph \
                 (statically `{to}` ⇝ `{from}`): the run proved a cycle"
            )
        } else {
            format!(
                "runtime edge `{from}` → `{to}` does not appear in the static lock-order \
                 graph"
            )
        };
        out.push(Finding {
            rule: RuleId::LockOrder,
            line: *line,
            message,
            help: "either the static pass lost a nesting (fix the code shape so it resolves) \
                   or the runtime found one it must not have; reconcile before merging"
                .into(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> LockGraph {
        let mut g = LockGraph::default();
        for c in ["t.a", "t.b", "t.c"] {
            g.classes.insert(c.into());
        }
        g.edges.insert(("t.a".into(), "t.b".into()), (0, 1));
        g.edges.insert(("t.b".into(), "t.c".into()), (0, 2));
        g.sanctioned.insert(("t.a".into(), "t.c".into()));
        g
    }

    #[test]
    fn parses_classes_edges_comments_and_blanks() {
        let w = parse_witness("# dg-lock-witness v1\n\nclass t.a\nedge t.a t.b\n").expect("parse");
        assert_eq!(w.classes, vec![("t.a".into(), 3)]);
        assert_eq!(w.edges, vec![("t.a".into(), "t.b".into(), 4)]);
    }

    #[test]
    fn rejects_malformed_records_with_line_numbers() {
        assert_eq!(parse_witness("class a b\n").unwrap_err().0, 1);
        assert_eq!(parse_witness("edge only_one\n").unwrap_err().0, 1);
        assert!(parse_witness("vertex t.a\n")
            .unwrap_err()
            .1
            .contains("vertex"));
    }

    #[test]
    fn explained_edges_pass_including_sanctioned_ones() {
        let w = parse_witness("class t.a\nedge t.a t.b\nedge t.a t.c\n").expect("parse");
        assert!(check_witness(&w, &graph()).is_empty());
    }

    #[test]
    fn unknown_class_and_unexplained_edge_are_flagged() {
        let w = parse_witness("class t.zzz\nedge t.c t.a\n").expect("parse");
        let findings = check_witness(&w, &graph());
        assert_eq!(findings.len(), 2);
        assert!(findings[0].message.contains("t.zzz"));
        // t.c → t.a reverses a static path a ⇝ c: a contradiction.
        assert!(findings[1].message.contains("contradicts"));
    }
}
