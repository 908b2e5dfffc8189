//! The `dg-analyze:` allow-comment grammar.
//!
//! A violation can be suppressed *with a reason* using a comment:
//!
//! ```text
//! // dg-analyze: allow(no-panic-in-lib, reason = "mutex recovery cannot panic")
//! ```
//!
//! * A **full-line** allow suppresses matches of the named rule on the next
//!   line that contains code.
//! * A **trailing** allow (after code, on the same line) suppresses matches
//!   on its own line.
//! * `allow-file(rule, reason = "…")` suppresses the rule for the whole
//!   file; it must appear within the first 20 lines.
//!
//! Every directive **must** carry a non-empty `reason`. A malformed,
//! reason-less, or unused directive is itself reported (rule
//! `allow-syntax`), so stale suppressions cannot accumulate silently.

use crate::lexer::Lexed;

/// A parsed `dg-analyze:` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rule this directive suppresses (e.g. `no-panic-in-lib`).
    pub rule: String,
    /// Mandatory human explanation.
    pub reason: String,
    /// Line of the comment itself.
    pub comment_line: usize,
    /// Line whose violations are suppressed (`None` = whole file).
    pub target_line: Option<usize>,
}

/// A directive that failed to parse, with the reason it was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadAllow {
    /// Line of the offending comment.
    pub line: usize,
    /// What was wrong with it.
    pub error: String,
}

/// Extracts all `dg-analyze:` directives from a lexed file.
pub fn collect_allows(lexed: &Lexed) -> (Vec<Allow>, Vec<BadAllow>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for comment in &lexed.comments {
        let Some(body) = comment.text.trim().strip_prefix("dg-analyze:") else {
            continue;
        };
        match parse_directive(body.trim()) {
            Ok((rule, reason, file_scope)) => {
                if file_scope && comment.line > 20 {
                    bad.push(BadAllow {
                        line: comment.line,
                        error: "allow-file(...) must appear within the first 20 lines".into(),
                    });
                    continue;
                }
                let target_line = if file_scope {
                    None
                } else if comment.trailing {
                    Some(comment.line)
                } else {
                    Some(next_code_line(lexed, comment.line))
                };
                allows.push(Allow {
                    rule,
                    reason,
                    comment_line: comment.line,
                    target_line,
                });
            }
            Err(error) => bad.push(BadAllow {
                line: comment.line,
                error,
            }),
        }
    }
    (allows, bad)
}

/// Parses `allow(rule, reason = "…")` / `allow-file(rule, reason = "…")`.
/// Returns `(rule, reason, is_file_scope)`.
fn parse_directive(body: &str) -> Result<(String, String, bool), String> {
    let (head, file_scope) = if let Some(rest) = body.strip_prefix("allow-file") {
        (rest, true)
    } else if let Some(rest) = body.strip_prefix("allow") {
        (rest, false)
    } else {
        return Err(format!(
            "unknown directive {body:?}; expected allow(rule, reason = \"...\") \
             or allow-file(rule, reason = \"...\")"
        ));
    };
    let head = head.trim_start();
    let inner = head
        .strip_prefix('(')
        .and_then(|s| s.trim_end().strip_suffix(')'))
        .ok_or_else(|| {
            "expected parenthesised arguments: allow(rule, reason = \"...\")".to_string()
        })?;
    let (rule, rest) = inner
        .split_once(',')
        .ok_or_else(|| "missing `, reason = \"...\"` after the rule name".to_string())?;
    let rule = rule.trim();
    if rule.is_empty() || !rule.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-') {
        return Err(format!("invalid rule name {rule:?}"));
    }
    let rest = rest.trim();
    let value = rest
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|s| s.strip_prefix('='))
        .map(str::trim)
        .ok_or_else(|| "expected `reason = \"...\"` as the second argument".to_string())?;
    let reason = value
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| "reason must be a double-quoted string".to_string())?;
    if reason.trim().is_empty() {
        return Err("reason must not be empty — explain why the rule is suppressed".to_string());
    }
    Ok((rule.to_string(), reason.trim().to_string(), file_scope))
}

/// First line after `line` with non-blank masked content (i.e. real code,
/// since comments are blanked by the lexer). Attribute lines (`#[…]`) are
/// skipped: they annotate the statement the allow targets, and `#[expect]`
/// attributes routinely sit between a dg-analyze comment and its code.
fn next_code_line(lexed: &Lexed, line: usize) -> usize {
    for (idx, text) in lexed.masked.lines().enumerate().skip(line) {
        let t = text.trim();
        if t.is_empty() || t.starts_with("#[") || t.starts_with("#!") {
            continue;
        }
        return idx + 1;
    }
    line + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn parses_basic_allow() {
        let src = "// dg-analyze: allow(no-panic-in-lib, reason = \"recovery\")\nfoo();\n";
        let (allows, bad) = collect_allows(&lex(src));
        assert!(bad.is_empty(), "{bad:?}");
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].rule, "no-panic-in-lib");
        assert_eq!(allows[0].reason, "recovery");
        assert_eq!(allows[0].target_line, Some(2));
    }

    #[test]
    fn trailing_allow_targets_own_line() {
        let src = "foo(); // dg-analyze: allow(unit-hygiene, reason = \"conversion ctor\")\n";
        let (allows, bad) = collect_allows(&lex(src));
        assert!(bad.is_empty());
        assert_eq!(allows[0].target_line, Some(1));
    }

    #[test]
    fn allow_skips_blank_and_comment_lines() {
        let src =
            "// dg-analyze: allow(no-panic-in-lib, reason = \"x\")\n\n// another comment\nbar();\n";
        let (allows, _) = collect_allows(&lex(src));
        assert_eq!(allows[0].target_line, Some(4));
    }

    #[test]
    fn file_scope_allow() {
        let src = "// dg-analyze: allow-file(unit-hygiene, reason = \"unit defs\")\ncode();\n";
        let (allows, bad) = collect_allows(&lex(src));
        assert!(bad.is_empty());
        assert_eq!(allows[0].target_line, None);
    }

    #[test]
    fn reasonless_allow_is_rejected() {
        for src in [
            "// dg-analyze: allow(no-panic-in-lib)\nx();\n",
            "// dg-analyze: allow(no-panic-in-lib, reason = \"\")\nx();\n",
            "// dg-analyze: allow(no-panic-in-lib, reason = \"  \")\nx();\n",
            "// dg-analyze: allowing stuff\nx();\n",
        ] {
            let (allows, bad) = collect_allows(&lex(src));
            assert!(allows.is_empty(), "{src}");
            assert_eq!(bad.len(), 1, "{src}");
        }
    }

    #[test]
    fn late_allow_file_is_rejected() {
        let mut src = String::new();
        for _ in 0..25 {
            src.push_str("code();\n");
        }
        src.push_str("// dg-analyze: allow-file(unit-hygiene, reason = \"late\")\n");
        let (allows, bad) = collect_allows(&lex(&src));
        assert!(allows.is_empty());
        assert_eq!(bad.len(), 1);
        assert!(bad[0].error.contains("first 20 lines"));
    }
}
