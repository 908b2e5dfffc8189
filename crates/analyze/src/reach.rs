//! The `unreached-mod` rule: library modules that no production code runs.
//!
//! rustc's `dead_code` lint cannot see a `pub mod`: everything public
//! counts as used. This pass looks for users from the outside. A
//! `pub mod X;` declared in a crate's `lib.rs` is reached when code
//! outside `X`'s own files names `X::`, or names an item that `lib.rs`
//! re-exports from `X`.
//!
//! Library code, binaries and examples count as references; `tests/`,
//! `benches/`, `#[cfg(test)]` code and `pub use` statements do not. The
//! scan is by name over the masked view, so comments and strings never
//! count, and it has no fixpoint: a module named only by another
//! unreached module still counts as reached.

use crate::lexer::Lexed;
use crate::rules::{idents, is_ident_byte, next_nonspace, Finding, RuleId};
use std::collections::BTreeSet;
use std::path::Path;

/// One source file the pass reads: library and binary sources under
/// `crates/*/src`, plus the root and per-crate `examples/`.
#[derive(Debug, Clone, Copy)]
pub struct ReachFile<'a> {
    /// Path relative to the workspace root.
    pub rel: &'a Path,
    /// The lexed source.
    pub lexed: &'a Lexed,
}

/// The names one file uses: every identifier, and the identifiers that
/// start or continue a path (`name::`).
struct Names {
    words: BTreeSet<String>,
    path_heads: BTreeSet<String>,
}

/// Flags every `pub mod X;` in a crate's `src/lib.rs` that no other file
/// reaches. Findings are `(index into files, finding)` pairs attributed to
/// the declaring `lib.rs`.
pub fn unreached_mods(files: &[ReachFile<'_>]) -> Vec<(usize, Finding)> {
    let names: Vec<Names> = files.iter().map(|f| names_of(f.lexed)).collect();
    let mut out = Vec::new();
    for (idx, file) in files.iter().enumerate() {
        let Some(src_dir) = crate_src_dir(file.rel) else {
            continue;
        };
        let reexports = reexports(file.lexed);
        for (name, line) in mod_decls(file.lexed) {
            let own_file = src_dir.join(format!("{name}.rs"));
            let own_dir = src_dir.join(&name);
            let items: Vec<&str> = reexports
                .iter()
                .filter(|(module, _)| *module == name)
                .map(|(_, item)| item.as_str())
                .collect();
            let reached = files.iter().zip(&names).any(|(other, used)| {
                other.rel != own_file
                    && !other.rel.starts_with(&own_dir)
                    && (used.path_heads.contains(&name)
                        || items.iter().any(|item| used.words.contains(*item)))
            });
            if !reached {
                out.push((
                    idx,
                    Finding {
                        rule: RuleId::UnreachedMod,
                        line,
                        message: format!(
                            "public mod `{name}` is unreached: no binary, example or \
                             library code outside it names `{name}::` or an item \
                             lib.rs re-exports from it"
                        ),
                        help: "delete the module, or run it from production code".into(),
                    },
                ));
            }
        }
    }
    out
}

/// `crates/<c>/src` when `rel` is that crate's `lib.rs`.
fn crate_src_dir(rel: &Path) -> Option<&Path> {
    let dir = rel.parent()?;
    (rel.file_name()? == "lib.rs" && dir.file_name()? == "src").then_some(dir)
}

/// `(name, line)` of each `pub mod name;` outside test code.
fn mod_decls(lexed: &Lexed) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (i, line) in lexed.masked.lines().enumerate() {
        if lexed.is_test_line(i + 1) {
            continue;
        }
        let Some(rest) = line.trim().strip_prefix("pub mod ") else {
            continue;
        };
        if let Some(name) = rest.strip_suffix(';') {
            out.push((name.trim().to_string(), i + 1));
        }
    }
    out
}

/// Byte spans `(start, end)` of every `pub use …;` statement, the `;`
/// included.
fn pub_use_spans(masked: &str) -> Vec<(usize, usize)> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for (start, end) in idents(masked) {
        if &masked[start..end] != "pub" {
            continue;
        }
        let Some((u, _)) = next_nonspace(bytes, end) else {
            continue;
        };
        let is_use = masked.get(u..u + 3) == Some("use")
            && bytes.get(u + 3).is_none_or(|b| !is_ident_byte(*b));
        if let (true, Some(semi)) = (is_use, masked[u..].find(';')) {
            out.push((start, u + semi + 1));
        }
    }
    out
}

/// The names a file uses, from its masked view with test lines and
/// `pub use` statements blanked.
fn names_of(lexed: &Lexed) -> Names {
    let mut view = lexed.masked.clone().into_bytes();
    let mut line = 1;
    for b in view.iter_mut() {
        if *b == b'\n' {
            line += 1;
        } else if lexed.is_test_line(line) {
            *b = b' ';
        }
    }
    for (start, end) in pub_use_spans(&lexed.masked) {
        for b in view.iter_mut().take(end).skip(start) {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    }
    let view = String::from_utf8_lossy(&view);
    let bytes = view.as_bytes();
    let mut names = Names {
        words: BTreeSet::new(),
        path_heads: BTreeSet::new(),
    };
    for (start, end) in idents(&view) {
        let word = view[start..end].to_string();
        let is_path = next_nonspace(bytes, end)
            .is_some_and(|(i, b)| b == b':' && bytes.get(i + 1) == Some(&b':'));
        if is_path {
            names.path_heads.insert(word.clone());
        }
        names.words.insert(word);
    }
    names
}

/// `(module, exported name)` for every item a `pub use module::…;`
/// statement in `lexed` re-exports; an alias counts under its new name.
fn reexports(lexed: &Lexed) -> Vec<(String, String)> {
    let masked = &lexed.masked;
    let mut out = Vec::new();
    for (start, end) in pub_use_spans(masked) {
        if lexed.is_test_line(lexed.line_of(start)) {
            continue;
        }
        let tokens = use_tokens(&masked[start..end]);
        // Skip `pub use`, then any `crate::` / `self::` prefix.
        let mut k = 2;
        while matches!(tokens.get(k).map(String::as_str), Some("crate" | "self"))
            && tokens.get(k + 1).map(String::as_str) == Some("::")
        {
            k += 2;
        }
        let Some(module) = tokens.get(k) else {
            continue;
        };
        if tokens.get(k + 1).map(String::as_str) != Some("::") {
            continue;
        }
        let rest = tokens.get(k + 2..).unwrap_or_default();
        for (j, token) in rest.iter().enumerate() {
            let is_name = token.starts_with(|c: char| c.is_alphanumeric() || c == '_')
                && !matches!(token.as_str(), "self" | "super" | "crate" | "as");
            let is_leaf = !matches!(rest.get(j + 1).map(String::as_str), Some("::" | "as"));
            if is_name && is_leaf {
                out.push((module.clone(), token.clone()));
            }
        }
    }
    out
}

/// Splits a `use` statement into identifiers, `::`, and single
/// punctuation characters.
fn use_tokens(stmt: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut chars = stmt.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        if c.is_whitespace() {
            continue;
        }
        if c.is_alphanumeric() || c == '_' {
            let mut end = i + c.len_utf8();
            while let Some(&(j, d)) = chars.peek() {
                if !(d.is_alphanumeric() || d == '_') {
                    break;
                }
                end = j + d.len_utf8();
                chars.next();
            }
            out.push(stmt[i..end].to_string());
        } else if c == ':' && chars.peek().map(|&(_, d)| d) == Some(':') {
            chars.next();
            out.push("::".to_string());
        } else {
            out.push(c.to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn reexports_name_leaves_and_aliases() {
        let lexed = lex("pub use didt::{analyze as didt_analyze, DidtEvent};\n\
             pub use crate::pbm::{TurboController, nested::{Deep}};\n\
             pub use dg_pdn::units;\n");
        let got = reexports(&lexed);
        let want = [
            ("didt", "didt_analyze"),
            ("didt", "DidtEvent"),
            ("pbm", "TurboController"),
            ("pbm", "Deep"),
            ("dg_pdn", "units"),
        ];
        assert_eq!(
            got,
            want.map(|(m, i)| (m.to_string(), i.to_string())).to_vec()
        );
    }

    #[test]
    fn names_skip_pub_use_tests_and_comments() {
        let lexed = lex("pub use a::Thing;\n\
             fn f() { b::g(); } // c::h()\n\
             const S: &str = \"d::i\";\n\
             #[cfg(test)]\n\
             mod tests { fn t() { e::j(); } }\n");
        let names = names_of(&lexed);
        assert!(names.path_heads.contains("b"));
        for hidden in ["a", "c", "d", "e"] {
            assert!(!names.path_heads.contains(hidden), "{hidden}");
        }
        assert!(!names.words.contains("Thing"));
    }
}
