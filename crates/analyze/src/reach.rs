//! The reachability rules: library code that no production code names.
//!
//! rustc's `dead_code` lint cannot see a `pub` item: everything public
//! counts as used. These passes look for users from the outside.
//!
//! * `unreached-mod`: a `pub mod X;` declared in a crate's `lib.rs` is
//!   reached when code outside `X`'s own files names `X::`, or names an
//!   item that `lib.rs` re-exports from `X`.
//! * `unreached-pub`: a `pub` item in library code is reached when another
//!   file names it, directly or through a `pub use … as` alias. A type
//!   named by a `pub fn` signature or a `pub` field in its own file is
//!   reached too: rustc would not let it be private.
//!
//! Library code, binaries, examples and the benchmark's sources count as
//! references; `tests/`, `#[cfg(test)]` code and `pub use` statements do
//! not. The scan is by name over the masked view, so comments and strings
//! never count, and it has no fixpoint: once an unreached item is
//! private, `dead_code` decides whether anything needs it at all.

use crate::lexer::Lexed;
use crate::rules::{
    idents, in_spans, is_ident_byte, macro_rules_spans, next_nonspace, pub_item, Finding, RuleId,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One source file the passes read: library and binary sources under
/// `crates/*/src`, the root and per-crate `examples/`, and the
/// benchmark's `src/`.
#[derive(Debug, Clone, Copy)]
pub struct ReachFile<'a> {
    /// Path relative to the workspace root.
    pub rel: &'a Path,
    /// The lexed source.
    pub lexed: &'a Lexed,
    /// Library code under `crates/*/src`, whose `pub` items `unreached-pub`
    /// checks.
    pub lib: bool,
}

/// The names one file uses: every identifier, and the identifiers that
/// start or continue a path (`name::`).
struct Names {
    words: BTreeSet<String>,
    path_heads: BTreeSet<String>,
}

/// Runs the enabled reachability rules over `files`. Findings are
/// `(index into files, finding)` pairs attributed to the declaring file.
pub fn unreached(files: &[ReachFile<'_>], enabled: &[RuleId]) -> Vec<(usize, Finding)> {
    let names: Vec<Names> = files.iter().map(|f| names_of(f.lexed)).collect();
    let mut out = Vec::new();
    if enabled.contains(&RuleId::UnreachedMod) {
        out.extend(unreached_mods(files, &names));
    }
    if enabled.contains(&RuleId::UnreachedPub) {
        out.extend(unreached_pubs(files, &names));
    }
    out
}

/// Flags every `pub mod X;` in a crate's `src/lib.rs` that no other file
/// reaches.
fn unreached_mods(files: &[ReachFile<'_>], names: &[Names]) -> Vec<(usize, Finding)> {
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
            let reached = files.iter().zip(names).any(|(other, used)| {
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
                            "public mod `{name}` is unreached: no binary, example, \
                             benchmark or library code outside it names `{name}::` or \
                             an item lib.rs re-exports from it"
                        ),
                        help: "delete the module, or run it from production code".into(),
                    },
                ));
            }
        }
    }
    out
}

/// Flags every `pub` item in library code that no other file names.
fn unreached_pubs(files: &[ReachFile<'_>], names: &[Names]) -> Vec<(usize, Finding)> {
    let mut aliases: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for file in files {
        for (item, alias) in use_aliases(file.lexed) {
            aliases.entry(item).or_default().push(alias);
        }
    }
    let mut out = Vec::new();
    for (idx, file) in files.iter().enumerate().filter(|(_, f)| f.lib) {
        let signatures = signature_words(file.lexed);
        for (kw, name, line) in pub_items(file.lexed) {
            let alias_of = aliases.get(&name).map(Vec::as_slice).unwrap_or_default();
            let named_elsewhere = names.iter().enumerate().any(|(j, used)| {
                j != idx
                    && (used.words.contains(&name)
                        || alias_of.iter().any(|alias| used.words.contains(alias)))
            });
            let in_signature =
                matches!(kw, "struct" | "enum" | "trait" | "type") && signatures.contains(&name);
            if !named_elsewhere && !in_signature {
                out.push((
                    idx,
                    Finding {
                        rule: RuleId::UnreachedPub,
                        line,
                        message: format!(
                            "public {kw} `{name}` is unreached: no other library file, \
                             binary, example or benchmark source names it"
                        ),
                        help: "make it private; rustc's dead_code lint then says whether \
                               anything needs it"
                            .into(),
                    },
                ));
            }
        }
    }
    out
}

/// `(keyword, name, line)` of each `pub` item `unreached-pub` checks,
/// outside test code and `macro_rules!` bodies.
fn pub_items(lexed: &Lexed) -> Vec<(&'static str, String, usize)> {
    let macros = macro_rules_spans(&lexed.masked);
    let mut out = Vec::new();
    for (i, line) in lexed.masked.lines().enumerate() {
        if lexed.is_test_line(i + 1) || in_spans(&macros, i + 1) {
            continue;
        }
        if let Some((kw, name)) = pub_item(line) {
            if !matches!(kw, "mod" | "union") {
                out.push((kw, name.to_string(), i + 1));
            }
        }
    }
    out
}

/// The identifiers in a file's public signatures: each `pub fn`'s
/// parameters, return type and bounds, and each `pub` field's type
/// (tuple-struct fields included).
fn signature_words(lexed: &Lexed) -> BTreeSet<String> {
    let masked = &lexed.masked;
    let bytes = masked.as_bytes();
    let mut spans = Vec::new();
    let mut start = 0;
    for (i, line) in masked.split_inclusive('\n').enumerate() {
        let line_start = start;
        start += line.len();
        if lexed.is_test_line(i + 1) {
            continue;
        }
        if let Some(("fn" | "struct", name)) = pub_item(line) {
            // The signature runs from after the item's own name to the
            // body's `{` or a bodiless `;`: a tuple struct's fields are
            // inside it.
            let from = idents(line)
                .into_iter()
                .find(|&(s, e)| &line[s..e] == name)
                .map_or(line_start, |(_, e)| line_start + e);
            let (mut end, mut depth) = (from, 0i32);
            while let Some(&b) = bytes.get(end) {
                match b {
                    b'(' | b'[' | b'<' => depth += 1,
                    b')' | b']' => depth -= 1,
                    b'>' if bytes.get(end.wrapping_sub(1)) != Some(&b'-') => depth -= 1,
                    b'{' | b';' if depth <= 0 => break,
                    _ => {}
                }
                end += 1;
            }
            spans.push((from, end));
        } else if let Some(rest) = line.trim_start().strip_prefix("pub ") {
            // A field: `pub name: Type,`.
            let field = rest.trim_start();
            let name_len = field
                .bytes()
                .take_while(|b| b.is_ascii_alphanumeric() || *b == b'_')
                .count();
            let after = field[name_len..].trim_start();
            if name_len > 0 && after.starts_with(':') && !after.starts_with("::") {
                spans.push((line_start, line_start + line.len()));
            }
        }
    }
    let mut words = BTreeSet::new();
    for (from, to) in spans {
        for (s, e) in idents(&masked[from..to]) {
            words.insert(masked[from + s..from + e].to_string());
        }
    }
    words
}

/// `(item, alias)` for every `item as alias` in the file's `pub use`
/// statements.
fn use_aliases(lexed: &Lexed) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (start, end) in pub_use_spans(&lexed.masked) {
        if lexed.is_test_line(lexed.line_of(start)) {
            continue;
        }
        let tokens = use_tokens(&lexed.masked[start..end]);
        for window in tokens.windows(3) {
            if let [item, as_kw, alias] = window {
                if as_kw == "as" && alias != "_" {
                    out.push((item.clone(), alias.clone()));
                }
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
    let mut prev: Option<(usize, usize)> = None;
    for (start, end) in idents(&view) {
        let defines = prev.is_some_and(|(s, e)| defines_next(bytes, s, e, start));
        prev = Some((start, end));
        if defines {
            continue;
        }
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

/// Whether the identifier at `bytes[start..end]` is a keyword that
/// defines the identifier beginning at `next` (only whitespace between):
/// `fn`, `struct`, `enum`, `trait`, `type`, `const`, `static`, `mod` or
/// `union`. A definition is not a use. `'static` is a lifetime and
/// `*const` a pointer type, so neither defines what follows.
fn defines_next(bytes: &[u8], start: usize, end: usize, next: usize) -> bool {
    let keyword = bytes.get(start..end).unwrap_or_default();
    let defining = matches!(
        keyword,
        b"fn" | b"struct" | b"enum" | b"trait" | b"type" | b"const" | b"static" | b"mod" | b"union"
    );
    let before = start.checked_sub(1).and_then(|i| bytes.get(i));
    let qualified = matches!(
        (keyword, before),
        (b"static", Some(b'\'')) | (b"const", Some(b'*'))
    );
    let adjacent = bytes
        .get(end..next)
        .is_some_and(|gap| gap.iter().all(u8::is_ascii_whitespace));
    defining && !qualified && adjacent
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
    fn signatures_cover_params_returns_bounds_and_pub_fields() {
        let lexed = lex("pub fn f<T: Bound>(\n    a: [Arr; 4],\n) -> Ret\nwhere\n    T: Where,\n{\n    Body\n}\n\
             pub struct S {\n    pub field: Field,\n    hidden: Hidden,\n}\n\
             pub struct Pair(pub Tuple);\n\
             fn private(p: Private) {}\n");
        let words = signature_words(&lexed);
        for named in ["Bound", "Arr", "Ret", "Where", "Field", "Tuple"] {
            assert!(words.contains(named), "{named}");
        }
        for unnamed in ["Body", "Hidden", "Private", "S", "Pair", "f"] {
            assert!(!words.contains(unnamed), "{unnamed}");
        }
    }

    #[test]
    fn aliases_pair_items_with_their_new_names() {
        let lexed = lex("pub use a::{b as c, d};\npub use e::f as g;\nuse h::i as j;\n");
        assert_eq!(
            use_aliases(&lexed),
            vec![("b".to_string(), "c".to_string()), ("f".into(), "g".into())]
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
        // A definition is not a use; a lifetime or a pointer type is no
        // definition.
        assert!(!names.words.contains("f") && !names.words.contains("S"));
        let lexed = lex("pub(crate) const fn cf() {}\nstruct St;\nenum En {}\n\
             trait Tr {}\ntype Ty = Used;\nstatic ST: u8 = 0;\nmod md {}\nunion Un {}\n\
             fn r(a: &'static Lt, b: *const Ptr) { decode(a) }\n");
        let words = names_of(&lexed).words;
        for defined in ["cf", "St", "En", "Tr", "Ty", "ST", "md", "Un", "r"] {
            assert!(!words.contains(defined), "{defined}");
        }
        for used in ["Used", "Lt", "Ptr", "decode"] {
            assert!(words.contains(used), "{used}");
        }
    }
}
