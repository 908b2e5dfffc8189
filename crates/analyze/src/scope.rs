//! A lightweight item/scope parser over the masked source view.
//!
//! The flow rules in [`crate::flow`] need more structure than the lexer's
//! flat token stream: function boundaries (for call-graph attribution),
//! guard liveness spans (for lock-order and guard-across-blocking), call
//! sites (for reachability), and the binding each `TrackedMutex::new("…")`
//! declaration introduces (so a `.lock()` receiver can be resolved back to
//! its lock *class* by name). This module extracts exactly that — no AST,
//! just brace/paren matching over [`crate::lexer::Lexed::masked`], which is
//! immune to strings and comments by construction.
//!
//! Sites inside `#[cfg(test)]` / `#[test]` spans are skipped throughout:
//! tests may nest locks deliberately (the leaf-rule unit tests in
//! `dg_engine::sync` do), and the flow rules police production code only.

use crate::lexer::Lexed;
use crate::rules::{
    idents, is_ident_byte, matching_paren, next_nonspace, prev_nonspace, skip_generics,
};

/// One `fn` item (free function or method; nested fns included).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// Byte span of the `{ … }` body (inclusive braces); `None` for a
    /// bodyless declaration (trait method, extern fn).
    pub body: Option<(usize, usize)>,
    /// `true` when the declared return type mentions `Result`.
    pub returns_result: bool,
    /// `true` when the item sits inside a `#[cfg(test)]`/`#[test]` span.
    pub in_test: bool,
}

/// One `.lock()` acquisition site.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// The receiver identifier immediately before the method call
    /// (`self.state.lock()` → `state`; `profile_map().lock()` →
    /// `profile_map`).
    pub receiver: String,
    /// Byte offset of the method identifier.
    pub offset: usize,
    /// 1-indexed line of the call.
    pub line: usize,
    /// Byte span over which the guard is live: to the enclosing block's
    /// close (or an explicit `drop(guard)`) for a `let`-bound guard, to the
    /// end of the statement (including a trailing `{}` block, covering
    /// `if let`/`match` scrutinee temporaries) otherwise.
    pub span: (usize, usize),
}

/// One `TrackedMutex::new("class", …)` declaration site.
#[derive(Debug, Clone)]
pub struct ClassDecl {
    /// The lock-class string literal.
    pub class: String,
    /// The binding the lock is reachable through: the `let` name, the
    /// struct-literal field, or the enclosing function for accessor-style
    /// `CELL.get_or_init(|| TrackedMutex::new(…))` declarations.
    pub binding: Option<String>,
    /// 1-indexed line of the declaration.
    pub line: usize,
}

/// One call site, `name(…)` or `recv.name(…)`.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called identifier (last path segment).
    pub name: String,
    /// Byte offset of the identifier.
    pub offset: usize,
    /// 1-indexed line.
    pub line: usize,
    /// `true` when invoked with method syntax (`recv.name(…)`).
    pub method: bool,
}

/// One potentially blocking operation.
#[derive(Debug, Clone)]
pub struct BlockingSite {
    /// Byte offset of the identifier that triggered the match.
    pub offset: usize,
    /// 1-indexed line.
    pub line: usize,
    /// Human description (`thread::sleep`, `fs::read`, `.recv()`, …).
    pub what: String,
    /// `true` for condvar-family waits, which *release* the associated
    /// guard while parked (so guard-across-blocking must not flag them).
    pub condvar: bool,
    /// The receiver identifier for method-syntax sites, used to recognise
    /// the event pump's own `poller.wait(…)`.
    pub receiver: Option<String>,
}

/// Extracts every `fn` item from a lexed file.
pub fn fn_items(lexed: &Lexed) -> Vec<FnItem> {
    let masked = &lexed.masked;
    let bytes = masked.as_bytes();
    let ids = idents(masked);
    let mut out = Vec::new();
    for (idx, &(start, end)) in ids.iter().enumerate() {
        if &masked[start..end] != "fn" {
            continue;
        }
        // A function-pointer type (`fn(usize) -> U`) has `(` where an item
        // has a name.
        let Some(&(n_start, n_end)) = ids.get(idx + 1) else {
            continue;
        };
        match next_nonspace(bytes, end) {
            Some((p, _)) if p == n_start => {}
            _ => continue,
        }
        let mut i = n_end;
        if let Some((p, b'<')) = next_nonspace(bytes, i) {
            match skip_generics(bytes, p) {
                Some(after) => i = after,
                None => continue,
            }
        }
        let Some((open, b'(')) = next_nonspace(bytes, i) else {
            continue;
        };
        let Some(close) = matching_paren(bytes, open) else {
            continue;
        };
        // The body `{` (or `;` for a bodyless item) follows the return
        // type / where clause, which cannot themselves contain braces.
        let mut j = close + 1;
        let mut body = None;
        let mut sig_end = bytes.len();
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    sig_end = j;
                    body = matching_brace(bytes, j).map(|c| (j, c));
                    break;
                }
                b';' => {
                    sig_end = j;
                    break;
                }
                _ => j += 1,
            }
        }
        let ret = &masked[close + 1..sig_end.max(close + 1)];
        let returns_result = idents(ret).iter().any(|&(s, e)| &ret[s..e] == "Result");
        let line = lexed.line_of(start);
        out.push(FnItem {
            name: masked[n_start..n_end].to_string(),
            line,
            body,
            returns_result,
            in_test: lexed.is_test_line(line),
        });
    }
    out
}

/// Index of the innermost [`FnItem`] whose body contains `offset`.
pub fn enclosing_fn(items: &[FnItem], offset: usize) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, item) in items.iter().enumerate() {
        let Some((s, e)) = item.body else { continue };
        if s < offset && offset < e {
            let tighter = match best.and_then(|b| items[b].body) {
                Some((bs, be)) => e - s < be - bs,
                None => true,
            };
            if tighter {
                best = Some(i);
            }
        }
    }
    best
}

/// Extracts every tracked-lock declaration, resolving the binding it is
/// reachable through. `src` supplies the class string literal, which the
/// masked view blanks; the two share byte offsets.
pub fn class_decls(lexed: &Lexed, src: &str, fns: &[FnItem]) -> Vec<ClassDecl> {
    let masked = &lexed.masked;
    let bytes = masked.as_bytes();
    let sbytes = src.as_bytes();
    let mut out = Vec::new();
    for &(start, end) in &idents(masked) {
        if &masked[start..end] != "TrackedMutex" {
            continue;
        }
        let line = lexed.line_of(start);
        if lexed.is_test_line(line) {
            continue;
        }
        // Expect `::new(` then a string-literal first argument.
        let Some((c1, b':')) = next_nonspace(bytes, end) else {
            continue;
        };
        if bytes.get(c1 + 1) != Some(&b':') {
            continue;
        }
        let Some((nw, _)) = next_nonspace(bytes, c1 + 2) else {
            continue;
        };
        if !masked[nw..].starts_with("new") {
            continue;
        }
        let Some((open, b'(')) = next_nonspace(bytes, nw + 3) else {
            continue;
        };
        let Some((q, b'"')) = next_nonspace(bytes, open + 1) else {
            continue;
        };
        let Some(close_q) = src[q + 1..].find('"').map(|o| q + 1 + o) else {
            continue;
        };
        debug_assert_eq!(sbytes[q], b'"');
        let class = src[q + 1..close_q].to_string();
        let binding = binding_for(masked, start)
            .or_else(|| enclosing_fn(fns, start).map(|i| fns[i].name.clone()));
        out.push(ClassDecl {
            class,
            binding,
            line,
        });
    }
    out
}

/// Extracts every guard-producing acquisition site with its liveness span.
pub fn acquisitions(lexed: &Lexed) -> Vec<Acquisition> {
    let masked = &lexed.masked;
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for &(start, end) in &idents(masked) {
        if &masked[start..end] != "lock" {
            continue;
        }
        let line = lexed.line_of(start);
        if lexed.is_test_line(line) {
            continue;
        }
        // Must be a zero-argument method call: `.lock()`.
        let Some((dot, b'.')) = prev_nonspace(bytes, start) else {
            continue;
        };
        let Some((open, b'(')) = next_nonspace(bytes, end) else {
            continue;
        };
        let Some((call_close, b')')) = next_nonspace(bytes, open + 1) else {
            continue;
        };
        let Some(receiver) = receiver_of(masked, dot) else {
            continue;
        };
        let stmt_start = statement_start(bytes, start);
        let binding = let_binding(&masked[stmt_start..start]);
        let span_start = call_close + 1;
        let span_end = match binding.as_deref() {
            // `let _ = m.lock()` drops at the end of the statement.
            Some(name) if name != "_" => {
                let block_end = enclosing_block_end(bytes, start).unwrap_or(bytes.len());
                drop_site(masked, span_start, block_end, name).unwrap_or(block_end)
            }
            _ => statement_end(bytes, span_start),
        };
        out.push(Acquisition {
            receiver,
            offset: start,
            line,
            span: (span_start, span_end),
        });
    }
    out
}

/// Extracts every call site (`name(` with an identifier head).
pub fn call_sites(lexed: &Lexed) -> Vec<CallSite> {
    const KEYWORDS: [&str; 13] = [
        "if", "while", "for", "match", "loop", "return", "fn", "let", "mut", "move", "else", "in",
        "unsafe",
    ];
    let masked = &lexed.masked;
    let bytes = masked.as_bytes();
    let ids = idents(masked);
    let mut out = Vec::new();
    for (idx, &(start, end)) in ids.iter().enumerate() {
        let word = &masked[start..end];
        if KEYWORDS.contains(&word) {
            continue;
        }
        match next_nonspace(bytes, end) {
            Some((_, b'(')) => {}
            _ => continue, // also excludes macros: `name!(` sees `!` first
        }
        // Skip declarations (`fn name(…)`).
        if idx > 0 {
            let (ps, pe) = ids[idx - 1];
            if &masked[ps..pe] == "fn" {
                continue;
            }
        }
        let line = lexed.line_of(start);
        if lexed.is_test_line(line) {
            continue;
        }
        let method = matches!(prev_nonspace(bytes, start), Some((_, b'.')));
        out.push(CallSite {
            name: word.to_string(),
            offset: start,
            line,
            method,
        });
    }
    out
}

/// Methods that block with arguments present (`stream.read_exact(&mut b)`).
const BLOCKING_METHODS: [&str; 5] = [
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
    "recv_timeout",
];

/// Condvar-family waits: they park the thread but release the guard.
const WAIT_METHODS: [&str; 3] = ["wait", "wait_timeout", "wait_while"];

/// Extracts every potentially blocking operation.
///
/// Deliberate exclusions, tuned against this workspace: `.accept(` (the
/// serve listeners are nonblocking), bare `.read(`/`.write(` with arguments
/// (nonblocking socket I/O on the event loop), `path.join(…)` (only the
/// zero-argument thread join counts), and `.flush(token)` with arguments
/// (the event loop's own write-queue drain, not `io::Write::flush`).
pub fn blocking_sites(lexed: &Lexed) -> Vec<BlockingSite> {
    let masked = &lexed.masked;
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for &(start, end) in &idents(masked) {
        let word = &masked[start..end];
        let line = lexed.line_of(start);
        if lexed.is_test_line(line) {
            continue;
        }
        let Some((open, b'(')) = next_nonspace(bytes, end) else {
            continue;
        };
        let zero_arg = matches!(next_nonspace(bytes, open + 1), Some((_, b')')));
        let dot = match prev_nonspace(bytes, start) {
            Some((p, b'.')) => Some(p),
            _ => None,
        };
        let qualifier = path_qualifier(masked, start);
        let what = if word == "sleep" {
            Some("thread::sleep".to_string())
        } else if word == "recv" && dot.is_some() && zero_arg {
            Some("channel `.recv()`".to_string())
        } else if word == "join" && dot.is_some() && zero_arg {
            Some("thread `.join()`".to_string())
        } else if (word == "flush" || word == "sync_all") && dot.is_some() && zero_arg {
            Some(format!("`.{word}()` I/O"))
        } else if BLOCKING_METHODS.contains(&word) && dot.is_some() {
            Some(format!("`.{word}(…)` I/O"))
        } else if qualifier.as_deref() == Some("fs") {
            Some(format!("fs::{word}"))
        } else if matches!(word, "open" | "create") && qualifier.as_deref() == Some("File") {
            Some(format!("File::{word}"))
        } else if word == "connect"
            && matches!(qualifier.as_deref(), Some("TcpStream" | "UnixStream"))
        {
            Some(format!("{}::connect", qualifier.unwrap_or_default()))
        } else if WAIT_METHODS.contains(&word) && dot.is_some() {
            out.push(BlockingSite {
                offset: start,
                line,
                what: format!("condvar `.{word}(…)`"),
                condvar: true,
                receiver: dot.and_then(|d| receiver_of(masked, d)),
            });
            continue;
        } else {
            None
        };
        if let Some(what) = what {
            out.push(BlockingSite {
                offset: start,
                line,
                what,
                condvar: false,
                receiver: dot.and_then(|d| receiver_of(masked, d)),
            });
        }
    }
    out
}

/// Offset of the `}` matching the `{` at `open`.
fn matching_brace(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = open;
    while j < bytes.len() {
        match bytes[j] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// The close offset of the innermost `{ … }` block containing `offset`.
fn enclosing_block_end(bytes: &[u8], offset: usize) -> Option<usize> {
    let mut stack: Vec<usize> = Vec::new();
    for (j, &b) in bytes.iter().enumerate() {
        match b {
            b'{' => stack.push(j),
            b'}' => {
                if let Some(open) = stack.pop() {
                    if open < offset && offset < j {
                        return Some(j);
                    }
                }
            }
            _ => {}
        }
    }
    None
}

/// The receiver identifier of a method call: last ident segment before the
/// `.` at `dot`, skipping one trailing call's parens (`profile_map().lock()`
/// → `profile_map`). `None` for block/index expressions.
fn receiver_of(masked: &str, dot: usize) -> Option<String> {
    let bytes = masked.as_bytes();
    let (mut p, b) = prev_nonspace(bytes, dot)?;
    if b == b')' {
        let open = matching_paren_back(bytes, p)?;
        let (q, qb) = prev_nonspace(bytes, open)?;
        if !is_ident_byte(qb) {
            return None;
        }
        p = q;
    } else if !is_ident_byte(b) {
        return None;
    }
    let mut s = p;
    while s > 0 && is_ident_byte(bytes[s - 1]) {
        s -= 1;
    }
    Some(masked[s..p + 1].to_string())
}

/// Offset of the `(` matching the `)` at `close`, scanning backwards.
fn matching_paren_back(bytes: &[u8], close: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = close;
    loop {
        match bytes[j] {
            b')' => depth += 1,
            b'(' => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
}

/// Start of the statement containing `offset`: just past the nearest `;`,
/// `{` or `}` scanning backwards.
fn statement_start(bytes: &[u8], offset: usize) -> usize {
    for j in (0..offset).rev() {
        if matches!(bytes[j], b';' | b'{' | b'}') {
            return j + 1;
        }
    }
    0
}

/// End of the statement starting inside `bytes[from..]`: the `;`/`,`/`)`/
/// `]` that terminates it at nesting depth 0, or the close of a trailing
/// top-level `{}` block (so `if let`/`match` scrutinee temporaries extend
/// over the arm bodies, matching temporary-lifetime rules).
pub(crate) fn statement_end(bytes: &[u8], from: usize) -> usize {
    let mut depth = 0i32;
    for (j, &byte) in bytes.iter().enumerate().skip(from) {
        match byte {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            b'}' => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            b';' | b',' if depth == 0 => return j,
            _ => {}
        }
    }
    bytes.len()
}

/// The name bound by a `let [mut] name = …` in `region` (the text between
/// the statement start and the initialiser). Returns `None` for `if let`/
/// `while let` (those bind the *pattern*, and the scrutinee guard is a
/// temporary).
fn let_binding(region: &str) -> Option<String> {
    let ids = idents(region);
    let pos = ids.iter().rposition(|&(s, e)| &region[s..e] == "let")?;
    if pos > 0 {
        let (s, e) = ids[pos - 1];
        if matches!(&region[s..e], "if" | "while") {
            return None;
        }
    }
    let mut k = pos + 1;
    let (mut s, mut e) = *ids.get(k)?;
    if &region[s..e] == "mut" {
        k += 1;
        (s, e) = *ids.get(k)?;
    }
    Some(region[s..e].to_string())
}

/// The struct-literal field name (`name: …`) nearest the end of `region`.
fn field_binding(region: &str) -> Option<String> {
    let bytes = region.as_bytes();
    for &(s, e) in idents(region).iter().rev() {
        if let Some((p, b':')) = next_nonspace(bytes, e) {
            if bytes.get(p + 1) != Some(&b':') {
                return Some(region[s..e].to_string());
            }
        }
    }
    None
}

/// Resolves the binding a tracked-lock declaration at `offset` flows into.
///
/// Priority: (1) a `let` or struct-literal field in the *narrow* statement
/// region (back to the nearest `;`/`{`/`}`/`,`); (2) the last `let` in the
/// *wide* region (back to the nearest `;`/`{`/`}`), which sees across the
/// commas of a type annotation like `let q: TrackedMutex<Vec<(usize, T)>> =
/// …`. The caller falls back to the enclosing function's name.
fn binding_for(masked: &str, offset: usize) -> Option<String> {
    let bytes = masked.as_bytes();
    let mut narrow = None;
    let mut wide = None;
    for j in (0..offset).rev() {
        let b = bytes[j];
        if b == b',' && narrow.is_none() {
            narrow = Some(j + 1);
        }
        if matches!(b, b';' | b'{' | b'}') {
            if narrow.is_none() {
                narrow = Some(j + 1);
            }
            wide = Some(j + 1);
            break;
        }
    }
    let narrow = narrow.unwrap_or(0);
    let wide = wide.unwrap_or(0);
    let_binding(&masked[narrow..offset])
        .or_else(|| field_binding(&masked[narrow..offset]))
        .or_else(|| let_binding(&masked[wide..offset]))
}

/// First `drop(name)` call within `masked[start..end]`, if any.
fn drop_site(masked: &str, start: usize, end: usize, name: &str) -> Option<usize> {
    let region = &masked[start..end.min(masked.len())];
    let bytes = region.as_bytes();
    for &(s, e) in &idents(region) {
        if &region[s..e] != "drop" {
            continue;
        }
        let Some((open, b'(')) = next_nonspace(bytes, e) else {
            continue;
        };
        let Some((a, _)) = next_nonspace(bytes, open + 1) else {
            continue;
        };
        if region[a..].starts_with(name)
            && !region[a + name.len()..]
                .bytes()
                .next()
                .is_some_and(is_ident_byte)
            && matches!(next_nonspace(bytes, a + name.len()), Some((_, b')')))
        {
            return Some(start + s);
        }
    }
    None
}

/// The path qualifier of `Qual::name` at ident offset `s`, if any.
fn path_qualifier(masked: &str, s: usize) -> Option<String> {
    let bytes = masked.as_bytes();
    let (p, b) = prev_nonspace(bytes, s)?;
    if b != b':' || p == 0 || bytes[p - 1] != b':' {
        return None;
    }
    let (q, qb) = prev_nonspace(bytes, p - 1)?;
    if !is_ident_byte(qb) {
        return None;
    }
    let mut st = q;
    while st > 0 && is_ident_byte(bytes[st - 1]) {
        st -= 1;
    }
    Some(masked[st..q + 1].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn fn_items_find_names_bodies_and_result_returns() {
        let src = "fn plain() { body(); }\n\
                   pub fn fallible(x: usize) -> Result<(), String> { Ok(()) }\n\
                   trait T { fn decl(&self); }\n";
        let lexed = lex(src);
        let items = fn_items(&lexed);
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].name, "plain");
        assert!(items[0].body.is_some());
        assert!(!items[0].returns_result);
        assert!(items[1].returns_result);
        assert_eq!(items[2].name, "decl");
        assert!(items[2].body.is_none());
    }

    #[test]
    fn class_decl_binding_priority_let_field_and_accessor() {
        let src = r#"
            fn mk() {
                let state = TrackedMutex::new("a.state", 0usize);
                let s = Shared { completions: TrackedMutex::new("a.completions", 0) };
                let q: TrackedMutex<Vec<(usize, u8)>> = TrackedMutex::new("a.queue", Vec::new());
            }
            fn slot() -> usize {
                CELL.get_or_init(|| TrackedMutex::new("a.slot", 0));
                0
            }
        "#;
        let lexed = lex(src);
        let fns = fn_items(&lexed);
        let decls = class_decls(&lexed, src, &fns);
        let pairs: Vec<(String, Option<String>)> = decls
            .iter()
            .map(|d| (d.class.clone(), d.binding.clone()))
            .collect();
        assert_eq!(pairs[0], ("a.state".into(), Some("state".into())));
        assert_eq!(
            pairs[1],
            ("a.completions".into(), Some("completions".into()))
        );
        assert_eq!(pairs[2], ("a.queue".into(), Some("q".into())));
        assert_eq!(pairs[3], ("a.slot".into(), Some("slot".into())));
    }

    #[test]
    fn acquisition_spans_cover_let_bound_and_temporary_guards() {
        let src = "fn f() {\n\
                     let g = state.lock();\n\
                     touch(&g);\n\
                     drop(g);\n\
                     after();\n\
                     cache.lock().insert(1, 2);\n\
                   }\n";
        let lexed = lex(src);
        let acqs = acquisitions(&lexed);
        assert_eq!(acqs.len(), 2);
        let masked = &lexed.masked;
        // The bound guard ends at drop(g), before after().
        let bound = &acqs[0];
        assert_eq!(bound.receiver, "state");
        let span_text = &masked[bound.span.0..bound.span.1];
        assert!(span_text.contains("touch"));
        assert!(!span_text.contains("after"));
        // The temporary ends at its statement's semicolon.
        let temp = &acqs[1];
        assert_eq!(temp.receiver, "cache");
        assert!(masked[temp.span.0..temp.span.1].contains("insert"));
        assert!(!masked[temp.span.0..temp.span.1].contains('}'));
    }

    #[test]
    fn acquisition_receiver_skips_call_parens() {
        let lexed = lex("fn f() { profile_map().lock().clear(); }");
        let acqs = acquisitions(&lexed);
        assert_eq!(acqs.len(), 1);
        assert_eq!(acqs[0].receiver, "profile_map");
    }

    #[test]
    fn scrutinee_temporary_extends_over_the_match_body() {
        let src = "fn f() {\n\
                     if let Some(v) = map.lock().get(&k) { use_it(v); }\n\
                     next_statement();\n\
                   }\n";
        let lexed = lex(src);
        let acqs = acquisitions(&lexed);
        assert_eq!(acqs.len(), 1);
        let span_text = &lexed.masked[acqs[0].span.0..acqs[0].span.1];
        assert!(span_text.contains("use_it"));
        assert!(!span_text.contains("next_statement"));
    }

    #[test]
    fn blocking_sites_match_io_but_not_nonblocking_idioms() {
        let src = "fn f() {\n\
                     std::thread::sleep(d);\n\
                     let _ = rx.recv();\n\
                     let data = std::fs::read(path);\n\
                     stream.write_all(&buf);\n\
                     sock.read(&mut buf);\n\
                     path.join(\"x\");\n\
                     handle.join();\n\
                     self.flush(token);\n\
                   }\n";
        let lexed = lex(src);
        let whats: Vec<String> = blocking_sites(&lexed)
            .iter()
            .map(|b| b.what.clone())
            .collect();
        assert!(whats.iter().any(|w| w.contains("sleep")));
        assert!(whats.iter().any(|w| w.contains("recv")));
        assert!(whats.iter().any(|w| w.contains("fs::read")));
        assert!(whats.iter().any(|w| w.contains("write_all")));
        assert!(whats.iter().any(|w| w.contains("join")));
        // Exactly one join (the zero-arg thread join), no bare `.read(`,
        // and no `.flush(token)`.
        assert_eq!(whats.iter().filter(|w| w.contains("join")).count(), 1);
        assert!(!whats.iter().any(|w| w.contains("`.read(")));
        assert!(!whats.iter().any(|w| w.contains("flush")));
    }

    #[test]
    fn condvar_waits_are_marked_and_carry_their_receiver() {
        let lexed = lex("fn f() { state = self.available.wait(state); }");
        let sites = blocking_sites(&lexed);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].condvar);
        assert_eq!(sites[0].receiver.as_deref(), Some("available"));
    }

    #[test]
    fn call_sites_split_free_and_method_calls() {
        let lexed = lex("fn f() { helper(1); self.dispatch(x); not_a_macro!(y); }");
        let calls = call_sites(&lexed);
        let names: Vec<(&str, bool)> = calls.iter().map(|c| (c.name.as_str(), c.method)).collect();
        assert!(names.contains(&("helper", false)));
        assert!(names.contains(&("dispatch", true)));
        assert!(!names.iter().any(|(n, _)| *n == "not_a_macro"));
        assert!(!names.iter().any(|(n, _)| *n == "f"));
    }

    #[test]
    fn test_spans_are_excluded_from_extraction() {
        let src = "fn real() { state.lock(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { a.lock(); b.lock(); }\n\
                   }\n";
        let lexed = lex(src);
        assert_eq!(acquisitions(&lexed).len(), 1);
        let fns = fn_items(&lexed);
        assert!(fns.iter().any(|f| f.name == "t" && f.in_test));
    }
}
