//! The rule registry.
//!
//! Each rule walks the masked view produced by [`crate::lexer::lex`] (so
//! comments and string literals can never trigger a diagnostic) and emits
//! [`Finding`]s. The engine in `lib.rs` owns scoping (which crates and
//! file kinds each rule applies to) and allow-comment filtering.

use crate::lexer::Lexed;

/// Identifies one lint rule. The discriminant order fixes the reporting
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// `unwrap`/`expect`/`panic!`/`unreachable!`/indexing-by-literal in
    /// library code.
    NoPanicInLib,
    /// Raw `f64` parameters carrying physical quantities in public fns.
    UnitHygiene,
    /// Ad-hoc threading and `HashMap` iteration on result paths.
    DeterminismHygiene,
    /// Non-vendored or net-facing dependencies in Cargo manifests, and a
    /// crate manifest that skips the workspace lints.
    DepHygiene,
    /// Malformed, reason-less, or unused `dg-analyze:` directives.
    AllowSyntax,
    /// A tracked lock acquired while another tracked guard is live
    /// (tracked locks are leaves).
    LockOrder,
    /// A live lock guard spanning a blocking operation (file I/O, channel
    /// recv, thread join) in the serve/pdn tiers.
    GuardAcrossBlocking,
    /// Blocking operations reachable from an epoll event-loop thread.
    NoBlockingInEventLoop,
    /// `let _ =` discarding a `Result` returned by a workspace function.
    SwallowedResult,
    /// A `pub mod` in a crate's `lib.rs` that no binary, example or other
    /// library code names.
    UnreachedMod,
    /// A `pub` library item that no other file names.
    UnreachedPub,
}

impl RuleId {
    /// All rules, in reporting order.
    pub const ALL: [RuleId; 11] = [
        RuleId::NoPanicInLib,
        RuleId::UnitHygiene,
        RuleId::DeterminismHygiene,
        RuleId::DepHygiene,
        RuleId::AllowSyntax,
        RuleId::LockOrder,
        RuleId::GuardAcrossBlocking,
        RuleId::NoBlockingInEventLoop,
        RuleId::SwallowedResult,
        RuleId::UnreachedMod,
        RuleId::UnreachedPub,
    ];

    /// The kebab-case rule name used in diagnostics and allow-comments.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NoPanicInLib => "no-panic-in-lib",
            RuleId::UnitHygiene => "unit-hygiene",
            RuleId::DeterminismHygiene => "determinism-hygiene",
            RuleId::DepHygiene => "dep-hygiene",
            RuleId::AllowSyntax => "allow-syntax",
            RuleId::LockOrder => "lock-order",
            RuleId::GuardAcrossBlocking => "guard-across-blocking",
            RuleId::NoBlockingInEventLoop => "no-blocking-in-event-loop",
            RuleId::SwallowedResult => "swallowed-result",
            RuleId::UnreachedMod => "unreached-mod",
            RuleId::UnreachedPub => "unreached-pub",
        }
    }

    /// Parses a rule name as written in an allow-comment.
    pub fn parse(name: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// One-line description shown by `dg-analyze --list-rules`.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::NoPanicInLib => {
                "forbid unwrap/expect/panic!/unreachable!/todo!/unimplemented! and \
                 indexing-by-literal in library (non-test) code"
            }
            RuleId::UnitHygiene => {
                "public fns in dg-pdn/dg-power/dg-pmu must pass physical quantities \
                 as unit newtypes, not raw f64"
            }
            RuleId::DeterminismHygiene => {
                "forbid ad-hoc std::thread use and HashMap iteration in \
                 result-producing crates (clippy.toml bans wall-clock reads and \
                 CPU-feature probes everywhere)"
            }
            RuleId::DepHygiene => {
                "dependencies must be vendored path/workspace deps, net-facing \
                 crates are forbidden, and every crates/*/Cargo.toml must opt in \
                 to the workspace lints (`[lints] workspace = true`)"
            }
            RuleId::AllowSyntax => {
                "dg-analyze: directives must parse, carry a reason, and suppress \
                 at least one violation"
            }
            RuleId::LockOrder => {
                "tracked locks are leaves: no tracked lock may be acquired while \
                 another tracked guard is live, directly or through a uniquely \
                 named free function"
            }
            RuleId::GuardAcrossBlocking => {
                "no live lock guard may span a blocking call (file I/O, channel \
                 recv, thread join) in dg-serve or dg-pdn"
            }
            RuleId::NoBlockingInEventLoop => {
                "no blocking operation may be reachable from an epoll event-loop \
                 thread's dispatch functions in dg-serve"
            }
            RuleId::SwallowedResult => {
                "`let _ =` must not discard a Result returned by a workspace \
                 function in the no-panic crates"
            }
            RuleId::UnreachedMod => {
                "every pub mod in a crate's lib.rs must be named (`mod::` or a \
                 re-exported item) by a binary, an example, or library code \
                 outside it; tests and benches do not count"
            }
            RuleId::UnreachedPub => {
                "every pub fn/const/static/struct/enum/trait/type in library code \
                 must be named by another library file, a binary, an example or \
                 the benchmark (a type also by its own file's pub signatures); \
                 tests do not count"
            }
        }
    }
}

/// A single rule match, before allow-comment filtering.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// 1-indexed source line.
    pub line: usize,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub help: String,
}

pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Yields `(start, end)` byte spans of identifiers in `text`.
pub(crate) fn idents(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident_byte(bytes[i]) && (bytes[i].is_ascii_alphabetic() || bytes[i] == b'_') {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            out.push((start, i));
        } else {
            i += 1;
        }
    }
    out
}

/// First non-whitespace byte at or after `i`.
pub(crate) fn next_nonspace(bytes: &[u8], mut i: usize) -> Option<(usize, u8)> {
    while i < bytes.len() {
        if !bytes[i].is_ascii_whitespace() {
            return Some((i, bytes[i]));
        }
        i += 1;
    }
    None
}

/// Last non-whitespace byte strictly before `i`.
pub(crate) fn prev_nonspace(bytes: &[u8], i: usize) -> Option<(usize, u8)> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if !bytes[j].is_ascii_whitespace() {
            return Some((j, bytes[j]));
        }
    }
    None
}

// ---------------------------------------------------------------------------
// no-panic-in-lib
// ---------------------------------------------------------------------------

const PANIC_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Finds panic-capable constructs in non-test code.
pub fn no_panic_in_lib(lexed: &Lexed) -> Vec<Finding> {
    let mut out = Vec::new();
    let masked = &lexed.masked;
    let bytes = masked.as_bytes();

    for (start, end) in idents(masked) {
        let line = lexed.line_of(start);
        if lexed.is_test_line(line) {
            continue;
        }
        let name = &masked[start..end];
        if PANIC_METHODS.contains(&name) {
            let called = next_nonspace(bytes, end).map(|(_, b)| b) == Some(b'(');
            let on_receiver = prev_nonspace(bytes, start).map(|(_, b)| b) == Some(b'.');
            if called && on_receiver {
                out.push(Finding {
                    rule: RuleId::NoPanicInLib,
                    line,
                    message: format!("`.{name}()` can panic in library code"),
                    help: "return a typed error (PdnError / PowerError / PmuError / \
                           ExploreError) or recover explicitly"
                        .into(),
                });
            }
        } else if PANIC_MACROS.contains(&name)
            && next_nonspace(bytes, end).map(|(_, b)| b) == Some(b'!')
        {
            out.push(Finding {
                rule: RuleId::NoPanicInLib,
                line,
                message: format!("`{name}!` aborts the caller in library code"),
                help: "propagate a typed error instead of panicking".into(),
            });
        }
    }

    // Indexing by integer literal: `xs[0]`, `pair[1]`, …
    let mut i = 1;
    while i < bytes.len() {
        if bytes[i] == b'['
            && (is_ident_byte(bytes[i - 1]) || bytes[i - 1] == b')' || bytes[i - 1] == b']')
        {
            let mut j = i + 1;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            if j > i + 1 && bytes.get(j) == Some(&b']') {
                let line = lexed.line_of(i);
                if !lexed.is_test_line(line) {
                    out.push(Finding {
                        rule: RuleId::NoPanicInLib,
                        line,
                        message: format!(
                            "indexing by literal `[{}]` can panic on short slices",
                            &masked[i + 1..j]
                        ),
                        help: "use .first()/.get(n), a slice pattern (`let [a, b] = …`), \
                               or prove the bound with a typed constructor"
                            .into(),
                    });
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// unit-hygiene
// ---------------------------------------------------------------------------

/// `(suffix, suggested newtype)` — a parameter named `x_<suffix>` (or
/// exactly `<suffix>`) of type `f64` should use the newtype instead.
const UNIT_SUFFIXES: [(&str, &str); 26] = [
    ("hz", "Hertz"),
    ("khz", "Hertz"),
    ("mhz", "Hertz"),
    ("ghz", "Hertz"),
    ("volts", "Volts"),
    ("volt", "Volts"),
    ("mv", "Volts"),
    ("uv", "Volts"),
    ("ohms", "Ohms"),
    ("ohm", "Ohms"),
    ("mohm", "Ohms"),
    ("watts", "Watts"),
    ("watt", "Watts"),
    ("mw", "Watts"),
    ("amps", "Amps"),
    ("amp", "Amps"),
    ("ma", "Amps"),
    ("farads", "Farads"),
    ("nf", "Farads"),
    ("uf", "Farads"),
    ("pf", "Farads"),
    ("henries", "Henries"),
    ("nh", "Henries"),
    ("ph", "Henries"),
    ("celsius", "Celsius"),
    ("seconds", "Seconds"),
];

/// Extra whole-name time suffixes (`_us`, `_ns`, `_ms`, `_sec`) that are too
/// short/ambiguous to match bare, but unambiguous with an underscore.
const TIME_SUFFIXES: [&str; 4] = ["us", "ns", "ms", "sec"];

fn unit_suggestion(param: &str) -> Option<&'static str> {
    let lower = param.to_ascii_lowercase();
    for (suffix, newtype) in UNIT_SUFFIXES {
        if lower == suffix || lower.ends_with(&format!("_{suffix}")) {
            return Some(newtype);
        }
    }
    for suffix in TIME_SUFFIXES {
        if lower.ends_with(&format!("_{suffix}")) {
            return Some("Seconds");
        }
    }
    None
}

/// Flags `pub fn` parameters that smuggle physical quantities as raw `f64`.
pub fn unit_hygiene(lexed: &Lexed) -> Vec<Finding> {
    let mut out = Vec::new();
    let masked = &lexed.masked;
    let bytes = masked.as_bytes();
    let ids = idents(masked);

    for (idx, &(start, end)) in ids.iter().enumerate() {
        if &masked[start..end] != "fn" {
            continue;
        }
        let line = lexed.line_of(start);
        if lexed.is_test_line(line) || !is_pub_fn(masked, &ids, idx) {
            continue;
        }
        // Skip the fn name and optional generics, then parse the params.
        let Some(&(_, name_end)) = ids.get(idx + 1) else {
            continue;
        };
        let mut i = name_end;
        if let Some((p, b'<')) = next_nonspace(bytes, i) {
            i = match skip_generics(bytes, p) {
                Some(after) => after,
                None => continue,
            };
        }
        let Some((open, b'(')) = next_nonspace(bytes, i) else {
            continue;
        };
        let Some(close) = matching_paren(bytes, open) else {
            continue;
        };
        for (p_start, param) in split_params(masked, open + 1, close) {
            let Some((name, ty)) = split_param(param) else {
                continue;
            };
            if ty == "f64" {
                if let Some(newtype) = unit_suggestion(name) {
                    out.push(Finding {
                        rule: RuleId::UnitHygiene,
                        line: lexed.line_of(p_start),
                        message: format!(
                            "public fn parameter `{name}: f64` carries a physical \
                             quantity as a raw float"
                        ),
                        help: format!("take `{name}: {newtype}` (see dg_pdn::units)"),
                    });
                }
            }
        }
    }
    out
}

/// `true` when the `fn` at ident index `idx` is declared `pub` (not
/// `pub(crate)`/`pub(super)`), allowing `const`/`unsafe`/`async` between.
fn is_pub_fn(masked: &str, ids: &[(usize, usize)], idx: usize) -> bool {
    let bytes = masked.as_bytes();
    let mut k = idx;
    for _ in 0..3 {
        if k == 0 {
            return false;
        }
        k -= 1;
        let (s, e) = ids[k];
        match &masked[s..e] {
            "const" | "unsafe" | "async" => continue,
            "pub" => {
                // Restricted visibility (`pub(crate)`) is not public API.
                return next_nonspace(bytes, e).map(|(_, b)| b) != Some(b'(');
            }
            _ => return false,
        }
    }
    false
}

/// Starting at the `<` at `i`, returns the offset just past the matching
/// `>` (treating `->` as an arrow, not a close).
pub(crate) fn skip_generics(bytes: &[u8], i: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = i;
    while j < bytes.len() {
        match bytes[j] {
            b'<' => depth += 1,
            b'>' if j > 0 && bytes[j - 1] == b'-' => {} // `->`
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Offset of the `)` matching the `(` at `open`.
pub(crate) fn matching_paren(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = open;
    while j < bytes.len() {
        match bytes[j] {
            b'(' => depth += 1,
            b')' => {
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

/// Splits a parameter list on top-level commas, yielding `(offset, text)`.
fn split_params(masked: &str, start: usize, end: usize) -> Vec<(usize, &str)> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut piece_start = start;
    for j in start..end {
        match bytes[j] {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' => depth -= 1,
            b'>' if j > 0 && bytes[j - 1] != b'-' => depth -= 1,
            b',' if depth == 0 => {
                out.push((
                    nonspace_from(masked, piece_start, j),
                    &masked[piece_start..j],
                ));
                piece_start = j + 1;
            }
            _ => {}
        }
    }
    if piece_start < end {
        out.push((
            nonspace_from(masked, piece_start, end),
            &masked[piece_start..end],
        ));
    }
    out
}

/// Offset of the first non-whitespace byte in `masked[from..to]` (or
/// `from` for an all-blank piece), so multiline parameters anchor to the
/// line the parameter is on, not the line the previous one ended on.
fn nonspace_from(masked: &str, from: usize, to: usize) -> usize {
    masked[from..to]
        .find(|c: char| !c.is_whitespace())
        .map_or(from, |o| from + o)
}

/// Splits one parameter into `(name, type)`; `None` for `self`, tuple
/// patterns, or anything without a top-level colon.
fn split_param(param: &str) -> Option<(&str, &str)> {
    let trimmed = param.trim();
    if trimmed.starts_with('(') || trimmed.starts_with('&') {
        return None; // tuple pattern or receiver reference
    }
    let colon = trimmed.find(':')?;
    if trimmed.as_bytes().get(colon + 1) == Some(&b':') {
        return None;
    }
    let name = trimmed[..colon].trim().trim_start_matches("mut ").trim();
    let ty = trimmed[colon + 1..].trim();
    if name == "self" || name.is_empty() {
        return None;
    }
    Some((name, ty))
}

// ---------------------------------------------------------------------------
// determinism-hygiene
// ---------------------------------------------------------------------------

const HASHMAP_ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Flags ad-hoc threading and `HashMap` iteration. Wall-clock reads and
/// runtime CPU-feature probes are clippy's (`clippy.toml`), which bans
/// them in every crate.
///
/// `allow_threads` is set for `dg-engine`, the one crate allowed to spawn
/// worker threads (everyone else must go through its deterministic
/// primitives).
pub fn determinism_hygiene(lexed: &Lexed, allow_threads: bool) -> Vec<Finding> {
    let mut out = Vec::new();
    let masked = &lexed.masked;

    if !allow_threads {
        for needle in ["thread::spawn", "thread::scope", "thread::Builder"] {
            let mut from = 0;
            while let Some(pos) = masked[from..].find(needle) {
                let at = from + pos;
                from = at + needle.len();
                let line = lexed.line_of(at);
                if lexed.is_test_line(line) {
                    continue;
                }
                out.push(Finding {
                    rule: RuleId::DeterminismHygiene,
                    line,
                    message: format!("`{needle}` bypasses the deterministic execution engine"),
                    help: "use dg_engine::par_map / par_map_progress so results are \
                           bit-identical for any thread count"
                        .into(),
                });
            }
        }
    }

    // HashMap iteration: collect identifiers bound to HashMap values, then
    // flag order-dependent operations on them.
    let map_names = hashmap_bindings(masked);
    if !map_names.is_empty() {
        let ids = idents(masked);
        let bytes = masked.as_bytes();
        for (k, &(start, end)) in ids.iter().enumerate() {
            let name = &masked[start..end];
            if !map_names.iter().any(|m| m == name) {
                continue;
            }
            let line = lexed.line_of(start);
            if lexed.is_test_line(line) {
                continue;
            }
            // `map.iter()` / `.keys()` / …
            if let Some((dot, b'.')) = next_nonspace(bytes, end) {
                if let Some(&(ms, me)) = ids.iter().find(|&&(s, _)| s > dot) {
                    let method = &masked[ms..me];
                    if HASHMAP_ITER_METHODS.contains(&method)
                        && next_nonspace(bytes, me).map(|(_, b)| b) == Some(b'(')
                    {
                        out.push(Finding {
                            rule: RuleId::DeterminismHygiene,
                            line,
                            message: format!(
                                "iterating `HashMap` `{name}` via `.{method}()` has \
                                 nondeterministic order"
                            ),
                            help: "use a BTreeMap, or collect and sort keys before \
                                   iterating"
                                .into(),
                        });
                        // `for … in map.iter()` would also match the
                        // for-loop check below; one finding is enough.
                        continue;
                    }
                }
            }
            // `for … in map` / `for … in &map`
            if k > 0 {
                let mut p = k - 1;
                // Skip a possible `mut` between `in` and the name.
                if &masked[ids[p].0..ids[p].1] == "mut" && p > 0 {
                    p -= 1;
                }
                if &masked[ids[p].0..ids[p].1] == "in" {
                    out.push(Finding {
                        rule: RuleId::DeterminismHygiene,
                        line,
                        message: format!(
                            "iterating `HashMap` `{name}` in a for-loop has \
                             nondeterministic order"
                        ),
                        help: "use a BTreeMap, or collect and sort keys before iterating".into(),
                    });
                }
            }
        }
    }
    out
}

/// Names bound to `HashMap` values: `let m = HashMap::new()`, fields and
/// params `m: HashMap<…>` (possibly wrapped, e.g. `Mutex<HashMap<…>>`).
fn hashmap_bindings(masked: &str) -> Vec<String> {
    let mut names = Vec::new();
    for line in masked.lines() {
        let Some(hm) = line.find("HashMap") else {
            continue;
        };
        let before = &line[..hm];
        // `let [mut] name [: …] = HashMap::…`
        if let Some(let_pos) = before.find("let ") {
            let after_let = before[let_pos + 4..].trim_start();
            let after_let = after_let
                .strip_prefix("mut ")
                .unwrap_or(after_let)
                .trim_start();
            let name: String = after_let
                .bytes()
                .take_while(|&b| is_ident_byte(b))
                .map(char::from)
                .collect();
            if !name.is_empty() {
                names.push(name);
                continue;
            }
        }
        // `name: …HashMap<…`: find the last single `:` before the HashMap
        // occurrence and take the identifier before it.
        let mut colon = None;
        let bytes = before.as_bytes();
        let mut j = 0;
        while j < bytes.len() {
            if bytes[j] == b':' {
                if bytes.get(j + 1) == Some(&b':') {
                    j += 2;
                    continue;
                }
                colon = Some(j);
            }
            j += 1;
        }
        if let Some(c) = colon {
            let name: String = before[..c]
                .bytes()
                .rev()
                .take_while(|&b| is_ident_byte(b))
                .map(char::from)
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            if !name.is_empty() && name != "Output" {
                names.push(name);
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lines(findings: &[Finding]) -> Vec<usize> {
        findings.iter().map(|f| f.line).collect()
    }

    #[test]
    fn flags_unwrap_expect_and_macros() {
        let src = "fn f() {\n  x.unwrap();\n  y.expect(\"m\");\n  panic!(\"boom\");\n  unreachable!();\n}\n";
        let f = no_panic_in_lib(&lex(src));
        assert_eq!(lines(&f), vec![2, 3, 4, 5]);
    }

    #[test]
    fn does_not_flag_unwrap_or_variants() {
        let src =
            "fn f() {\n  x.unwrap_or(0);\n  y.unwrap_or_else(|| 1);\n  z.unwrap_or_default();\n}\n";
        assert!(no_panic_in_lib(&lex(src)).is_empty());
    }

    #[test]
    fn does_not_flag_strings_or_comments() {
        let src = "fn f() {\n  // calls .unwrap() and panic!\n  let s = \".unwrap() panic!(x)\";\n  let r = r#\"xs[0].expect(\"y\")\"#;\n}\n";
        assert!(no_panic_in_lib(&lex(src)).is_empty());
    }

    #[test]
    fn does_not_flag_test_modules() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { x.unwrap(); v[0]; }\n}\n";
        assert!(no_panic_in_lib(&lex(src)).is_empty());
    }

    #[test]
    fn flags_literal_indexing_but_not_types_or_ranges() {
        let src = "fn f(xs: &[u8]) {\n  let a = xs[0];\n  let t: [u8; 4] = [0; 4];\n  let r = &xs[1..];\n  let b = w[17];\n}\n";
        let f = no_panic_in_lib(&lex(src));
        assert_eq!(lines(&f), vec![2, 5]);
    }

    #[test]
    fn unit_hygiene_flags_suffixed_f64_params() {
        let src = "pub fn set_clock(freq_mhz: f64, label: &str) {}\n";
        let f = unit_hygiene(&lex(src));
        assert_eq!(f.len(), 1);
        assert!(f[0].help.contains("Hertz"));
    }

    #[test]
    fn unit_hygiene_accepts_newtypes_and_private_fns() {
        let src = "pub fn set_clock(freq: Hertz) {}\nfn helper(freq_mhz: f64) {}\npub(crate) fn h2(v_mv: f64) {}\n";
        assert!(unit_hygiene(&lex(src)).is_empty());
    }

    #[test]
    fn unit_hygiene_handles_multiline_and_generics() {
        let src = "pub fn build<F: Fn(usize) -> f64>(\n    gate_mohm: f64,\n    cb: F,\n) -> f64 { 0.0 }\n";
        let f = unit_hygiene(&lex(src));
        assert_eq!(lines(&f), vec![2]);
        assert!(f[0].help.contains("Ohms"));
    }

    #[test]
    fn determinism_flags_clocks_and_threads() {
        // The clock read is clippy's `disallowed-methods`; only the thread
        // is this rule's.
        let src =
            "fn f() {\n  let t = std::time::Instant::now();\n  std::thread::spawn(|| {});\n}\n";
        let f = determinism_hygiene(&lex(src), false);
        assert_eq!(lines(&f), vec![3]);
        assert!(
            determinism_hygiene(&lex("fn f() { std::thread::scope(|s| {}); }\n"), true).is_empty()
        );
    }

    #[test]
    fn determinism_flags_hashmap_iteration_not_lookup() {
        let src = "use std::collections::HashMap;\nfn f(cache: &HashMap<u32, f64>) -> f64 {\n  let hit = cache.get(&1);\n  let mut s = 0.0;\n  for (_, v) in cache.iter() { s += v; }\n  s\n}\n";
        let f = determinism_hygiene(&lex(src), false);
        assert_eq!(lines(&f), vec![5]);
    }
}
