//! The flow-aware concurrency rules.
//!
//! Where [`crate::rules`] works line-by-line inside one file, this module
//! reasons across function and crate boundaries using the structure
//! extracted by [`crate::scope`]:
//!
//! * **lock-order** — every `.lock()` on a tracked lock is resolved to its
//!   declared *class*; nesting one acquisition inside another guard's live
//!   span (directly, or by calling a uniquely named free function that
//!   transitively locks) contributes an edge to a workspace-wide
//!   lock-order graph, which must be acyclic. Self-loops
//!   (re-acquiring a held class) are cycles of length one. The same graph
//!   backs the `--witness` runtime cross-check.
//! * **guard-across-blocking** — in `dg-serve`/`dg-pdn`, no guard may be
//!   live across a blocking operation (file I/O, channel recv, thread
//!   join) or across a call to a free function that transitively blocks.
//!   Condvar waits are exempt: they park *after releasing* their guard.
//! * **no-blocking-in-event-loop** — in `dg-serve`, functions reachable
//!   from an epoll pump (`poller.wait(…)`) must not block; the walk
//!   follows same-crate calls by name and stops at edges excused by an
//!   `allow(no-blocking-in-event-loop, …)` on the call line.
//! * **swallowed-result** — in the no-panic crates' library code,
//!   `let _ =` must not discard a `Result` produced by a workspace
//!   function; best-effort discards of std results stay legal.
//!
//! All resolution is by name over the masked token stream — deliberately
//! approximate, tuned with stoplists so the approximations stay on the
//! false-negative side for std-colliding names rather than spraying false
//! positives.

use crate::lexer::Lexed;
use crate::rules::{idents, next_nonspace, Finding, RuleId};
use crate::scope::{self, Acquisition, BlockingSite, CallSite};
use std::collections::{BTreeMap, BTreeSet};

/// Crates in scope for `guard-across-blocking`.
pub const GUARD_BLOCKING_CRATES: [&str; 2] = ["dg-serve", "dg-pdn"];

/// The crate whose event loops `no-blocking-in-event-loop` polices.
pub const EVENT_LOOP_CRATE: &str = "dg-serve";

/// Method names never followed through the event-loop call walk or the
/// lock-propagation closure: they collide with std inherent methods, so a
/// name match would routinely bind `vec.push(…)` to an unrelated workspace
/// method.
const METHOD_STOPLIST: [&str; 28] = [
    "new", "default", "clone", "fmt", "drop", "len", "is_empty", "get", "push", "pop", "insert",
    "remove", "clear", "drain", "iter", "next", "take", "set", "lock", "read", "write", "wait",
    "flush", "send", "recv", "extend", "contains", "entry",
];

/// Call names never treated as a discarded workspace `Result` by
/// `swallowed-result` (std collisions where `let _ =` is idiomatic).
const SWALLOW_STOPLIST: [&str; 10] = [
    "new", "clone", "get", "insert", "push", "next", "send", "parse", "join", "take",
];

/// Cap on how many same-named definitions the event-loop walk will fan out
/// to; more than this means the name is effectively untyped.
const MAX_NAME_FANOUT: usize = 3;

/// One analysed source file, as handed over by the engine in `lib.rs`.
pub struct FileFlow<'a> {
    /// Package name of the owning crate (`dg-serve`, …).
    pub crate_name: String,
    /// Workspace-relative path, for pseudo-class names and diagnostics.
    pub rel: String,
    /// `true` for library code (vs a binary target).
    pub is_lib: bool,
    /// The lexed view.
    pub lexed: &'a Lexed,
    /// Raw source (shares offsets with the masked view).
    pub src: &'a str,
    /// Allow directives naming one of the flow rules, for edge pruning.
    pub allows: Vec<FlowAllow>,
}

/// One allow directive relevant to the flow rules.
#[derive(Debug, Clone, Copy)]
pub struct FlowAllow {
    /// Index into the file's full allow list (for used-tracking).
    pub index: usize,
    /// The rule the directive names.
    pub rule: RuleId,
    /// Line it targets (`None` = whole file).
    pub target_line: Option<usize>,
}

/// The static lock-order graph, shared with the witness cross-check.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Every declared lock class (from `TrackedMutex::new("…")` sites).
    pub classes: BTreeSet<String>,
    /// Active edges `from → to` with the site (file index, line) that
    /// first recorded them.
    pub edges: BTreeMap<(String, String), (usize, usize)>,
    /// Edges excused by `allow(lock-order, …)`: removed from cycle
    /// detection but still *explaining* a matching runtime edge.
    pub sanctioned: BTreeSet<(String, String)>,
}

impl LockGraph {
    /// `true` when the static analysis explains a runtime edge.
    pub fn explains(&self, from: &str, to: &str) -> bool {
        let key = (from.to_string(), to.to_string());
        self.edges.contains_key(&key) || self.sanctioned.contains(&key)
    }

    /// `true` when `to` is reachable from `from` over active edges.
    pub fn reaches(&self, from: &str, to: &str) -> bool {
        self.path(from, to).is_some()
    }

    /// A shortest path `from ⇝ to` over active edges, if one exists.
    pub fn path(&self, from: &str, to: &str) -> Option<Vec<String>> {
        let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
        let mut queue: Vec<&str> = vec![from];
        let mut seen: BTreeSet<&str> = queue.iter().copied().collect();
        while let Some(node) = queue.pop() {
            for (a, b) in self.edges.keys() {
                if a == node && seen.insert(b) {
                    parent.insert(b, a);
                    if b == to {
                        let mut path = vec![to.to_string()];
                        let mut cur = to;
                        while let Some(&p) = parent.get(cur) {
                            path.push(p.to_string());
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push(b);
                }
            }
        }
        None
    }
}

/// Everything the flow pass produced.
#[derive(Debug, Default)]
pub struct FlowReport {
    /// Findings, attributed to file indices in the input slice.
    pub findings: Vec<(usize, Finding)>,
    /// `(file index, allow index)` pairs consumed by edge pruning.
    pub consumed: BTreeSet<(usize, usize)>,
    /// The static lock-order graph, for the witness cross-check.
    pub graph: LockGraph,
}

/// One function with its attributed sites.
struct FnData {
    file: usize,
    name: String,
    in_test: bool,
    has_body: bool,
    returns_result: bool,
    acqs: Vec<(Acquisition, String)>,
    calls: Vec<CallSite>,
    blocking: Vec<BlockingSite>,
}

/// Runs every enabled flow rule over the workspace.
pub fn analyze_flow(files: &[FileFlow], enabled: &[RuleId]) -> FlowReport {
    let mut report = FlowReport::default();

    // ---- Per-file extraction -------------------------------------------
    let per_file: Vec<_> = files
        .iter()
        .map(|f| {
            let fns = scope::fn_items(f.lexed);
            let decls = scope::class_decls(f.lexed, f.src, &fns);
            let acqs = scope::acquisitions(f.lexed);
            let calls = scope::call_sites(f.lexed);
            let blocking = scope::blocking_sites(f.lexed);
            (fns, decls, acqs, calls, blocking)
        })
        .collect();

    // ---- Binding → class resolution maps -------------------------------
    let mut file_bindings: Vec<BTreeMap<&str, BTreeSet<&str>>> = Vec::new();
    let mut global_bindings: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (_, decls, ..) in &per_file {
        let mut local: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for d in decls {
            report.graph.classes.insert(d.class.clone());
            if let Some(b) = &d.binding {
                local.entry(b).or_default().insert(&d.class);
                global_bindings.entry(b).or_default().insert(&d.class);
            }
        }
        file_bindings.push(local);
    }
    let resolve = |file: usize, receiver: &str| -> Option<String> {
        let plural = format!("{receiver}s");
        for name in [receiver, plural.as_str()] {
            for map in [&file_bindings[file], &global_bindings] {
                if let Some(set) = map.get(name) {
                    if set.len() == 1 {
                        return set.iter().next().map(|c| c.to_string());
                    }
                }
            }
        }
        None
    };

    // ---- Attribute sites to their innermost enclosing functions --------
    let mut fn_data: Vec<FnData> = Vec::new();
    let mut file_fns: Vec<Vec<usize>> = Vec::new();
    for (file, (fns, _, acqs, calls, blocking)) in per_file.iter().enumerate() {
        let base = fn_data.len();
        file_fns.push((base..base + fns.len()).collect());
        for item in fns {
            fn_data.push(FnData {
                file,
                name: item.name.clone(),
                in_test: item.in_test,
                has_body: item.body.is_some(),
                returns_result: item.returns_result,
                acqs: Vec::new(),
                calls: Vec::new(),
                blocking: Vec::new(),
            });
        }
        let stem = std::path::Path::new(&files[file].rel)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        for acq in acqs {
            let Some(idx) = scope::enclosing_fn(fns, acq.offset) else {
                continue;
            };
            let class =
                resolve(file, &acq.receiver).unwrap_or_else(|| format!("{}@{stem}", acq.receiver));
            fn_data[base + idx].acqs.push((acq.clone(), class));
        }
        for call in calls {
            if let Some(idx) = scope::enclosing_fn(fns, call.offset) {
                fn_data[base + idx].calls.push(call.clone());
            }
        }
        for site in blocking {
            if let Some(idx) = scope::enclosing_fn(fns, site.offset) {
                fn_data[base + idx].blocking.push(site.clone());
            }
        }
    }

    // ---- Name-resolution indexes over functions ------------------------
    let mut free_defs: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut crate_defs: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (id, f) in fn_data.iter().enumerate() {
        if f.in_test || !f.has_body {
            continue;
        }
        free_defs.entry(&f.name).or_default().push(id);
        crate_defs
            .entry((&files[f.file].crate_name, &f.name))
            .or_default()
            .push(id);
    }
    let unique_free = |name: &str| -> Option<usize> {
        match free_defs.get(name).map(Vec::as_slice) {
            Some([id]) => Some(*id),
            _ => None,
        }
    };

    // ---- Transitive closures: classes locked / blocking performed ------
    let mut locks: Vec<BTreeSet<String>> = fn_data
        .iter()
        .map(|f| f.acqs.iter().map(|(_, c)| c.clone()).collect())
        .collect();
    let mut blocks: Vec<Option<String>> = fn_data
        .iter()
        .map(|f| {
            f.blocking
                .iter()
                .find(|b| !b.condvar)
                .map(|b| b.what.clone())
        })
        .collect();
    let succ: Vec<Vec<usize>> = fn_data
        .iter()
        .map(|f| {
            let mut out: Vec<usize> = f
                .calls
                .iter()
                .filter(|c| !c.method)
                .filter_map(|c| unique_free(&c.name))
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect();
    loop {
        let mut changed = false;
        for id in 0..fn_data.len() {
            for &callee in &succ[id] {
                let extra: Vec<String> = locks[callee]
                    .iter()
                    .filter(|c| !locks[id].contains(*c))
                    .cloned()
                    .collect();
                if !extra.is_empty() {
                    changed = true;
                    locks[id].extend(extra);
                }
                if blocks[id].is_none() {
                    if let Some(inner) = &blocks[callee] {
                        blocks[id] = Some(format!("{inner} (via `{}`)", fn_data[callee].name));
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let allowed = |file: usize, rule: RuleId, line: usize| -> Option<usize> {
        files[file]
            .allows
            .iter()
            .find(|a| a.rule == rule && (a.target_line.is_none() || a.target_line == Some(line)))
            .map(|a| a.index)
    };

    // ---- Rule: lock-order ----------------------------------------------
    // Candidate edges first, so allow(lock-order) at a site can divert the
    // edge to the sanctioned set before cycle detection.
    let mut candidates: Vec<(String, String, usize, usize)> = Vec::new();
    for f in &fn_data {
        for (i, (a, a_class)) in f.acqs.iter().enumerate() {
            let in_span = |off: usize| a.span.0 <= off && off < a.span.1;
            for (b, b_class) in f.acqs.iter().skip(i + 1) {
                if in_span(b.offset) {
                    candidates.push((a_class.clone(), b_class.clone(), f.file, b.line));
                }
            }
            for call in &f.calls {
                if call.method || !in_span(call.offset) {
                    continue;
                }
                if let Some(callee) = unique_free(&call.name) {
                    for c in &locks[callee] {
                        candidates.push((a_class.clone(), c.clone(), f.file, call.line));
                    }
                }
            }
        }
    }
    for (from, to, file, line) in candidates {
        if let Some(idx) = allowed(file, RuleId::LockOrder, line) {
            report.consumed.insert((file, idx));
            report.graph.sanctioned.insert((from, to));
        } else {
            report.graph.edges.entry((from, to)).or_insert((file, line));
        }
    }
    if enabled.contains(&RuleId::LockOrder) {
        for ((from, to), &(file, line)) in &report.graph.edges {
            let message = if from == to {
                format!("lock class `{from}` is acquired while a guard on it is already live (self-deadlock)")
            } else if let Some(back) = report.graph.path(to, from) {
                format!(
                    "acquiring `{to}` while holding `{from}` closes a lock-order cycle: {}",
                    render_cycle(from, &back)
                )
            } else {
                continue;
            };
            report.findings.push((
                file,
                Finding {
                    rule: RuleId::LockOrder,
                    line,
                    message,
                    help: "acquire lock classes in one global order (or drop the outer guard \
                           first); a vetted exception needs `// dg-analyze: allow(lock-order, \
                           reason = \"…\")` on this line"
                        .into(),
                },
            ));
        }
    }

    // ---- Rule: guard-across-blocking -----------------------------------
    if enabled.contains(&RuleId::GuardAcrossBlocking) {
        for f in &fn_data {
            if !GUARD_BLOCKING_CRATES.contains(&files[f.file].crate_name.as_str()) {
                continue;
            }
            for (a, class) in &f.acqs {
                let in_span = |off: usize| a.span.0 <= off && off < a.span.1;
                for b in f
                    .blocking
                    .iter()
                    .filter(|b| !b.condvar && in_span(b.offset))
                {
                    report.findings.push((
                        f.file,
                        Finding {
                            rule: RuleId::GuardAcrossBlocking,
                            line: b.line,
                            message: format!(
                                "guard on `{class}` is live across blocking {}",
                                b.what
                            ),
                            help: "copy what you need out of the guard and drop it before \
                                   blocking"
                                .into(),
                        },
                    ));
                }
                for call in f.calls.iter().filter(|c| !c.method && in_span(c.offset)) {
                    let Some(callee) = unique_free(&call.name) else {
                        continue;
                    };
                    if let Some(desc) = &blocks[callee] {
                        report.findings.push((
                            f.file,
                            Finding {
                                rule: RuleId::GuardAcrossBlocking,
                                line: call.line,
                                message: format!(
                                    "guard on `{class}` is live across `{}()`, which performs \
                                     blocking {desc}",
                                    call.name
                                ),
                                help: "drop the guard before calling into blocking code".into(),
                            },
                        ));
                    }
                }
            }
        }
    }

    // ---- Rule: no-blocking-in-event-loop --------------------------------
    if enabled.contains(&RuleId::NoBlockingInEventLoop) {
        // Roots: functions that pump an epoll poller.
        let mut queue: Vec<usize> = Vec::new();
        let mut origin: BTreeMap<usize, (usize, Option<usize>)> = BTreeMap::new(); // fn -> (root, parent)
        for (id, f) in fn_data.iter().enumerate() {
            if f.in_test || files[f.file].crate_name != EVENT_LOOP_CRATE {
                continue;
            }
            if f.blocking
                .iter()
                .any(|b| b.condvar && b.receiver.as_deref() == Some("poller"))
            {
                origin.insert(id, (id, None));
                queue.push(id);
            }
        }
        while let Some(id) = queue.pop() {
            let (root, _) = origin[&id];
            let crate_name = files[fn_data[id].file].crate_name.as_str();
            for call in &fn_data[id].calls {
                if METHOD_STOPLIST.contains(&call.name.as_str()) {
                    continue;
                }
                let Some(defs) = crate_defs.get(&(crate_name, call.name.as_str())) else {
                    continue;
                };
                if defs.len() > MAX_NAME_FANOUT {
                    continue;
                }
                if let Some(idx) =
                    allowed(fn_data[id].file, RuleId::NoBlockingInEventLoop, call.line)
                {
                    // An allow on the call line vouches for everything
                    // beyond this dispatch edge.
                    report.consumed.insert((fn_data[id].file, idx));
                    continue;
                }
                for &callee in defs {
                    if let std::collections::btree_map::Entry::Vacant(slot) = origin.entry(callee) {
                        slot.insert((root, Some(id)));
                        queue.push(callee);
                    }
                }
            }
        }
        let mut seen: BTreeSet<(usize, usize, String)> = BTreeSet::new();
        let mut reached: Vec<usize> = origin.keys().copied().collect();
        reached.sort_unstable();
        for id in reached {
            let f = &fn_data[id];
            let via = render_path(&fn_data, &origin, id);
            for b in &f.blocking {
                if b.condvar && b.receiver.as_deref() == Some("poller") {
                    continue; // the pump itself
                }
                let what = if b.condvar {
                    format!("parking on {}", b.what)
                } else {
                    b.what.clone()
                };
                if seen.insert((f.file, b.line, what.clone())) {
                    report.findings.push((
                        f.file,
                        Finding {
                            rule: RuleId::NoBlockingInEventLoop,
                            line: b.line,
                            message: format!(
                                "blocking {what} is reachable from the event loop ({via})"
                            ),
                            help: "move the work to the worker pool, or excuse the dispatch \
                                   edge with `// dg-analyze: allow(no-blocking-in-event-loop, \
                                   reason = \"…\")` on the call line"
                                .into(),
                        },
                    ));
                }
            }
            for call in f.calls.iter().filter(|c| !c.method) {
                let Some(callee) = unique_free(&call.name) else {
                    continue;
                };
                if files[fn_data[callee].file].crate_name == EVENT_LOOP_CRATE {
                    continue; // already walked directly
                }
                if let Some(desc) = &blocks[callee] {
                    let what = format!("`{}()` → {desc}", call.name);
                    if seen.insert((f.file, call.line, what.clone())) {
                        report.findings.push((
                            f.file,
                            Finding {
                                rule: RuleId::NoBlockingInEventLoop,
                                line: call.line,
                                message: format!(
                                    "blocking {what} is reachable from the event loop ({via})"
                                ),
                                help: "move the work to the worker pool, or excuse the \
                                       dispatch edge with `// dg-analyze: \
                                       allow(no-blocking-in-event-loop, reason = \"…\")` on \
                                       the call line"
                                    .into(),
                            },
                        ));
                    }
                }
            }
        }
    }

    // ---- Rule: swallowed-result ----------------------------------------
    if enabled.contains(&RuleId::SwallowedResult) {
        let mut result_fns: BTreeMap<&str, (usize, usize)> = BTreeMap::new(); // name -> (defs, result defs)
        for f in &fn_data {
            if f.in_test {
                continue;
            }
            let e = result_fns.entry(&f.name).or_default();
            e.0 += 1;
            if f.returns_result {
                e.1 += 1;
            }
        }
        for (file, flow) in files.iter().enumerate() {
            if !flow.is_lib || !crate::NO_PANIC_CRATES.contains(&flow.crate_name.as_str()) {
                continue;
            }
            let (_, _, _, calls, _) = &per_file[file];
            for (line, rhs) in discard_sites(flow.lexed) {
                let culprit = calls
                    .iter()
                    .filter(|c| rhs.0 <= c.offset && c.offset < rhs.1)
                    .find(|c| {
                        !SWALLOW_STOPLIST.contains(&c.name.as_str())
                            && matches!(
                                result_fns.get(c.name.as_str()),
                                Some((defs, res)) if *defs > 0 && defs == res
                            )
                    });
                if let Some(c) = culprit {
                    report.findings.push((
                        file,
                        Finding {
                            rule: RuleId::SwallowedResult,
                            line,
                            message: format!(
                                "`let _ =` discards the `Result` returned by `{}`",
                                c.name
                            ),
                            help: "handle the error (log, count, or propagate); a deliberate \
                                   discard needs `// dg-analyze: allow(swallowed-result, \
                                   reason = \"…\")`"
                                .into(),
                        },
                    ));
                }
            }
        }
    }

    report
}

/// `let _ = …;` sites: yields `(line, RHS byte span)` per discard.
fn discard_sites(lexed: &Lexed) -> Vec<(usize, (usize, usize))> {
    let masked = &lexed.masked;
    let bytes = masked.as_bytes();
    let ids = idents(masked);
    let mut out = Vec::new();
    for (i, &(s, e)) in ids.iter().enumerate() {
        if &masked[s..e] != "let" {
            continue;
        }
        let Some(&(us, ue)) = ids.get(i + 1) else {
            continue;
        };
        if &masked[us..ue] != "_" {
            continue;
        }
        let Some((eq, b'=')) = next_nonspace(bytes, ue) else {
            continue;
        };
        if bytes.get(eq + 1) == Some(&b'=') {
            continue;
        }
        let line = lexed.line_of(s);
        if lexed.is_test_line(line) {
            continue;
        }
        let end = scope::statement_end(bytes, eq + 1);
        out.push((line, (eq + 1, end)));
    }
    out
}

/// `a → b → … → a`, given the path `b ⇝ a` and the closing edge `a → b`.
fn render_cycle(from: &str, back: &[String]) -> String {
    let mut parts = vec![from.to_string()];
    parts.extend(back.iter().cloned());
    parts.push(from.to_string());
    parts.join(" → ")
}

/// `root → … → f` over the BFS parent map.
fn render_path(
    fns: &[FnData],
    origin: &BTreeMap<usize, (usize, Option<usize>)>,
    id: usize,
) -> String {
    let mut chain = vec![fns[id].name.clone()];
    let mut cur = id;
    while let Some(&(_, Some(parent))) = origin.get(&cur) {
        chain.push(fns[parent].name.clone());
        cur = parent;
    }
    chain.reverse();
    if chain.len() == 1 {
        format!("in pump fn `{}`", chain[0])
    } else {
        format!("via `{}`", chain.join(" → "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, Lexed};

    fn file<'a>(crate_name: &str, rel: &str, lexed: &'a Lexed, src: &'a str) -> FileFlow<'a> {
        FileFlow {
            crate_name: crate_name.into(),
            rel: rel.into(),
            is_lib: true,
            lexed,
            src,
            allows: Vec::new(),
        }
    }

    #[test]
    fn opposite_nesting_orders_form_a_cycle() {
        let src = r#"
            fn setup() {
                let a = TrackedMutex::new("t.a", 0);
                let b = TrackedMutex::new("t.b", 0);
            }
            fn ab() { let g = a.lock(); b.lock().clone(); }
            fn ba() { let g = b.lock(); a.lock().clone(); }
        "#;
        let lexed = lex(src);
        let files = [file("dg-engine", "src/x.rs", &lexed, src)];
        let report = analyze_flow(&files, &[RuleId::LockOrder]);
        assert_eq!(report.graph.edges.len(), 2);
        assert_eq!(report.findings.len(), 2);
        assert!(report.findings[0].1.message.contains("cycle"));
    }

    #[test]
    fn consistent_nesting_order_is_clean() {
        let src = r#"
            fn setup() {
                let a = TrackedMutex::new("t.a", 0);
                let b = TrackedMutex::new("t.b", 0);
            }
            fn ab1() { let g = a.lock(); b.lock().clone(); }
            fn ab2() { let g = a.lock(); b.lock().clone(); }
        "#;
        let lexed = lex(src);
        let files = [file("dg-engine", "src/x.rs", &lexed, src)];
        let report = analyze_flow(&files, &[RuleId::LockOrder]);
        assert_eq!(report.graph.edges.len(), 1);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn self_nesting_is_a_self_deadlock() {
        let src = r#"
            fn setup() { let a = TrackedMutex::new("t.a", 0); }
            fn bad() { let g = a.lock(); a.lock().clone(); }
        "#;
        let lexed = lex(src);
        let files = [file("dg-engine", "src/x.rs", &lexed, src)];
        let report = analyze_flow(&files, &[RuleId::LockOrder]);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].1.message.contains("self-deadlock"));
    }

    #[test]
    fn lock_order_propagates_through_unique_free_calls() {
        let src = r#"
            fn setup() {
                let a = TrackedMutex::new("t.a", 0);
                let b = TrackedMutex::new("t.b", 0);
            }
            fn inner_lock() { b.lock().clone(); }
            fn outer() { let g = a.lock(); inner_lock(); }
            fn reverse() { let g = b.lock(); a.lock().clone(); }
        "#;
        let lexed = lex(src);
        let files = [file("dg-engine", "src/x.rs", &lexed, src)];
        let report = analyze_flow(&files, &[RuleId::LockOrder]);
        assert!(report
            .graph
            .edges
            .contains_key(&("t.a".to_string(), "t.b".to_string())));
        assert_eq!(report.findings.len(), 2);
    }

    #[test]
    fn sanctioned_edges_leave_cycle_detection_but_still_explain() {
        let src = r#"
            fn setup() {
                let a = TrackedMutex::new("t.a", 0);
                let b = TrackedMutex::new("t.b", 0);
            }
            fn ab() { let g = a.lock(); b.lock().clone(); }
            fn ba() {
                let g = b.lock();
                // dg-analyze: allow(lock-order, reason = "vetted")
                a.lock().clone();
            }
        "#;
        let lexed = lex(src);
        let mut f = file("dg-engine", "src/x.rs", &lexed, src);
        let (allows, _) = crate::allow::collect_allows(&lexed);
        f.allows = allows
            .iter()
            .enumerate()
            .map(|(i, a)| FlowAllow {
                index: i,
                rule: RuleId::parse(&a.rule).expect("rule"),
                target_line: a.target_line,
            })
            .collect();
        let files = [f];
        let report = analyze_flow(&files, &[RuleId::LockOrder]);
        assert!(report.findings.is_empty());
        assert_eq!(report.consumed.len(), 1);
        assert!(report.graph.explains("t.b", "t.a"));
        assert!(!report
            .graph
            .edges
            .contains_key(&("t.b".into(), "t.a".into())));
    }

    #[test]
    fn guard_across_blocking_flags_io_under_guard() {
        let src = r#"
            fn setup() { let state = TrackedMutex::new("s.state", 0); }
            fn bad(path: &Path) {
                let g = state.lock();
                let text = std::fs::read_to_string(path);
            }
            fn good(path: &Path) {
                let text = std::fs::read_to_string(path);
                let g = state.lock();
            }
        "#;
        let lexed = lex(src);
        let files = [file("dg-serve", "src/x.rs", &lexed, src)];
        let report = analyze_flow(&files, &[RuleId::GuardAcrossBlocking]);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].1.message.contains("s.state"));
    }

    #[test]
    fn guard_across_blocking_sees_through_unique_free_calls() {
        let src = r#"
            fn setup() { let state = TrackedMutex::new("s.state", 0); }
            fn load_from_disk(p: &Path) -> Vec<u8> { std::fs::read(p).unwrap_or_default() }
            fn bad(p: &Path) { let g = state.lock(); load_from_disk(p); }
        "#;
        let lexed = lex(src);
        let files = [file("dg-pdn", "src/x.rs", &lexed, src)];
        let report = analyze_flow(&files, &[RuleId::GuardAcrossBlocking]);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].1.message.contains("load_from_disk"));
    }

    #[test]
    fn condvar_wait_is_not_guard_across_blocking() {
        let src = r#"
            fn setup() { let state = TrackedMutex::new("s.state", 0); }
            fn pop() { let mut g = state.lock(); g = available.wait(g); }
        "#;
        let lexed = lex(src);
        let files = [file("dg-serve", "src/x.rs", &lexed, src)];
        let report = analyze_flow(&files, &[RuleId::GuardAcrossBlocking]);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn event_loop_reachability_flags_blocking_and_respects_allows() {
        let src = r#"
            fn run(&mut self) {
                let n = self.poller.wait(&mut events);
                self.dispatch(0);
                // dg-analyze: allow(no-blocking-in-event-loop, reason = "inline path is vetted")
                self.excused(1);
            }
            fn dispatch(&self, t: usize) { self.slow_path(t); }
            fn slow_path(&self, t: usize) { std::fs::read("x"); }
            fn excused(&self, t: usize) { std::thread::sleep(d); }
        "#;
        let lexed = lex(src);
        let mut f = file("dg-serve", "src/server.rs", &lexed, src);
        let (allows, _) = crate::allow::collect_allows(&lexed);
        f.allows = allows
            .iter()
            .enumerate()
            .map(|(i, a)| FlowAllow {
                index: i,
                rule: RuleId::parse(&a.rule).expect("rule"),
                target_line: a.target_line,
            })
            .collect();
        let files = [f];
        let report = analyze_flow(&files, &[RuleId::NoBlockingInEventLoop]);
        // fs::read in slow_path is reachable; sleep in excused is pruned.
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].1.message.contains("fs::read"));
        assert!(report.findings[0]
            .1
            .message
            .contains("run → dispatch → slow_path"));
        assert_eq!(report.consumed.len(), 1);
    }

    #[test]
    fn swallowed_result_flags_workspace_fns_only() {
        let src = r#"
            fn save(p: &Path) -> Result<(), String> { Ok(()) }
            fn count(x: usize) -> usize { x }
            fn f(p: &Path) {
                let _ = save(p);
                let _ = count(1);
                let _ = std::fs::remove_file(p);
            }
        "#;
        let lexed = lex(src);
        let files = [file("dg-pdn", "src/x.rs", &lexed, src)];
        let report = analyze_flow(&files, &[RuleId::SwallowedResult]);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].1.message.contains("`save`"));
    }
}
