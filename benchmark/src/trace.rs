//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each client
//! request and each layer call it times; nothing inside the serve tier is
//! instrumented. They are written to `trace.json` when the run ends.

use crate::clock;
use dg_serve::json::{obj, Json};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran: a route path for client requests, a layer metric name
    /// for layer calls.
    pub name: String,
    /// Unique within the run.
    pub id: u64,
    /// The span this one ran inside.
    pub parent: Option<u64>,
    /// The client request it belongs to (its index in the schedule).
    pub request: Option<u64>,
    /// Start, µs since the tracer was created.
    pub start_us: u64,
    /// End, µs since the tracer was created.
    pub end_us: u64,
}

/// Collects spans when enabled; every call is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            epoch: clock::now(),
            enabled,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Builds a span over `[start, end]` without storing it (callers on
    /// hot paths batch them through [`Tracer::extend`]).
    pub fn span_at(
        &self,
        name: &str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            name: name.to_owned(),
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            request,
            start_us: clock::us_between(self.epoch, start),
            end_us: clock::us_between(self.epoch, end),
        }
    }

    /// Stores spans.
    pub fn extend(&self, spans: Vec<Span>) {
        if self.enabled && !spans.is_empty() {
            self.spans
                .lock()
                .expect("no thread panics while holding the span lock")
                .extend(spans);
        }
    }

    /// Opens a span now; close it with [`Tracer::close`]. Its
    /// [`Open::id`] is the parent of spans recorded inside it.
    pub fn open(&self, name: &str, parent: Option<u64>) -> Open {
        Open {
            name: name.to_owned(),
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            start: clock::now(),
        }
    }

    /// Closes an open span and stores it.
    pub fn close(&self, open: Open) {
        let span = Span {
            name: open.name,
            id: open.id,
            parent: open.parent,
            request: None,
            start_us: clock::us_between(self.epoch, open.start),
            end_us: clock::us_since(self.epoch),
        };
        self.extend(vec![span]);
    }

    /// Runs `f` inside a span; `f` receives the span's id as the parent
    /// of any spans it records.
    pub fn time<R>(&self, name: &str, parent: Option<u64>, f: impl FnOnce(Option<u64>) -> R) -> R {
        let open = self.open(name, parent);
        let out = f(Some(open.id()));
        self.close(open);
        out
    }

    /// Every stored span, by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span lock")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// A span that has started but not ended.
#[derive(Debug)]
pub struct Open {
    name: String,
    id: u64,
    parent: Option<u64>,
    start: Instant,
}

impl Open {
    /// The id children use as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Per-name totals: `(count, total µs, self µs)`, where a span's self
/// time is its duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (usize, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    let mut out: BTreeMap<String, (usize, u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_us.saturating_sub(s.start_us);
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_us(c, s.start_us, s.end_us));
        let entry = out.entry(s.name.clone()).or_default();
        entry.0 += 1;
        entry.1 += total;
        entry.2 += total.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_us(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// The span file: every span plus the per-name self-time table.
pub fn to_json(spans: &[Span]) -> Json {
    let num = |v: u64| Json::Num(v as f64);
    let opt = |v: Option<u64>| v.map_or(Json::Null, num);
    let list = spans
        .iter()
        .map(|s| {
            obj(vec![
                ("name", Json::Str(s.name.clone())),
                ("id", num(s.id)),
                ("parent", opt(s.parent)),
                ("request", opt(s.request)),
                ("start_us", num(s.start_us)),
                ("end_us", num(s.end_us)),
            ])
        })
        .collect();
    let table = self_times(spans)
        .into_iter()
        .map(|(name, (count, total, own))| {
            obj(vec![
                ("name", Json::Str(name)),
                ("count", num(count as u64)),
                ("total_us", num(total)),
                ("self_us", num(own)),
            ])
        })
        .collect();
    obj(vec![
        ("self_times", Json::Arr(table)),
        ("spans", Json::Arr(list)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_us: u64, end_us: u64) -> Span {
        Span {
            name: format!("s{}", u64::from(parent.is_some())),
            id,
            parent,
            request: None,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            span(4, Some(1), 90, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t["s0"], (1, 100, 100 - 40 - 10));
        assert_eq!(t["s1"], (3, 30 + 20 + 30, 80));
    }
}
