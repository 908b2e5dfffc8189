//! Load generation: closed-loop connections and the open-loop generator.
//!
//! Every load loop uses at most [`CONNECTIONS`] client threads, each with one
//! keep-alive connection opened before the clock starts.

use crate::client::{Conn, Exchange};
use crate::clock;
use crate::trace::{Span, Tracer};
use crate::workload::Req;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

#[cfg(doc)]
use crate::workload::CONNECTIONS;

/// One request of a load loop's schedule.
#[derive(Debug, Clone, Copy)]
pub struct Job<'a> {
    /// The request.
    pub req: &'a Req,
    /// Repeats of one class must get byte-identical bodies; the first
    /// body of each class is kept for the oracle (`None`: no class).
    pub class: Option<usize>,
    /// Keep this request's body for the oracle.
    pub keep: bool,
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Send to last byte (closed loop) or due time to last byte (open
    /// loop), ns.
    pub latency_ns: u64,
    /// Send to the first complete body line, ns.
    pub first_line_ns: u64,
    /// Work units the request carried.
    pub work: u64,
    /// Whether it was a streaming route.
    pub streaming: bool,
}

/// What one load loop saw.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Answered requests (2xx and a well-formed result line).
    pub samples: Vec<Sample>,
    /// Requests attempted.
    pub attempted: usize,
    /// Transport errors, non-2xx replies and error result lines.
    pub failures: usize,
    /// Repeats whose body differed from the first body of their class.
    pub mismatches: usize,
    /// First body seen per class.
    pub class_bodies: BTreeMap<usize, Vec<u8>>,
    /// Bodies of the jobs marked `keep`, by job index.
    pub kept: BTreeMap<usize, Vec<u8>>,
    /// Generator lateness per open-loop send, ns (empty for closed loops).
    pub lateness_ns: Vec<u64>,
    /// Wall time of the timed window.
    pub elapsed: Duration,
}

impl Outcome {
    fn absorb(&mut self, other: Outcome) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failures += other.failures;
        self.mismatches += other.mismatches;
        for (class, body) in other.class_bodies {
            match self.class_bodies.get(&class) {
                Some(first) if *first != body => self.mismatches += 1,
                Some(_) => {}
                None => {
                    self.class_bodies.insert(class, body);
                }
            }
        }
        self.kept.extend(other.kept);
        self.lateness_ns.extend(other.lateness_ns);
    }

    /// Failures plus body mismatches.
    pub fn failed(&self) -> usize {
        self.failures + self.mismatches
    }
}

/// Whether a reply answered its request: a 2xx, and for a streaming
/// route a result line that reports success.
fn answered(req: &Req, ex: &Exchange) -> bool {
    (200..300).contains(&ex.status)
        && (!req.streaming
            || result_line(&ex.body).is_some_and(|line| line.starts_with(b"{\"ok\":true")))
}

/// The last line of a streamed NDJSON body (the result line).
pub fn result_line(body: &[u8]) -> Option<&[u8]> {
    let body = body.strip_suffix(b"\n")?;
    Some(match body.iter().rposition(|&b| b == b'\n') {
        Some(i) => &body[i + 1..],
        None => body,
    })
}

/// Per-thread bookkeeping shared by both loops.
struct Recorder<'t> {
    out: Outcome,
    spans: Vec<Span>,
    tracer: &'t Tracer,
    parent: Option<u64>,
}

impl<'t> Recorder<'t> {
    fn new(tracer: &'t Tracer, parent: Option<u64>) -> Self {
        Recorder {
            out: Outcome::default(),
            spans: Vec::new(),
            tracer,
            parent,
        }
    }

    /// Books one attempt; `due` is the open-loop schedule time.
    fn record(
        &mut self,
        index: usize,
        job: &Job<'_>,
        due: Option<Instant>,
        result: std::io::Result<Exchange>,
    ) {
        self.out.attempted += 1;
        let ex = match result {
            Ok(ex) if answered(job.req, &ex) => ex,
            _ => {
                self.out.failures += 1;
                return;
            }
        };
        let start = due.unwrap_or(ex.sent);
        self.out.samples.push(Sample {
            latency_ns: clock::ns_between(start, ex.done),
            first_line_ns: clock::ns_between(ex.sent, ex.first_line),
            work: job.req.work,
            streaming: job.req.streaming,
        });
        if self.tracer.enabled() {
            self.spans.push(self.tracer.span_at(
                job.req.path,
                self.parent,
                Some(index as u64),
                start,
                ex.done,
            ));
        }
        if let Some(class) = job.class {
            match self.out.class_bodies.get(&class) {
                Some(first) if *first != ex.body => self.out.mismatches += 1,
                Some(_) => {}
                None => {
                    self.out.class_bodies.insert(class, ex.body);
                    return;
                }
            }
        }
        if job.keep {
            self.out.kept.insert(index, ex.body);
        }
    }

    fn finish(self) -> Outcome {
        self.tracer.extend(self.spans);
        self.out
    }
}

/// Runs `jobs` closed-loop over `connections` keep-alive connections:
/// each connection sends its next job as soon as the previous reply is
/// complete.
pub fn closed_loop(
    addr: SocketAddr,
    jobs: &[Job<'_>],
    connections: usize,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Outcome {
    let connections = connections.max(1);
    let cursor = AtomicUsize::new(0);
    let barrier = Barrier::new(connections + 1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(|| {
                    let mut conn = Conn::new(addr);
                    // A failed early connect surfaces on the first timed send.
                    let _ = conn.connect();
                    barrier.wait();
                    closed_worker(&mut conn, jobs, &cursor, tracer, parent)
                })
            })
            .collect();
        barrier.wait();
        let start = clock::now();
        let mut out = Outcome::default();
        for worker in workers {
            out.absorb(worker.join().expect("load threads do not panic"));
        }
        out.elapsed = start.elapsed();
        out
    })
}

/// One closed-loop connection: claims jobs off the shared cursor until
/// none remain.
fn closed_worker(
    conn: &mut Conn,
    jobs: &[Job<'_>],
    cursor: &AtomicUsize,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Outcome {
    let mut rec = Recorder::new(tracer, parent);
    loop {
        let i = cursor.fetch_add(1, Ordering::SeqCst);
        let Some(job) = jobs.get(i) else {
            break;
        };
        let result = conn.send(&job.req.wire);
        rec.record(i, job, None, result);
    }
    rec.finish()
}

/// The mixed workload: one connection sends `menu_jobs` open-loop at
/// `rate` requests per second (cycling through them) while a second runs
/// `sweep_jobs` closed-loop. The window ends when the sweeps are done.
///
/// Returns `(open-loop side, closed-loop side)`. Open-loop latency runs
/// from each request's due time, so a stall also counts against the
/// requests queued behind it; lateness is how far a send trailed its due
/// time while the connection was free.
pub fn mixed(
    addr: SocketAddr,
    menu_jobs: &[Job<'_>],
    rate: f64,
    sweep_jobs: &[Job<'_>],
    tracer: &Tracer,
    parent: Option<u64>,
) -> (Outcome, Outcome) {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(3);
    let period = Duration::from_secs_f64(1.0 / rate.max(1.0));
    std::thread::scope(|scope| {
        let open = scope.spawn(|| {
            let mut conn = Conn::new(addr);
            let _ = conn.connect();
            barrier.wait();
            let start = clock::now();
            let mut rec = Recorder::new(tracer, parent);
            let mut prev_done = start;
            for (n, job) in menu_jobs.iter().cycle().enumerate() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let due = start + period * u32::try_from(n).unwrap_or(u32::MAX);
                let now = clock::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let result = conn.send(&job.req.wire);
                if let Ok(ex) = &result {
                    rec.out
                        .lateness_ns
                        .push(clock::ns_between(due.max(prev_done), ex.sent));
                    prev_done = ex.done;
                }
                rec.record(n % menu_jobs.len().max(1), job, Some(due), result);
            }
            rec.finish()
        });
        let closed = scope.spawn(|| {
            let mut conn = Conn::new(addr);
            let _ = conn.connect();
            let cursor = AtomicUsize::new(0);
            barrier.wait();
            let start = clock::now();
            let mut out = closed_worker(&mut conn, sweep_jobs, &cursor, tracer, parent);
            out.elapsed = start.elapsed();
            stop.store(true, Ordering::SeqCst);
            out
        });
        barrier.wait();
        let closed = closed.join().expect("closed-loop side does not panic");
        let mut open = open.join().expect("open-loop side does not panic");
        open.elapsed = closed.elapsed;
        (open, closed)
    })
}
