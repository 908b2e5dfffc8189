//! One workload against one serving address: inputs, load, oracles.
//!
//! Nothing here knows whether the address is a spawned fleet or an
//! in-process server, so the tests drive the same code at tiny sizes.

use crate::client::Conn;
use crate::drive::{self, Job, Outcome};
use crate::oracle::{self, HotOracle};
use crate::trace::Tracer;
use crate::workload::{self, Plan, Req, Rng, Workload, CONNECTIONS};
use std::net::SocketAddr;

/// Every explore-stream body with an index divisible by this is checked
/// against the library.
pub const EXPLORE_CHECK_EVERY: usize = 8;

/// The generated inputs of one repetition.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The hot-mix menu (also the warm-up pass of every workload).
    pub menu: Vec<Req>,
    /// Menu indices in send order (hot-mix, and mixed's open loop).
    pub hot: Vec<usize>,
    /// Distinct sweep grids (sweep-stream and mixed).
    pub sweeps: Vec<Req>,
    /// Distinct explore specs (explore-stream).
    pub explores: Vec<Req>,
}

impl Inputs {
    /// Draws the inputs of `workload` for repetition `rep` of `seed`.
    pub fn generate(workload: Workload, seed: u64, rep: usize, plan: Plan) -> Inputs {
        let salt = workload
            .name()
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b)));
        let mut rng = Rng::new(
            seed ^ salt.rotate_left(17) ^ (rep as u64).wrapping_mul(0xA076_1D64_78BD_642F),
        );
        let menu = workload::hot_menu();
        let (hot, sweeps, explores) = match workload {
            Workload::HotMix => (
                workload::hot_sequence(&mut rng, menu.len(), plan.requests),
                Vec::new(),
                Vec::new(),
            ),
            Workload::SweepStream => (
                Vec::new(),
                workload::sweep_requests(&mut rng, plan.requests),
                Vec::new(),
            ),
            Workload::ExploreStream => (
                Vec::new(),
                Vec::new(),
                workload::explore_requests(&mut rng, plan.requests),
            ),
            Workload::Mixed => {
                // Enough distinct menu draws for the open loop to cycle
                // through without an obvious period.
                let hot = workload::hot_sequence(&mut rng, menu.len(), 4_096);
                (
                    hot,
                    workload::sweep_requests(&mut rng, plan.requests),
                    Vec::new(),
                )
            }
        };
        Inputs {
            menu,
            hot,
            sweeps,
            explores,
        }
    }

    fn explore_jobs(&self) -> Vec<Job<'_>> {
        self.explores
            .iter()
            .enumerate()
            .map(|(i, req)| Job {
                req,
                class: None,
                keep: i % EXPLORE_CHECK_EVERY == 0,
            })
            .collect()
    }
}

/// Jobs for menu entries in `seq` order; repeats of an entry must match.
pub fn hot_jobs<'a>(menu: &'a [Req], seq: &[usize]) -> Vec<Job<'a>> {
    seq.iter()
        .filter_map(|&m| {
            menu.get(m).map(|req| Job {
                req,
                class: Some(m),
                keep: false,
            })
        })
        .collect()
}

/// Jobs for sweep grids; every body is kept for the oracle.
pub fn sweep_jobs(sweeps: &[Req]) -> Vec<Job<'_>> {
    sweeps
        .iter()
        .map(|req| Job {
            req,
            class: None,
            keep: true,
        })
        .collect()
}

/// One pass over the menu on one connection, so every cache holds every
/// menu key before timing starts. Returns `(attempted, failed)`.
pub fn warm_up(addr: SocketAddr, menu: &[Req]) -> (usize, usize) {
    let mut conn = Conn::new(addr);
    let failed = menu
        .iter()
        .filter(|req| {
            !conn
                .send(&req.wire)
                .is_ok_and(|ex| (200..300).contains(&ex.status))
        })
        .count();
    (menu.len(), failed)
}

/// What the timed window produced.
#[derive(Debug, Default)]
pub struct Drove {
    /// The measured side: every request, or mixed's open-loop menu side.
    pub main: Outcome,
    /// Mixed's closed-loop sweep side.
    pub side: Option<Outcome>,
}

impl Drove {
    /// Requests attempted on both sides.
    pub fn attempted(&self) -> usize {
        self.main.attempted + self.side.as_ref().map_or(0, |s| s.attempted)
    }

    /// Failed requests and body mismatches on both sides.
    pub fn failed(&self) -> usize {
        self.main.failed() + self.side.as_ref().map_or(0, Outcome::failed)
    }

    /// The side carrying the workload's streaming work: the sweeps on
    /// mixed, everything elsewhere.
    pub fn streaming_side(&self) -> &Outcome {
        self.side.as_ref().unwrap_or(&self.main)
    }
}

/// Runs the timed window of `workload` against `addr`.
pub fn drive(
    addr: SocketAddr,
    workload: Workload,
    inputs: &Inputs,
    plan: Plan,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Drove {
    match workload {
        Workload::HotMix => Drove {
            main: drive::closed_loop(
                addr,
                &hot_jobs(&inputs.menu, &inputs.hot),
                CONNECTIONS,
                tracer,
                parent,
            ),
            side: None,
        },
        Workload::SweepStream => Drove {
            main: drive::closed_loop(
                addr,
                &sweep_jobs(&inputs.sweeps),
                CONNECTIONS,
                tracer,
                parent,
            ),
            side: None,
        },
        Workload::ExploreStream => Drove {
            main: drive::closed_loop(addr, &inputs.explore_jobs(), CONNECTIONS, tracer, parent),
            side: None,
        },
        Workload::Mixed => {
            let (open, closed) = drive::mixed(
                addr,
                &hot_jobs(&inputs.menu, &inputs.hot),
                plan.open_loop_rps,
                &sweep_jobs(&inputs.sweeps),
                tracer,
                parent,
            );
            Drove {
                main: open,
                side: Some(closed),
            }
        }
    }
}

/// Runs every oracle that applies to `workload`; one message per
/// mismatch.
pub fn verify(workload: Workload, inputs: &Inputs, drove: &Drove, hot: &HotOracle) -> Vec<String> {
    let mut errors = Vec::new();
    if matches!(workload, Workload::HotMix | Workload::Mixed) {
        errors.extend(hot.check(&inputs.menu, &drove.main.class_bodies));
    }
    let side = drove.streaming_side();
    for (&i, body) in &side.kept {
        let checked = match workload {
            Workload::SweepStream | Workload::Mixed => inputs
                .sweeps
                .get(i)
                .map(|req| oracle::check_sweep(req, body)),
            Workload::ExploreStream => inputs
                .explores
                .get(i)
                .map(|req| oracle::check_explore(req, body)),
            Workload::HotMix => None,
        };
        if let Some(Err(e)) = checked {
            errors.push(e);
        }
    }
    errors
}
