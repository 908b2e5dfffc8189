//! Reproduction self-check: runs every experiment and grades each of the
//! paper's headline claims PASS/FAIL with measured-vs-paper values.
//!
//! Run: `cargo run --release -p dg-bench --bin validate [--threads N]`
//!
//! The grading itself lives in [`darkgates::claims`] (shared with
//! `dg-serve`'s `GET /v1/claims`): the figure datasets are computed
//! exactly once up front, then the twelve claim graders run concurrently
//! and are collected in submission order, so the report is identical for
//! any thread count. Exit code 0 when every claim holds, 1 otherwise.

use darkgates::claims::{self, ClaimData};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let _threads = dg_bench::apply_thread_overrides(&args);

    #[expect(
        clippy::disallowed_methods,
        reason = "reports elapsed wall time in the footer only; no grading result depends on it"
    )]
    let started = std::time::Instant::now();
    let eval = ClaimData::compute();
    let graded = claims::grade(&eval);
    let elapsed = started.elapsed();

    // Report. The scoreboard is the same reduction dg-chaos's oracle
    // applies to the served claims payload.
    let board = dg_bench::print_graded("DarkGates reproduction self-check", &graded);
    println!(
        "{}/{} claims hold ({} worker thread(s), {:.1} ms)",
        board.passed,
        board.total,
        dg_engine::num_threads(),
        elapsed.as_secs_f64() * 1e3,
    );
    if !board.all_pass() {
        std::process::exit(1);
    }
}
