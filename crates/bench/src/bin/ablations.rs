//! Grades the six ablations: each removes one DarkGates design choice and
//! checks that what breaks, or what it costs, is what the paper argues.
//!
//! Run: `cargo run --release -p dg-bench --bin ablations` (no flags)
//!
//! The values come from [`darkgates::experiments::ablations`] and the pass
//! rules from [`darkgates::claims::grade_ablations`]. Exit code 0 when
//! every ablation holds, 1 otherwise.

fn main() {
    let graded = darkgates::claims::grade_ablations(&darkgates::experiments::ablations());
    let board = dg_bench::print_graded("DarkGates ablations", &graded);
    println!("{}/{} ablations hold", board.passed, board.total);
    if !board.all_pass() {
        std::process::exit(1);
    }
}
