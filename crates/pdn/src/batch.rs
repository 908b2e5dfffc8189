//! Register-blocked transient kernel with explicit-SIMD lanes.
//!
//! Sweeps integrate hundreds of independent load-step scenarios ("lanes")
//! against the *same* ladder. This module takes the lanes four at a time,
//! in 4-lane blocks, then runs the remainder as single `f64` lanes, and
//! carries each block through the whole simulated window before starting
//! the next. A block's state, its RK4 stages and the coefficient splats
//! live in local `[L; N]` arrays, where `L` is the lane type and `N` is
//! the ladder's chain-node count as a const generic (instantiated for
//! `1..=MAX_NODES`), so the hot loop is straight-line vector arithmetic
//! on registers rather than passes over memory.
//!
//! There is one data path and two builds of it: [`uses_avx2`] picks, once
//! per batch, between the build compiled under
//! `#[target_feature(enable = "avx2")]` and the portable one. Every lane
//! operation is a pure per-element IEEE-754 expression in the same form
//! and order as [`LadderCoeffs::derivative`] and the classical RK4 update —
//! lanes never mix, nothing fuses into FMA — so every lane is
//! bit-identical in every block position, in either build.
//!
//! A lane that reaches the settle band retires: a per-lane mask stops its
//! bookkeeping, and the block stops once every lane has retired.
//!
//! This is also the *only* kernel: [`TransientSim::run`] is a thin wrapper
//! over a 1-lane batch, so there is exactly one integration loop to
//! optimize and test.

use crate::ladder::Ladder;
use crate::simd::{F64x4, Lanes};
use crate::transient::{
    push_final_sample, LadderCoeffs, LoadStep, TransientResult, TransientSim, MAX_NODES,
    SETTLE_ABS_TOL_V, SETTLE_REL_TOL, SETTLE_WINDOW_S,
};
use crate::units::{Seconds, Volts};

/// Lanes in a full block (`F64x4`); sizes the per-lane bookkeeping arrays
/// that full blocks and one-lane remainders share.
const BLOCK: usize = 4;

const _: () = assert!(<F64x4 as Lanes>::WIDTH == BLOCK);

/// Settle bookkeeping for one lane, in the caller's step order.
#[derive(Debug, Clone, Copy)]
struct LaneRun {
    step: LoadStep,
    v_settle_target: f64,
    settle_tol: f64,
    settle_after: f64,
}

/// Reusable scratch for the transient kernel: the initial-state rows, the
/// lane bookkeeping, and the result records themselves (including each
/// lane's waveform `Vec`) — held together so a warm workspace makes a
/// steady-state batch run perform **zero heap allocations**.
///
/// Buffers grow monotonically (a bigger batch or ladder enlarges them
/// once; smaller runs reuse the prefix) and waveform vectors are cleared,
/// never dropped, so their capacity survives between calls. The zero-alloc
/// contract is pinned by a counting-allocator harness in
/// `tests/zero_alloc.rs`.
///
/// Ownership rules:
///
/// * A workspace is **not** shared: one `&mut BatchWorkspace` per caller
///   at a time, typically one per worker thread via
///   [`with_thread_workspace`].
/// * Results returned by [`TransientSim::run_batch_in`] are *views into
///   the workspace* — they borrow it and are overwritten by the next
///   batch run through the same workspace. Callers that need owned
///   results clone (which is exactly what the compatibility wrapper
///   [`TransientSim::run_batch`] does).
#[derive(Debug, Default)]
pub struct BatchWorkspace {
    state: Vec<f64>,
    lanes: Vec<LaneRun>,
    results: Vec<TransientResult>,
}

impl BatchWorkspace {
    /// An empty workspace; buffers are sized on first use and grow
    /// monotonically thereafter.
    #[must_use]
    pub fn new() -> Self {
        BatchWorkspace::default()
    }

    /// Sizes every buffer for a batch of `b` lanes over `rows` initial-state
    /// entries (`2 * nodes * b`), clearing per-run bookkeeping while
    /// preserving capacity. Allocates only when a dimension grows past
    /// anything this workspace has seen.
    fn prepare(&mut self, rows: usize, b: usize) {
        if self.state.len() < rows {
            self.state.resize(rows, 0.0);
        }
        self.lanes.clear();
        self.lanes.reserve(b);
        while self.results.len() < b {
            self.results.push(TransientResult {
                samples: Vec::new(),
                v_min: Volts::ZERO,
                t_min: Seconds::ZERO,
                v_initial: Volts::ZERO,
                v_final: Volts::ZERO,
            });
        }
        for out in self.results.iter_mut().take(b) {
            out.samples.clear();
        }
    }
}

thread_local! {
    /// One warm workspace per thread: engine workers (and the serve
    /// tier's handler threads) reuse it across every batch they
    /// integrate, so steady-state sweeps stop paying heap round-trips.
    static WORKSPACE: std::cell::RefCell<BatchWorkspace> =
        std::cell::RefCell::new(BatchWorkspace::new());
}

/// Runs `f` with the current thread's warm [`BatchWorkspace`].
///
/// Re-entrant calls (an `f` that itself batches through the thread
/// workspace) fall back to a fresh scratch workspace instead of
/// panicking on the nested borrow, so the helper is safe to use from any
/// library code path.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut BatchWorkspace) -> R) -> R {
    WORKSPACE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut BatchWorkspace::new()),
    })
}

/// Everything the integration touches, bundled so the
/// `#[target_feature]` entry point stays non-generic while the kernel
/// itself is generic over the lane type and node count. All buffers are
/// borrowed from a [`BatchWorkspace`]; the kernel owns no heap memory.
struct Kernel<'a> {
    coeffs: &'a LadderCoeffs,
    source: f64,
    dt: f64,
    b: usize,
    n_steps: usize,
    decimate: usize,
    settle_steps: usize,
    /// Initial state, lane-major rows: `state[k * b + lane]`.
    state: &'a [f64],
    lanes: &'a [LaneRun],
    results: &'a mut [TransientResult],
}

impl TransientSim {
    /// Runs `steps.len()` independent load-step scenarios against `ladder`,
    /// returning one [`TransientResult`] per input step, in input order.
    ///
    /// Each lane's result is bit-identical to running that step alone
    /// ([`TransientSim::run`]) — including lanes that settle and retire at
    /// different times — whatever its position in a 4-lane block or the
    /// remainder, and whichever build [`uses_avx2`] picks. An empty slice
    /// returns an empty vector.
    ///
    /// Heap traffic: this convenience wrapper borrows the calling
    /// thread's warm [`BatchWorkspace`] and clones the results out, so it
    /// still allocates for the returned `Vec`s. Hot paths that can hold a
    /// workspace should call [`TransientSim::run_batch_in`] directly.
    #[must_use]
    pub fn run_batch(&self, ladder: &Ladder, steps: &[LoadStep]) -> Vec<TransientResult> {
        with_thread_workspace(|ws| self.run_batch_in(ladder, steps, ws).to_vec())
    }

    /// The allocation-free core of [`TransientSim::run_batch`]: integrates
    /// `steps.len()` lanes into `ws` and returns the per-lane results as a
    /// view into the workspace (input order, one entry per step).
    ///
    /// After `ws` has warmed up on a given batch shape — same or larger
    /// ladder and lane count, warm coefficient cache — a call performs
    /// **zero heap allocations**, whatever load steps it carries: each
    /// lane's DC operating point is computed in place, and the
    /// initial-state rows, the lane bookkeeping, and each result's
    /// waveform `Vec` are reused. The returned slice borrows `ws` and is
    /// overwritten by the next batch run through the same workspace.
    ///
    /// Results are bit-identical to [`TransientSim::run_batch`], which is
    /// a thin clone of this path.
    #[must_use]
    pub fn run_batch_in<'w>(
        &self,
        ladder: &Ladder,
        steps: &[LoadStep],
        ws: &'w mut BatchWorkspace,
    ) -> &'w [TransientResult] {
        let b = steps.len();
        if b == 0 {
            return &[];
        }
        let coeffs = crate::cache::ladder_coeffs(ladder);
        let n = coeffs.nodes();
        let dt = self.dt.value();
        // Step counts and window sizes are small positive ratios; the
        // casts cannot truncate or lose sign in practice.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let n_steps = (self.duration.value() / dt).ceil() as usize;
        let decimate = self.decimate.max(1);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let settle_steps = ((SETTLE_WINDOW_S / dt).ceil() as usize).max(1);
        let source = self.source.value();

        let rows = 2 * n * b;
        ws.prepare(rows, b);

        for (lane, &step) in steps.iter().enumerate() {
            // The lane starts in the DC steady state for `step.from`
            // (`coeffs.steady_state`), written straight into its state
            // rows; the settle target is the post-step die voltage
            // (`coeffs.die_steady_voltage` for `step.to`). Both come from
            // the same allocation-free recurrence, so the bits match the
            // reference helpers exactly.
            let from = step.from.value();
            let mut v_die = source;
            for (k, v) in coeffs.dc_voltages(source, from).enumerate() {
                ws.state[k * b + lane] = from;
                ws.state[(n + k) * b + lane] = v;
                v_die = v;
            }
            let v_initial = Volts::new(v_die);
            let v_settle_target = coeffs
                .dc_voltages(source, step.to.value())
                .last()
                .unwrap_or(source);
            let settle_tol =
                SETTLE_ABS_TOL_V.max(SETTLE_REL_TOL * (v_initial.value() - v_settle_target).abs());
            ws.lanes.push(LaneRun {
                step,
                v_settle_target,
                settle_tol,
                settle_after: (step.at + step.slew).value(),
            });
            let out = &mut ws.results[lane];
            out.samples.reserve(n_steps / decimate + 2);
            out.samples.push((Seconds::ZERO, v_initial));
            out.v_min = v_initial;
            out.t_min = Seconds::ZERO;
            out.v_initial = v_initial;
            out.v_final = v_initial;
        }

        let mut kernel = Kernel {
            coeffs: &coeffs,
            source,
            dt,
            b,
            n_steps,
            decimate,
            settle_steps,
            state: &ws.state[..rows],
            lanes: &ws.lanes,
            results: &mut ws.results[..b],
        };
        integrate_x4(&mut kernel);

        &ws.results[..b]
    }
}

/// Whether the running CPU has AVX2, so [`TransientSim::run_batch`] runs
/// the kernel's AVX2 build rather than its portable one.
///
/// This is the workspace's **only** runtime CPU-feature query. It picks
/// which compilation of the one 4-lane data path runs, never what that
/// path computes: both builds are bit-identical lane for lane, so the
/// answer stays outside the determinism contract by construction. There
/// is no wider block: an 8-lane block needs two ymm registers per state
/// row and spills under AVX2, and the AVX-512 build measured slower than
/// 4-lane blocks on every host it ran on (DESIGN.md §11).
#[must_use]
pub fn uses_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // dg-analyze: allow(determinism-hygiene, reason = "the single sanctioned dispatch seam; both builds of the kernel are bit-identical")
        if std::arch::is_x86_feature_detected!("avx2") {
            return true;
        }
    }
    false
}

/// Runs the 4-lane kernel — under AVX2 codegen when the CPU has it, else
/// the portable compilation of the same generic code.
#[cfg(target_arch = "x86_64")]
fn integrate_x4(kernel: &mut Kernel<'_>) {
    #[target_feature(enable = "avx2")]
    fn inner(kernel: &mut Kernel<'_>) {
        kernel.integrate::<F64x4>();
    }
    if uses_avx2() {
        // SAFETY: `uses_avx2()` is true only when the running CPU reports
        // AVX2, so the feature-gated entry point is sound here.
        unsafe { inner(kernel) }
    } else {
        kernel.integrate::<F64x4>();
    }
}

/// Portable 4-lane kernel for non-x86-64 targets (same generic code, no
/// feature-gated codegen).
#[cfg(not(target_arch = "x86_64"))]
fn integrate_x4(kernel: &mut Kernel<'_>) {
    kernel.integrate::<F64x4>();
}

/// Chain-model coefficients splatted across a block's lanes.
struct Chain<L, const N: usize> {
    source: L,
    r: [L; N],
    inv_l: [L; N],
    inv_c: [L; N],
}

impl<L: Lanes, const N: usize> Chain<L, N> {
    /// `d(state)/dt` for branch currents `i` and node voltages `v` under die
    /// load `i_load`: per lane, exactly [`LadderCoeffs::derivative`].
    #[inline(always)]
    fn derivative(&self, i: &[L; N], v: &[L; N], i_load: L) -> ([L; N], [L; N]) {
        let di = core::array::from_fn(|k| {
            let v_prev = if k == 0 { self.source } else { v[k - 1] };
            v_prev.sub(v[k]).sub(self.r[k].mul(i[k])).mul(self.inv_l[k])
        });
        let dv = core::array::from_fn(|k| {
            let i_out = if k + 1 == N { i_load } else { i[k + 1] };
            i[k].sub(i_out).mul(self.inv_c[k])
        });
        (di, dv)
    }
}

/// `x + a · scale`, row by row — one RK4 stage input.
#[inline(always)]
fn axpy<L: Lanes, const N: usize>(x: &[L; N], a: &[L; N], scale: L) -> [L; N] {
    core::array::from_fn(|k| x[k].add(a[k].mul(scale)))
}

/// `acc += two · k`, row by row — a middle term of the RK4 stage sum.
#[inline(always)]
fn accumulate_twice<L: Lanes, const N: usize>(acc: &mut [L; N], k: &[L; N], two: L) {
    for (a, &x) in acc.iter_mut().zip(k) {
        *a = a.add(two.mul(x));
    }
}

/// `acc += k`, row by row — the last term of the RK4 stage sum.
#[inline(always)]
fn accumulate<L: Lanes, const N: usize>(acc: &mut [L; N], k: &[L; N]) {
    for (a, &x) in acc.iter_mut().zip(k) {
        *a = a.add(x);
    }
}

impl Kernel<'_> {
    /// Dispatches on the chain's node count so every block runs with its
    /// state rows sized at compile time. `#[inline(always)]` (as is
    /// everything below) so each build of the 4-lane entry point gets its
    /// own codegen under its own target features.
    ///
    /// `L` stays a parameter although only `F64x4` fills it: a
    /// non-generic rewrite gave the same bits but rebuilt the AVX2 build
    /// with a different stack layout, and sweeps ran slower end to end
    /// (DESIGN.md §11).
    #[inline(always)]
    fn integrate<L: Lanes>(&mut self) {
        const _: () = assert!(MAX_NODES == 8);
        match self.coeffs.nodes() {
            1 => self.blocks::<L, 1>(),
            2 => self.blocks::<L, 2>(),
            3 => self.blocks::<L, 3>(),
            4 => self.blocks::<L, 4>(),
            5 => self.blocks::<L, 5>(),
            6 => self.blocks::<L, 6>(),
            7 => self.blocks::<L, 7>(),
            8 => self.blocks::<L, 8>(),
            // `LadderBuilder::build` rejects deeper chains, so no built
            // ladder gets here; lanes keep their flat initial waveform
            // rather than panicking.
            _ => {}
        }
    }

    /// Full `L::WIDTH` blocks, then the remainder one `f64` lane at a time.
    #[inline(always)]
    fn blocks<L: Lanes, const N: usize>(&mut self) {
        let full = self.b - self.b % L::WIDTH;
        for lane0 in (0..full).step_by(L::WIDTH) {
            self.block::<L, N>(lane0);
        }
        for lane in full..self.b {
            self.block::<f64, N>(lane);
        }
    }

    /// Integrates lanes `lane0..lane0 + L::WIDTH` through the whole window:
    /// RK4 stages, load currents, settle detection and lane retirement.
    #[inline(always)]
    fn block<L: Lanes, const N: usize>(&mut self, lane0: usize) {
        let w = L::WIDTH;
        let b = self.b;
        let dt = self.dt;
        let lanes = &self.lanes[lane0..lane0 + w];
        let results = &mut self.results[lane0..lane0 + w];
        let c = self.coeffs;
        let chain = Chain::<L, N> {
            source: L::splat(self.source),
            r: core::array::from_fn(|k| L::splat(c.r[k])),
            inv_l: core::array::from_fn(|k| L::splat(c.inv_l[k])),
            inv_c: core::array::from_fn(|k| L::splat(c.inv_c[k])),
        };
        let half_dt = L::splat(0.5 * dt);
        let full_dt = L::splat(dt);
        let dt6 = L::splat(dt / 6.0);
        let two = L::splat(2.0);

        let row = |k: usize| L::load(&self.state[k * b + lane0..]);
        let mut i: [L; N] = core::array::from_fn(row);
        let mut v: [L; N] = core::array::from_fn(|k| row(N + k));

        let mut live = [false; BLOCK];
        live[..w].fill(true);
        let mut n_live = w;
        let mut in_band = [0usize; BLOCK];
        let mut v_min = [0.0; BLOCK];
        let mut t_min = [0.0; BLOCK];
        for (j, out) in results.iter().enumerate() {
            v_min[j] = out.v_min.value();
        }

        // Load currents change only while some lane is still ramping;
        // after that every later evaluation returns the same bits.
        let mut ramping = true;
        let (mut i_now, mut i_mid, mut i_end) = (L::splat(0.0), L::splat(0.0), L::splat(0.0));
        let mut until_sample = 0usize;
        let mut t_exit = 0.0;
        for s in 0..self.n_steps {
            #[allow(clippy::cast_precision_loss)]
            let t = s as f64 * dt;
            if ramping {
                let current =
                    |t: f64| L::from_fn(|j| lanes[j].step.current_at(Seconds::new(t)).value());
                i_now = current(t);
                i_mid = current(t + 0.5 * dt);
                i_end = current(t + dt);
                ramping = !lanes.iter().all(|l| l.step.ramp_done(Seconds::new(t)));
            }

            // Classical RK4, with the stage sum accumulated in the same
            // association order as `k1 + 2·k2 + 2·k3 + k4`.
            let (ki, kv) = chain.derivative(&i, &v, i_now);
            let (mut acc_i, mut acc_v) = (ki, kv);
            let (ki, kv) =
                chain.derivative(&axpy(&i, &ki, half_dt), &axpy(&v, &kv, half_dt), i_mid);
            accumulate_twice(&mut acc_i, &ki, two);
            accumulate_twice(&mut acc_v, &kv, two);
            let (ki, kv) =
                chain.derivative(&axpy(&i, &ki, half_dt), &axpy(&v, &kv, half_dt), i_mid);
            accumulate_twice(&mut acc_i, &ki, two);
            accumulate_twice(&mut acc_v, &kv, two);
            let (ki, kv) =
                chain.derivative(&axpy(&i, &ki, full_dt), &axpy(&v, &kv, full_dt), i_end);
            accumulate(&mut acc_i, &ki);
            accumulate(&mut acc_v, &kv);
            i = axpy(&i, &acc_i, dt6);
            v = axpy(&v, &acc_v, dt6);

            let t_now = t + dt;
            t_exit = t_now;
            let sample_due = until_sample == 0;
            until_sample = if sample_due {
                self.decimate - 1
            } else {
                until_sample - 1
            };
            let v_die = v[N - 1];
            for (j, (run, out)) in lanes.iter().zip(results.iter_mut()).enumerate() {
                if !live[j] {
                    continue;
                }
                let vd = v_die.lane(j);
                if vd < v_min[j] {
                    v_min[j] = vd;
                    t_min[j] = t_now;
                }
                if sample_due {
                    out.samples.push((Seconds::new(t_now), Volts::new(vd)));
                }
                if t_now >= run.settle_after {
                    if (vd - run.v_settle_target).abs() <= run.settle_tol {
                        in_band[j] += 1;
                        if in_band[j] >= self.settle_steps {
                            live[j] = false;
                            n_live -= 1;
                            out.v_final = Volts::new(vd);
                            push_final_sample(&mut out.samples, t_now, out.v_final);
                        }
                    } else {
                        in_band[j] = 0;
                    }
                }
            }
            if n_live == 0 {
                break;
            }
        }

        // Survivors ran the full window: their exit time is the last
        // step's timestamp.
        for (j, out) in results.iter_mut().enumerate() {
            if live[j] {
                out.v_final = Volts::new(v[N - 1].lane(j));
                push_final_sample(&mut out.samples, t_exit, out.v_final);
            }
            out.v_min = Volts::new(v_min[j]);
            out.t_min = Seconds::new(t_min[j]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{CapBank, SeriesBranch};
    use crate::ladder::VrOutputModel;
    use crate::units::{Amps, Farads, Henries, Hertz, Ohms};

    fn small_ladder() -> Ladder {
        let vr = VrOutputModel::new(Ohms::from_mohm(1.6), Hertz::new(300e3)).unwrap();
        let mut b = Ladder::builder("t", vr);
        b.series_with_decap(
            "board",
            SeriesBranch::new(Ohms::from_mohm(0.3), Henries::from_ph(150.0)).unwrap(),
            CapBank::new(
                Farads::from_uf(500.0),
                Ohms::from_mohm(5.0),
                Henries::from_nh(2.0),
                1,
            )
            .unwrap(),
        );
        b.series_with_decap(
            "die",
            SeriesBranch::new(Ohms::from_mohm(0.4), Henries::from_ph(20.0)).unwrap(),
            CapBank::new(
                Farads::from_nf(200.0),
                Ohms::from_mohm(0.3),
                Henries::from_ph(1.0),
                1,
            )
            .unwrap(),
        );
        b.build().unwrap()
    }

    fn assert_results_bit_identical(a: &TransientResult, b: &TransientResult) {
        assert_eq!(a.v_initial.value().to_bits(), b.v_initial.value().to_bits());
        assert_eq!(a.v_final.value().to_bits(), b.v_final.value().to_bits());
        assert_eq!(a.v_min.value().to_bits(), b.v_min.value().to_bits());
        assert_eq!(a.t_min.value().to_bits(), b.t_min.value().to_bits());
        assert_eq!(a.samples.len(), b.samples.len());
        for ((ta, va), (tb, vb)) in a.samples.iter().zip(&b.samples) {
            assert_eq!(ta.value().to_bits(), tb.value().to_bits());
            assert_eq!(va.value().to_bits(), vb.value().to_bits());
        }
    }

    #[test]
    fn empty_batch_returns_empty() {
        let sim = TransientSim::droop_capture(Volts::new(1.0));
        assert!(sim.run_batch(&small_ladder(), &[]).is_empty());
    }

    #[test]
    fn batch_matches_scalar_lane_for_lane() {
        let ladder = small_ladder();
        let sim = TransientSim {
            source: Volts::new(1.05),
            dt: Seconds::from_ns(0.5),
            duration: Seconds::from_us(20.0),
            decimate: 64,
        };
        // Five lanes: one 4-lane block plus one remainder lane. Deltas
        // chosen so lanes settle at different times (small steps settle
        // fast, large ones ring longer), exercising mid-block lane
        // retirement.
        let steps: Vec<LoadStep> = [2.0, 45.0, 0.0, 18.0, 30.0]
            .iter()
            .map(|&delta| LoadStep {
                from: Amps::new(5.0),
                to: Amps::new(5.0 + delta),
                at: Seconds::from_us(1.0),
                slew: Seconds::from_ns(10.0),
            })
            .collect();
        let batch = sim.run_batch(&ladder, &steps);
        assert_eq!(batch.len(), steps.len());
        for (step, got) in steps.iter().zip(&batch) {
            let scalar = sim.run(&ladder, *step);
            assert_results_bit_identical(&scalar, got);
        }
    }

    #[test]
    fn single_lane_batch_matches_scalar() {
        let ladder = small_ladder();
        let sim = TransientSim::droop_capture(Volts::new(1.0));
        let step = LoadStep::step(Amps::new(1.0), Amps::new(40.0), Seconds::from_us(1.0));
        let batch = sim.run_batch(&ladder, &[step]);
        assert_eq!(batch.len(), 1);
        assert_results_bit_identical(&sim.run(&ladder, step), &batch[0]);
    }

    #[test]
    fn final_sample_timestamps_are_unique() {
        let ladder = small_ladder();
        let sim = TransientSim {
            source: Volts::new(1.0),
            dt: Seconds::from_ns(0.5),
            duration: Seconds::from_us(30.0),
            decimate: 1,
        };
        let step = LoadStep {
            from: Amps::new(5.0),
            to: Amps::new(25.0),
            at: Seconds::from_us(1.0),
            slew: Seconds::from_ns(10.0),
        };
        for r in sim.run_batch(&ladder, &[step]) {
            for pair in r.samples.windows(2) {
                assert!(
                    pair[0].0.value().to_bits() != pair[1].0.value().to_bits(),
                    "duplicate sample timestamp {}",
                    pair[0].0.value()
                );
            }
        }
    }
}
