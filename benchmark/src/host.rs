//! A host-speed probe made of the benchmark's own code.
//!
//! The two-core hosts this benchmark runs on are virtual machines that
//! share their physical cores with other tenants. Over tens of seconds
//! the same build's throughput swings by a third as neighbours come and
//! go, far more than any regression bound can absorb. Most of that swing
//! tracks two costs: floating-point throughput on a core whose sibling
//! another tenant may be using, and the round trip of waking a thread on
//! the other core, which every request pays several times. The probe
//! times exactly those two things before and after every repetition, and
//! the report scales the repetition's timings to a host whose probe reads
//! the reference values below. Nothing the probe runs belongs to the
//! serve tier, so no change to it can move the probe.

use crate::clock;
use crate::stats;
use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;

/// Round trips per wake-up batch.
const PING_PONGS: usize = 500;
/// Elements and passes of the floating-point kernel.
const FP_LEN: usize = 512;
const FP_PASSES: usize = 8_000;
/// Batches per kernel; the median batch is kept.
const BATCHES: usize = 5;

/// Floating-point kernel time of the reference host, ns per element.
pub const REFERENCE_FP_NS: f64 = 0.24;
/// Cross-core round trip of the reference host, µs.
pub const REFERENCE_WAKEUP_US: f64 = 12.0;

/// One probe's timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSpeed {
    /// Floating-point multiply-add over an L1-resident array, ns per
    /// element.
    pub fp_ns: f64,
    /// Cross-thread round trip over a socket pair, µs.
    pub wakeup_us: f64,
}

impl HostSpeed {
    /// Times both kernels.
    ///
    /// # Errors
    ///
    /// A socket pair or echo thread that cannot be set up.
    pub fn measure() -> std::io::Result<HostSpeed> {
        let fp: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let mut v = [1.0f64; FP_LEN];
                let t = clock::now();
                for _ in 0..FP_PASSES {
                    for x in &mut v {
                        *x = *x * 0.999_999_9 + 1e-7;
                    }
                    black_box(&mut v);
                }
                clock::ns_between(t, clock::now()) as f64 / (FP_PASSES * FP_LEN) as f64
            })
            .collect();
        Ok(HostSpeed {
            fp_ns: stats::median(&fp),
            wakeup_us: ping_pong()?,
        })
    }

    /// How much slower than the reference host this one ran (above 1:
    /// slower): the geometric mean of the two kernels' ratios.
    pub fn slowness(&self) -> f64 {
        ((self.fp_ns / REFERENCE_FP_NS) * (self.wakeup_us / REFERENCE_WAKEUP_US)).sqrt()
    }
}

/// Median round trip, µs, of one byte bounced off an echo thread.
fn ping_pong() -> std::io::Result<f64> {
    let (mut a, mut b) = UnixStream::pair()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let mut byte = [0u8; 1];
        for _ in 0..BATCHES * PING_PONGS {
            b.read_exact(&mut byte)?;
            b.write_all(&byte)?;
        }
        Ok(())
    });
    let mut batches = Vec::with_capacity(BATCHES);
    let mut byte = [7u8; 1];
    for _ in 0..BATCHES {
        let t = clock::now();
        for _ in 0..PING_PONGS {
            a.write_all(&byte)?;
            a.read_exact(&mut byte)?;
        }
        batches.push(clock::ns_between(t, clock::now()) as f64 / 1e3 / PING_PONGS as f64);
    }
    echo.join()
        .map_err(|_| std::io::Error::other("echo thread panicked"))??;
    Ok(stats::median(&batches))
}
