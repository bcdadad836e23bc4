//! Host-speed calibration.
//!
//! The benchmark runs on a few vCPUs of a shared machine whose speed drifts
//! by tens of percent over minutes (contention and steal time from other
//! tenants). Runs of any length see the drift, so the benchmark reports
//! times in *reference seconds*: seconds of a host running at the speed at
//! which [`kernel_s`] takes [`NOMINAL_S`]. The calibration kernel runs
//! between units of load, and a unit's wall times are multiplied by the
//! host's [`speed`] around it.

use crate::THREADS;
use std::hint::black_box;
use std::time::Instant;

/// [`kernel_s`] on an idle host of the kind the bounds were set on (2 vCPUs
/// of a 2.1 GHz Xeon).
pub const NOMINAL_S: f64 = 0.027;

/// One pass of the calibration kernel; returns its wall time in seconds.
///
/// The kernel is fixed code of the benchmark's own, not of the program
/// measured: a serial integer hash chain (clock speed and steal time) and
/// sorts of freshly allocated 512 KiB arrays (page faults and cache
/// contention). Of the kernels tried, this mix's slowdowns tracked those of
/// all four workloads most closely.
fn pass_s() -> f64 {
    let start = Instant::now();
    let mut h = 0u64;
    for i in 0..black_box(10_000_000u64) {
        h = (h ^ i).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(7);
    }
    for round in 0..8u64 {
        let mut v: Vec<u64> = (0..65_536u64)
            .map(|i| (i ^ round ^ h).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        v.sort_unstable();
        h ^= black_box(v[7]);
    }
    black_box(h);
    start.elapsed().as_secs_f64()
}

/// Runs the calibration kernel and returns its time in seconds: the mean of
/// one pass alone, which sees the speed of a serial phase, and of the mean
/// pass time of [`THREADS`] passes at once, which sees every vCPU the load
/// threads run on. Either alone tracked the workloads' slowdowns less
/// closely than the two together.
pub fn kernel_s() -> f64 {
    let alone = pass_s();
    let together: f64 = std::thread::scope(|scope| {
        let passes: Vec<_> = (0..THREADS).map(|_| scope.spawn(pass_s)).collect();
        passes
            .into_iter()
            .map(|p| p.join().expect("the calibration kernel does not panic"))
            .sum()
    });
    (alone + together / THREADS as f64) / 2.0
}

/// The host's speed relative to the reference host, from kernel times taken
/// just before and just after a unit of load: reference seconds per wall
/// second.
pub fn speed(before_s: f64, after_s: f64) -> f64 {
    NOMINAL_S / ((before_s + after_s) / 2.0)
}
