//! Measurement primitives: order statistics, host calibration, and the
//! process's peak resident memory.

use std::time::{Duration, Instant};

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Nanoseconds elapsed since `t0`.
pub fn nanos(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Host calibration taken at the start of every run.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Seconds one thread needs for the fixed compute kernel.
    pub one_thread_s: f64,
    /// Throughput of two threads over one on the same total work. Above
    /// 2.0 the measurement itself is broken.
    pub scaling_2t: f64,
}

impl Calibration {
    /// Whether the calibration is physically possible on any host.
    pub fn plausible(&self) -> bool {
        self.one_thread_s > 0.0 && self.scaling_2t > 0.0 && self.scaling_2t <= 2.0
    }
}

/// Register-only compute with no memory traffic.
fn burn(n: u64) -> u64 {
    let mut x = 1u64;
    for i in 0..n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    x
}

/// Runs `work` units of the kernel on each of `threads` fresh threads and
/// returns the wall time until all have finished. Both legs of the
/// calibration spawn threads, so spawn cost cancels out of the ratio.
fn timed_threads(threads: u64, work: u64) -> Duration {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|_| std::thread::spawn(move || std::hint::black_box(burn(work))))
        .collect();
    for h in handles {
        h.join().expect("calibration thread");
    }
    t0.elapsed()
}

/// Measures the host after a warm-up: the serial leg runs `2N` units on
/// one thread, the parallel leg `N` units on each of two threads, so the
/// total work is equal and the true ratio cannot exceed 2. Each leg keeps
/// its fastest of three alternating trials, the least disturbed one. A
/// co-tenant that slows every serial trial can still push the ratio past
/// 2, so an implausible calibration is retaken, up to five times; a
/// method that overstates scaling fails every time.
pub fn calibrate() -> Calibration {
    let mut c = calibrate_once();
    for _ in 1..5 {
        if c.plausible() {
            break;
        }
        eprintln!(
            "perfbench: implausible 2-thread scaling {:.3}, retaking",
            c.scaling_2t
        );
        c = calibrate_once();
    }
    c
}

fn calibrate_once() -> Calibration {
    const N: u64 = 30_000_000;
    timed_threads(1, N);
    let mut serial = Duration::MAX;
    let mut parallel = Duration::MAX;
    for _ in 0..3 {
        serial = serial.min(timed_threads(1, 2 * N));
        parallel = parallel.min(timed_threads(2, N));
    }
    Calibration {
        one_thread_s: serial.as_secs_f64() / 2.0,
        scaling_2t: serial.as_secs_f64() / parallel.as_secs_f64().max(1e-12),
    }
}

extern "C" {
    /// glibc: returns free heap memory to the operating system.
    fn malloc_trim(pad: usize) -> i32;
    /// glibc: the CPU mask of thread `pid` (0: the calling thread).
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    /// glibc: sets the CPU mask of thread `pid` (0: the calling thread).
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// Bytes of a `cpu_set_t`.
const CPU_SET_BYTES: usize = 128;

/// The CPUs the calling thread may run on; empty if unknown.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: the kernel writes at most `CPU_SET_BYTES` bytes into `mask`.
    if unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..CPU_SET_BYTES * 8)
        .filter(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .collect()
}

/// Restricts the calling thread, and the threads it spawns from now on,
/// to `cpus`. Best effort: a refused mask leaves the thread as it was.
pub fn pin(cpus: &[usize]) {
    let mut mask = [0u8; CPU_SET_BYTES];
    for &c in cpus.iter().filter(|&&c| c < CPU_SET_BYTES * 8) {
        mask[c / 8] |= 1 << (c % 8);
    }
    // SAFETY: `mask` is a valid `cpu_set_t` of `CPU_SET_BYTES` bytes.
    unsafe {
        sched_setaffinity(0, CPU_SET_BYTES, mask.as_ptr());
    }
}

/// Returns freed heap to the operating system and resets the kernel's
/// peak-RSS watermark, so that [`peak_rss_mb`] covers only what runs after
/// this call and does not depend on what earlier repetitions left cached
/// in the allocator.
pub fn reset_peak_rss() {
    // SAFETY: malloc_trim only releases memory the allocator holds free.
    unsafe {
        malloc_trim(0);
    }
    // Unsupported kernels leave the watermark covering the whole process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A deterministic 64-bit mix (SplitMix64), used to derive inputs from the
/// workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn superlinear_scaling_is_implausible() {
        let bad = Calibration {
            one_thread_s: 0.1,
            scaling_2t: 3.62,
        };
        assert!(!bad.plausible());
        let good = Calibration {
            one_thread_s: 0.1,
            scaling_2t: 1.97,
        };
        assert!(good.plausible());
    }
}
