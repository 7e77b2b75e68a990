//! What the benchmark reads from the host: CPU time and peak memory of
//! this process, run-queue waiting, a fixed calibration kernel, and the
//! seeded generator every input comes from.

use std::time::Instant;

/// CPU seconds (user + system, every thread) and peak resident set.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub cpu_s: f64,
    pub maxrss_kb: u64,
}

// The layout of `struct rusage` on 64-bit Linux: two `timeval`s followed
// by fourteen `long`s. `/proc/self/stat` counts CPU in 10 ms ticks, far
// too coarse for a serve workload that burns ~100 µs per request;
// `getrusage` totals are derived from the scheduler's nanosecond clock.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("e2e_bench reads getrusage and /proc; it needs 64-bit Linux");

mod sys {
    #[repr(C)]
    pub struct Rusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss: i64,
        pub rest: [i64; 13],
    }
    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    pub const SELF: i32 = 0;
}

/// This process, every thread of it, since it started.
pub fn usage_self() -> Usage {
    let mut ru = sys::Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI fixes, and `RUSAGE_SELF` is a documented selector;
    // the call writes only inside `ru`.
    let rc = unsafe { sys::getrusage(sys::SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Usage {
        cpu_s: secs(ru.utime) + secs(ru.stime),
        maxrss_kb: ru.maxrss as u64,
    }
}

/// Current resident set in KiB (`VmRSS`).
pub fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// (ns on a CPU, ns runnable but waiting for one), summed over the live
/// threads of this process.
pub fn sched_ns() -> (u64, u64) {
    let mut run = 0;
    let mut wait = 0;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let text = std::fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
            let mut fields = text
                .split_whitespace()
                .map(|f| f.parse::<u64>().unwrap_or(0));
            run += fields.next().unwrap_or(0);
            wait += fields.next().unwrap_or(0);
        }
    }
    (run, wait)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// CPU-bound work of roughly `units` cost units: the same kernel as
/// `patty_bench::busy_work`, copied so this package need not build
/// patty-bench and its criterion shim.
#[inline]
pub fn busy_work(units: u64, seed: u64) -> u64 {
    let mut x = seed | 1;
    for i in 0..units * 25 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        x ^= x >> 33;
    }
    x
}

/// Milliseconds one fixed register-only kernel takes: it moves with the
/// host (frequency, a noisy neighbour), never with the code under test.
pub fn calib_ms() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(busy_work(100_000, 7));
    t0.elapsed().as_secs_f64() * 1e3
}

/// SplitMix64. Every generated input derives from `--seed` through this.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for a sub-generator (client, variant, …).
    pub fn fork(&self, stream: u64) -> Rng {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
