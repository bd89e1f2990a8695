//! Host context recorded with every run: reported cores, measured parallel
//! capacity, and peak resident memory.

use std::ffi::{c_int, c_long};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Cores the operating system reports (`available_parallelism`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn spin(rounds: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..rounds {
        x = black_box(x.rotate_left(7) ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    x
}

/// Measured parallel capacity: how many times the work of one spinning
/// thread two threads get done in the same wall time. Reads ≈ 2.0 on two
/// free cores and ≈ 1.0 when the two reported cores share one core's
/// time. Each side takes its fastest of three tries, to skip one-off
/// stalls.
pub fn capacity() -> f64 {
    const ROUNDS: u64 = 4_000_000;
    let (mut one, mut two) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let t = Instant::now();
        black_box(spin(ROUNDS));
        one = one.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::thread::scope(|s| {
            let a = s.spawn(|| spin(ROUNDS));
            let b = s.spawn(|| spin(ROUNDS));
            black_box((a.join().ok(), b.join().ok()));
        });
        two = two.min(t.elapsed().as_secs_f64());
    }
    2.0 * one / two
}

/// Peak banked by [`outside_peak`] before it reset the high-water mark,
/// in KiB.
static BANKED_KIB: AtomicU64 = AtomicU64::new(0);

/// Returns the heap memory freed so far to the operating system
/// (`malloc_trim`), then resets the peak resident set size (`VmHWM`) to
/// the resident size that is left, so the peak read at the end covers
/// only what follows — not the simulator's transient buffers while it
/// built the inputs, nor how many of their freed pages the allocator
/// happened to keep.
///
/// # Errors
///
/// Fails when `/proc/self/clear_refs` cannot be written.
pub fn reset_peak_rss() -> Result<(), String> {
    trim_heap();
    BANKED_KIB.store(0, Ordering::Relaxed);
    clear_refs().map_err(|e| format!("resetting the peak resident memory: {e}"))
}

/// Returns the heap memory freed so far to the operating system
/// (`malloc_trim`).
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes a plain size, touches only the
    // allocator's own free lists, and is safe to call from any thread.
    unsafe { malloc_trim(0) };
}

fn clear_refs() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Runs `f` with its transient memory left out of [`peak_rss_mb`]: the
/// peak so far is banked; once `f` returns, the heap it freed is returned
/// to the operating system and the high-water mark reset to the resident
/// size. What `f` keeps alive still counts.
pub fn outside_peak<T>(f: impl FnOnce() -> T) -> T {
    if let Some(kib) = status_kib("VmHWM:") {
        BANKED_KIB.fetch_max(kib, Ordering::Relaxed);
    }
    let out = f();
    trim_heap();
    // `reset_peak_rss` has shown the reset to work; should it fail now,
    // the peak merely keeps `f`'s memory.
    let _ = clear_refs();
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`) since the last
/// [`reset_peak_rss`], leaving out what ran under [`outside_peak`].
pub fn peak_rss_mb() -> Option<f64> {
    let kib = status_kib("VmHWM:")?.max(BANKED_KIB.load(Ordering::Relaxed));
    Some(kib as f64 / 1024.0)
}

/// A `kB` field of `/proc/self/status`.
fn status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPU time the whole process has used so far, in milliseconds
/// (`CLOCK_PROCESS_CPUTIME_ID`): every thread's, helpers included. Unlike
/// wall time it leaves out the time the host runs other work on the core
/// and the time the process waits.
///
/// # Panics
///
/// Panics if the clock is unavailable, which Linux never reports for this
/// clock id.
pub fn process_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) for the whole call, and `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is unavailable");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}
