//! Small measurement helpers: order statistics, process memory, file
//! sizes and the seeded samplers the workloads draw their inputs from.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use adsketch_util::{Rng64, SplitMix64};

/// Runs `f` and returns its result with the wall seconds it took.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64())
}

/// The `q`-quantile of `xs` (0 ≤ q ≤ 1) by linear interpolation between
/// order statistics. Panics on an empty sample: every metric the
/// benchmark reports is backed by at least one measurement.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The process allocator, wrapped to count live heap bytes and their
/// peak. Resident-set figures from the kernel are not used: on this
/// kind of host they move by 20% between runs of one input, with the
/// page cache's folio sizes (mapped stores count as resident) and with
/// where per-thread malloc arenas leave freed pages. Live heap bytes
/// depend only on what the program allocates.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if now > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result; the counters are plain statistics
// (relaxed atomics that publish no other data).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

/// The most heap bytes live at once so far, in MiB.
pub fn heap_peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Total size in bytes of the regular files under `path` (recursively).
pub fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|rd| rd.flatten().map(|e| disk_bytes(&e.path())).sum())
        .unwrap_or(0)
}

/// Zipf(`s`) popularity over `0..n` by the bounded-Pareto inverse CDF:
/// popularity rank 1 is the most frequent. Returns a 0-based rank.
pub fn zipf_rank(rng: &mut SplitMix64, n: usize, s: f64) -> usize {
    let u = rng.unit_f64();
    let nf = n as f64;
    let rank = if (s - 1.0).abs() < 1e-9 {
        nf.powf(u)
    } else {
        let a = 1.0 - s;
        ((nf.powf(a) - 1.0) * u + 1.0).powf(1.0 / a)
    };
    (rank.floor() as usize).clamp(1, n) - 1
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// `count` distinct node ids drawn from `0..n` with a seeded RNG, sorted.
pub fn sample_nodes(n: usize, count: usize, rng: &mut SplitMix64) -> Vec<u32> {
    let mut p = permutation(n, rng);
    p.truncate(count.min(n));
    p.sort_unstable();
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
    }

    #[test]
    fn zipf_ranks_stay_in_range_and_favour_the_head() {
        let mut rng = SplitMix64::new(1);
        let draws: Vec<usize> = (0..10_000)
            .map(|_| zipf_rank(&mut rng, 1000, 1.1))
            .collect();
        assert!(draws.iter().all(|&r| r < 1000));
        let head = draws.iter().filter(|&&r| r < 10).count();
        assert!(
            head > 2_000,
            "Zipf(1.1) puts a large share on the top ranks"
        );
    }
}
