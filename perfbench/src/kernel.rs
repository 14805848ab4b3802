//! The reference kernel and drift normalisation.
//!
//! The machine's speed drifts by tens of percent across windows a few
//! seconds long, so a raw time says as much about the moment it was taken
//! as about the code. Every measured unit of work is therefore bracketed by
//! two samples of a fixed kernel that lives only in this benchmark (small
//! `Vec<u8>` allocations, a sort and a `BTreeMap` fold — the same mix of
//! allocator and pointer-chasing work the workloads do), and its time is
//! rescaled to the time it would have taken had the kernel run at its
//! nominal speed: `norm = raw × KERNEL_NOMINAL_S / mean(kernel before,
//! kernel after)`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::alloc;

/// The kernel's nominal duration, near its time on the 2-vCPU x86-64 VM
/// the benchmark was tuned on (12–20 ms as that machine drifts).
/// Normalised times read as times on a machine whose kernel takes exactly
/// this long.
pub const KERNEL_NOMINAL_S: f64 = 0.020;

/// Buffers built per kernel call, over all working-set sizes.
const KERNEL_ITEMS: u64 = 48_000;

/// One kernel call: deterministic work whose result is returned so the
/// compiler cannot drop it. A third of the buffers are built in one batch
/// (a working set of about 1 MB), a third in 8 batches (about 130 KB) and
/// a third in 64 (about 16 KB): the workloads range from whole attack
/// simulations to ~150 µs scans, and a kernel with a single working-set
/// size tracks some of them worse than others.
pub fn kernel() -> u64 {
    [1, 8, 64].iter().fold(0, |acc, &batches| {
        (0..batches).fold(acc, |acc, _| acc ^ batch(KERNEL_ITEMS / 3 / batches))
    })
}

fn batch(items: u64) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(items as usize);
    for _ in 0..items {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let len = 8 + (x % 56) as usize;
        let mut b = Vec::with_capacity(len);
        b.extend((0..len as u64).map(|i| (x >> (i % 56)) as u8));
        bufs.push(b);
    }
    bufs.sort_unstable();
    let mut fold: BTreeMap<[u8; 2], u64> = BTreeMap::new();
    for b in &bufs {
        *fold.entry([b[0], b[b.len() - 1]]).or_insert(0) += b.len() as u64;
    }
    fold.iter().fold(0u64, |acc, (k, v)| acc.rotate_left(5) ^ u64::from(k[0]) ^ v)
}

/// Times one kernel call, in seconds. The kernel's own allocations are
/// never counted.
pub fn sample() -> f64 {
    let counting = alloc::set_counting(false);
    let start = Instant::now();
    black_box(kernel());
    let secs = start.elapsed().as_secs_f64();
    alloc::set_counting(counting);
    secs
}

/// One bracketed measurement.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall-clock seconds.
    pub raw: f64,
    /// Seconds rescaled to the nominal kernel speed.
    pub norm: f64,
}

/// Brackets units of work with kernel samples; consecutive units share the
/// sample between them.
pub struct Meter {
    last: f64,
    /// Every kernel sample taken, in seconds.
    pub kernels: Vec<f64>,
}

impl Meter {
    pub fn new() -> Meter {
        let first = sample();
        Meter { last: first, kernels: vec![first] }
    }

    /// Runs `work` between two kernel samples.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, Timed) {
        let start = Instant::now();
        let out = black_box(work());
        let raw = start.elapsed().as_secs_f64();
        let after = sample();
        let norm = raw * KERNEL_NOMINAL_S / ((self.last + after) / 2.0);
        self.last = after;
        self.kernels.push(after);
        (out, Timed { raw, norm })
    }
}

/// Median of a non-empty sample (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
