//! Measurement plumbing shared by every workload: the per-layer span
//! ledger, percentiles and medians, the determinism digest, and the
//! failure book.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::Instant;

/// Host time and call count accumulated at one layer boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub ns: u64,
    pub calls: u64,
}

/// Spans recorded around the benchmark's calls into each layer's public
/// API. With `on == false` nothing is timed, so an untraced pass pays
/// only for the end-to-end clocks.
#[derive(Debug, Default)]
pub struct Ledger {
    pub on: bool,
    pub spans: BTreeMap<&'static str, Span>,
}

impl Ledger {
    pub fn new(on: bool) -> Ledger {
        Ledger {
            on,
            spans: BTreeMap::new(),
        }
    }

    /// Run `f`, charging its host time to `layer` when tracing.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.add(layer, t.elapsed().as_nanos() as u64);
        out
    }

    /// Charge an already measured duration to `layer` when tracing.
    pub fn add(&mut self, layer: &'static str, ns: u64) {
        if self.on {
            let s = self.spans.entry(layer).or_default();
            s.ns += ns;
            s.calls += 1;
        }
    }

    pub fn ns(&self, layer: &str) -> u64 {
        self.spans.get(layer).map_or(0, |s| s.ns)
    }

    pub fn calls(&self, layer: &str) -> u64 {
        self.spans.get(layer).map_or(0, |s| s.calls)
    }

    /// Summed self time of every layer. The benchmark's spans never
    /// nest, so a span's self time is its whole duration.
    pub fn total_ns(&self) -> u64 {
        self.spans.values().map(|s| s.ns).sum()
    }
}

/// Nearest-rank percentile of `xs` (sorted in place); 0 when empty.
pub fn percentile(xs: &mut [u64], pct: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    let rank = ((pct / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Median of `xs`; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// FNV-1a over bytes, written here rather than taken from the kernel so
/// that DMA checksums are checked by an independent implementation.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Running digest over the `Debug` form of modeled state (counters,
/// accounting, arena and device statistics). Two passes over the same
/// seed must produce the same digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, what: &impl Debug) {
        for b in format!("{what:?}").bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Operations attempted and the ones that failed, with a reason each.
#[derive(Debug, Default)]
pub struct Book {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Book {
    /// Count one operation; record `why` as a failure unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }
}

/// Deterministic xorshift64* stream for seeded choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-speed probe: a register-machine interpreter running a fixed
/// 16-instruction program with loads and stores into a 256 KiB table,
/// the shape of the VM's own dispatch loop. It is benchmark code, so no
/// change to the program moves it; a slow spell of the host does.
pub struct Probe {
    table: Vec<u64>,
    last: Option<u64>,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe {
            table: vec![1; 1 << 15],
            last: None,
        }
    }
}

/// Probe time at the reference host speed every end-to-end time is
/// scaled to (about the probe's time on the 2-core host the benchmark
/// was built on).
pub const PROBE_REF_NS: f64 = 1.6e6;

/// The probe's program: `(op, a, b)` over four registers.
const PROBE_PROGRAM: [(u8, u8, u8); 16] = [
    (0, 1, 2),
    (1, 2, 3),
    (2, 3, 0),
    (3, 0, 1),
    (0, 2, 1),
    (4, 1, 0),
    (1, 3, 2),
    (5, 2, 3),
    (0, 0, 3),
    (2, 1, 2),
    (4, 3, 1),
    (3, 2, 0),
    (5, 0, 2),
    (1, 1, 1),
    (0, 3, 3),
    (2, 0, 1),
];

impl Probe {
    /// The probe time at the start of a unit of work: the reading taken
    /// when the previous unit ended, or a fresh one.
    pub fn begin(&mut self) -> u64 {
        match self.last {
            Some(ns) => ns,
            None => self.read(),
        }
    }

    /// Read the probe at the end of a unit that began at `begin`; the
    /// unit's probe time is the mean of the two readings.
    pub fn end(&mut self, begin: u64) -> u64 {
        (begin + self.read()) / 2
    }

    fn read(&mut self) -> u64 {
        let t = Instant::now();
        let table = &mut self.table;
        let mask = table.len() - 1;
        let mut r = [1u64, 2, 3, 4];
        for i in 0..40_000u64 {
            for &(op, a, b) in &PROBE_PROGRAM {
                let (a, b) = (a as usize, b as usize);
                match op {
                    0 => r[a] = r[a].wrapping_add(r[b] ^ i),
                    1 => r[a] = r[a].wrapping_mul(r[b] | 1),
                    2 => r[a] = table[(r[b] as usize >> 3) & mask],
                    3 => table[(r[a] as usize >> 5) & mask] = r[b],
                    4 => r[a] = r[a].rotate_left((r[b] & 31) as u32),
                    _ => r[a] ^= r[b] >> 7,
                }
            }
        }
        std::hint::black_box(r);
        let ns = (t.elapsed().as_nanos() as u64).max(1);
        self.last = Some(ns);
        ns
    }
}

/// Hand freed heap memory back to the OS, so that the peak resident
/// memory of one program does not depend on which programs ran before it.
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and only releases
    // free heap pages under the allocator's own locks; it may be called
    // at any point.
    unsafe {
        malloc_trim(0);
    }
}
