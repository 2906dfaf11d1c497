//! The benchmark's only host-clock reads, the calibration loop and the
//! machine-speed probe.
//!
//! Every timestamp in the benchmark comes from [`now_ns`], so the one
//! sanctioned `Instant` site sits here and nowhere else. Host time is what
//! the benchmark measures; it never feeds a simulated cost or a decision.

use std::cell::RefCell;
use std::hint::black_box;

/// Nanoseconds since the first call in this process (monotonic).
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
pub fn now_ns() -> u64 {
    use std::sync::OnceLock;
    // deepsea-lint: allow(wall_clock) -- the benchmark's host clock; feeds
    // no simulated cost or decision.
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    // deepsea-lint: allow(wall_clock) -- same clock: process-wide epoch.
    let epoch = EPOCH.get_or_init(std::time::Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Milliseconds between two [`now_ns`] readings.
pub fn ms(start_ns: u64, end_ns: u64) -> f64 {
    end_ns.saturating_sub(start_ns) as f64 / 1e6
}

/// Host milliseconds for a fixed CPU-bound loop (median of five), so drift
/// in the machine's speed from one run to another shows next to the metrics.
pub fn calibrate_ms() -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = now_ns();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..black_box(20_000_000u32) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            ms(t0, now_ns())
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Host ns [`speed_probe`] takes at the reference machine speed. Reported
/// host times are scaled to this speed (see [`factor`]).
pub const PROBE_REF_NS: f64 = 500_000.0;

/// The probe's private memory: a 16 MiB buffer for random reads and a
/// 1 MiB open-addressing table. Allocated once, so a timed probe never
/// touches the allocator the program shares.
const DRAM_WORDS: usize = 1 << 21;
const TABLE_SLOTS: usize = 1 << 17;
const PROBE_KEYS: u64 = 20_000;

thread_local! {
    static PROBE_MEM: RefCell<(Vec<u64>, Vec<u64>)> = RefCell::new((
        (0..DRAM_WORDS as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect(),
        vec![0; TABLE_SLOTS],
    ));
}

/// A fixed memory-bound job of about half a millisecond, run between
/// calls into the program; returns its host ns: random reads over its
/// 16 MiB buffer, then hash inserts and lookups in its 1 MiB table.
///
/// On a shared 2-core box the speed of memory-heavy code drifts by ±25%
/// within seconds. Run after every query, the probe drifts with it: a
/// round's mean probe time tracks the round's host time with a correlation
/// of about 0.9, where a pure ALU loop tracks it at about 0.6.
pub fn speed_probe() -> u64 {
    PROBE_MEM.with(|mem| {
        let (dram, table) = &mut *mem.borrow_mut();
        let start = now_ns();
        let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
        let mut acc = 0u64;
        for _ in 0..PROBE_KEYS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(dram[x as usize & (DRAM_WORDS - 1)]);
        }
        table.fill(0);
        let slot = |k: u64| (k >> 40) as usize & (TABLE_SLOTS - 1);
        for i in 1..=PROBE_KEYS {
            let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut h = slot(k);
            while table[h] != 0 {
                h = (h + 1) & (TABLE_SLOTS - 1);
            }
            table[h] = k;
        }
        for i in 1..=PROBE_KEYS {
            let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut h = slot(k);
            while table[h] != k {
                h = (h + 1) & (TABLE_SLOTS - 1);
            }
            acc = acc.wrapping_add(h as u64);
        }
        black_box(acc);
        now_ns() - start
    })
}

/// The speed factor of a stretch of measurement: [`PROBE_REF_NS`] over its
/// mean probe time. Multiply a host time measured during it by the factor
/// to get the time at the reference speed (below 1 when the machine ran
/// slow).
pub fn factor(probe_ns: &[u64]) -> f64 {
    if probe_ns.is_empty() {
        return 1.0;
    }
    PROBE_REF_NS * probe_ns.len() as f64 / probe_ns.iter().sum::<u64>() as f64
}
