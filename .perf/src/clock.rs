//! Process CPU clock and the frozen reference kernel host time is
//! normalised by.
//!
//! This box shares two vCPUs with neighbours, and the CPU time one binary
//! needs for the same work flips between a fast and a slow regime every
//! second or two. A segment's cost is therefore reported relative to a
//! fixed std-only loop timed just before and just after it, scaled by a
//! constant that was fixed once ([`REF_NOMINAL_US`]) so the figure reads
//! as microseconds of a nominal machine.

use std::collections::BTreeMap;
use std::hint::black_box;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU nanoseconds this process has consumed.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout
    // (two 64-bit fields on linux x86-64/aarch64); the call writes only it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// What one reference-kernel run is defined to cost. Measured once on the
/// box the first ledger was taken on; never recalibrated at run time, or
/// normalised figures would stop being comparable across commits.
pub const REF_NOMINAL_US: f64 = 4000.0;

const REF_ITERS: u64 = 24_000;

/// The reference kernel: boxed allocations, ordered-map insert / lookup /
/// remove and string formatting — the instruction mix of the simulator's
/// own hot paths — over a working set that fits in L2. FROZEN: it must
/// never call repo code, and editing it rebases every host-time figure.
#[inline(never)]
fn reference_kernel() -> u64 {
    let mut map: BTreeMap<u64, Box<[u64; 4]>> = BTreeMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for i in 0..REF_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 4096, Box::new([x, i, x ^ i, acc]));
        if let Some(v) = map.get(&((x >> 20) % 4096)) {
            acc ^= v[0].wrapping_add(v[3]);
        }
        if i % 3 == 0 {
            if let Some(v) = map.remove(&((x >> 40) % 4096)) {
                acc = acc.wrapping_add(v[2]);
            }
        }
        if i % 16 == 0 {
            let s = format!("host{}:{}", x % 1024, i);
            acc = acc.wrapping_add(s.len() as u64);
        }
    }
    acc
}

/// Run the reference kernel once; CPU nanoseconds it took.
pub fn reference_ns() -> f64 {
    let t0 = cpu_ns();
    black_box(reference_kernel());
    (cpu_ns() - t0) as f64
}

/// Normalise `cpu_ns` of measured work bracketed by two reference runs:
/// nominal microseconds.
pub fn normalise_us(cpu_ns: f64, ref_before_ns: f64, ref_after_ns: f64) -> f64 {
    cpu_ns / ((ref_before_ns + ref_after_ns) / 2.0) * REF_NOMINAL_US
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
