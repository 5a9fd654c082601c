//! `lcperf selftest`: every workload at 1/50 size, twice in one process.
//!
//! The two runs must agree bit for bit on the fingerprint and on every
//! exact metric, and the allocator and reference kernel must be wired.
//! Quick enough (seconds) to be the benchmark's own smoke test.

use crate::run::{self, RunOpts, RunResult};
use crate::spans::Spans;
use crate::workload;
use crate::{alloc, clock};
use std::process::ExitCode;

fn small_run(workload: &str) -> RunResult {
    // `seconds: 0` asks for the fewest segments an epoch may have.
    let opts = RunOpts {
        workload: workload.to_owned(),
        seed: 7,
        seconds: 0.0,
        shrink: 50,
    };
    run::run(&opts, 1, &mut Spans::new(false))
}

pub fn run() -> ExitCode {
    let mut failures = 0;
    let mut check = |ok: bool, what: String| {
        println!("  {} {what}", if ok { "ok  " } else { "FAIL" });
        failures += u32::from(!ok);
    };

    let (allocs_before, _) = alloc::snapshot();
    let reference = clock::reference_ns();
    let (allocs_after, _) = alloc::snapshot();
    check(
        reference > 0.0,
        format!("reference kernel takes time ({:.0} us)", reference / 1e3),
    );
    check(
        allocs_after > allocs_before,
        "counting allocator sees the reference kernel".to_owned(),
    );

    for w in workload::NAMES {
        println!("{w}:");
        let (a, b) = (small_run(w), small_run(w));
        check(
            a.correct() && a.outcomes.failed == 0,
            format!("outputs correct, {} ops, none failed", a.outcomes.attempted),
        );
        for v in &a.outcomes.violations {
            println!("       {v}");
        }
        check(
            a.fingerprint() == b.fingerprint(),
            format!("fingerprint repeats ({:016x})", a.fingerprint()),
        );
        let exact = |r: &RunResult| {
            [
                r.allocs_per_op(),
                r.alloc_bytes_per_op(),
                r.sim_mean_ms(),
                r.per_op("net.msgs"),
            ]
        };
        check(
            exact(&a) == exact(&b),
            format!("exact metrics repeat {:?}", exact(&a)),
        );
        check(
            a.allocs_per_op() > 0.0 && a.host_us_per_op() > 0.0,
            "allocations and host time are counted".to_owned(),
        );
    }
    if failures == 0 {
        println!("selftest passed");
        ExitCode::SUCCESS
    } else {
        println!("selftest: {failures} check(s) failed");
        ExitCode::FAILURE
    }
}
