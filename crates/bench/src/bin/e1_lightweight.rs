//! E1 — requirement R1: the model "must be lightweight".
//!
//! Measures what the ORB and the container machinery add to a method
//! call in one address space:
//!
//! * direct Rust call on the servant struct,
//! * ORB-mediated call (object adapter + full IDL type checking),
//! * ORB call with a CDR marshalling round-trip (what a remote call
//!   pays in CPU),
//! * the same under 4 concurrent caller threads.
//!
//! E1 is a wall-clock experiment: every figure is timed through
//! `lc_bench::micro::measure` (calibrated, median of N), never by the
//! simulated code. The tracked per-layer versions of these series are
//! the `orb.*` rows of `.perf`.

use lc_bench::micro::measure;
use lc_bench::{f2, print_table};
use lc_idl::compile;
use lc_orb::{Invocation, LocalOrb, ObjectRef, Orb, OrbError, Servant, SimOrbClient, Value};
use std::sync::Arc;

const IDL: &str = r#"
    interface Bench {
      long bump(in long delta);
      string echo(in string s);
    };
"#;

struct BenchImpl {
    total: i64,
}

impl Servant for BenchImpl {
    fn interface_id(&self) -> &str {
        "IDL:Bench:1.0"
    }
    fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
        match inv.op {
            "bump" => {
                self.total += inv.args[0].as_long().expect("typed") as i64;
                inv.set_ret(Value::Long(self.total as i32));
                Ok(())
            }
            "echo" => {
                inv.set_ret(inv.args[0].clone());
                Ok(())
            }
            op => Err(OrbError::BadOperation(op.into())),
        }
    }
}

/// Calls per second of `f`, which makes `calls` calls per run.
fn ops_per_sec(calls: u64, f: impl FnMut()) -> f64 {
    calls as f64 * 1e9 / measure(f).median_ns
}

/// The common series, generic over any [`Orb`] flavour: plain typed
/// invoke, marshalled invoke, and a 64-byte string echo. Returns
/// `(via_orb, marshalled, echo)` in ops/s.
fn bench_orb(orb: &dyn Orb, obj: &ObjectRef) -> (f64, f64, f64) {
    let via_orb = ops_per_sec(1, || {
        orb.invoke(obj, "bump", &[Value::Long(1)]).unwrap();
    });
    let marshalled = ops_per_sec(1, || {
        orb.invoke_marshalled(obj, "bump", &[Value::Long(1)]).unwrap();
    });
    let s64 = "x".repeat(64);
    let echo = ops_per_sec(1, || {
        orb.invoke(obj, "echo", &[Value::string(&s64)]).unwrap();
    });
    (via_orb, marshalled, echo)
}

fn main() {
    println!("E1: invocation overhead of the lightweight ORB (single host, in-process)");
    let repo = Arc::new(compile(IDL).unwrap());

    // direct struct call
    let mut raw = BenchImpl { total: 0 };
    let direct = ops_per_sec(1, || {
        let args = [Value::Long(1)];
        let mut inv = Invocation::new("bump", &args);
        raw.dispatch(&mut inv).unwrap();
    });

    // ORB-mediated, measured through the unified `Orb` trait (the same
    // series runs below over the simulated-network flavour).
    let orb = LocalOrb::new(repo.clone());
    let obj = orb.activate(Box::new(BenchImpl { total: 0 }));
    let (via_orb, marshalled, echo) = bench_orb(&orb, &obj);

    // concurrent callers: one measured run = 4 threads x 5 000 calls
    // (long enough that thread start-up is noise).
    const PER_THREAD: u64 = 5_000;
    let concurrent = ops_per_sec(4 * PER_THREAD, || {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        orb.invoke(&obj, "bump", &[Value::Long(1)]).unwrap();
                    }
                });
            }
        });
    });

    let rows = vec![
        vec!["direct struct call".into(), f2(direct / 1e6), f2(1.0)],
        vec!["ORB (adapter + type check)".into(), f2(via_orb / 1e6), f2(direct / via_orb)],
        vec!["ORB + CDR round-trip".into(), f2(marshalled / 1e6), f2(direct / marshalled)],
        vec!["ORB echo(string64)".into(), f2(echo / 1e6), f2(direct / echo)],
        vec!["ORB, 4 threads".into(), f2(concurrent / 1e6), f2(direct / concurrent)],
    ];
    print_table(
        "invocation throughput",
        &["path", "Mops/s", "slowdown vs direct"],
        &rows,
    );

    // The adapter's own dispatch accounting: how many calls went through
    // the typed vs the raw path (the count follows `measure`'s calibration).
    let stats = orb.dispatch_stats();
    println!(
        "\nadapter dispatch stats: {} typed + {} raw = {} dispatches, {} errors",
        stats.typed,
        stats.raw,
        stats.total(),
        stats.errors,
    );
    // The same series through the simulated-network flavour of the
    // `Orb` trait: each call is a real GIOP-style request/reply through
    // the DES fabric (two-host LAN), so the numbers fold in the event
    // loop — they measure the harness, not the wire (virtual time is
    // free), and show both flavours behind one API.
    let sim_orb = SimOrbClient::new(repo);
    let sobj = sim_orb.activate(Box::new(BenchImpl { total: 0 }));
    let (s_via, s_marsh, s_echo) = bench_orb(&sim_orb, &sobj);
    let sim_rows = vec![
        vec!["SimOrb (DES request/reply)".into(), f2(s_via / 1e6), f2(direct / s_via)],
        vec!["SimOrb + CDR round-trip".into(), f2(s_marsh / 1e6), f2(direct / s_marsh)],
        vec!["SimOrb echo(string64)".into(), f2(s_echo / 1e6), f2(direct / s_echo)],
    ];
    print_table(
        "same workload, simulated-network Orb flavour",
        &["path", "Mops/s", "slowdown vs direct"],
        &sim_rows,
    );
    let sstats = sim_orb.dispatch_stats();
    println!(
        "\nsim adapter dispatch stats: {} typed + {} raw = {} dispatches, {} errors",
        sstats.typed,
        sstats.raw,
        sstats.total(),
        sstats.errors,
    );

    println!(
        "\nR1 check: the full ORB path stays within a small constant factor of a raw\n\
         call and needs no generated stubs — no transactions/persistence machinery\n\
         is in the way (the paper's 'lightweight' contrast with CCM/EJB)."
    );
}
