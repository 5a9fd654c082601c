//! E1 — requirement R1: the model "must be lightweight".
//!
//! Counts what the ORB and the container machinery put between a caller
//! and a servant method in one address space:
//!
//! * direct Rust call on the servant struct,
//! * ORB-mediated call (object adapter + full IDL type checking),
//! * ORB call with a CDR marshalling round-trip (what a remote call
//!   pays in CPU),
//! * the same under 4 concurrent caller threads,
//! * the same series as real request/reply frames over the simulated
//!   network.
//!
//! Every column is an exact count — adapter dispatches, CDR bytes,
//! kernel events, wire messages — so the report is byte-identical run
//! to run. What each step costs in nanoseconds is the `orb.*` ledger of
//! `.perf` (`orb.direct_dispatch_ns` → `orb.local_typed_ns` →
//! `orb.local_marshalled_ns` → `orb.sim_roundtrip_ns`).

use crate::{format_table, Output};
use lc_idl::compile;
use lc_orb::cdr::encoded_len;
use lc_orb::{
    Invocation, LocalOrb, ObjectRef, Orb, OrbError, Outcome, Servant, SimOrb, SimOrbClient, Value,
};
use std::fmt::Write as _;
use std::sync::Arc;

const IDL: &str = r#"
    interface Bench {
      long bump(in long delta);
      string echo(in string s);
    };
"#;

/// Calls per single-caller row.
const CALLS: u64 = 1_000;
/// The concurrent row: 4 threads × 5 000 bumps.
const THREADS: u64 = 4;
const PER_THREAD: u64 = 5_000;

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
                let delta = inv.args[0]
                    .as_long()
                    .ok_or_else(|| OrbError::BadParam("bump: long expected".into()))?;
                self.total += delta as i64;
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

/// One entry of the series both flavours run: `(marshalled, op, args)`.
type Entry = (bool, &'static str, Vec<Value>);

/// Typed invoke, marshalled invoke, 64-byte string echo.
fn series() -> [Entry; 3] {
    [
        (false, "bump", vec![Value::Long(1)]),
        (true, "bump", vec![Value::Long(1)]),
        (false, "echo", vec![Value::string(&"x".repeat(64))]),
    ]
}

/// A table row: the path, then its counts.
fn row(path: &str, counts: &[u64]) -> Vec<String> {
    std::iter::once(path.to_string()).chain(counts.iter().map(u64::to_string)).collect()
}

/// `CALLS` calls of `entry` through `orb`, generic over the [`Orb`]
/// flavour. Returns the row's leading counts — calls, typed and raw
/// adapter dispatches — and the last outcome.
fn drive(orb: &dyn Orb, obj: &ObjectRef, entry: &Entry) -> Result<([u64; 3], Outcome), OrbError> {
    let (marshalled, op, args) = entry;
    let before = orb.dispatch_stats();
    let mut last = Outcome::default();
    for _ in 0..CALLS {
        last = if *marshalled {
            orb.invoke_marshalled(obj, op, args)?
        } else {
            orb.invoke(obj, op, args)?
        };
    }
    let after = orb.dispatch_stats();
    assert_eq!(after.errors, before.errors);
    Ok(([CALLS, after.typed - before.typed, after.raw - before.raw], last))
}

/// Run E1 and render the report.
pub fn run() -> Output {
    match report() {
        Ok(report) => Output { report, ..Output::default() },
        Err(e) => Output::failed(format!("e1: {e}")),
    }
}

fn report() -> Result<String, OrbError> {
    let mut report = String::new();
    let _ = writeln!(
        report,
        "E1: what one invocation passes through in the lightweight ORB (in-process)"
    );
    let repo = Arc::new(compile(IDL).map_err(|e| OrbError::Internal(e.to_string()))?);

    // direct struct call: no adapter, no type check, nothing encoded.
    let mut direct = BenchImpl { total: 0 };
    for _ in 0..CALLS {
        let args = [Value::Long(1)];
        let mut inv = Invocation::new("bump", &args);
        direct.dispatch(&mut inv)?;
    }
    assert_eq!(direct.total, CALLS as i64);
    let mut rows = vec![row("direct struct call", &[CALLS, 0, 0, 0, 0])];

    // ORB-mediated, through the unified `Orb` trait (the same series
    // runs below over the simulated-network flavour). Request bytes are
    // what the ORB itself tallied, reply bytes the CDR size of the
    // outcome.
    let orb = LocalOrb::new(repo.clone());
    let obj = orb.activate(Box::new(BenchImpl { total: 0 }));
    let labels = ["ORB (adapter + type check)", "ORB + CDR round-trip", "ORB echo(string64)"];
    for (label, entry) in labels.into_iter().zip(series()) {
        let bytes_before = orb.request_bytes();
        let ([calls, typed, raw], out) = drive(&orb, &obj, &entry)?;
        let request = (orb.request_bytes() - bytes_before) / CALLS;
        assert_eq!(request, encoded_len(&entry.2));
        rows.push(row(label, &[calls, typed, raw, request, encoded_len(&[out.ret])]));
    }

    // concurrent callers on a fresh servant: every bump must land (a
    // failed one leaves the servant total and the dispatch count short).
    let shared = orb.activate(Box::new(BenchImpl { total: 0 }));
    let before = orb.dispatch_stats();
    #[expect(clippy::disallowed_methods, reason = "E1 shows LocalOrb dispatching from real threads; only counts are printed")]
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..PER_THREAD {
                    let _ = orb.invoke(&shared, "bump", &[Value::Long(1)]);
                }
            });
        }
    });
    let after = orb.dispatch_stats();
    let total = orb.invoke(&shared, "bump", &[Value::Long(0)])?.ret;
    assert_eq!(after.typed - before.typed, THREADS * PER_THREAD);
    assert_eq!(after.errors, before.errors);
    assert_eq!(total, Value::Long((THREADS * PER_THREAD) as i32));
    rows.push(row(
        "ORB, 4 threads",
        &[
            THREADS * PER_THREAD,
            after.typed - before.typed,
            after.raw - before.raw,
            encoded_len(&[Value::Long(1)]),
            encoded_len(&[total]),
        ],
    ));
    report.push_str(&format_table(
        "per path: calls made, adapter dispatches, CDR bytes per call",
        &["path", "calls", "typed", "raw", "request B", "reply B"],
        &rows,
    ));
    let _ = writeln!(
        report,
        "\n4 threads x {PER_THREAD} bumps: servant total {} (asserted), no dispatch lost \
         under the ORB lock",
        THREADS * PER_THREAD
    );

    // The same series through the simulated-network flavour of the
    // `Orb` trait: each call is a real GIOP-style request/reply through
    // the DES fabric (two-host LAN). Wire sizes are the ORB's own
    // (header + op name + CDR body) and must equal what the fabric
    // carried.
    let sim_orb = SimOrbClient::new(repo);
    let sobj = sim_orb.activate(Box::new(BenchImpl { total: 0 }));
    let counters = || {
        let sim = sim_orb.sim();
        let m = sim.metrics_ref();
        (sim.events_fired(), m.counter("net.msgs"), m.counter("net.bytes"))
    };
    let mut sim_rows = Vec::new();
    let labels = ["SimOrb (DES request/reply)", "SimOrb + CDR round-trip", "SimOrb echo(string64)"];
    for (label, entry) in labels.into_iter().zip(series()) {
        let (ev0, msgs0, bytes0) = counters();
        let ([calls, typed, raw], out) = drive(&sim_orb, &sobj, &entry)?;
        let (ev1, msgs1, bytes1) = counters();
        let request = SimOrb::request_size(entry.1, &entry.2);
        let reply = SimOrb::reply_size(&Ok(out));
        assert_eq!(bytes1 - bytes0, CALLS * (request + reply));
        assert_eq!(((ev1 - ev0) % CALLS, (msgs1 - msgs0) % CALLS), (0, 0));
        let per_call = [(ev1 - ev0) / CALLS, (msgs1 - msgs0) / CALLS];
        sim_rows.push(row(label, &[calls, typed, raw, request, reply, per_call[0], per_call[1]]));
    }
    report.push_str(&format_table(
        "same workload, simulated-network Orb flavour (per call: wire bytes, kernel events, wire messages)",
        &["path", "calls", "typed", "raw", "request B", "reply B", "events", "msgs"],
        &sim_rows,
    ));

    let _ = writeln!(
        report,
        "\nR1 check: a call passes through one adapter dispatch and one type check, no\n\
         generated stubs and no transaction/persistence machinery (the paper's\n\
         'lightweight' contrast with CCM/EJB); a remote call adds two frames and three\n\
         kernel events. Host nanoseconds per step: .perf rows orb.direct_dispatch_ns ->\n\
         orb.local_typed_ns -> orb.local_marshalled_ns -> orb.sim_roundtrip_ns."
    );
    Ok(report)
}
