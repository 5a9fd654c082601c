//! Off-by-default regression for admission control: a node without an
//! [`AdmissionConfig`] is byte-identical to the pre-admission runtime,
//! and a node with the *unbounded* config (caps at infinity, nothing
//! ever shed) differs only in the `admission.*` bookkeeping it records
//! — same results, same replies, same counters otherwise. This is the
//! testable form of "E1–E15 goldens are untouched by this feature".

use lc_core::node::{AdmissionConfig, InvokePolicy, NodeCmd, NodeConfig, QuerySink};
use lc_core::testkit::{fast_cohesion, World};
use lc_core::{ComponentQuery, InvokeSink};
use lc_des::SimTime;
use lc_net::{HostId, Topology};
use lc_orb::Value;
use std::rc::Rc;

const OWNER: HostId = HostId(5);

/// Admission control configured but fully open: unbounded queues, no
/// deadline awareness, no replication. Behaviour is identical to
/// `admission: None`; only the `admission.*` counters are recorded.
fn unbounded() -> AdmissionConfig {
    AdmissionConfig {
        query_queue_cap: usize::MAX,
        cpu_backlog_cap: SimTime::MAX,
        deadline_aware: false,
        replicate_hot: None,
    }
}

/// Everything observable about one run: normalized query results,
/// per-invoke reply transcripts, and the full simulation counter and
/// summary dumps.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    queries: Vec<Vec<(u32, String)>>,
    replies: Vec<Vec<(u64, String)>>,
    counters: Vec<(String, u64)>,
    summaries: Vec<(String, u64, String)>,
}

impl Fingerprint {
    /// Drop the `admission.*` keys — the only trace the unbounded
    /// config is allowed to leave.
    fn without_admission_keys(mut self) -> Fingerprint {
        self.counters.retain(|(k, _)| !k.starts_with("admission."));
        self.summaries.retain(|(k, _, _)| !k.starts_with("admission."));
        self
    }

    fn has_admission_keys(&self) -> bool {
        self.counters.iter().any(|(k, _)| k.starts_with("admission."))
            || self.summaries.iter().any(|(k, _, _)| k.starts_with("admission."))
    }
}

/// A mixed workload over a 2×4 campus: `Display` spawned on a back
/// host, discovery queries from two fronts, then a paced stream of
/// draws — enough traffic to exercise query, invoke, reply and
/// keep-alive paths without ever approaching a queue bound.
fn workload(admission: Option<AdmissionConfig>, seed: u64) -> Fingerprint {
    let config = NodeConfig {
        cohesion: fast_cohesion(),
        invoke: InvokePolicy::standard(),
        admission,
        ..Default::default()
    };
    let mut w: World = World::on(
        Topology::campus(2, 4),
        seed,
        config,
        lc_core::demo::catalog(),
        |h| if h == OWNER { vec![lc_core::demo::display_package()] } else { Vec::new() },
    );
    let target = w.spawn(OWNER, "Display", None, SimTime::from_secs(1));

    let mut qsinks: Vec<QuerySink> = Vec::new();
    let mut isinks: Vec<InvokeSink> = Vec::new();
    for round in 0..6u64 {
        for origin in [HostId(2), HostId(6)] {
            let display = ComponentQuery::by_name("Display", lc_pkg::Version::new(2, 0));
            qsinks.push(w.query(origin, display, false));
            for i in 0..8u64 {
                let sink: InvokeSink = Rc::default();
                isinks.push(sink.clone());
                w.sim.send_in(
                    SimTime::from_micros(500 * i),
                    w.net.actor_of(origin),
                    NodeCmd::Invoke {
                        target: target.clone(),
                        op: if (round + i) % 5 == 0 { "drawn".into() } else { "draw".into() },
                        args: if (round + i) % 5 == 0 {
                            Vec::new()
                        } else {
                            vec![Value::string("x")]
                        },
                        oneway: false,
                        sink: Some(sink),
                    },
                );
            }
        }
        w.run_for(SimTime::from_millis(120));
    }
    w.run_for(SimTime::from_secs(3));

    Fingerprint {
        queries: qsinks
            .iter()
            .map(|s| {
                let r = s.borrow();
                let mut set: Vec<(u32, String)> =
                    r.offers.iter().map(|o| (o.node.0, o.component.to_string())).collect();
                set.sort();
                set
            })
            .collect(),
        replies: isinks
            .iter()
            .map(|s| {
                s.borrow()
                    .iter()
                    .map(|(at, r)| {
                        (at.as_nanos(), match r {
                            Ok(out) => format!("ok:{:?}", out.ret),
                            Err(e) => format!("err:{e}"),
                        })
                    })
                    .collect()
            })
            .collect(),
        counters: w.sim.metrics_ref().counters().map(|(k, v)| (k.to_owned(), v)).collect(),
        summaries: w
            .sim
            .metrics_ref()
            .summaries()
            .map(|(k, h)| (k.to_owned(), h.count(), format!("{:.6}", h.sum())))
            .collect(),
    }
}

/// The default configuration ships with admission off — the contract
/// every pre-E16 golden relies on.
#[test]
fn admission_is_off_by_default() {
    assert!(NodeConfig::default().admission.is_none());
}

/// `admission: None` runs leave no `admission.*` trace and are
/// deterministic run over run.
#[test]
fn disabled_admission_leaves_no_trace_and_stays_deterministic() {
    let a = workload(None, 42);
    let b = workload(None, 42);
    assert!(!a.has_admission_keys(), "admission counters exist with admission off");
    assert_eq!(a, b);
}

/// The unbounded admission config is observationally identical to no
/// admission config at all, except for the `admission.*` bookkeeping:
/// same query results, same reply transcripts (values *and* timing),
/// same counters and summaries otherwise.
#[test]
fn unbounded_admission_differs_only_in_admission_counters() {
    let off = workload(None, 42);
    let on = workload(Some(unbounded()), 42);
    assert!(on.has_admission_keys(), "unbounded admission recorded nothing — vacuous");
    assert_eq!(off, on.without_admission_keys());
}
