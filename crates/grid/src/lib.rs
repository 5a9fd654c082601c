//! # lc-grid — Grid computing on CORBA-LC (§3.2 of the paper)
//!
//! "Our view of Grid Computation targets scalable and intelligent
//! resource and CPU usage within a distributed system, using techniques
//! such as IDLE computation and volunteer computing." The paper's
//! static-property list (§2.1.1) includes **Aggregation**: "if this
//! component knows how to split itself in different instances to process
//! a set of data (data-parallel components) and how to gather partial
//! results into a complete solution."
//!
//! This crate implements that aggregation pattern as CORBA-LC
//! components:
//!
//! * [`PiWorkerServant`] — computes Monte-Carlo π samples; each chunk
//!   burns CPU proportional to its work units, scaled by the hosting
//!   node's CPU power (idle workstations contribute their real speed).
//! * [`PiMasterServant`] — the aggregation component: splits a job into
//!   chunks, scatters them over its connected workers, gathers partials,
//!   and **re-dispatches chunks lost to crashed volunteers** (the
//!   volunteer-computing failure model — workers are expendable).
//!
//! E8 reproduces the speedup/efficiency table; the volunteer test below
//! reproduces the "crashed volunteer does not lose the job" property.

use lc_core::behavior::BehaviorRegistry;
use lc_core::testkit::Catalog;
use lc_orb::{Invocation, ObjectRef, OrbError, Servant, Value};
use lc_pkg::{ComponentDescriptor, Package, Platform, QosSpec, SigningKey, TrustStore, Version};
use std::rc::Rc;
use std::sync::Arc;

/// The Grid IDL.
pub const GRID_IDL: &str = r#"
    module grid {
      interface Worker {
        unsigned long long compute(in unsigned long long seed,
                                   in unsigned long long work_units);
      };
      interface Job {
        void add_worker(in Worker w);
        void start(in unsigned long long total_work, in unsigned long chunks);
        void nudge();
        boolean finished();
        double result();
      };
      eventtype JobDone { double result; unsigned long long elapsed_ns; };
    };
"#;

/// Compile the Grid IDL.
pub fn grid_idl() -> lc_idl::Repository {
    match lc_idl::compile(GRID_IDL) {
        Ok(repo) => repo,
        Err(e) => panic!("grid IDL must compile: {e:?}"),
    }
}

/// Deterministic xorshift sampling: how many of `n` pseudo-random points
/// fall inside the unit circle.
pub fn mc_hits(seed: u64, n: u64) -> u64 {
    let mut x = seed | 1;
    let mut hits = 0u64;
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let a = ((x >> 32) as u32) as f64 / u32::MAX as f64;
        let b = (x as u32) as f64 / u32::MAX as f64;
        if a * a + b * b <= 1.0 {
            hits += 1;
        }
    }
    hits
}

/// Fetch argument `i` as an unsigned integer, or raise `BadParam` —
/// dispatch must reject a mistyped invocation, not panic on it.
fn arg_u64(inv: &Invocation<'_>, i: usize) -> Result<u64, OrbError> {
    inv.args
        .get(i)
        .and_then(Value::as_u64)
        .ok_or_else(|| OrbError::BadParam(format!("{}: arg {i} must be unsigned", inv.op)))
}

/// A Monte-Carlo π worker: CPU cost proportional to work units.
pub struct PiWorkerServant {
    /// Reference-CPU time per million work units.
    pub cost_per_mega_unit: lc_des::SimTime,
    /// Total units processed (for utilization accounting).
    pub units_done: u64,
}

impl Default for PiWorkerServant {
    fn default() -> Self {
        PiWorkerServant {
            cost_per_mega_unit: lc_des::SimTime::from_millis(100),
            units_done: 0,
        }
    }
}

impl Servant for PiWorkerServant {
    fn interface_id(&self) -> &str {
        "IDL:grid/Worker:1.0"
    }
    fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
        match inv.op {
            "compute" => {
                let seed = arg_u64(inv, 0)?;
                let units = arg_u64(inv, 1)?;
                self.units_done += units;
                inv.set_cpu_cost(self.cost_per_mega_unit.mul_f64(units as f64 / 1e6));
                inv.set_ret(Value::ULongLong(mc_hits(seed, units.min(100_000))));
                Ok(())
            }
            "_get_state" => {
                inv.set_ret(Value::ULongLong(self.units_done));
                Ok(())
            }
            "_set_state" => {
                if let Value::ULongLong(v) = inv.args[0] {
                    self.units_done = v;
                }
                Ok(())
            }
            op => Err(OrbError::BadOperation(op.to_owned())),
        }
    }
}

/// State of one scattered chunk.
#[derive(Clone, Debug)]
struct Chunk {
    seed: u64,
    units: u64,
    /// When it was dispatched (for staleness re-dispatch).
    sent_at: lc_des::SimTime,
    done: bool,
}

/// The aggregation master: split / scatter / gather / re-dispatch.
pub struct PiMasterServant {
    /// Connected workers (multi-receptacle: `_connect_worker` appends).
    pub workers: Vec<ObjectRef>,
    chunks: Vec<Chunk>,
    hits: u64,
    sampled: u64,
    total_work: u64,
    started_at: lc_des::SimTime,
    finished_at: Option<lc_des::SimTime>,
    next_worker: usize,
    /// A chunk unanswered for this long is re-dispatched by `nudge`.
    pub stale_after: lc_des::SimTime,
    /// Chunks re-dispatched after presumed worker loss.
    pub redispatches: u64,
}

impl Default for PiMasterServant {
    fn default() -> Self {
        PiMasterServant {
            workers: Vec::new(),
            chunks: Vec::new(),
            hits: 0,
            sampled: 0,
            total_work: 0,
            started_at: lc_des::SimTime::ZERO,
            finished_at: None,
            next_worker: 0,
            stale_after: lc_des::SimTime::from_secs(2),
            redispatches: 0,
        }
    }
}

impl PiMasterServant {
    /// Elapsed virtual time of the finished job.
    pub fn elapsed(&self) -> Option<lc_des::SimTime> {
        self.finished_at.map(|f| f - self.started_at)
    }

    /// The gathered π estimate.
    pub fn pi_estimate(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        4.0 * self.hits as f64 / self.sampled as f64
    }

    fn dispatch_chunk(&mut self, inv: &mut Invocation<'_>, idx: usize) {
        if self.workers.is_empty() {
            return;
        }
        let w = self.next_worker % self.workers.len();
        self.next_worker += 1;
        let chunk = &mut self.chunks[idx];
        chunk.sent_at = inv.now;
        let target = self.workers[w].clone();
        inv.call_request(
            target,
            "compute",
            vec![Value::ULongLong(chunk.seed), Value::ULongLong(chunk.units)],
            idx as u64,
        );
    }
}

impl Servant for PiMasterServant {
    fn interface_id(&self) -> &str {
        "IDL:grid/Job:1.0"
    }
    fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
        match inv.op {
            "add_worker" | "_connect_worker" => {
                if let Some(w) = inv.args[0].as_objref() {
                    self.workers.push(w.clone());
                }
                Ok(())
            }
            "start" => {
                let total = arg_u64(inv, 0)?;
                let chunks = match inv.args[1] {
                    Value::ULong(c) => c as u64,
                    _ => 1,
                }
                .max(1);
                self.total_work = total;
                self.started_at = inv.now;
                self.finished_at = None;
                self.hits = 0;
                self.sampled = 0;
                self.chunks = (0..chunks)
                    .map(|i| Chunk {
                        seed: 0x9E3779B97F4A7C15u64.wrapping_mul(i + 1),
                        units: total / chunks,
                        sent_at: inv.now,
                        done: false,
                    })
                    .collect();
                for idx in 0..self.chunks.len() {
                    self.dispatch_chunk(inv, idx);
                }
                Ok(())
            }
            "nudge" => {
                // Re-dispatch chunks whose worker went silent (volunteer
                // crashed). The driver calls this periodically.
                let now = inv.now;
                let stale: Vec<usize> = self
                    .chunks
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !c.done && now.saturating_sub(c.sent_at) > self.stale_after)
                    .map(|(i, _)| i)
                    .collect();
                for idx in stale {
                    self.redispatches += 1;
                    self.dispatch_chunk(inv, idx);
                }
                Ok(())
            }
            "finished" => {
                inv.set_ret(Value::Boolean(self.finished_at.is_some()));
                Ok(())
            }
            "result" => {
                inv.set_ret(Value::Double(self.pi_estimate()));
                Ok(())
            }
            "_reply" => {
                let token = arg_u64(inv, 0)?;
                let ok = inv.args[1].as_bool().unwrap_or(false);
                let idx = token as usize;
                if idx >= self.chunks.len() || self.chunks[idx].done {
                    return Ok(()); // duplicate/late reply after re-dispatch
                }
                if !ok {
                    // Immediate failure (worker host already known dead):
                    // try another worker right away.
                    self.redispatches += 1;
                    self.dispatch_chunk(inv, idx);
                    return Ok(());
                }
                let hits = inv.args.get(2).and_then(Value::as_u64).unwrap_or(0);
                let units_counted = self.chunks[idx].units.min(100_000);
                self.chunks[idx].done = true;
                self.hits += hits;
                self.sampled += units_counted;
                if self.chunks.iter().all(|c| c.done) && self.finished_at.is_none() {
                    self.finished_at = Some(inv.now);
                    inv.emit(
                        "job_done",
                        Value::Struct {
                            id: "IDL:grid/JobDone:1.0".into(),
                            fields: vec![
                                Value::Double(self.pi_estimate()),
                                Value::ULongLong((inv.now - self.started_at).as_nanos()),
                            ],
                        },
                    );
                }
                Ok(())
            }
            "_get_state" => {
                inv.set_ret(Value::ULongLong(self.sampled));
                Ok(())
            }
            "_set_state" => Ok(()),
            op => Err(OrbError::BadOperation(op.to_owned())),
        }
    }
}

// ===================== packaging ====================================

/// Grid vendor key.
pub fn grid_key() -> SigningKey {
    SigningKey::new("grid-vendor", b"grid-secret")
}

/// Trust store accepting the Grid vendor.
pub fn grid_trust() -> TrustStore {
    let mut t = TrustStore::new();
    t.trust(&grid_key());
    t
}

/// Register grid behaviours.
pub fn register_grid_behaviors(reg: &BehaviorRegistry) {
    reg.register("grid_worker", || Box::<PiWorkerServant>::default());
    reg.register("grid_master", || Box::<PiMasterServant>::default());
}

/// The grid domain: its behaviours, vendor trust and IDL.
pub fn catalog() -> Catalog {
    let behaviors = BehaviorRegistry::new();
    register_grid_behaviors(&behaviors);
    Catalog { behaviors, trust: grid_trust(), idl: Arc::new(grid_idl()) }
}

fn seal(mut pkg: Package) -> Rc<Vec<u8>> {
    pkg.seal(&grid_key());
    Rc::new(pkg.to_bytes())
}

/// Package: the π worker (mobile, stateless → freely replicable).
pub fn worker_package() -> Rc<Vec<u8>> {
    let mut desc = ComponentDescriptor::new("PiWorker", Version::new(1, 0), "grid-vendor")
        .provides("worker", "IDL:grid/Worker:1.0");
    desc.replication = lc_pkg::Replication::Stateless;
    desc.qos = QosSpec { cpu_min: 0.1, cpu_max: 1.0, memory: 4 << 20, bandwidth_min: 0.0 };
    seal(
        Package::new(desc)
            .with_idl("grid.idl", GRID_IDL)
            .with_binary(Platform::reference(), "grid_worker", &[0x3A; 32 * 1024]),
    )
}

/// Package: the aggregation master (declares `aggregation = true`).
pub fn master_package() -> Rc<Vec<u8>> {
    let mut desc = ComponentDescriptor::new("PiMaster", Version::new(1, 0), "grid-vendor")
        .provides("job", "IDL:grid/Job:1.0")
        .uses("worker", "IDL:grid/Worker:1.0")
        .emits("job_done", "IDL:grid/JobDone:1.0");
    desc.aggregation = true;
    desc.qos = QosSpec { cpu_min: 0.1, cpu_max: 0.5, memory: 4 << 20, bandwidth_min: 0.0 };
    seal(
        Package::new(desc)
            .with_idl("grid.idl", GRID_IDL)
            .with_binary(Platform::reference(), "grid_master", &[0x3B; 48 * 1024]),
    )
}

pub mod harness;

#[cfg(test)]
mod tests;
