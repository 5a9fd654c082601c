//! Driver for grid jobs on a simulated CORBA-LC world — shared by the
//! tests, the `grid_parallel` example and the E8 experiment.

use crate::{PiMasterServant, PiWorkerServant};
use lc_core::testkit::{fast_config, World};
use lc_core::InstanceId;
use lc_des::SimTime;
use lc_net::{HostId, Topology};
use lc_orb::{ObjectRef, Value};

/// A deployed π job: master + scattered workers.
pub struct GridSession {
    /// The world.
    pub world: World,
    /// Host running the master.
    pub master_host: HostId,
    /// The master instance.
    pub master: ObjectRef,
    /// Master's instance id (for servant inspection).
    pub master_instance: InstanceId,
    /// One worker reference per worker host.
    pub workers: Vec<(HostId, ObjectRef)>,
}

/// Build a world with grid packages everywhere and spawn master +
/// workers: master on host 0, one worker on each of `worker_hosts`.
pub fn deploy(topo: Topology, seed: u64, worker_hosts: &[HostId]) -> GridSession {
    let mut world = World::on(
        topo,
        seed,
        fast_config(),
        crate::catalog(),
        |_| vec![crate::worker_package(), crate::master_package()],
    );
    world.sim.run_until(SimTime::from_millis(10));

    let master_host = HostId(0);
    let wait = SimTime::from_millis(10);
    let master = world.spawn(master_host, "PiMaster", Some("master"), wait);
    let master_instance = match world.node(master_host).and_then(|n| n.registry.named("master")) {
        Some(info) => info.id,
        None => panic!("deploy: the master just spawned on {master_host} is not registered"),
    };

    let mut workers = Vec::new();
    for (i, &wh) in worker_hosts.iter().enumerate() {
        let wref = world.spawn(wh, "PiWorker", Some(&format!("worker{i}")), wait);
        // Connect the worker to the master's multi-receptacle.
        world.oneway(master_host, &master, "add_worker", vec![Value::ObjRef(wref.clone())]);
        workers.push((wh, wref));
    }
    world.run_for(SimTime::from_millis(100));
    GridSession { world, master_host, master, master_instance, workers }
}

impl GridSession {
    /// Start a job and run it to completion: [`Self::start_job`] then
    /// [`Self::await_job`].
    pub fn run_job(&mut self, total_work: u64, chunks: u32, timeout: SimTime) -> Option<SimTime> {
        self.start_job(total_work, chunks);
        self.await_job(timeout)
    }

    /// Hand the master `total_work` units split into `chunks`.
    pub fn start_job(&mut self, total_work: u64, chunks: u32) {
        let job = vec![Value::ULongLong(total_work), Value::ULong(chunks)];
        self.world.oneway(self.master_host, &self.master, "start", job);
    }

    /// Run the simulation (nudging the master every 500ms so lost
    /// chunks are re-dispatched) until the started job finishes or
    /// `timeout` virtual time elapses. Returns the elapsed job time.
    pub fn await_job(&mut self, timeout: SimTime) -> Option<SimTime> {
        let start = self.world.sim.now();
        loop {
            self.world.run_for(SimTime::from_millis(500));
            if let Some(elapsed) = self.master_servant().and_then(|m| m.elapsed()) {
                return Some(elapsed);
            }
            if self.world.sim.now() - start > timeout {
                return None;
            }
            // Periodic volunteer-loss recovery.
            self.world.oneway(self.master_host, &self.master, "nudge", vec![]);
        }
    }

    /// Inspect the master servant.
    pub fn master_servant(&self) -> Option<&PiMasterServant> {
        self.world.node(self.master_host)?.servant_of(self.master_instance)
    }

    /// Units processed by each worker host (idle-harvest accounting).
    pub fn worker_units(&self) -> Vec<(HostId, u64)> {
        self.workers
            .iter()
            .filter_map(|(host, _)| {
                let node = self.world.node(*host)?;
                let info = node
                    .registry
                    .instances()
                    .find(|i| i.component == "PiWorker")?;
                let servant: &PiWorkerServant = node.servant_of(info.id)?;
                Some((*host, servant.units_done))
            })
            .collect()
    }
}
