//! The Resource Manager: one of the four node services of Fig. 1.
//!
//! "A way of obtaining both node static characteristics (such as CPU and
//! Operating System Type, ORB) and dynamic system information (such as
//! CPU and memory load, available resources, etc.)" (§2.4.1). The
//! deployment planner reads this to decide "if a component, depending on
//! its hardware requirements, can be physically installed in the node"
//! (§2.4.2), and the Distributed Registry aggregates the periodic
//! [`ResourceReport`]s for soft-consistency membership (§2.4.3).

use lc_net::{DeviceClass, HostCfg};
use lc_pkg::{Platform, QosSpec};
use std::rc::Rc;

/// Static hardware/OS/ORB characteristics, reflected from the host.
#[derive(Clone, Debug)]
pub struct StaticInfo {
    /// Platform triple this node can execute.
    pub platform: Platform,
    /// Device class (workstation / server / PDA).
    pub device: DeviceClass,
    /// CPU power in reference units.
    pub cpu_power: f64,
    /// Physical memory, bytes.
    pub memory: u64,
    /// Nominal uplink bandwidth, bytes/sec.
    pub up_bw: f64,
    /// Nominal downlink bandwidth, bytes/sec.
    pub down_bw: f64,
}

/// The dynamic side: what is currently allocated.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DynamicInfo {
    /// CPU share currently reserved by instances (reference units).
    pub cpu_used: f64,
    /// Memory currently reserved by instances, bytes.
    pub mem_used: u64,
    /// Number of running component instances.
    pub instances: u32,
}

/// One node's resource snapshot, as shipped in keep-alive reports.
///
/// The two parts that almost never change are shared, not copied: every
/// report a node sends, and every record an MRM keeps of it, points at
/// the same `StaticInfo` and the same installed-name list until the
/// node's repository changes. Cloning a report is two reference bumps.
#[derive(Clone, Debug)]
pub struct ResourceReport {
    /// Static characteristics (fixed for the node's lifetime).
    pub static_info: Rc<StaticInfo>,
    /// Current allocation.
    pub dynamic: DynamicInfo,
    /// Names of components installed locally (for query summaries): the
    /// Component Repository's current snapshot.
    pub installed: Rc<[Rc<str>]>,
}

impl ResourceReport {
    /// Approximate wire size of this report in bytes (charged to the
    /// network by the cohesion protocol).
    pub fn wire_size(&self) -> u64 {
        // platform triple + device + 4 floats + counts
        let base = 64u64;
        let names: u64 = self.installed.iter().map(|n| n.len() as u64 + 4).sum();
        base + names
    }
}

/// The Resource Manager service state.
#[derive(Clone, Debug)]
pub struct ResourceManager {
    static_info: Rc<StaticInfo>,
    dynamic: DynamicInfo,
}

impl ResourceManager {
    /// Build from the host's fabric configuration. PDAs execute the `arm`
    /// platform, everything else the reference platform.
    pub fn from_host_cfg(cfg: &HostCfg) -> Self {
        let platform = match cfg.device {
            DeviceClass::Pda => Platform::pda(),
            _ => Platform::reference(),
        };
        ResourceManager {
            static_info: Rc::new(StaticInfo {
                platform,
                device: cfg.device,
                cpu_power: cfg.cpu_power,
                memory: cfg.memory,
                up_bw: cfg.up_bw,
                down_bw: cfg.down_bw,
            }),
            dynamic: DynamicInfo::default(),
        }
    }

    /// Static characteristics.
    pub fn static_info(&self) -> &StaticInfo {
        &self.static_info
    }

    /// Current dynamic allocation.
    pub fn dynamic(&self) -> DynamicInfo {
        self.dynamic
    }

    /// Free CPU share (reference units), never negative.
    pub fn cpu_free(&self) -> f64 {
        (self.static_info.cpu_power - self.dynamic.cpu_used).max(0.0)
    }

    /// Free memory in bytes, never negative.
    pub fn mem_free(&self) -> u64 {
        self.static_info.memory.saturating_sub(self.dynamic.mem_used)
    }

    /// CPU utilisation in [0, 1].
    pub fn cpu_utilisation(&self) -> f64 {
        (self.dynamic.cpu_used / self.static_info.cpu_power).min(1.0)
    }

    /// Can an instance with this QoS be admitted right now?
    pub fn admits(&self, qos: &QosSpec) -> bool {
        self.cpu_free() >= qos.cpu_min
            && self.mem_free() >= qos.memory
            && self.static_info.down_bw >= qos.bandwidth_min
    }

    /// Reserve resources for a new instance. Returns `false` (and
    /// reserves nothing) if the QoS cannot be admitted.
    pub fn reserve(&mut self, qos: &QosSpec) -> bool {
        if !self.admits(qos) {
            return false;
        }
        self.dynamic.cpu_used += qos.cpu_min;
        self.dynamic.mem_used += qos.memory;
        self.dynamic.instances += 1;
        true
    }

    /// Release a previously reserved QoS (instance destroyed/migrated).
    pub fn release(&mut self, qos: &QosSpec) {
        self.dynamic.cpu_used = (self.dynamic.cpu_used - qos.cpu_min).max(0.0);
        self.dynamic.mem_used = self.dynamic.mem_used.saturating_sub(qos.memory);
        self.dynamic.instances = self.dynamic.instances.saturating_sub(1);
    }

    /// Build the keep-alive report (installed-name snapshot supplied by
    /// the Component Repository). Allocation-free.
    pub fn report(&self, installed: &Rc<[Rc<str>]>) -> ResourceReport {
        ResourceReport {
            static_info: Rc::clone(&self.static_info),
            dynamic: self.dynamic,
            installed: Rc::clone(installed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_net::{HostCfg, SiteId, Topology};

    fn cfg() -> HostCfg {
        let mut t = Topology::new();
        let s = t.add_site("x");
        let _ = s;
        HostCfg::new(SiteId(0))
    }

    #[test]
    fn reserve_and_release() {
        let mut rm = ResourceManager::from_host_cfg(&cfg());
        let qos = QosSpec { cpu_min: 0.4, cpu_max: 1.0, memory: 100 << 20, bandwidth_min: 0.0 };
        assert!(rm.admits(&qos));
        assert!(rm.reserve(&qos));
        assert!(rm.reserve(&qos));
        // third instance would exceed cpu 1.0
        assert!(!rm.reserve(&qos));
        assert_eq!(rm.dynamic().instances, 2);
        assert!(rm.cpu_utilisation() > 0.7);
        rm.release(&qos);
        assert!(rm.reserve(&qos));
        rm.release(&qos);
        rm.release(&qos);
        rm.release(&qos);
        assert_eq!(rm.dynamic(), DynamicInfo::default());
    }

    #[test]
    fn pda_admission_is_tight() {
        let mut t = Topology::new();
        let s = t.add_site("x");
        let pda_cfg = HostCfg::new(s).pda();
        let rm = ResourceManager::from_host_cfg(&pda_cfg);
        assert_eq!(rm.static_info().platform, Platform::pda());
        // A typical workstation component does not fit on a PDA.
        let fat = QosSpec { cpu_min: 0.5, cpu_max: 1.0, memory: 64 << 20, bandwidth_min: 0.0 };
        assert!(!rm.admits(&fat));
        // A thin component does.
        let thin = QosSpec { cpu_min: 0.01, cpu_max: 0.05, memory: 1 << 20, bandwidth_min: 0.0 };
        assert!(rm.admits(&thin));
        // A bandwidth-hungry component does not (PDA link is slow).
        let stream =
            QosSpec { cpu_min: 0.01, cpu_max: 0.05, memory: 1 << 20, bandwidth_min: 1e6 };
        assert!(!rm.admits(&stream));
    }

    #[test]
    fn report_reflects_state() {
        let mut rm = ResourceManager::from_host_cfg(&cfg());
        let qos = QosSpec::default();
        rm.reserve(&qos);
        let rep = rm.report(&Rc::from([Rc::from("A"), Rc::from("B")]));
        assert_eq!(rep.dynamic.instances, 1);
        assert_eq!(rep.installed.len(), 2);
        assert!(rep.wire_size() > 64);
    }
}
