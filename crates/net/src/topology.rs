//! Network topology: hosts grouped into sites, with per-class link costs.
//!
//! A *site* models one LAN (an office, a lab, a campus building); hosts in
//! the same site talk over fast, low-latency links, while inter-site
//! traffic crosses the slow WAN lines the paper's packaging and migration
//! requirements are written for. Host configurations also carry the
//! *hardware static characteristics* the Resource Manager reflects
//! (CPU power, memory, device class), so the deployment planner can match
//! component hardware requirements against them.

use lc_des::SimTime;

/// Index of a host in the [`Topology`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct HostId(pub u32);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// Index of a site (LAN) in the [`Topology`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SiteId(pub u16);

/// Classification of a link for traffic accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkClass {
    /// Same host.
    Loopback,
    /// Same site (LAN).
    IntraSite,
    /// Different sites (WAN).
    InterSite,
}

/// Device class of a host — drives the "integration of tiny devices"
/// requirement (R8): a `Pda` has little memory, a slow CPU and usually a
/// slow last-hop link, and can only host components marked as fitting it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DeviceClass {
    /// Ordinary user workstation.
    #[default]
    Workstation,
    /// High-end server.
    Server,
    /// Personal digital assistant / handheld: tiny memory, slow CPU.
    Pda,
}

/// Static configuration of one host.
#[derive(Clone, Debug)]
pub struct HostCfg {
    /// Site (LAN) this host lives in.
    pub site: SiteId,
    /// Uplink bandwidth in bytes/second.
    pub up_bw: f64,
    /// Downlink bandwidth in bytes/second.
    pub down_bw: f64,
    /// Relative CPU power (1.0 = reference workstation).
    pub cpu_power: f64,
    /// Physical memory in bytes.
    pub memory: u64,
    /// Device class for placement matching.
    pub device: DeviceClass,
}

impl HostCfg {
    /// A reference workstation on `site`: 100 Mbit/s symmetric, 512 MiB.
    pub fn new(site: SiteId) -> Self {
        HostCfg {
            site,
            up_bw: 12_500_000.0,
            down_bw: 12_500_000.0,
            cpu_power: 1.0,
            memory: 512 << 20,
            device: DeviceClass::Workstation,
        }
    }

    /// Override both link bandwidths (bytes/second).
    pub fn bw(mut self, up: f64, down: f64) -> Self {
        assert!(up > 0.0 && down > 0.0, "bandwidth must be positive");
        self.up_bw = up;
        self.down_bw = down;
        self
    }

    /// Override CPU power.
    pub fn cpu(mut self, power: f64) -> Self {
        assert!(power > 0.0, "cpu power must be positive");
        self.cpu_power = power;
        self
    }

    /// Override memory size.
    pub fn mem(mut self, bytes: u64) -> Self {
        self.memory = bytes;
        self
    }

    /// Mark as a server-class host (4x CPU, 4 GiB, gigabit).
    pub fn server(mut self) -> Self {
        self.device = DeviceClass::Server;
        self.cpu_power = 4.0;
        self.memory = 4 << 30;
        self.up_bw = 125_000_000.0;
        self.down_bw = 125_000_000.0;
        self
    }

    /// Mark as a PDA-class host (1/10 CPU, 16 MiB, slow wireless link).
    pub fn pda(mut self) -> Self {
        self.device = DeviceClass::Pda;
        self.cpu_power = 0.1;
        self.memory = 16 << 20;
        self.up_bw = 16_000.0;
        self.down_bw = 64_000.0;
        self
    }
}

/// The static shape of the network.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    sites: Vec<String>,
    hosts: Vec<HostCfg>,
    intra_latency: SimTime,
    inter_latency: SimTime,
    /// Optional per-pair overrides keyed by (min, max) site index.
    overrides: Vec<((SiteId, SiteId), SimTime)>,
}

impl Topology {
    /// Fixed cost of a same-host message.
    pub const LOOPBACK_LATENCY: SimTime = SimTime::from_micros(2);

    /// Empty topology with LAN latency 0.2 ms and WAN latency 20 ms.
    pub fn new() -> Self {
        Topology {
            sites: Vec::new(),
            hosts: Vec::new(),
            intra_latency: SimTime::from_micros(200),
            inter_latency: SimTime::from_millis(20),
            overrides: Vec::new(),
        }
    }

    /// Add a named site and return its id.
    pub fn add_site(&mut self, name: &str) -> SiteId {
        assert!(self.sites.len() < u16::MAX as usize, "too many sites");
        self.sites.push(name.to_owned());
        SiteId((self.sites.len() - 1) as u16)
    }

    /// Add a host and return its id.
    pub fn add_host(&mut self, cfg: HostCfg) -> HostId {
        assert!((cfg.site.0 as usize) < self.sites.len(), "unknown site");
        self.hosts.push(cfg);
        HostId((self.hosts.len() - 1) as u32)
    }

    /// All host configurations, indexed by [`HostId`].
    pub fn hosts(&self) -> &[HostCfg] {
        &self.hosts
    }

    /// Set the default inter-site (WAN) latency.
    pub fn set_inter_site_latency(&mut self, l: SimTime) {
        self.inter_latency = l;
    }

    /// Override the latency between one specific pair of sites.
    pub fn set_site_pair_latency(&mut self, a: SiteId, b: SiteId, l: SimTime) {
        let key = (a.min(b), a.max(b));
        if let Some(e) = self.overrides.iter_mut().find(|(k, _)| *k == key) {
            e.1 = l;
        } else {
            self.overrides.push((key, l));
        }
    }

    /// One-way latency between two sites.
    pub fn latency(&self, a: SiteId, b: SiteId) -> SimTime {
        if a == b {
            return self.intra_latency;
        }
        let key = (a.min(b), a.max(b));
        self.overrides
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, l)| *l)
            .unwrap_or(self.inter_latency)
    }

    /// Link classification between two sites.
    pub fn link_class(&self, a: SiteId, b: SiteId) -> LinkClass {
        if a == b {
            LinkClass::IntraSite
        } else {
            LinkClass::InterSite
        }
    }

    // ---- canned topologies used by experiments -------------------------

    /// One LAN with `n` reference workstations.
    pub fn lan(n: usize) -> Self {
        let mut t = Topology::new();
        let s = t.add_site("lan0");
        for _ in 0..n {
            t.add_host(HostCfg::new(s));
        }
        t
    }

    /// `sites` LANs with `hosts_per_site` workstations each, one of which
    /// per site is a server.
    pub fn campus(sites: usize, hosts_per_site: usize) -> Self {
        let mut t = Topology::new();
        for i in 0..sites {
            let s = t.add_site(&format!("site{i}"));
            for j in 0..hosts_per_site {
                let cfg = if j == 0 { HostCfg::new(s).server() } else { HostCfg::new(s) };
                t.add_host(cfg);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_and_overrides() {
        let mut t = Topology::new();
        let a = t.add_site("a");
        let b = t.add_site("b");
        let c = t.add_site("c");
        assert_eq!(t.latency(a, a), SimTime::from_micros(200));
        assert_eq!(t.latency(a, b), SimTime::from_millis(20));
        t.set_site_pair_latency(b, a, SimTime::from_millis(5));
        assert_eq!(t.latency(a, b), SimTime::from_millis(5));
        assert_eq!(t.latency(b, a), SimTime::from_millis(5));
        assert_eq!(t.latency(a, c), SimTime::from_millis(20));
        t.set_site_pair_latency(a, b, SimTime::from_millis(7));
        assert_eq!(t.latency(a, b), SimTime::from_millis(7));
    }

    #[test]
    fn canned_topologies() {
        let lan = Topology::lan(8);
        assert_eq!(lan.hosts().len(), 8);
        let campus = Topology::campus(4, 4);
        assert_eq!(campus.hosts().len(), 16);
        // first host of each site is a server
        assert_eq!(campus.hosts()[0].device, DeviceClass::Server);
        assert_eq!(campus.hosts()[1].device, DeviceClass::Workstation);
        assert_eq!(campus.hosts()[4].device, DeviceClass::Server);
    }

    #[test]
    fn host_cfg_builders() {
        let mut t = Topology::new();
        let s = t.add_site("s");
        let pda = HostCfg::new(s).pda();
        assert_eq!(pda.device, DeviceClass::Pda);
        assert!(pda.cpu_power < 1.0);
        assert!(pda.memory < 64 << 20);
        let srv = HostCfg::new(s).server();
        assert!(srv.cpu_power > 1.0);
        let custom = HostCfg::new(s).bw(1.0, 2.0).cpu(3.0).mem(7);
        assert_eq!(custom.up_bw, 1.0);
        assert_eq!(custom.down_bw, 2.0);
        assert_eq!(custom.cpu_power, 3.0);
        assert_eq!(custom.memory, 7);
    }

    #[test]
    #[should_panic]
    fn host_needs_valid_site() {
        let mut t = Topology::new();
        t.add_host(HostCfg::new(SiteId(3)));
    }
}
