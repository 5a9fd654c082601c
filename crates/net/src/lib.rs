//! # lc-net — simulated network fabric
//!
//! The CORBA-LC deployment model runs on "a potentially large number of
//! hosts" connected by "possibly long and slow communication lines" (§2.3,
//! §2.4.3 of the paper). This crate models that substrate on top of the
//! [`lc_des`] kernel:
//!
//! * a [`Topology`] of **hosts** grouped into **sites** (a site ≈ one LAN;
//!   inter-site links are the slow WAN lines the paper worries about),
//! * a latency + bandwidth cost model with FIFO serialization at each
//!   host's uplink and downlink,
//! * **fault injection**, each fault one way, at the send boundary:
//!   hosts crash and recover ([`Net::set_host_up`]); a seeded
//!   [`FaultPlan`] injects message-level faults (loss, jitter,
//!   duplication, reordering, scheduled crashes) and is the only way
//!   hosts are partitioned (timed windows, see [`fault`]); a [`churn`]
//!   process is configured only through [`NetBuilder::churn`]; and
//!   [`Net::install_drivers`] arms both schedules,
//! * byte/message accounting split into intra-site and inter-site traffic
//!   (the quantity the paper's "reduces network load and exploits
//!   locality" claim is about).
//!
//! The fabric is shared state (`Rc<RefCell<…>>`): host actors hold a
//! [`Net`] handle and call [`Net::send`] from inside their event handlers;
//! the fabric computes the delivery time and schedules a [`NetMsg`] for the
//! destination host's bound actor.

pub mod churn;
pub mod fault;
pub mod topology;

pub use churn::{ChurnConfig, ChurnHooks};
pub use fault::{CrashWindow, FaultPlan, LinkFaults, PartitionWindow};
pub use topology::{DeviceClass, HostCfg, HostId, LinkClass, SiteId, Topology};

use fault::Verdict;
use lc_des::{ActorId, AnyMsg, Counter, Ctx, Sim, SimTime};
use lc_trace::{TraceContext, Tracer};
use std::cell::RefCell;
use std::rc::Rc;

/// A frame as delivered by the fabric to a host's actor: the header
/// plus the sender's payload, inline.
///
/// [`Net::send`] schedules a `NetMsg<M>` for the payload type `M` it was
/// given, by value in the kernel's mail lane for that type, so a host
/// actor opens the [`lc_des::Mail`] it receives in
/// [`lc_des::Actor::handle_mail`] straight as `NetMsg<ItsProtocol>` —
/// nothing allocated, one type check per frame. Always name the payload
/// type; the default argument exists only because the frozen benchmark
/// crate spells the bare name.
// frozen .perf surface: goes with ROADMAP 1a
pub struct NetMsg<P = AnyMsg> {
    /// Sending host.
    pub from: HostId,
    /// Receiving host.
    pub to: HostId,
    /// Size on the wire in bytes (headers included by the caller).
    pub size: u64,
    /// Trace context stamped into the frame header by [`Net::send`]:
    /// the message span receivers parent their handler spans under.
    /// `None` when tracing is off or the send was outside any trace.
    pub trace: Option<TraceContext>,
    /// The protocol payload.
    pub payload: P,
}

/// Why a send was dropped instead of delivered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// The sending host is down.
    SenderDown,
    /// The destination host is down at send time.
    ReceiverDown,
    /// Destination host has no bound actor (host exists but no node
    /// process is listening — e.g. during restart).
    Unbound,
}

struct HostState {
    cfg: HostCfg,
    up: bool,
    bound: Option<ActorId>,
    /// Time the uplink/downlink becomes free (FIFO serialization).
    up_free: SimTime,
    down_free: SimTime,
    bytes_sent: u64,
    bytes_recv: u64,
}

struct NetInner {
    topo: Topology,
    hosts: Vec<HostState>,
    /// Message-level fault schedule; `None` draws zero fault randomness.
    fault: Option<FaultPlan>,
    /// Churn process armed by [`Net::install_drivers`].
    churn: Option<ChurnConfig>,
    /// Span sink shared by everything on this fabric (disabled by
    /// default: every tracing operation is then a no-op).
    tracer: Tracer,
}

/// A fully planned point-to-point transmission ([`Net::send`]).
enum Planned {
    Deliver {
        target: ActorId,
        deliver_at: SimTime,
        class: LinkClass,
        delayed: bool,
        dup_at: Option<SimTime>,
    },
    Lost {
        would_arrive: SimTime,
        class: LinkClass,
        severed: bool,
    },
}

/// Fluent constructor for [`Net`]: topology, fault plan and churn config
/// in one chain.
///
/// ```
/// use lc_des::SimTime;
/// use lc_net::{ChurnConfig, FaultPlan, HostId, LinkFaults, Net, Topology};
///
/// let net = Net::builder(Topology::lan(8))
///     .fault_plan(FaultPlan::seeded(7).default_link(LinkFaults::none().drop_p(0.01)))
///     .churn(ChurnConfig {
///         mean_uptime: SimTime::from_secs(30),
///         mean_downtime: SimTime::from_secs(5),
///         victims: vec![HostId(3)],
///         until: SimTime::from_secs(120),
///     })
///     .build();
/// assert_eq!(net.host_ids().len(), 8);
/// ```
pub struct NetBuilder {
    topo: Topology,
    fault: Option<FaultPlan>,
    churn: Option<ChurnConfig>,
    tracer: Option<Tracer>,
}

/// Handle to the shared network fabric. Cheap to clone.
#[derive(Clone)]
pub struct Net {
    inner: Rc<RefCell<NetInner>>,
}

/// The plain fabric over `topo`: no faults, no churn, tracing off.
impl From<Topology> for Net {
    fn from(topo: Topology) -> Net {
        Net::builder(topo).build()
    }
}

impl NetBuilder {
    /// Inject message-level faults according to `plan` (`None`: a
    /// fault-free fabric that draws no fault randomness).
    pub fn fault_plan(mut self, plan: impl Into<Option<FaultPlan>>) -> Self {
        self.fault = plan.into();
        self
    }

    /// Configure a churn process (armed by [`Net::install_drivers`]);
    /// `None` leaves every host up.
    pub fn churn(mut self, cfg: impl Into<Option<ChurnConfig>>) -> Self {
        self.churn = cfg.into();
        self
    }

    /// Attach a span sink: [`Net::send`] records message spans into it
    /// and everything holding a [`Net`] handle reaches it via
    /// [`Net::tracer`]. Without this call the fabric carries a disabled
    /// tracer and no tracing state changes at all.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Build the fabric. All hosts start up and unbound.
    pub fn build(self) -> Net {
        let hosts = self
            .topo
            .hosts()
            .iter()
            .map(|cfg| HostState {
                cfg: cfg.clone(),
                up: true,
                bound: None,
                up_free: SimTime::ZERO,
                down_free: SimTime::ZERO,
                bytes_sent: 0,
                bytes_recv: 0,
            })
            .collect();
        Net {
            inner: Rc::new(RefCell::new(NetInner {
                topo: self.topo,
                hosts,
                fault: self.fault,
                churn: self.churn,
                tracer: self.tracer.unwrap_or_default(),
            })),
        }
    }
}

impl Net {
    /// Start building a fabric for `topo`.
    pub fn builder(topo: Topology) -> NetBuilder {
        NetBuilder { topo, fault: None, churn: None, tracer: None }
    }

    /// The fabric's span sink (a disabled tracer unless
    /// [`NetBuilder::tracer`] attached one). Cheap to clone.
    pub fn tracer(&self) -> Tracer {
        self.inner.borrow().tracer.clone()
    }

    /// Arm everything the fabric config scheduled on the simulation:
    /// the fault plan's crash windows and, if configured, the churn
    /// process. Both report node state changes through the same
    /// `hooks`, so the layer above handles scheduled and random
    /// crashes identically. Call once, before `sim.run*`. A fabric with
    /// neither builds no hooks and schedules nothing.
    pub fn install_drivers(&self, sim: &mut Sim, hooks: impl FnOnce() -> ChurnHooks) {
        let (crashes, churn) = {
            let inner = self.inner.borrow();
            let crashes: Vec<CrashWindow> =
                inner.fault.as_ref().map(|p| p.crashes().to_vec()).unwrap_or_default();
            (crashes, inner.churn.clone())
        };
        if crashes.is_empty() && churn.is_none() {
            return;
        }
        let hooks = Rc::new(RefCell::new(hooks()));
        for cw in crashes {
            let (net, h) = (self.clone(), hooks.clone());
            sim.control_in(cw.down_at.saturating_sub(sim.now()), move |sim| {
                net.set_host_up(cw.host, false);
                sim.metrics().incr(Counter::NetFaultCrashes);
                (h.borrow_mut().on_crash)(sim, cw.host);
            });
            if let Some(up_at) = cw.up_at {
                let (net, h) = (self.clone(), hooks.clone());
                sim.control_in(up_at.saturating_sub(sim.now()), move |sim| {
                    net.set_host_up(cw.host, true);
                    sim.metrics().incr(Counter::NetFaultRestarts);
                    (h.borrow_mut().on_recover)(sim, cw.host);
                });
            }
        }
        if let Some(cfg) = churn {
            churn::install(sim, self, cfg, hooks);
        }
    }

    /// Number of hosts in the topology.
    pub fn host_count(&self) -> usize {
        self.inner.borrow().hosts.len()
    }

    /// All host ids.
    pub fn host_ids(&self) -> Vec<HostId> {
        (0..self.host_count() as u32).map(HostId).collect()
    }

    /// The host's static configuration.
    pub fn host_cfg(&self, h: HostId) -> HostCfg {
        self.inner.borrow().hosts[h.0 as usize].cfg.clone()
    }

    /// Bind the DES actor that receives this host's traffic.
    pub fn bind(&self, h: HostId, actor: ActorId) {
        self.inner.borrow_mut().hosts[h.0 as usize].bound = Some(actor);
    }

    /// The actor bound to `h` — its latest incarnation, dead or alive: a
    /// crash leaves the binding, a respawn replaces it. This is the one
    /// host → actor map. Panics if nothing was ever bound.
    pub fn actor_of(&self, h: HostId) -> ActorId {
        match self.inner.borrow().hosts[h.0 as usize].bound {
            Some(actor) => actor,
            None => panic!("host {} has no bound actor", h.0),
        }
    }

    /// Mark a host up or down. Going down clears nothing else: the layer
    /// above decides whether to kill/respawn the bound actor.
    pub fn set_host_up(&self, h: HostId, up: bool) {
        self.inner.borrow_mut().hosts[h.0 as usize].up = up;
    }

    /// Is the host currently up?
    pub fn is_up(&self, h: HostId) -> bool {
        self.inner.borrow().hosts[h.0 as usize].up
    }

    /// Bytes sent / received by a host so far.
    pub fn host_traffic(&self, h: HostId) -> (u64, u64) {
        let inner = self.inner.borrow();
        let hs = &inner.hosts[h.0 as usize];
        (hs.bytes_sent, hs.bytes_recv)
    }

    /// The hottest receiver so far: `(host, bytes received)`, lowest id
    /// on ties. The hotspot metric of the registry experiments — a
    /// single-leader registry concentrates query traffic here.
    pub fn max_recv(&self) -> (HostId, u64) {
        let inner = self.inner.borrow();
        let mut best = (HostId(0), 0u64);
        for (i, h) in inner.hosts.iter().enumerate() {
            if h.bytes_recv > best.1 {
                best = (HostId(i as u32), h.bytes_recv);
            }
        }
        best
    }

    /// Would a send from `a` to `b` pass the fail-fast checks — are both
    /// hosts up? (A [`FaultPlan`] fault stays silent here, as on the wire.)
    pub fn reachable(&self, a: HostId, b: HostId) -> bool {
        let inner = self.inner.borrow();
        inner.hosts[a.0 as usize].up && inner.hosts[b.0 as usize].up
    }

    /// Send `size` bytes of `payload` from host `from` to host `to`.
    ///
    /// On success schedules a [`NetMsg<M>`] — header and payload inline,
    /// stored by value in a mail lane — for the destination's bound actor
    /// and returns the delivery time. Records metrics under `net.*`.
    ///
    /// Fail-fast `Err(DropReason)` covers conditions a real ORB detects
    /// at connect time (host down, unbound).
    /// Faults injected by a [`FaultPlan`] are *silent*: the sender still
    /// pays uplink serialization and gets `Ok(would-have-arrived)` while
    /// nothing (loss, active partition window) or two copies
    /// (duplication) reach the receiver — recovery is the caller's job.
    pub fn send<M: std::any::Any + Clone>(
        &self,
        ctx: &mut Ctx<'_>,
        from: HostId,
        to: HostId,
        size: u64,
        payload: M,
    ) -> Result<SimTime, DropReason> {
        let now = ctx.now();
        let planned = self.plan(ctx, from, to, size)?;
        let inner = self.inner.borrow();
        // Only a send inside a traced operation gets a message span, so
        // the shared handle is cloned out only when tracing is on.
        let tracer = inner.tracer.is_enabled().then(|| inner.tracer.clone());
        drop(inner);

        let m = ctx.metrics();
        m.incr(Counter::NetMsgs);
        m.add(Counter::NetBytes, size);
        let (class, end) = match planned {
            Planned::Lost { would_arrive, class, .. } => (class, would_arrive),
            Planned::Deliver { deliver_at, class, .. } => (class, deliver_at),
        };
        m.add(
            match class {
                LinkClass::Loopback => Counter::NetBytesLoopback,
                LinkClass::IntraSite => Counter::NetBytesIntra,
                LinkClass::InterSite => Counter::NetBytesInter,
            },
            size,
        );
        // Message span: the hop is fully planned, so its interval
        // [send, delivery] is known right now. It parents under the
        // tracer's current context and its id rides in the frame.
        let span = tracer.as_ref().and_then(|tracer| {
            let parent = tracer.current()?;
            let sp = tracer.complete(from.0, "net.msg", Some(parent), now, end)?;
            tracer.set_attr(sp, "to", to.0);
            tracer.set_attr(sp, "bytes", size);
            Some((tracer, sp))
        });
        match planned {
            Planned::Lost { would_arrive, severed, .. } => {
                // The sender transmitted: traffic counts, delivery doesn't.
                m.incr(Counter::NetFaultDropped);
                if severed {
                    m.incr(Counter::NetFaultSevered);
                }
                if let Some((tracer, sp)) = span {
                    tracer.set_attr(sp, "lost", if severed { "severed" } else { "dropped" });
                }
                Ok(would_arrive)
            }
            Planned::Deliver { target, deliver_at, delayed, dup_at, .. } => {
                if delayed {
                    m.incr(Counter::NetFaultDelayed);
                }
                let trace = span.map(|(_, sp)| sp);
                if let Some(dup_at) = dup_at {
                    m.incr(Counter::NetFaultDuplicated);
                    if let Some((tracer, sp)) = span {
                        tracer.set_attr(sp, "duplicated", "true");
                    }
                    ctx.send_in(
                        dup_at.saturating_sub(now),
                        target,
                        NetMsg { from, to, size, trace, payload: payload.clone() },
                    );
                }
                ctx.send_in(
                    deliver_at.saturating_sub(now),
                    target,
                    NetMsg { from, to, size, trace, payload },
                );
                Ok(deliver_at)
            }
        }
    }

    /// Plan one point-to-point transmission of `size` bytes: fail-fast
    /// checks, FIFO serialization at both ends, propagation latency and
    /// the fault plan's verdict. Mutates link FIFO state and traffic
    /// accounting — call exactly once per wire transmission.
    fn plan(
        &self,
        ctx: &mut Ctx<'_>,
        from: HostId,
        to: HostId,
        size: u64,
    ) -> Result<Planned, DropReason> {
        let now = ctx.now();
        let mut guard = self.inner.borrow_mut();
        {
            let inner = &mut *guard;
            if !inner.hosts[from.0 as usize].up {
                ctx.metrics().incr(Counter::NetDropSenderDown);
                return Err(DropReason::SenderDown);
            }
            if !inner.hosts[to.0 as usize].up {
                ctx.metrics().incr(Counter::NetDropReceiverDown);
                return Err(DropReason::ReceiverDown);
            }
            let Some(target) = inner.hosts[to.0 as usize].bound else {
                ctx.metrics().incr(Counter::NetDropUnbound);
                return Err(DropReason::Unbound);
            };

            let from_site = inner.hosts[from.0 as usize].cfg.site;
            let to_site = inner.hosts[to.0 as usize].cfg.site;
            let class = if from == to {
                LinkClass::Loopback
            } else {
                inner.topo.link_class(from_site, to_site)
            };
            let latency = inner.topo.latency(from_site, to_site);

            let planned = if from == to {
                // Loopback: no serialization, no injected faults, a fixed
                // tiny in-host hop.
                inner.hosts[from.0 as usize].bytes_sent += size;
                inner.hosts[to.0 as usize].bytes_recv += size;
                Planned::Deliver {
                    target,
                    deliver_at: now + Topology::LOOPBACK_LATENCY,
                    class,
                    delayed: false,
                    dup_at: None,
                }
            } else {
                // Uplink FIFO serialization at the sender (paid even when
                // the fabric then loses the message)…
                let up_bw = inner.hosts[from.0 as usize].cfg.up_bw;
                let tx = bw_delay(size, up_bw);
                let start = now.max(inner.hosts[from.0 as usize].up_free);
                let up_done = start + tx;
                inner.hosts[from.0 as usize].up_free = up_done;
                inner.hosts[from.0 as usize].bytes_sent += size;
                // …propagation…
                let arrived = up_done + latency;
                let verdict = match inner.fault.as_mut() {
                    None => Verdict::Deliver { extra: SimTime::ZERO, duplicate: None },
                    Some(plan) => plan.decide(from, to, now),
                };
                match verdict {
                    Verdict::Dropped | Verdict::Severed => Planned::Lost {
                        would_arrive: arrived,
                        class,
                        severed: matches!(verdict, Verdict::Severed),
                    },
                    Verdict::Deliver { extra, duplicate } => {
                        // …downlink FIFO serialization at the receiver;
                        // jitter/reorder delay lands *after* the FIFO so a
                        // held-back message really is overtaken.
                        let down_bw = inner.hosts[to.0 as usize].cfg.down_bw;
                        let rx = bw_delay(size, down_bw);
                        let start_rx = arrived.max(inner.hosts[to.0 as usize].down_free);
                        let done = start_rx + rx;
                        inner.hosts[to.0 as usize].down_free = done;
                        inner.hosts[to.0 as usize].bytes_recv += size;
                        let dup_at = duplicate.map(|dup_extra| {
                            inner.hosts[to.0 as usize].bytes_recv += size;
                            done + dup_extra
                        });
                        Planned::Deliver {
                            target,
                            deliver_at: done + extra,
                            class,
                            delayed: extra > SimTime::ZERO,
                            dup_at,
                        }
                    }
                }
            };
            Ok(planned)
        }
    }
}

/// Serialization delay of `size` bytes at `bw` bytes/sec.
fn bw_delay(size: u64, bw: f64) -> SimTime {
    debug_assert!(bw > 0.0);
    SimTime::from_secs_f64(size as f64 / bw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_des::{Actor, AnyMsgExt, Sim};

    /// Actor that records arrival times of NetMsgs.
    struct Sink {
        arrivals: Vec<(SimTime, u64)>,
    }
    impl Actor for Sink {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMsg) {
            let m = msg.downcast_msg::<NetMsg<()>>().expect("NetMsg");
            self.arrivals.push((ctx.now(), m.size));
        }
    }

    /// Actor that sends `copies` messages when poked.
    struct Pusher {
        net: Net,
        from: HostId,
        to: HostId,
        size: u64,
        copies: u32,
    }
    struct Go;
    impl Actor for Pusher {
        fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMsg) {
            for _ in 0..self.copies {
                let _ = self.net.send(ctx, self.from, self.to, self.size, ());
            }
        }
    }

    fn two_host_net(up_bw: f64, down_bw: f64, latency_ms: u64) -> (Net, HostId, HostId) {
        let mut topo = Topology::new();
        let s0 = topo.add_site("a");
        let s1 = topo.add_site("b");
        topo.set_site_pair_latency(s0, s1, SimTime::from_millis(latency_ms));
        let h0 = topo.add_host(HostCfg::new(s0).bw(up_bw, down_bw));
        let h1 = topo.add_host(HostCfg::new(s1).bw(up_bw, down_bw));
        (Net::builder(topo).build(), h0, h1)
    }

    fn two_host_net_with(
        plan: FaultPlan,
        up_bw: f64,
        down_bw: f64,
        latency_ms: u64,
    ) -> (Net, HostId, HostId) {
        let mut topo = Topology::new();
        let s0 = topo.add_site("a");
        let s1 = topo.add_site("b");
        topo.set_site_pair_latency(s0, s1, SimTime::from_millis(latency_ms));
        let h0 = topo.add_host(HostCfg::new(s0).bw(up_bw, down_bw));
        let h1 = topo.add_host(HostCfg::new(s1).bw(up_bw, down_bw));
        (Net::builder(topo).fault_plan(plan).build(), h0, h1)
    }

    #[test]
    fn latency_plus_serialization() {
        // 1000 bytes at 1e6 B/s = 1ms tx + 1ms rx + 10ms latency.
        let (net, h0, h1) = two_host_net(1e6, 1e6, 10);
        let mut sim = Sim::new(1);
        let sink = sim.spawn(Sink { arrivals: vec![] });
        net.bind(h1, sink);
        let pusher =
            sim.spawn(Pusher { net: net.clone(), from: h0, to: h1, size: 1000, copies: 1 });
        net.bind(h0, pusher);
        sim.send_in(SimTime::ZERO, pusher, Go);
        sim.run();
        let arr = &sim.actor_as::<Sink>(sink).unwrap().arrivals;
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].0, SimTime::from_millis(12));
    }

    #[test]
    fn fifo_uplink_serializes_bursts() {
        // Two 1000-byte messages: second waits for the first's uplink slot.
        let (net, h0, h1) = two_host_net(1e6, 1e9, 10);
        let mut sim = Sim::new(1);
        let sink = sim.spawn(Sink { arrivals: vec![] });
        net.bind(h1, sink);
        let pusher =
            sim.spawn(Pusher { net: net.clone(), from: h0, to: h1, size: 1000, copies: 2 });
        net.bind(h0, pusher);
        sim.send_in(SimTime::ZERO, pusher, Go);
        sim.run();
        let arr = &sim.actor_as::<Sink>(sink).unwrap().arrivals;
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].0.saturating_sub(arr[0].0), SimTime::from_millis(1));
    }

    #[test]
    fn loopback_is_cheap_and_classified() {
        let (net, h0, _h1) = two_host_net(1e6, 1e6, 10);
        let mut sim = Sim::new(1);
        let sink = sim.spawn(Sink { arrivals: vec![] });
        net.bind(h0, sink);
        struct SelfSend {
            net: Net,
            h: HostId,
        }
        impl Actor for SelfSend {
            fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMsg) {
                if msg.downcast_msg::<Go>().is_ok() {
                    self.net.send(ctx, self.h, self.h, 1_000_000, ()).unwrap();
                }
            }
        }
        // Rebind: the self-sender is the host actor and receives its own msg.
        let actor = sim.spawn(SelfSend { net: net.clone(), h: h0 });
        net.bind(h0, actor);
        sim.send_in(SimTime::ZERO, actor, Go);
        sim.run();
        assert_eq!(sim.metrics_ref().counter("net.bytes.loopback"), 1_000_000);
        // 1 MB over loopback arrives in the fixed loopback latency.
        assert_eq!(sim.now(), Topology::LOOPBACK_LATENCY);
    }

    #[test]
    fn down_hosts_drop_traffic() {
        let (net, h0, h1) = two_host_net(1e6, 1e6, 1);
        let mut sim = Sim::new(1);
        let sink = sim.spawn(Sink { arrivals: vec![] });
        net.bind(h1, sink);
        let pusher =
            sim.spawn(Pusher { net: net.clone(), from: h0, to: h1, size: 10, copies: 1 });
        net.bind(h0, pusher);
        net.set_host_up(h1, false);
        sim.send_in(SimTime::ZERO, pusher, Go);
        sim.run();
        assert!(sim.actor_as::<Sink>(sink).unwrap().arrivals.is_empty());
        assert_eq!(sim.metrics_ref().counter("net.drop.receiver_down"), 1);
        assert!(!net.reachable(h0, h1));
        net.set_host_up(h1, true);
        assert!(net.reachable(h0, h1));
    }

    #[test]
    fn traffic_accounting_by_class() {
        let mut topo = Topology::new();
        let s0 = topo.add_site("a");
        let h0 = topo.add_host(HostCfg::new(s0));
        let h1 = topo.add_host(HostCfg::new(s0));
        let net = Net::builder(topo).build();
        let mut sim = Sim::new(1);
        let sink = sim.spawn(Sink { arrivals: vec![] });
        net.bind(h1, sink);
        let pusher =
            sim.spawn(Pusher { net: net.clone(), from: h0, to: h1, size: 500, copies: 1 });
        net.bind(h0, pusher);
        sim.send_in(SimTime::ZERO, pusher, Go);
        sim.run();
        assert_eq!(sim.metrics_ref().counter("net.bytes.intra"), 500);
        assert_eq!(sim.metrics_ref().counter("net.bytes.inter"), 0);
        assert_eq!(net.host_traffic(h0).0, 500);
        assert_eq!(net.host_traffic(h1).1, 500);
        assert_eq!(net.max_recv(), (h1, 500));
    }

    #[test]
    fn unbound_host_drops() {
        let (net, h0, h1) = two_host_net(1e6, 1e6, 1);
        let mut sim = Sim::new(1);
        let pusher =
            sim.spawn(Pusher { net: net.clone(), from: h0, to: h1, size: 10, copies: 1 });
        net.bind(h0, pusher);
        sim.send_in(SimTime::ZERO, pusher, Go);
        sim.run();
        assert_eq!(sim.metrics_ref().counter("net.drop.unbound"), 1);
    }

    #[test]
    fn traced_send_records_message_span_and_stamps_frame() {
        let tracer = Tracer::new();
        let net = Net::builder(Topology::lan(2)).tracer(tracer.clone()).build();

        struct TracedSink {
            got: Option<Option<TraceContext>>,
        }
        impl Actor for TracedSink {
            fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: AnyMsg) {
                let m = msg.downcast_msg::<NetMsg<()>>().expect("NetMsg");
                self.got = Some(m.trace);
            }
        }
        struct TracedPusher {
            net: Net,
        }
        impl Actor for TracedPusher {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMsg) {
                let tr = self.net.tracer();
                let root = tr.root(0, "op", ctx.now());
                let prev = tr.set_current(root);
                let _ = self.net.send(ctx, HostId(0), HostId(1), 100, ());
                tr.set_current(prev);
                if let Some(root) = root {
                    tr.end(root, ctx.now());
                }
            }
        }

        let mut sim = Sim::new(1);
        let sink = sim.spawn(TracedSink { got: None });
        net.bind(HostId(1), sink);
        let p = sim.spawn(TracedPusher { net: net.clone() });
        net.bind(HostId(0), p);
        sim.send_in(SimTime::ZERO, p, Go);
        sim.run();

        let got = sim.actor_as::<TracedSink>(sink).unwrap().got.unwrap();
        let ctx = got.expect("frame carries the message-span context");
        let spans = tracer.spans();
        lc_trace::validate(&spans).unwrap();
        let msg = spans.iter().find(|s| s.id == ctx.span).unwrap();
        assert_eq!(msg.name, "net.msg");
        assert!(msg.end > msg.start, "hop takes network time");
        assert_eq!(msg.attr("to"), Some("1"));
        // untraced sends stamp nothing and record nothing
        let net2 = Net::builder(Topology::lan(2)).build();
        assert!(!net2.tracer().is_enabled());
    }

    /// Sends `copies` messages, recording the `Ok` results.
    struct FaultPusher {
        net: Net,
        from: HostId,
        to: HostId,
        copies: u32,
        oks: u32,
    }
    impl Actor for FaultPusher {
        fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMsg) {
            for _ in 0..self.copies {
                if self.net.send(ctx, self.from, self.to, 100, ()).is_ok() {
                    self.oks += 1;
                }
            }
        }
    }

    #[test]
    fn injected_loss_is_silent() {
        // drop_p = 1: nothing arrives, yet every send reports Ok.
        let plan = FaultPlan::seeded(5).default_link(LinkFaults::none().drop_p(1.0));
        let (net, h0, h1) = two_host_net_with(plan, 1e6, 1e6, 1);
        let mut sim = Sim::new(1);
        let sink = sim.spawn(Sink { arrivals: vec![] });
        net.bind(h1, sink);
        let pusher =
            sim.spawn(FaultPusher { net: net.clone(), from: h0, to: h1, copies: 10, oks: 0 });
        net.bind(h0, pusher);
        sim.send_in(SimTime::ZERO, pusher, Go);
        sim.run();
        assert_eq!(sim.actor_as::<FaultPusher>(pusher).unwrap().oks, 10);
        assert!(sim.actor_as::<Sink>(sink).unwrap().arrivals.is_empty());
        assert_eq!(sim.metrics_ref().counter("net.fault.dropped"), 10);
        // the sender transmitted: bytes counted out, none counted in
        assert_eq!(net.host_traffic(h0).0, 1000);
        assert_eq!(net.host_traffic(h1).1, 0);
    }

    #[test]
    fn injected_duplication_delivers_twice() {
        let plan = FaultPlan::seeded(5).default_link(LinkFaults::none().dup_p(1.0));
        let (net, h0, h1) = two_host_net_with(plan, 1e6, 1e6, 1);
        let mut sim = Sim::new(1);
        let sink = sim.spawn(Sink { arrivals: vec![] });
        net.bind(h1, sink);
        let pusher =
            sim.spawn(FaultPusher { net: net.clone(), from: h0, to: h1, copies: 3, oks: 0 });
        net.bind(h0, pusher);
        sim.send_in(SimTime::ZERO, pusher, Go);
        sim.run();
        assert_eq!(sim.actor_as::<Sink>(sink).unwrap().arrivals.len(), 6);
        assert_eq!(sim.metrics_ref().counter("net.fault.duplicated"), 3);
    }

    /// Sends one frame whose payload is a shared snapshot, the way the
    /// node stack ships soft state.
    struct SnapshotPusher {
        net: Net,
        from: HostId,
        to: HostId,
        snapshot: Rc<[u8]>,
    }
    impl Actor for SnapshotPusher {
        fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMsg) {
            let _ = self.net.send(ctx, self.from, self.to, 100, self.snapshot.clone());
        }
    }

    /// Keeps every payload it is handed.
    struct SnapshotSink {
        got: Vec<Rc<[u8]>>,
    }
    impl Actor for SnapshotSink {
        fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: AnyMsg) {
            let m = msg.downcast_msg::<NetMsg<Rc<[u8]>>>().expect("frame with inline payload");
            self.got.push(m.payload);
        }
    }

    /// One snapshot send over a fabric with `faults`; returns the
    /// snapshot, the finished simulation and the receiving actor.
    fn send_snapshot(faults: LinkFaults, kill_receiver: bool) -> (Rc<[u8]>, Sim, ActorId) {
        let plan = FaultPlan::seeded(5).default_link(faults);
        let (net, h0, h1) = two_host_net_with(plan, 1e6, 1e6, 1);
        let mut sim = Sim::new(1);
        let sink = sim.spawn(SnapshotSink { got: Vec::new() });
        net.bind(h1, sink);
        let snapshot: Rc<[u8]> = Rc::from(&b"soft state"[..]);
        let pusher = sim.spawn(SnapshotPusher {
            net: net.clone(),
            from: h0,
            to: h1,
            snapshot: snapshot.clone(),
        });
        net.bind(h0, pusher);
        sim.send_in(SimTime::ZERO, pusher, Go);
        if kill_receiver {
            // The frame is in flight when its receiver dies.
            sim.control_in(SimTime::from_micros(10), move |sim| sim.kill(sink));
        }
        sim.run();
        sim.kill(pusher);
        (snapshot, sim, sink)
    }

    #[test]
    fn duplicated_frame_delivers_two_equal_inline_payloads() {
        let (snapshot, sim, sink) = send_snapshot(LinkFaults::none().dup_p(1.0), false);
        let got = &sim.actor_as::<SnapshotSink>(sink).unwrap().got;
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|p| Rc::ptr_eq(p, &snapshot)));
        // ours + the two delivered copies: nothing else holds one.
        assert_eq!(Rc::strong_count(&snapshot), 3);
    }

    #[test]
    fn lost_frame_drops_its_payload() {
        let (snapshot, sim, sink) = send_snapshot(LinkFaults::none().drop_p(1.0), false);
        assert!(sim.actor_as::<SnapshotSink>(sink).unwrap().got.is_empty());
        assert_eq!(sim.metrics_ref().counter("net.fault.dropped"), 1);
        assert_eq!(Rc::strong_count(&snapshot), 1, "a lost frame must not leak its snapshot");
    }

    #[test]
    fn frame_to_dead_actor_drops_its_payload() {
        let (snapshot, sim, _) = send_snapshot(LinkFaults::none(), true);
        assert_eq!(sim.metrics_ref().counter("des.dropped_to_dead"), 1);
        assert_eq!(Rc::strong_count(&snapshot), 1, "an undeliverable frame must not leak");
    }

    #[test]
    fn send_counters_are_listed_only_once_bumped() {
        // Only what a send wrote may show up in a report's key list.
        let (net, h0, h1) = two_host_net(1e6, 1e6, 1);
        let mut sim = Sim::new(1);
        let sink = sim.spawn(Sink { arrivals: vec![] });
        net.bind(h1, sink);
        let pusher = sim.spawn(Pusher { net: net.clone(), from: h0, to: h1, size: 10, copies: 2 });
        net.bind(h0, pusher);
        sim.send_in(SimTime::ZERO, pusher, Go);
        sim.run();
        let keys: Vec<_> = sim.metrics_ref().counters().collect();
        assert_eq!(keys, [("net.bytes", 20), ("net.bytes.inter", 20), ("net.msgs", 2)]);
    }

    #[test]
    fn partition_window_cuts_then_heals() {
        // Window [0, 5ms): the first send is severed, a send at 5ms lands.
        let plan =
            FaultPlan::seeded(5).partition(SimTime::ZERO, SimTime::from_millis(5), &[HostId(1)]);
        let (net, h0, h1) = two_host_net_with(plan, 1e6, 1e6, 1);
        let mut sim = Sim::new(1);
        let sink = sim.spawn(Sink { arrivals: vec![] });
        net.bind(h1, sink);
        let pusher =
            sim.spawn(FaultPusher { net: net.clone(), from: h0, to: h1, copies: 1, oks: 0 });
        net.bind(h0, pusher);
        sim.send_in(SimTime::ZERO, pusher, Go);
        sim.send_in(SimTime::from_millis(5), pusher, Go);
        sim.run();
        assert_eq!(sim.actor_as::<Sink>(sink).unwrap().arrivals.len(), 1);
        assert_eq!(sim.metrics_ref().counter("net.fault.severed"), 1);
    }

    #[test]
    fn jitter_delays_but_delivers() {
        let plan = FaultPlan::seeded(5)
            .default_link(LinkFaults::none().jitter(SimTime::from_millis(50)));
        let (net, h0, h1) = two_host_net_with(plan, 1e6, 1e6, 1);
        let mut sim = Sim::new(1);
        let sink = sim.spawn(Sink { arrivals: vec![] });
        net.bind(h1, sink);
        let pusher =
            sim.spawn(FaultPusher { net: net.clone(), from: h0, to: h1, copies: 1, oks: 0 });
        net.bind(h0, pusher);
        sim.send_in(SimTime::ZERO, pusher, Go);
        sim.run();
        let arr = &sim.actor_as::<Sink>(sink).unwrap().arrivals;
        assert_eq!(arr.len(), 1);
        // baseline delivery would be 0.1ms tx + 1ms + 0.1ms rx = 1.2ms
        assert!(arr[0].0 >= SimTime::from_micros(1200));
        assert_eq!(sim.metrics_ref().counter("net.fault.delayed"), 1);
    }

    #[test]
    fn crash_schedule_installs_and_restarts() {
        let plan = FaultPlan::seeded(5).crash(
            HostId(1),
            SimTime::from_secs(1),
            Some(SimTime::from_secs(2)),
        );
        let topo = Topology::lan(3);
        let net = Net::builder(topo).fault_plan(plan).build();
        let mut sim = Sim::new(1);
        net.install_drivers(&mut sim, ChurnHooks::default);
        sim.run_until(SimTime::from_millis(1500));
        assert!(!net.is_up(HostId(1)));
        sim.run_until(SimTime::from_secs(3));
        assert!(net.is_up(HostId(1)));
        assert_eq!(sim.metrics_ref().counter("net.fault.crashes"), 1);
        assert_eq!(sim.metrics_ref().counter("net.fault.restarts"), 1);
    }

    #[test]
    fn fabric_with_nothing_scheduled_builds_no_hooks() {
        let plan = FaultPlan::seeded(5).default_link(LinkFaults::none().drop_p(0.5));
        let net = Net::builder(Topology::lan(2)).fault_plan(plan).build();
        let mut sim = Sim::new(1);
        net.install_drivers(&mut sim, || panic!("no driver to hand hooks to"));
        sim.run();
        assert_eq!(sim.events_fired(), 0);
    }

    #[test]
    fn actor_of_follows_rebinding() {
        let net = Net::builder(Topology::lan(2)).build();
        let mut sim = Sim::new(1);
        let first = sim.spawn(Sink { arrivals: vec![] });
        net.bind(HostId(1), first);
        sim.kill(first);
        assert_eq!(net.actor_of(HostId(1)), first, "a crash leaves the binding");
        let second = sim.spawn(Sink { arrivals: vec![] });
        net.bind(HostId(1), second);
        assert_eq!(net.actor_of(HostId(1)), second);
    }

    #[test]
    fn builder_arms_churn_via_install_drivers() {
        let net = Net::builder(Topology::lan(4))
            .churn(ChurnConfig {
                mean_uptime: SimTime::from_secs(2),
                mean_downtime: SimTime::from_millis(500),
                victims: vec![HostId(0), HostId(1), HostId(2), HostId(3)],
                until: SimTime::from_secs(30),
            })
            .build();
        let mut sim = Sim::new(7);
        net.install_drivers(&mut sim, ChurnHooks::default);
        sim.run_until(SimTime::from_secs(60));
        assert!(sim.metrics_ref().counter("churn.crashes") > 0);
    }
}
