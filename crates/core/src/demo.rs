//! Demonstration components used by tests, examples and experiments.
//!
//! These are complete CORBA-LC components: IDL-typed interfaces, servant
//! behaviours implementing the framework's agreed local interfaces
//! (`_connect_*`, `_get_state`/`_set_state`, `_reply`, `_push_*`), and
//! packaged binaries. They model the vocabulary the paper keeps using —
//! a stateful counter, a display, a GUI part that draws through a used
//! port, and an event-producing ticker.

use crate::behavior::BehaviorRegistry;
use crate::testkit::Catalog;
use lc_orb::{Invocation, ObjectRef, OrbError, Servant, Value};
use lc_pkg::{ComponentDescriptor, Package, Platform, QosSpec, SigningKey, Version};
use std::rc::Rc;
use std::sync::Arc;

/// IDL for the demo components.
pub const DEMO_IDL: &str = r#"
    module demo {
      interface Counter {
        void inc(in long delta);
        long value();
      };
      interface Display {
        void draw(in string what);
        long drawn();
      };
      interface GuiPart {
        void render(in string what);
      };
      eventtype Rendered { string what; };
    };
"#;

/// Compile the demo IDL.
pub fn demo_idl() -> lc_idl::Repository {
    match lc_idl::compile(DEMO_IDL) {
        Ok(repo) => repo,
        Err(e) => panic!("demo IDL must compile: {e:?}"),
    }
}

/// A stateful counter with full migration support.
pub struct CounterImpl {
    /// Current count (captured/restored across migration).
    pub count: i64,
}

impl Servant for CounterImpl {
    fn interface_id(&self) -> &str {
        "IDL:demo/Counter:1.0"
    }
    fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
        match inv.op {
            "inc" => {
                let by = inv.args[0]
                    .as_long()
                    .ok_or_else(|| OrbError::BadParam("inc: long expected".into()))?;
                self.count += by as i64;
                Ok(())
            }
            "value" => {
                inv.set_ret(Value::Long(self.count as i32));
                Ok(())
            }
            "_get_state" => {
                inv.set_ret(Value::LongLong(self.count));
                Ok(())
            }
            "_set_state" => {
                if let Value::LongLong(v) = inv.args[0] {
                    self.count = v;
                }
                Ok(())
            }
            op => Err(OrbError::BadOperation(op.to_owned())),
        }
    }
}

/// A display: counts draw calls; each draw costs a little CPU.
pub struct DisplayImpl {
    /// Number of draws performed.
    pub drawn: i64,
    /// CPU cost per draw (reference-CPU time).
    pub draw_cost: lc_des::SimTime,
}

impl Servant for DisplayImpl {
    fn interface_id(&self) -> &str {
        "IDL:demo/Display:1.0"
    }
    fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
        match inv.op {
            "draw" => {
                self.drawn += 1;
                inv.set_cpu_cost(self.draw_cost);
                Ok(())
            }
            "drawn" => {
                inv.set_ret(Value::Long(self.drawn as i32));
                Ok(())
            }
            "_get_state" => {
                inv.set_ret(Value::LongLong(self.drawn));
                Ok(())
            }
            "_set_state" => {
                if let Value::LongLong(v) = inv.args[0] {
                    self.drawn = v;
                }
                Ok(())
            }
            op => Err(OrbError::BadOperation(op.to_owned())),
        }
    }
}

/// A GUI part: renders by calling its connected `display` port and emits
/// a `rendered` event.
pub struct GuiPartImpl {
    /// The connected display provider (via `_connect_display`).
    pub display: Option<ObjectRef>,
    /// Renders performed.
    pub renders: u64,
}

impl Servant for GuiPartImpl {
    fn interface_id(&self) -> &str {
        "IDL:demo/GuiPart:1.0"
    }
    fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
        match inv.op {
            "render" => {
                let what = inv.args[0]
                    .as_str()
                    .ok_or_else(|| OrbError::BadParam("render: string expected".into()))?
                    .to_owned();
                self.renders += 1;
                if let Some(display) = &self.display {
                    inv.call_oneway(display.clone(), "draw", vec![Value::string(&what)]);
                }
                inv.emit(
                    "rendered",
                    Value::Struct {
                        id: "IDL:demo/Rendered:1.0".into(),
                        fields: vec![Value::string(&what)],
                    },
                );
                Ok(())
            }
            "_connect_display" => {
                self.display = inv.args[0].as_objref().cloned();
                Ok(())
            }
            "_get_state" => {
                inv.set_ret(Value::ULongLong(self.renders));
                Ok(())
            }
            "_set_state" => {
                if let Value::ULongLong(v) = inv.args[0] {
                    self.renders = v;
                }
                Ok(())
            }
            "_reply" => Ok(()), // oneway draws produce no replies; ignore
            op => Err(OrbError::BadOperation(op.to_owned())),
        }
    }
}

/// An event sink counting `Rendered` deliveries (`_push_rendered`).
#[derive(Default)]
pub struct RenderWatcherImpl {
    /// Events received.
    pub seen: u64,
}

impl Servant for RenderWatcherImpl {
    fn interface_id(&self) -> &str {
        // Watchers are plain Counter-typed objects so they can be spawned
        // as components; they only react to raw event pushes.
        "IDL:demo/Counter:1.0"
    }
    fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
        match inv.op {
            "_push_rendered" | "_push_events_in" => {
                self.seen += 1;
                Ok(())
            }
            "value" => {
                inv.set_ret(Value::Long(self.seen as i32));
                Ok(())
            }
            "inc" => Ok(()),
            "_get_state" => {
                inv.set_ret(Value::ULongLong(self.seen));
                Ok(())
            }
            "_set_state" => {
                if let Value::ULongLong(v) = inv.args[0] {
                    self.seen = v;
                }
                Ok(())
            }
            op => Err(OrbError::BadOperation(op.to_owned())),
        }
    }
}

/// Register all demo behaviours.
pub fn register_demo_behaviors(reg: &BehaviorRegistry) {
    reg.register("demo_counter", || Box::new(CounterImpl { count: 0 }));
    reg.register("demo_display", || {
        Box::new(DisplayImpl { drawn: 0, draw_cost: lc_des::SimTime::from_micros(200) })
    });
    reg.register("demo_gui", || Box::new(GuiPartImpl { display: None, renders: 0 }));
    reg.register("demo_watcher", || Box::<RenderWatcherImpl>::default());
}

/// The demo domain: its behaviours, vendor trust and IDL.
pub fn catalog() -> Catalog {
    let behaviors = BehaviorRegistry::new();
    register_demo_behaviors(&behaviors);
    Catalog { behaviors, trust: demo_trust(), idl: Arc::new(demo_idl()) }
}

/// The demo vendor's signing key.
pub fn demo_key() -> SigningKey {
    SigningKey::new("demo-vendor", b"demo-secret")
}

/// A trust store that trusts the demo vendor.
pub fn demo_trust() -> lc_pkg::TrustStore {
    let mut t = lc_pkg::TrustStore::new();
    t.trust(&demo_key());
    t
}

fn seal(mut pkg: Package) -> Rc<Vec<u8>> {
    pkg.seal(&demo_key());
    Rc::new(pkg.to_bytes())
}

/// Package: the Counter component (mobile, stateless QoS).
pub fn counter_package() -> Rc<Vec<u8>> {
    let mut desc = ComponentDescriptor::new("Counter", Version::new(1, 0), "demo-vendor")
        .provides("counter", "IDL:demo/Counter:1.0");
    desc.qos = QosSpec { cpu_min: 0.05, cpu_max: 0.2, memory: 1 << 20, bandwidth_min: 0.0 };
    seal(
        Package::new(desc)
            .with_idl("demo.idl", DEMO_IDL)
            .with_binary(Platform::reference(), "demo_counter", &[0xC0; 8 * 1024])
            .with_binary(Platform::pda(), "demo_counter", &[0xC1; 2 * 1024]),
    )
}

/// Package: the Display component (with a configurable payload size so
/// experiments can model heavy binaries).
pub fn display_package_sized(binary_size: usize) -> Rc<Vec<u8>> {
    let mut desc = ComponentDescriptor::new("Display", Version::new(2, 0), "demo-vendor")
        .provides("graphics", "IDL:demo/Display:1.0");
    desc.qos = QosSpec { cpu_min: 0.1, cpu_max: 0.5, memory: 4 << 20, bandwidth_min: 0.0 };
    let payload = incompressible_payload(0x9E3779B9, binary_size);
    seal(
        Package::new(desc)
            .with_idl("demo.idl", DEMO_IDL)
            .with_binary(Platform::reference(), "demo_display", &payload),
    )
}

/// `len` pseudo-random bytes from a xorshift32 stream started at
/// `seed`, so compression does not trivialize a package's binary and a
/// fetch really costs its size.
pub fn incompressible_payload(seed: u32, len: usize) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x >> 24) as u8
        })
        .collect()
}

/// Package: the Display component (default 64 KiB binary).
pub fn display_package() -> Rc<Vec<u8>> {
    display_package_sized(64 * 1024)
}

/// Package: the GUI part (uses Display, emits Rendered).
pub fn gui_package() -> Rc<Vec<u8>> {
    let mut desc = ComponentDescriptor::new("GuiPart", Version::new(1, 0), "demo-vendor")
        .provides("widget", "IDL:demo/GuiPart:1.0")
        .uses("display", "IDL:demo/Display:1.0")
        .emits("rendered", "IDL:demo/Rendered:1.0");
    desc.depends = vec![lc_pkg::ComponentDep { name: "Display".into(), version: Version::new(2, 0) }];
    desc.qos = QosSpec { cpu_min: 0.05, cpu_max: 0.2, memory: 2 << 20, bandwidth_min: 0.0 };
    seal(
        Package::new(desc)
            .with_idl("demo.idl", DEMO_IDL)
            .with_binary(Platform::reference(), "demo_gui", &[0x61; 16 * 1024])
            .with_binary(Platform::pda(), "demo_gui", &[0x62; 4 * 1024]),
    )
}

/// Package: the render watcher (consumes Rendered).
pub fn watcher_package() -> Rc<Vec<u8>> {
    let mut desc = ComponentDescriptor::new("Watcher", Version::new(1, 0), "demo-vendor")
        .provides("counter", "IDL:demo/Counter:1.0")
        .consumes("events_in", "IDL:demo/Rendered:1.0");
    desc.qos = QosSpec { cpu_min: 0.01, cpu_max: 0.1, memory: 1 << 20, bandwidth_min: 0.0 };
    seal(
        Package::new(desc)
            .with_idl("demo.idl", DEMO_IDL)
            .with_binary(Platform::reference(), "demo_watcher", &[0x77; 4 * 1024])
            .with_binary(Platform::pda(), "demo_watcher", &[0x78; 1024]),
    )
}
