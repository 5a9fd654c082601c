//! # lc-cscw — CSCW components for CORBA-LC (Figure 2 of the paper)
//!
//! §3.1: "Collaborative work applications allow a group of users to share
//! and manipulate a set of data (usually multi-media) in a synchronous or
//! asynchronous way regardless of user location." The paper motivates
//! CORBA-LC with synchronous CSCW — shared whiteboards, video, thin PDA
//! clients — and Figure 2 shows the component shape: an Application
//! manages GUI-part components, "each GUI component is in charge of a
//! portion of the window", and every GUI part *uses* the local `Display`
//! component "providing painting functions". GUI parts can be local or
//! remote, so "all components required by the application can be remote,
//! thus allowing the use of thin clients such as PDAs".
//!
//! This crate provides those components as real CORBA-LC packages:
//!
//! * [`DisplayServant`] — the host-bound display (mobility **fixed**: you
//!   cannot ship a user's screen elsewhere),
//! * [`GuiPartServant`] — a portion of the shared window; draws strokes
//!   through its `display` uses-port and records delivery latency,
//! * [`WhiteboardAppServant`] — the application-as-component: emits
//!   `Stroke` events that fan out to every participant's GUI part,
//! * [`VideoDecoderServant`] — the paper's §2.4.3 example ("a component
//!   decoding a MPEG video stream would work much faster if it is
//!   installed locally"): consumes encoded chunks, burns CPU, paints
//!   decoded frames to a display.

use lc_core::behavior::BehaviorRegistry;
use lc_core::testkit::Catalog;
use lc_core::AssemblyDescriptor;
use lc_orb::{Invocation, ObjectRef, OrbError, Servant, Value};
use lc_pkg::{
    ComponentDescriptor, Mobility, Package, Platform, QosSpec, SigningKey, TrustStore, Version,
};
use std::rc::Rc;
use std::sync::Arc;

/// The CSCW IDL (Fig. 2 vocabulary).
pub const CSCW_IDL: &str = r#"
    module cscw {
      struct Rect { long x; long y; long w; long h; };
      interface Display {
        void draw(in Rect area, in sequence<octet> pixels);
        unsigned long long pixels_drawn();
      };
      interface GuiPart {
        void assign(in Rect area);
      };
      interface Board {
        void user_stroke(in long x0, in long y0, in long x1, in long y1);
      };
      interface VideoSink {
        oneway void push_chunk(in sequence<octet> encoded);
        unsigned long long frames();
      };
      eventtype Stroke { long x0; long y0; long x1; long y1; unsigned long long sent_ns; };
    };
"#;

/// Compile the CSCW IDL.
pub fn cscw_idl() -> lc_idl::Repository {
    match lc_idl::compile(CSCW_IDL) {
        Ok(repo) => repo,
        Err(e) => panic!("cscw IDL must compile: {e:?}"),
    }
}

/// Build a `cscw::Rect` value.
pub fn rect(x: i32, y: i32, w: i32, h: i32) -> Value {
    Value::Struct {
        id: "IDL:cscw/Rect:1.0".into(),
        fields: vec![Value::Long(x), Value::Long(y), Value::Long(w), Value::Long(h)],
    }
}

// ===================== servants =====================================

/// The host's display: paints pixels, costs CPU proportional to area.
pub struct DisplayServant {
    /// Total pixels (bytes) painted.
    pub pixels_drawn: u64,
    /// Draw calls served.
    pub draws: u64,
    /// CPU cost per KiB painted (reference CPU).
    pub cost_per_kib: lc_des::SimTime,
}

impl Default for DisplayServant {
    fn default() -> Self {
        DisplayServant {
            pixels_drawn: 0,
            draws: 0,
            cost_per_kib: lc_des::SimTime::from_micros(50),
        }
    }
}

impl Servant for DisplayServant {
    fn interface_id(&self) -> &str {
        "IDL:cscw/Display:1.0"
    }
    fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
        match inv.op {
            "draw" => {
                let bytes = match &inv.args[1] {
                    Value::Sequence(px) => px.len() as u64,
                    _ => 0,
                };
                self.pixels_drawn += bytes;
                self.draws += 1;
                inv.set_cpu_cost(self.cost_per_kib.mul_f64(bytes as f64 / 1024.0));
                Ok(())
            }
            "pixels_drawn" => {
                inv.set_ret(Value::ULongLong(self.pixels_drawn));
                Ok(())
            }
            "_get_state" => {
                inv.set_ret(Value::ULongLong(self.pixels_drawn));
                Ok(())
            }
            "_set_state" => {
                if let Value::ULongLong(v) = inv.args[0] {
                    self.pixels_drawn = v;
                }
                Ok(())
            }
            op => Err(OrbError::BadOperation(op.to_owned())),
        }
    }
}

/// One participant's view: a portion of the shared window.
pub struct GuiPartServant {
    /// Connected display provider.
    pub display: Option<ObjectRef>,
    /// Assigned window area (x, y, w, h).
    pub area: (i32, i32, i32, i32),
    /// Strokes received through the event channel.
    pub strokes_seen: u64,
    /// Stroke delivery latencies in milliseconds (emit → delivery).
    pub stroke_latency_ms: Vec<f64>,
}

impl Default for GuiPartServant {
    fn default() -> Self {
        GuiPartServant {
            display: None,
            area: (0, 0, 640, 480),
            strokes_seen: 0,
            stroke_latency_ms: Vec::new(),
        }
    }
}

impl Servant for GuiPartServant {
    fn interface_id(&self) -> &str {
        "IDL:cscw/GuiPart:1.0"
    }
    fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
        match inv.op {
            "assign" => {
                if let Value::Struct { fields, .. } = &inv.args[0] {
                    self.area = (
                        fields[0].as_long().unwrap_or(0),
                        fields[1].as_long().unwrap_or(0),
                        fields[2].as_long().unwrap_or(0),
                        fields[3].as_long().unwrap_or(0),
                    );
                }
                Ok(())
            }
            "_connect_display" => {
                self.display = inv.args[0].as_objref().cloned();
                Ok(())
            }
            "_push_strokes" => {
                self.strokes_seen += 1;
                if let Value::Struct { fields, .. } = &inv.args[0] {
                    if let Some(sent_ns) = fields.get(4).and_then(Value::as_u64) {
                        let lat_ns = inv.now.as_nanos().saturating_sub(sent_ns);
                        self.stroke_latency_ms.push(lat_ns as f64 / 1e6);
                    }
                    // Repaint the stroke's bounding box through the
                    // display port (64 bytes of pixels per stroke).
                    if let Some(display) = &self.display {
                        inv.call_oneway(
                            display.clone(),
                            "draw",
                            vec![rect(0, 0, 8, 8), Value::blob(&[0u8; 64])],
                        );
                    }
                }
                Ok(())
            }
            "_reply" => Ok(()),
            "_get_state" => {
                inv.set_ret(Value::ULongLong(self.strokes_seen));
                Ok(())
            }
            "_set_state" => {
                if let Value::ULongLong(v) = inv.args[0] {
                    self.strokes_seen = v;
                }
                Ok(())
            }
            op => Err(OrbError::BadOperation(op.to_owned())),
        }
    }
}

/// The whiteboard application component (the assembly bootstrap).
#[derive(Default)]
pub struct WhiteboardAppServant {
    /// Strokes drawn by the local user.
    pub strokes_sent: u64,
}

impl Servant for WhiteboardAppServant {
    fn interface_id(&self) -> &str {
        "IDL:cscw/Board:1.0"
    }
    fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
        match inv.op {
            "user_stroke" => {
                self.strokes_sent += 1;
                let mut fields: Vec<Value> = inv.args.to_vec();
                fields.push(Value::ULongLong(inv.now.as_nanos()));
                inv.emit(
                    "strokes",
                    Value::Struct { id: "IDL:cscw/Stroke:1.0".into(), fields },
                );
                Ok(())
            }
            "_get_state" => {
                inv.set_ret(Value::ULongLong(self.strokes_sent));
                Ok(())
            }
            "_set_state" => {
                if let Value::ULongLong(v) = inv.args[0] {
                    self.strokes_sent = v;
                }
                Ok(())
            }
            op => Err(OrbError::BadOperation(op.to_owned())),
        }
    }
}

/// The video decoder of the paper's migration example.
pub struct VideoDecoderServant {
    /// Connected display.
    pub display: Option<ObjectRef>,
    /// Frames decoded.
    pub frames: u64,
    /// CPU cost to decode one KiB of encoded input.
    pub decode_cost_per_kib: lc_des::SimTime,
    /// Decoded frames are this many times larger than the encoded chunk
    /// (painting cost scales with the *decoded* size).
    pub expansion: usize,
}

impl Default for VideoDecoderServant {
    fn default() -> Self {
        VideoDecoderServant {
            display: None,
            frames: 0,
            decode_cost_per_kib: lc_des::SimTime::from_micros(100),
            expansion: 8,
        }
    }
}

impl Servant for VideoDecoderServant {
    fn interface_id(&self) -> &str {
        "IDL:cscw/VideoSink:1.0"
    }
    fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
        match inv.op {
            "push_chunk" => {
                let encoded = match &inv.args[0] {
                    Value::Sequence(b) => b.len(),
                    _ => 0,
                };
                self.frames += 1;
                inv.set_cpu_cost(self.decode_cost_per_kib.mul_f64(encoded as f64 / 1024.0));
                if let Some(display) = &self.display {
                    // Decoded pixels: expansion × encoded size, drawn
                    // through the display port.
                    let decoded = (encoded * self.expansion).min(16 * 1024);
                    inv.call_oneway(
                        display.clone(),
                        "draw",
                        vec![rect(0, 0, 320, 200), Value::blob(&vec![0u8; decoded])],
                    );
                }
                Ok(())
            }
            "frames" => {
                inv.set_ret(Value::ULongLong(self.frames));
                Ok(())
            }
            "_connect_display" => {
                self.display = inv.args[0].as_objref().cloned();
                Ok(())
            }
            "_reply" => Ok(()),
            "_get_state" => {
                inv.set_ret(Value::ULongLong(self.frames));
                Ok(())
            }
            "_set_state" => {
                if let Value::ULongLong(v) = inv.args[0] {
                    self.frames = v;
                }
                Ok(())
            }
            op => Err(OrbError::BadOperation(op.to_owned())),
        }
    }
}

// ===================== packaging ====================================

/// CSCW vendor key.
pub fn cscw_key() -> SigningKey {
    SigningKey::new("cscw-vendor", b"cscw-secret")
}

/// Trust store accepting the CSCW vendor.
pub fn cscw_trust() -> TrustStore {
    let mut t = TrustStore::new();
    t.trust(&cscw_key());
    t
}

/// Register all CSCW behaviours.
pub fn register_cscw_behaviors(reg: &BehaviorRegistry) {
    reg.register("cscw_display", || Box::<DisplayServant>::default());
    reg.register("cscw_gui", || Box::<GuiPartServant>::default());
    reg.register("cscw_board", || Box::<WhiteboardAppServant>::default());
    reg.register("cscw_video", || Box::<VideoDecoderServant>::default());
}

/// The whiteboard session's packages — display, GUI part, board: what
/// every host of a session has "on disk" (displays are firmware, the
/// apps were shipped by the vendor).
pub fn session_packages() -> Vec<Rc<Vec<u8>>> {
    vec![display_package(), gui_package(), whiteboard_package()]
}

/// The CSCW domain: its behaviours, vendor trust and IDL.
pub fn catalog() -> Catalog {
    let behaviors = BehaviorRegistry::new();
    register_cscw_behaviors(&behaviors);
    Catalog { behaviors, trust: cscw_trust(), idl: Arc::new(cscw_idl()) }
}

fn seal(mut pkg: Package) -> Rc<Vec<u8>> {
    pkg.seal(&cscw_key());
    Rc::new(pkg.to_bytes())
}

/// Package: the Display (host-bound → mobility fixed).
pub fn display_package() -> Rc<Vec<u8>> {
    let mut desc = ComponentDescriptor::new("CscwDisplay", Version::new(1, 0), "cscw-vendor")
        .provides("graphics", "IDL:cscw/Display:1.0");
    desc.mobility = Mobility::Fixed;
    desc.qos = QosSpec { cpu_min: 0.02, cpu_max: 0.3, memory: 1 << 20, bandwidth_min: 0.0 };
    seal(
        Package::new(desc)
            .with_idl("cscw.idl", CSCW_IDL)
            .with_binary(Platform::reference(), "cscw_display", &[0xD1; 8 * 1024])
            .with_binary(Platform::pda(), "cscw_display", &[0xD2; 2 * 1024]),
    )
}

/// Package: the GUI part (mobile; uses Display; consumes Stroke).
pub fn gui_package() -> Rc<Vec<u8>> {
    let mut desc = ComponentDescriptor::new("CscwGuiPart", Version::new(1, 0), "cscw-vendor")
        .provides("widget", "IDL:cscw/GuiPart:1.0")
        .uses("display", "IDL:cscw/Display:1.0")
        .consumes("strokes", "IDL:cscw/Stroke:1.0");
    desc.qos = QosSpec { cpu_min: 0.05, cpu_max: 0.3, memory: 2 << 20, bandwidth_min: 0.0 };
    seal(
        Package::new(desc)
            .with_idl("cscw.idl", CSCW_IDL)
            .with_binary(Platform::reference(), "cscw_gui", &[0x91; 24 * 1024]),
    )
}

/// Package: the whiteboard application (emits Stroke).
pub fn whiteboard_package() -> Rc<Vec<u8>> {
    let mut desc = ComponentDescriptor::new("Whiteboard", Version::new(1, 0), "cscw-vendor")
        .provides("board", "IDL:cscw/Board:1.0")
        .emits("strokes", "IDL:cscw/Stroke:1.0");
    desc.qos = QosSpec { cpu_min: 0.05, cpu_max: 0.2, memory: 2 << 20, bandwidth_min: 0.0 };
    seal(
        Package::new(desc)
            .with_idl("cscw.idl", CSCW_IDL)
            .with_binary(Platform::reference(), "cscw_board", &[0xB0; 16 * 1024]),
    )
}

/// Package: the video decoder, with a parameterizable binary size (E6
/// sweeps the fetch cost against the stream volume).
pub fn video_decoder_package_sized(binary_kib: usize) -> Rc<Vec<u8>> {
    let mut desc = ComponentDescriptor::new("VideoDecoder", Version::new(1, 0), "cscw-vendor")
        .provides("sink", "IDL:cscw/VideoSink:1.0")
        .uses("display", "IDL:cscw/Display:1.0");
    desc.qos = QosSpec { cpu_min: 0.2, cpu_max: 0.8, memory: 8 << 20, bandwidth_min: 125_000.0 };
    let payload = lc_core::demo::incompressible_payload(0xDEADBEEF, binary_kib * 1024);
    seal(
        Package::new(desc)
            .with_idl("cscw.idl", CSCW_IDL)
            .with_binary(Platform::reference(), "cscw_video", &payload),
    )
}

/// Default video decoder package (512 KiB binary).
pub fn video_decoder_package() -> Rc<Vec<u8>> {
    video_decoder_package_sized(512)
}

/// The Fig. 2 whiteboard assembly: one application plus `participants`
/// GUI parts, each subscribed to the application's stroke events.
/// Display wiring is per-participant (each GUI part must use the display
/// on *its user's* host), so displays are connected by the session setup
/// code, not by the assembly.
pub fn whiteboard_assembly(participants: usize) -> AssemblyDescriptor {
    let mut a = AssemblyDescriptor::new("whiteboard-session")
        .instance("board", "Whiteboard", Version::new(1, 0));
    for i in 0..participants {
        a = a
            .instance(&format!("gui{i}"), "CscwGuiPart", Version::new(1, 0))
            .subscribe(&format!("gui{i}"), "strokes", "board", "strokes");
    }
    a
}

#[cfg(test)]
mod tests;
