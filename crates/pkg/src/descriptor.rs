//! The CORBA-LC component descriptor: the XML meta-data shipped inside
//! every package.
//!
//! §2.1 of the paper splits a component's description into the **static
//! dimension** (the binary package: platform dependencies, required
//! components, mobility, replication, aggregation, licensing, security)
//! and the **dynamic dimension** (the component type: provided/used
//! interface ports, produced/consumed event kinds, factory and QoS
//! information). Both dimensions live in one `<component>` document here,
//! whose OSD-style format [`ComponentDescriptor::from_xml`] states once:
//! a node installs no package whose descriptor that reader refuses.

use lc_xml::Element;

/// A component version: `major.minor`.
///
/// Version compatibility follows the paper's substitutability idea:
/// a candidate satisfies a requirement if it has the same major version
/// and an equal or higher minor version ("the same (or even superior)
/// offerings").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Version {
    /// Incompatible-change counter.
    pub major: u32,
    /// Compatible-enhancement counter.
    pub minor: u32,
}

impl Version {
    /// Construct from parts.
    pub fn new(major: u32, minor: u32) -> Self {
        Version { major, minor }
    }

    /// Parse `"1.2"`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (maj, min) = s.split_once('.').ok_or_else(|| format!("bad version '{s}'"))?;
        Ok(Version {
            major: maj.parse().map_err(|_| format!("bad major in '{s}'"))?,
            minor: min.parse().map_err(|_| format!("bad minor in '{s}'"))?,
        })
    }

    /// Does `self` (an installed component) satisfy `required`?
    pub fn satisfies(&self, required: Version) -> bool {
        self.major == required.major && self.minor >= required.minor
    }
}

impl std::fmt::Display for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.major, self.minor)
    }
}

/// A platform triple: the "Hardware, Operating System and Object Request
/// Broker dependencies" of §2.1.1.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Platform {
    /// CPU architecture, e.g. `x86`, `sparc`, `arm`.
    pub arch: String,
    /// Operating system, e.g. `linux`, `win32`, `palmos`.
    pub os: String,
    /// ORB implementation, e.g. `lc-orb`.
    pub orb: String,
}

impl Platform {
    /// Construct from parts.
    pub fn new(arch: &str, os: &str, orb: &str) -> Self {
        Platform { arch: arch.into(), os: os.into(), orb: orb.into() }
    }

    /// The reference platform used throughout the experiments.
    pub fn reference() -> Self {
        Platform::new("x86", "linux", "lc-orb")
    }

    /// PDA platform (tiny-device experiments).
    pub fn pda() -> Self {
        Platform::new("arm", "palmos", "lc-orb")
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-{}-{}", self.arch, self.os, self.orb)
    }
}

/// Mobility of a component's binary (§2.1.1 "Mobility").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Mobility {
    /// The binary "can be extracted from a given host" and installed
    /// elsewhere.
    #[default]
    Mobile,
    /// The component "must be used remotely from this location" (e.g. it
    /// wraps host-bound hardware or licensed software).
    Fixed,
}

/// Replication capability (§2.1.1 "Replication").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Replication {
    /// Instances cannot be replicated.
    #[default]
    None,
    /// Instances are stateless, replicate freely.
    Stateless,
    /// Instances "know how to interact with the framework to maintain
    /// replica consistency".
    Coordinated,
}

/// Licensing model (§2.1.1 "Pay-per-use information").
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum Licensing {
    /// Free to use.
    #[default]
    Free,
    /// Metered: cost per instance-hour in milli-credits.
    PayPerUse {
        /// Milli-credits per instance-hour.
        cost_per_hour: u32,
    },
}

/// A dependency on another component (§2.1.1 "Other components needed").
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ComponentDep {
    /// Required component name.
    pub name: String,
    /// Minimum compatible version.
    pub version: Version,
}

/// An interface port declaration (dynamic dimension, §2.1.2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PortDecl {
    /// Port name, unique within the component.
    pub name: String,
    /// Repository id of the port's interface (e.g. `IDL:cscw/Display:1.0`).
    pub interface: String,
}

/// An event port declaration (produced or consumed event kind).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EventPortDecl {
    /// Port name, unique within the component.
    pub name: String,
    /// Repository id of the event type (e.g. `IDL:cscw/Damage:1.0`).
    pub event: String,
}

/// QoS requirements of instances (§2.1.2 "QoS information").
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct QosSpec {
    /// Minimum CPU share required, in reference-CPU units.
    pub cpu_min: f64,
    /// Maximum useful CPU share (for aggregation planning).
    pub cpu_max: f64,
    /// Memory footprint of one instance, bytes.
    pub memory: u64,
    /// Minimum communication bandwidth needed, bytes/second.
    pub bandwidth_min: f64,
}

impl Default for QosSpec {
    fn default() -> Self {
        QosSpec { cpu_min: 0.01, cpu_max: 1.0, memory: 1 << 20, bandwidth_min: 0.0 }
    }
}

/// Instance life-cycle policy driving factory generation (§2.1.2
/// "Factory properties").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LifeCycle {
    /// Any number of instances, created on demand.
    #[default]
    Factory,
    /// At most one instance per node.
    PerNode,
    /// At most one instance in the whole network.
    Singleton,
}

/// The complete component descriptor (both dimensions of §2.1).
#[derive(Clone, PartialEq, Debug)]
pub struct ComponentDescriptor {
    /// Component name, unique per vendor.
    pub name: String,
    /// Component version.
    pub version: Version,
    /// Vendor identity (must match the package signature's signer).
    pub vendor: String,
    /// Human-readable description.
    pub description: String,
    // -- static dimension ------------------------------------------------
    /// Other components required at run time.
    pub depends: Vec<ComponentDep>,
    /// Binary mobility.
    pub mobility: Mobility,
    /// Replication capability.
    pub replication: Replication,
    /// Can instances split/gather for data-parallel work (§2.1.1
    /// "Aggregation")?
    pub aggregation: bool,
    /// Licensing model.
    pub licensing: Licensing,
    // -- dynamic dimension -----------------------------------------------
    /// Provided interface ports.
    pub provides: Vec<PortDecl>,
    /// Used (required) interface ports.
    pub uses: Vec<PortDecl>,
    /// Produced event kinds.
    pub emits: Vec<EventPortDecl>,
    /// Consumed event kinds.
    pub consumes: Vec<EventPortDecl>,
    /// Instance QoS requirements.
    pub qos: QosSpec,
    /// Instance life-cycle policy.
    pub lifecycle: LifeCycle,
}

impl ComponentDescriptor {
    /// Minimal descriptor: free, mobile, no ports, default QoS.
    pub fn new(name: &str, version: Version, vendor: &str) -> Self {
        ComponentDescriptor {
            name: name.to_owned(),
            version,
            vendor: vendor.to_owned(),
            description: String::new(),
            depends: Vec::new(),
            mobility: Mobility::default(),
            replication: Replication::default(),
            aggregation: false,
            licensing: Licensing::default(),
            provides: Vec::new(),
            uses: Vec::new(),
            emits: Vec::new(),
            consumes: Vec::new(),
            qos: QosSpec::default(),
            lifecycle: LifeCycle::default(),
        }
    }

    /// Add a provided interface port (builder style).
    pub fn provides(mut self, name: &str, interface: &str) -> Self {
        self.provides.push(PortDecl { name: name.into(), interface: interface.into() });
        self
    }

    /// Add a used interface port (builder style).
    pub fn uses(mut self, name: &str, interface: &str) -> Self {
        self.uses.push(PortDecl { name: name.into(), interface: interface.into() });
        self
    }

    /// Add a produced event port (builder style).
    pub fn emits(mut self, name: &str, event: &str) -> Self {
        self.emits.push(EventPortDecl { name: name.into(), event: event.into() });
        self
    }

    /// Add a consumed event port (builder style).
    pub fn consumes(mut self, name: &str, event: &str) -> Self {
        self.consumes.push(EventPortDecl { name: name.into(), event: event.into() });
        self
    }

    /// Serialize to the `<component>` XML document.
    pub fn to_xml(&self) -> Element<'static> {
        let mut root = Element::new("component")
            .with_attr("name", &self.name)
            .with_attr("version", &self.version.to_string())
            .with_attr("vendor", &self.vendor);
        if !self.description.is_empty() {
            root.push(Element::new("description").with_text(&self.description));
        }
        let mut stat = Element::new("static")
            .with_attr(
                "mobility",
                match self.mobility {
                    Mobility::Mobile => "mobile",
                    Mobility::Fixed => "fixed",
                },
            )
            .with_attr(
                "replication",
                match self.replication {
                    Replication::None => "none",
                    Replication::Stateless => "stateless",
                    Replication::Coordinated => "coordinated",
                },
            )
            .with_attr("aggregation", if self.aggregation { "yes" } else { "no" });
        match self.licensing {
            Licensing::Free => {}
            Licensing::PayPerUse { cost_per_hour } => {
                stat.push(
                    Element::new("payperuse")
                        .with_attr("cost_per_hour", &cost_per_hour.to_string()),
                );
            }
        }
        for d in &self.depends {
            stat.push(
                Element::new("dependency")
                    .with_attr("name", &d.name)
                    .with_attr("version", &d.version.to_string()),
            );
        }
        root.push(stat);

        let mut dynamic = Element::new("type").with_attr(
            "lifecycle",
            match self.lifecycle {
                LifeCycle::Factory => "factory",
                LifeCycle::PerNode => "pernode",
                LifeCycle::Singleton => "singleton",
            },
        );
        for p in &self.provides {
            dynamic.push(
                Element::new("provides")
                    .with_attr("name", &p.name)
                    .with_attr("interface", &p.interface),
            );
        }
        for p in &self.uses {
            dynamic.push(
                Element::new("uses")
                    .with_attr("name", &p.name)
                    .with_attr("interface", &p.interface),
            );
        }
        for p in &self.emits {
            dynamic.push(
                Element::new("emits").with_attr("name", &p.name).with_attr("event", &p.event),
            );
        }
        for p in &self.consumes {
            dynamic.push(
                Element::new("consumes")
                    .with_attr("name", &p.name)
                    .with_attr("event", &p.event),
            );
        }
        dynamic.push(
            Element::new("qos")
                .with_attr("cpu_min", &self.qos.cpu_min.to_string())
                .with_attr("cpu_max", &self.qos.cpu_max.to_string())
                .with_attr("memory", &self.qos.memory.to_string())
                .with_attr("bandwidth_min", &self.qos.bandwidth_min.to_string()),
        );
        root.push(dynamic);
        root
    }

    /// Read a `<component>` document. This reader is the format's one
    /// statement: besides a missing or malformed field, it refuses an
    /// enumerated value out of its set, a second `<description>`,
    /// `<static>`, `<type>`, `<payperuse>` or `<qos>` (and a missing
    /// `<static>`, `<type>` or `<qos>`), any attribute or child element it
    /// does not read, and text outside `<description>`. Only an error
    /// builds a string beyond the descriptor's own.
    pub fn from_xml(root: &Element<'_>) -> Result<Self, String> {
        if root.name != "component" {
            return Err(format!("expected document root <component>, found <{}>", root.name));
        }
        root.reads_only(&["name", "version", "vendor"], &["description", "static", "type"], false)?;
        let name = root.require_attr("name")?.to_owned();
        let version = Version::parse(root.require_attr("version")?)?;
        let vendor = root.require_attr("vendor")?.to_owned();
        let description = match root.child("description")? {
            None => String::new(),
            Some(d) => {
                d.reads_only(&[], &[], true)?;
                d.text()
            }
        };

        let stat = root.require_child("static")?;
        stat.reads_only(
            &["mobility", "replication", "aggregation"],
            &["payperuse", "dependency"],
            false,
        )?;
        let mobility = match stat.require_attr("mobility")? {
            "mobile" => Mobility::Mobile,
            "fixed" => Mobility::Fixed,
            other => return Err(unknown("mobility", other)),
        };
        let replication = match stat.require_attr("replication")? {
            "none" => Replication::None,
            "stateless" => Replication::Stateless,
            "coordinated" => Replication::Coordinated,
            other => return Err(unknown("replication", other)),
        };
        let aggregation = match stat.require_attr("aggregation")? {
            "yes" => true,
            "no" => false,
            other => return Err(unknown("aggregation", other)),
        };
        let licensing = match stat.child("payperuse")? {
            None => Licensing::Free,
            Some(p) => {
                p.reads_only(&["cost_per_hour"], &[], false)?;
                Licensing::PayPerUse {
                    cost_per_hour: p
                        .require_attr("cost_per_hour")?
                        .parse()
                        .map_err(|_| "bad cost_per_hour".to_owned())?,
                }
            }
        };
        let mut depends = Vec::new();
        for d in stat.children_named("dependency") {
            d.reads_only(&["name", "version"], &[], false)?;
            depends.push(ComponentDep {
                name: d.require_attr("name")?.to_owned(),
                version: Version::parse(d.require_attr("version")?)?,
            });
        }

        let dynamic = root.require_child("type")?;
        dynamic.reads_only(
            &["lifecycle"],
            &["provides", "uses", "emits", "consumes", "qos"],
            false,
        )?;
        let lifecycle = match dynamic.require_attr("lifecycle")? {
            "factory" => LifeCycle::Factory,
            "pernode" => LifeCycle::PerNode,
            "singleton" => LifeCycle::Singleton,
            other => return Err(unknown("lifecycle", other)),
        };
        let port = |e: &Element<'_>| -> Result<PortDecl, String> {
            e.reads_only(&["name", "interface"], &[], false)?;
            Ok(PortDecl {
                name: e.require_attr("name")?.to_owned(),
                interface: e.require_attr("interface")?.to_owned(),
            })
        };
        let evport = |e: &Element<'_>| -> Result<EventPortDecl, String> {
            e.reads_only(&["name", "event"], &[], false)?;
            Ok(EventPortDecl {
                name: e.require_attr("name")?.to_owned(),
                event: e.require_attr("event")?.to_owned(),
            })
        };
        let provides =
            dynamic.children_named("provides").map(port).collect::<Result<Vec<_>, _>>()?;
        let uses = dynamic.children_named("uses").map(port).collect::<Result<Vec<_>, _>>()?;
        let emits =
            dynamic.children_named("emits").map(evport).collect::<Result<Vec<_>, _>>()?;
        let consumes =
            dynamic.children_named("consumes").map(evport).collect::<Result<Vec<_>, _>>()?;

        let q = dynamic.require_child("qos")?;
        q.reads_only(&["cpu_min", "cpu_max", "memory", "bandwidth_min"], &[], false)?;
        // A share or a rate is a finite number, at least 0: a negative
        // `cpu_min` would pass admission on a full host and free capacity
        // the host does not have.
        let amount = |attr: &str| match q.require_attr(attr)?.parse::<f64>() {
            Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
            _ => Err(format!("bad {attr}")),
        };
        let qos = QosSpec {
            cpu_min: amount("cpu_min")?,
            cpu_max: amount("cpu_max")?,
            memory: q.require_attr("memory")?.parse().map_err(|_| "bad memory")?,
            bandwidth_min: amount("bandwidth_min")?,
        };

        // Port names must be unique across the whole component.
        let mut names: Vec<&str> = provides
            .iter()
            .map(|p| p.name.as_str())
            .chain(uses.iter().map(|p| p.name.as_str()))
            .chain(emits.iter().map(|p| p.name.as_str()))
            .chain(consumes.iter().map(|p| p.name.as_str()))
            .collect();
        names.sort_unstable();
        if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("duplicate port name '{}'", w[0]));
        }

        Ok(ComponentDescriptor {
            name,
            version,
            vendor,
            description,
            depends,
            mobility,
            replication,
            aggregation,
            licensing,
            provides,
            uses,
            emits,
            consumes,
            qos,
            lifecycle,
        })
    }
}

/// The error for an enumerated attribute's value out of its set.
fn unknown(attr: &str, value: &str) -> String {
    format!("unknown {attr} '{value}'")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ComponentDescriptor {
        let mut d = ComponentDescriptor::new("MpegDecoder", Version::new(1, 2), "acme")
            .provides("video", "IDL:av/VideoOut:1.0")
            .uses("display", "IDL:cscw/Display:1.0")
            .emits("frame_ready", "IDL:av/FrameReady:1.0")
            .consumes("quality_hint", "IDL:av/QualityHint:1.0");
        d.depends.push(ComponentDep { name: "Display".into(), version: Version::new(2, 0) });
        d.description = "Decodes MPEG video streams".into();
        d.mobility = Mobility::Mobile;
        d.replication = Replication::Stateless;
        d.aggregation = true;
        d.licensing = Licensing::PayPerUse { cost_per_hour: 50 };
        d.qos = QosSpec { cpu_min: 0.2, cpu_max: 0.9, memory: 8 << 20, bandwidth_min: 250_000.0 };
        d.lifecycle = LifeCycle::PerNode;
        d
    }

    #[test]
    fn xml_round_trip() {
        let d = sample();
        let xml = d.to_xml();
        let text = lc_xml::to_string(&xml);
        let parsed = lc_xml::parse(&text).unwrap();
        let back = ComponentDescriptor::from_xml(&parsed).unwrap();
        assert_eq!(d, back);
    }

    /// [`sample`] as text: a dependency, pay-per-use and one port of each
    /// kind.
    const SAMPLE_XML: &str = r#"<component name="MpegDecoder" version="1.2" vendor="acme">
  <description>Decodes MPEG video streams</description>
  <static mobility="mobile" replication="stateless" aggregation="yes">
    <payperuse cost_per_hour="50"/>
    <dependency name="Display" version="2.0"/>
  </static>
  <type lifecycle="pernode">
    <provides name="video" interface="IDL:av/VideoOut:1.0"/>
    <uses name="display" interface="IDL:cscw/Display:1.0"/>
    <emits name="frame_ready" event="IDL:av/FrameReady:1.0"/>
    <consumes name="quality_hint" event="IDL:av/QualityHint:1.0"/>
    <qos cpu_min="0.2" cpu_max="0.9" memory="8388608" bandwidth_min="250000"/>
  </type>
</component>"#;

    /// The `<component>` format's rules, one edit of [`SAMPLE_XML`] each:
    /// every edit is well-formed XML that `from_xml` refuses. Layout
    /// (whitespace between items, attribute order) does not matter.
    #[test]
    fn from_xml_refuses_each_rule_and_ignores_layout() {
        let read = |text: &str| {
            let doc = lc_xml::parse(text).unwrap_or_else(|e| panic!("{e}: {text}"));
            ComponentDescriptor::from_xml(&doc)
        };
        let edit = |from: &str, to: &str| {
            assert!(SAMPLE_XML.contains(from), "{from}");
            SAMPLE_XML.replacen(from, to, 1)
        };
        // The text of the first element `open` starts, end tag included.
        let block = |open: &str, close: &str| {
            let at = SAMPLE_XML.find(open).expect("an element");
            let len = SAMPLE_XML[at..].find(close).expect("its end") + close.len();
            SAMPLE_XML[at..at + len].to_owned()
        };
        let twice = |b: &str| edit(b, &format!("{b}{b}"));
        let (description, payperuse) = (block("<description>", "\n"), block("<payperuse", "\n"));
        let (stat, ty, qos) =
            (block("<static", "</static>"), block("<type", "</type>"), block("<qos", "/>"));
        let cases = [
            // A missing required attribute, on each element that has one.
            edit(r#" vendor="acme""#, ""),
            edit(r#" mobility="mobile""#, ""),
            edit(r#" replication="stateless""#, ""),
            edit(r#" aggregation="yes""#, ""),
            edit(r#" cost_per_hour="50""#, ""),
            edit(r#"dependency name="Display""#, "dependency"),
            edit(r#" version="2.0""#, ""),
            edit(r#" lifecycle="pernode""#, ""),
            edit(r#" interface="IDL:av/VideoOut:1.0""#, ""),
            edit(r#"uses name="display""#, "uses"),
            edit(r#" event="IDL:av/FrameReady:1.0""#, ""),
            edit(r#"consumes name="quality_hint""#, "consumes"),
            edit(r#" cpu_min="0.2""#, ""),
            edit(r#" memory="8388608""#, ""),
            // Each enumeration, out of its set.
            edit(r#"mobility="mobile""#, r#"mobility="roaming""#),
            edit(r#"replication="stateless""#, r#"replication="many""#),
            edit(r#"aggregation="yes""#, r#"aggregation="maybe""#),
            edit(r#"lifecycle="pernode""#, r#"lifecycle="pooled""#),
            // Multiplicities: exactly one <static>, <type> and <qos>, at
            // most one <description> and <payperuse>.
            edit(&stat, ""),
            twice(&stat),
            edit(&ty, ""),
            twice(&ty),
            edit(&qos, ""),
            twice(&qos),
            twice(&description),
            twice(&payperuse),
            // Unexpected attributes and children.
            edit("<component ", r#"<component extra="1" "#),
            edit("<qos ", r#"<qos extra="1" "#),
            edit("<description>", r#"<description lang="en">"#),
            edit("</component>", "<extra/></component>"),
            edit(r#"VideoOut:1.0"/>"#, r#"VideoOut:1.0"><extra/></provides>"#),
            edit("</description>", "<b/></description>"),
            // Text outside <description>.
            edit("</component>", "words</component>"),
            edit("</type>", "words</type>"),
            edit(r#"version="2.0"/>"#, r#"version="2.0">2.0</dependency>"#),
            // A root other than <component>.
            SAMPLE_XML.replace("component", "softpkg"),
        ];
        for text in &cases {
            assert!(read(text).is_err(), "accepted:\n{text}");
        }
        assert_eq!(read(SAMPLE_XML), Ok(sample()));
        let spaced = SAMPLE_XML.replace("\" ", "\"\n\t ").replace('\n', " \n \n");
        assert_eq!(read(&spaced), Ok(sample()));
        let reordered = edit(
            r#"cpu_min="0.2" cpu_max="0.9" memory="8388608" bandwidth_min="250000""#,
            r#"bandwidth_min="250000" memory="8388608" cpu_max="0.9" cpu_min="0.2""#,
        );
        let reordered = reordered.replacen(
            r#"name="MpegDecoder" version="1.2" vendor="acme""#,
            r#"vendor="acme" name="MpegDecoder" version="1.2""#,
            1,
        );
        assert_eq!(read(&reordered), Ok(sample()));
    }

    #[test]
    fn schema_catches_missing_qos() {
        let mut xml = sample().to_xml();
        // Remove <qos> from <type>.
        if let Some(lc_xml::Node::Element(ty)) = xml
            .children
            .iter_mut()
            .find(|n| matches!(n, lc_xml::Node::Element(e) if e.name == "type"))
        {
            ty.children.retain(|n| !matches!(n, lc_xml::Node::Element(e) if e.name == "qos"));
        }
        assert!(ComponentDescriptor::from_xml(&xml).is_err());
    }

    #[test]
    fn duplicate_port_names_rejected() {
        let d = ComponentDescriptor::new("X", Version::new(1, 0), "v")
            .provides("p", "IDL:A:1.0")
            .uses("p", "IDL:B:1.0");
        let xml = d.to_xml();
        let err = ComponentDescriptor::from_xml(&xml).unwrap_err();
        assert!(err.contains("duplicate port"), "{err}");
    }

    #[test]
    fn version_semantics() {
        let v12 = Version::new(1, 2);
        assert!(v12.satisfies(Version::new(1, 0)));
        assert!(v12.satisfies(Version::new(1, 2)));
        assert!(!v12.satisfies(Version::new(1, 3)));
        assert!(!v12.satisfies(Version::new(2, 0)));
        assert!(!v12.satisfies(Version::new(0, 2)));
        assert_eq!(Version::parse("3.14").unwrap(), Version::new(3, 14));
        assert!(Version::parse("3").is_err());
        assert!(Version::parse("a.b").is_err());
    }

    #[test]
    fn platform_display() {
        assert_eq!(Platform::reference().to_string(), "x86-linux-lc-orb");
        assert_eq!(Platform::pda().to_string(), "arm-palmos-lc-orb");
    }

    #[test]
    fn defaults_are_minimal() {
        let d = ComponentDescriptor::new("Tiny", Version::new(0, 1), "v");
        let back = ComponentDescriptor::from_xml(&d.to_xml()).unwrap();
        assert_eq!(back.licensing, Licensing::Free);
        assert_eq!(back.mobility, Mobility::Mobile);
        assert!(back.provides.is_empty());
        assert_eq!(back.lifecycle, LifeCycle::Factory);
    }
}
