//! Applications as components: assemblies (§2.4.4).
//!
//! "Applications are just special components … they encapsulate the
//! explicit rules to connect together certain components and their
//! instances (how many instances and the name of each, of which
//! components, how are them interconnected)". Unlike a CCM assembly, the
//! node mapping is *absent* from the descriptor: "the matching between
//! component required instances and network-running instances is
//! performed at run-time".

use lc_idl::Repository;
use lc_pkg::{ComponentDescriptor, Version};
use std::collections::BTreeMap;

/// One named instance the application requires.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AssemblyInstance {
    /// Application-unique instance name.
    pub name: String,
    /// Component to instantiate.
    pub component: String,
    /// Minimum compatible version.
    pub min_version: Version,
}

/// Kind of connection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConnectionKind {
    /// `uses` port → `provides` port (synchronous interface).
    Interface,
    /// `consumes` port ← `emits` port (event subscription).
    Event,
}

/// One connection rule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AssemblyConnection {
    /// Consumer instance name.
    pub from: String,
    /// Consumer port (`uses` or `consumes`).
    pub from_port: String,
    /// Provider instance name.
    pub to: String,
    /// Provider port (`provides` or `emits`).
    pub to_port: String,
    /// Interface or event connection.
    pub kind: ConnectionKind,
}

/// The application descriptor: instances + user-stated connection
/// pattern, with no host mapping.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AssemblyDescriptor {
    /// Application name.
    pub name: String,
    /// Required instances.
    pub instances: Vec<AssemblyInstance>,
    /// Connection rules.
    pub connections: Vec<AssemblyConnection>,
}

impl AssemblyDescriptor {
    /// New empty assembly.
    pub fn new(name: &str) -> Self {
        AssemblyDescriptor { name: name.to_owned(), instances: Vec::new(), connections: Vec::new() }
    }

    /// Add an instance (builder style).
    pub fn instance(mut self, name: &str, component: &str, min_version: Version) -> Self {
        self.instances.push(AssemblyInstance {
            name: name.to_owned(),
            component: component.to_owned(),
            min_version,
        });
        self
    }

    /// Add an interface connection (builder style).
    pub fn connect(mut self, from: &str, from_port: &str, to: &str, to_port: &str) -> Self {
        self.connections.push(AssemblyConnection {
            from: from.to_owned(),
            from_port: from_port.to_owned(),
            to: to.to_owned(),
            to_port: to_port.to_owned(),
            kind: ConnectionKind::Interface,
        });
        self
    }

    /// Add an event subscription (builder style).
    pub fn subscribe(mut self, from: &str, from_port: &str, to: &str, to_port: &str) -> Self {
        self.connections.push(AssemblyConnection {
            from: from.to_owned(),
            from_port: from_port.to_owned(),
            to: to.to_owned(),
            to_port: to_port.to_owned(),
            kind: ConnectionKind::Event,
        });
        self
    }

    /// Structural validation: instance names unique, connections refer to
    /// existing instances.
    pub fn validate(&self) -> Result<(), String> {
        let mut names = BTreeMap::new();
        for inst in &self.instances {
            if names.insert(inst.name.as_str(), ()).is_some() {
                return Err(format!("duplicate instance name '{}'", inst.name));
            }
        }
        for c in &self.connections {
            for end in [&c.from, &c.to] {
                if !names.contains_key(end.as_str()) {
                    return Err(format!("connection references unknown instance '{end}'"));
                }
            }
        }
        Ok(())
    }

    /// Type-check connections against component descriptors and the IDL
    /// repository: `uses` port types must be satisfied by the provider's
    /// `provides` port (same interface or a derived one); event ports
    /// must carry the same event type.
    pub fn typecheck(
        &self,
        descriptors: &BTreeMap<String, ComponentDescriptor>,
        idl: &Repository,
    ) -> Result<(), String> {
        self.validate()?;
        for inst in &self.instances {
            if !descriptors.contains_key(&inst.component) {
                return Err(format!("no descriptor for component '{}'", inst.component));
            }
        }
        let comp_of = |inst_name: &str| -> Result<&ComponentDescriptor, String> {
            let inst = self
                .instances
                .iter()
                .find(|i| i.name == inst_name)
                .ok_or_else(|| format!("connection references unknown instance '{inst_name}'"))?;
            descriptors
                .get(&inst.component)
                .ok_or_else(|| format!("no descriptor for component '{}'", inst.component))
        };
        for c in &self.connections {
            let from_desc = comp_of(&c.from)?;
            let to_desc = comp_of(&c.to)?;
            match c.kind {
                ConnectionKind::Interface => {
                    let uses = from_desc
                        .uses
                        .iter()
                        .find(|p| p.name == c.from_port)
                        .ok_or_else(|| {
                            format!("'{}' has no uses port '{}'", c.from, c.from_port)
                        })?;
                    let provides = to_desc
                        .provides
                        .iter()
                        .find(|p| p.name == c.to_port)
                        .ok_or_else(|| {
                            format!("'{}' has no provides port '{}'", c.to, c.to_port)
                        })?;
                    if !idl.is_a(&provides.interface, &uses.interface) {
                        return Err(format!(
                            "connection {}.{} -> {}.{}: {} is not a {}",
                            c.from, c.from_port, c.to, c.to_port, provides.interface,
                            uses.interface
                        ));
                    }
                }
                ConnectionKind::Event => {
                    let consumes = from_desc
                        .consumes
                        .iter()
                        .find(|p| p.name == c.from_port)
                        .ok_or_else(|| {
                            format!("'{}' has no consumes port '{}'", c.from, c.from_port)
                        })?;
                    let emits = to_desc
                        .emits
                        .iter()
                        .find(|p| p.name == c.to_port)
                        .ok_or_else(|| format!("'{}' has no emits port '{}'", c.to, c.to_port))?;
                    if consumes.event != emits.event {
                        return Err(format!(
                            "event connection {}.{} -> {}.{}: {} != {}",
                            c.from, c.from_port, c.to, c.to_port, consumes.event, emits.event
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_structural_errors() {
        let dup = AssemblyDescriptor::new("x")
            .instance("a", "C", Version::new(1, 0))
            .instance("a", "C", Version::new(1, 0));
        assert!(dup.validate().unwrap_err().contains("duplicate"));

        let dangling = AssemblyDescriptor::new("x")
            .instance("a", "C", Version::new(1, 0))
            .connect("a", "p", "ghost", "q");
        assert!(dangling.validate().unwrap_err().contains("ghost"));
    }

    #[test]
    fn typecheck_interfaces_and_events() {
        let idl = lc_idl::compile(
            r#"interface Display { void draw(); };
               interface FastDisplay : Display { void blit(); };
               eventtype Stroke { long x; };"#,
        )
        .unwrap();
        let mut descs = BTreeMap::new();
        descs.insert(
            "Gui".to_owned(),
            ComponentDescriptor::new("Gui", Version::new(1, 0), "v")
                .uses("display", "IDL:Display:1.0")
                .emits("strokes", "IDL:Stroke:1.0"),
        );
        descs.insert(
            "Screen".to_owned(),
            ComponentDescriptor::new("Screen", Version::new(1, 0), "v")
                .provides("graphics", "IDL:FastDisplay:1.0")
                .consumes("pen", "IDL:Stroke:1.0"),
        );

        // FastDisplay satisfies a Display receptacle.
        let good = AssemblyDescriptor::new("app")
            .instance("g", "Gui", Version::new(1, 0))
            .instance("s", "Screen", Version::new(1, 0))
            .connect("g", "display", "s", "graphics")
            .subscribe("s", "pen", "g", "strokes");
        good.typecheck(&descs, &idl).unwrap();

        // Reversed direction fails (Screen has no uses port 'graphics').
        let bad = AssemblyDescriptor::new("app")
            .instance("g", "Gui", Version::new(1, 0))
            .instance("s", "Screen", Version::new(1, 0))
            .connect("s", "graphics", "g", "display");
        assert!(bad.typecheck(&descs, &idl).is_err());

        // Unknown component.
        let ghost = AssemblyDescriptor::new("app").instance("x", "Nope", Version::new(1, 0));
        assert!(ghost.typecheck(&descs, &idl).unwrap_err().contains("Nope"));
    }
}
