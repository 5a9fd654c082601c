//! Quickstart: the CORBA-LC component model in one file.
//!
//! Walks the full pipeline in a single process:
//!   IDL → descriptor → signed package → verified install →
//!   instantiate → typed invocation → event channel.
//!
//! Run with `cargo run --example quickstart`.

use corba_lc_repro::core::behavior::BehaviorRegistry;
use corba_lc_repro::core::repository::ComponentRepository;
use corba_lc_repro::orb::{Invocation, LocalOrb, OrbError, Servant, Value};
use corba_lc_repro::pkg::{
    ComponentDescriptor, Package, Platform, QosSpec, SigningKey, TrustStore, Version,
};
use std::rc::Rc;
use std::sync::Arc;

// ---- 1. Interfaces, in IDL --------------------------------------------
const IDL: &str = r#"
    module hello {
      interface Greeter {
        string greet(in string who);
        readonly attribute long greetings;
      };
      eventtype Greeted { string who; };
    };
"#;

// ---- 2. The component implementation ----------------------------------
struct GreeterImpl {
    count: i32,
}

impl Servant for GreeterImpl {
    fn interface_id(&self) -> &str {
        "IDL:hello/Greeter:1.0"
    }
    fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
        match inv.op {
            "greet" => {
                let who = inv.args[0].as_str().expect("typed").to_owned();
                self.count += 1;
                inv.emit(
                    "greeted",
                    Value::Struct {
                        id: "IDL:hello/Greeted:1.0".into(),
                        fields: vec![Value::string(&who)],
                    },
                );
                inv.set_ret(Value::string(&format!("hello, {who}!")));
                Ok(())
            }
            "_get_greetings" => {
                inv.set_ret(Value::Long(self.count));
                Ok(())
            }
            op => Err(OrbError::BadOperation(op.to_owned())),
        }
    }
}

fn main() {
    // ---- 3. Describe and package the component ------------------------
    let mut desc = ComponentDescriptor::new("Greeter", Version::new(1, 0), "hello-inc")
        .provides("greeter", "IDL:hello/Greeter:1.0")
        .emits("greeted", "IDL:hello/Greeted:1.0");
    desc.description = "Greets people and announces it".into();
    desc.qos = QosSpec::default();

    let mut package = Package::new(desc)
        .with_idl("hello.idl", IDL)
        .with_binary(Platform::reference(), "greeter_impl", b"\x90\x90 pretend machine code");
    package.seal(&SigningKey::new("hello-inc", b"vendor-secret"));
    let wire_bytes = Rc::new(package.to_bytes());
    println!(
        "packaged Greeter 1.0: {} bytes on the wire (descriptor + IDL + binary, compressed)",
        wire_bytes.len()
    );

    // ---- 4. A node installs it (verify signature, platform, loader) ---
    let mut trust = TrustStore::new();
    trust.trust("hello-inc", b"vendor-secret");
    let behaviors = BehaviorRegistry::new();
    behaviors.register("greeter_impl", || Box::new(GreeterImpl { count: 0 }));
    let mut repo = ComponentRepository::new();
    let installed = &repo
        .install(&wire_bytes, &Platform::reference(), &trust, &behaviors, true)
        .expect("verified install")
        .installed
        .descriptor;
    println!("installed: {} {} by {}", installed.name, installed.version, installed.vendor);

    // ---- 5. Instantiate and invoke through the ORB --------------------
    let idl = Arc::new(corba_lc_repro::idl::compile(IDL).expect("IDL compiles"));
    let orb = LocalOrb::new(idl);
    let servant = behaviors
        .instantiate(&repo.get("Greeter", Version::new(1, 0)).unwrap().behavior_id)
        .expect("loadable");
    let greeter = orb.activate(servant);
    orb.bind_event_port(&greeter, "greeted", "IDL:hello/Greeted:1.0");

    // an event consumer
    struct Log;
    impl Servant for Log {
        fn interface_id(&self) -> &str {
            "IDL:hello/Greeter:1.0" // listeners may be any object
        }
        fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
            if inv.op == "_on_greeted" {
                if let Value::Struct { fields, .. } = &inv.args[0] {
                    println!("  [event] greeted: {:?}", fields[0].as_str().unwrap());
                }
            }
            Ok(())
        }
    }
    let log = orb.activate(Box::new(Log));
    orb.subscribe("IDL:hello/Greeted:1.0", &log, "_on_greeted");

    for who in ["world", "CORBA-LC", "ICPP 2001"] {
        let out = orb.invoke(&greeter, "greet", &[Value::string(who)]).expect("typed call");
        println!("greet({who}) -> {:?}", out.ret.as_str().unwrap());
    }
    let n = orb.invoke(&greeter, "_get_greetings", &[]).unwrap();
    println!("greetings attribute = {:?}", n.ret.as_long().unwrap());

    // Ill-typed calls never reach the servant:
    let err = orb.invoke(&greeter, "greet", &[Value::Long(3)]).unwrap_err();
    println!("type system says: {err}");
}
