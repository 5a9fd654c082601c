//! The behaviour registry: the reproduction's dynamic loader.
//!
//! In the paper, a package carries DLLs/`.so` files that a node `dlopen`s
//! to obtain executable code (§2.1.1: "to be dynamically loaded and
//! unloaded as a Dynamic Link Library"). A Rust reproduction cannot ship
//! real machine code inside the simulation, so each binary section names a
//! `behavior_id`, and the node resolves it against this registry of
//! servant factories. Installing a package whose behaviour is not
//! registered fails exactly like a `dlopen` of a missing library would.
//!
//! The registry is process-global state shared by every simulated node —
//! the analogue of "all hosts can run this architecture's code once they
//! have the bytes".

use lc_orb::Servant;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// A factory producing a fresh servant for a component instance.
pub type BehaviorFactory = Rc<dyn Fn() -> Box<dyn Servant>>;

/// Registry mapping `behavior_id` → servant factory.
#[derive(Clone, Default)]
pub struct BehaviorRegistry {
    inner: Rc<RefCell<BTreeMap<String, BehaviorFactory>>>,
}

impl BehaviorRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a behaviour. Replaces any previous registration (the
    /// analogue of installing a newer runtime library).
    pub fn register<F>(&self, behavior_id: &str, factory: F)
    where
        F: Fn() -> Box<dyn Servant> + 'static,
    {
        self.inner.borrow_mut().insert(behavior_id.to_owned(), Rc::new(factory));
    }

    /// Is a behaviour loadable?
    pub fn contains(&self, behavior_id: &str) -> bool {
        self.inner.borrow().contains_key(behavior_id)
    }

    /// Create an instance of a behaviour, if registered.
    pub fn instantiate(&self, behavior_id: &str) -> Option<Box<dyn Servant>> {
        let f = self.inner.borrow().get(behavior_id).cloned();
        f.map(|f| f())
    }

    /// Registered behaviour ids (sorted).
    pub fn ids(&self) -> Vec<String> {
        self.inner.borrow().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_orb::{Invocation, OrbError};

    struct Nop;
    impl Servant for Nop {
        fn interface_id(&self) -> &str {
            "IDL:Nop:1.0"
        }
        fn dispatch(&mut self, _inv: &mut Invocation<'_>) -> Result<(), OrbError> {
            Ok(())
        }
    }

    #[test]
    fn register_and_instantiate() {
        let reg = BehaviorRegistry::new();
        assert!(!reg.contains("nop"));
        assert!(reg.instantiate("nop").is_none());
        reg.register("nop", || Box::new(Nop));
        assert!(reg.contains("nop"));
        let s = reg.instantiate("nop").unwrap();
        assert_eq!(s.interface_id(), "IDL:Nop:1.0");
        assert_eq!(reg.ids(), vec!["nop".to_owned()]);
    }

    #[test]
    fn clones_share_state() {
        let reg = BehaviorRegistry::new();
        let reg2 = reg.clone();
        reg.register("x", || Box::new(Nop));
        assert!(reg2.contains("x"));
    }
}
