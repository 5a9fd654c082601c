//! Shared names: one immutable string, handed out by reference count.
//!
//! An interface's repository id is written once, when a servant is
//! activated, and then rides in every reference to that servant; a
//! component's name is written once, when its package is installed, and
//! then rides in every offer, instance record, report and shard entry
//! that names it. An operation name rides from the command or out-call
//! that makes it to the adapter that dispatches it, and a `string` value
//! ([`Value::Str`](crate::Value::Str)) from the caller to the servant.
//! [`Name`] is that string: cloning it bumps a count, so handing a
//! reference, an offer or a request on allocates nothing. The count is
//! atomic because references live inside servants, which
//! [`LocalOrb`](crate::LocalOrb) may move across threads.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted string: a component name, a
/// repository id, an operation name or a `string` value. Compares,
/// orders and hashes as the text it holds, so a map keyed by `Name` is
/// looked up by `&str`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(Arc<str>);

impl Name {
    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Do `a` and `b` share one allocation (not merely equal text)?
    pub fn ptr_eq(a: &Name, b: &Name) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name(Arc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Arc::from(s))
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

/// Prints as the text's own `Debug` (quoted), as a `String` would.
impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        *self.0 == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn a_name_is_its_text() {
        let n = Name::from("Counter");
        let m = n.clone();
        assert!(Name::ptr_eq(&n, &m), "a clone shares the text");
        assert!(!Name::ptr_eq(&n, &Name::from("Counter")));
        assert_eq!(n, "Counter");
        assert_eq!(n, String::from("Counter"));
        assert_eq!(format!("{n} {n:?}"), "Counter \"Counter\"");
        let (a, b) = (Name::from("A"), Name::from("B"));
        assert!(a < b);
        let map = BTreeMap::from([(n, 1)]);
        assert_eq!(map.get("Counter"), Some(&1), "looked up by &str");
    }
}
