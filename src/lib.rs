//! Workspace root for the CORBA-LC reproduction.
//!
//! Re-exports all member crates so the top-level `examples/` and `tests/`
//! can exercise the whole system through one dependency.

pub use lc_core as core;
pub use lc_cscw as cscw;
pub use lc_des as des;
pub use lc_grid as grid;
pub use lc_idl as idl;
pub use lc_net as net;
pub use lc_orb as orb;
pub use lc_pkg as pkg;
pub use lc_xml as xml;
