//! Fixture: the same hazards as `violations.rs`, each carrying a
//! justified suppression (trailing and line-above forms).
use std::time::Instant; // lc-lint: allow(D1) -- fixture: wall-clock metric
// lc-lint: allow(D2) -- fixture: iteration is sorted before output
use std::collections::HashMap;

fn go(oa: &mut ObjectAdapter, key: ObjectKey) {
    // lc-lint: allow(A2) -- fixture: panicking accessor
    let _ = oa.invoke(key, "op", &[]).outcome.unwrap();
}
