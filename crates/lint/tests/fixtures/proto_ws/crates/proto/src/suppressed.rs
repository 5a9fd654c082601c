//! The workspace rules honour the same `lc-lint: allow(RULE) -- reason`
//! escapes as the per-file rules: each site below fires and is silenced.

use crate::proto::CtrlMsg;

pub fn quiet_drop(tracer: &Tracer, now: u64) {
    // lc-lint: allow(P3) -- fixture: fire-and-forget marker span
    tracer.span(9, "quiet", now);
}

pub fn quiet_handler(msg: CtrlMsg) {
    match msg {
        // lc-lint: allow(P2) -- fixture: the reply lives in a peer crate
        CtrlMsg::Fetch { name } => {}
        _ => {}
    }
}
