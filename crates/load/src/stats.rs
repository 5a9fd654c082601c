//! Small numeric helper for capacity reports.

/// The capacity knee of a goodput-vs-offered-load curve: the point of
/// maximum goodput (first such point on ties, so the answer is
/// deterministic). Returns `(offered, goodput)`; `(0, 0)` for an empty
/// curve.
pub fn knee(curve: &[(f64, f64)]) -> (f64, f64) {
    let mut best = (0.0, 0.0);
    for &(offered, goodput) in curve {
        if goodput > best.1 {
            best = (offered, goodput);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knee_picks_first_max() {
        let curve = [(1.0, 10.0), (2.0, 20.0), (3.0, 20.0), (4.0, 5.0)];
        assert_eq!(knee(&curve), (2.0, 20.0));
        assert_eq!(knee(&[]), (0.0, 0.0));
    }
}
