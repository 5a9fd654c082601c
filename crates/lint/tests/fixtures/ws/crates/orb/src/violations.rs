//! Fixture: unsuppressed violations of every rule, in an ordered-output,
//! DES-simulated crate (`orb`). Never compiled — only lexed by the tests.
use std::collections::HashMap;
use std::time::Instant;

fn seed() -> SimRng {
    SimRng::seed_from_u64(42)
}

fn run() {
    let t0 = Instant::now();
    let map: HashMap<u64, u64> = HashMap::new();
    let _h = std::thread::spawn(|| {});
    let (_tx, _rx) = std::sync::mpsc::channel();
    let _ = map.get(&1).unwrap();
    let _ = (t0.elapsed(), seed());
}
