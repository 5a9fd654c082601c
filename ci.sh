#!/bin/sh
# Repo CI gate: clippy (the determinism rules of clippy.toml included),
# release build, full test suite, fault-injection determinism.
set -eu
cd "$(dirname "$0")"

# The frozen .perf surface may only shrink. Every shim kept only for the
# frozen benchmark crate carries a `// frozen .perf surface` marker; there
# are 4, and a fifth is a reviewed change of this bound, not a silent
# addition.
frozen=$(grep -rF --include='*.rs' '// frozen .perf surface' crates | wc -l)
if [ "$frozen" -gt 4 ]; then
  echo "ci: $frozen frozen .perf surface markers under crates/, at most 4"
  exit 1
fi

# Every root cargo call runs `--locked`: a manifest edit whose
# Cargo.lock was not committed fails the gate instead of rewriting it.
#
# The linter runs FIRST. Pass one, every target: rustc's and clippy's
# warnings are errors, clippy.toml's disallowed types and methods among
# them (DESIGN.md §8), and the only way past one is an `#[expect]` that
# says why. Pass two, library and binary code only: no `unwrap`/`expect`
# outside tests.
cargo clippy --locked --workspace --all-targets -- -D warnings -D clippy::allow_attributes_without_reason
cargo clippy --locked --workspace --lib --bins -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

cargo build --locked --release --workspace
# The examples carry their own asserts (peer_network crashes a host and
# recovers it from the world's seed table): run every one, not only
# compile it as `cargo test` does.
for ex in examples/*.rs; do
  cargo run --locked --release --offline -q --example "$(basename "$ex" .rs)" > /dev/null
done
# The allocation pins again, optimised: several (the idle planes' "no
# allocation at all") only take their release value here, the debug
# build re-checking what a re-send reuses.
cargo test --locked --release -q -p lc-core --test alloc_budget
# The shard store's property tests again, optimised: its kept digests are
# edited in place, and the debug build also re-checks each one it hands
# out against a fold of its entries.
cargo test --locked --release -q -p lc-core --lib registry::backend
# Publish, gossip repair and expiry together, optimised, under crash and
# loss (~1 s on 2 vCPUs, its build included): every publication enters
# a slice through `ShardStore::apply`, by push, self-publish or repair.
cargo test --locked --release -q -p lc-core --test cache_props sharded_staleness
# A publisher's cadence, optimised: an unchanged publication is renewed
# at half its publish TTL, never lapses at a replica, and a spawn still
# publishes at once.
cargo test --locked --release -q -p lc-core --test cache_props a_publisher_renews
# The servant record's properties, optimised and at 1 500 cases each
# (~45 s on 2 vCPUs): shed requests never execute and admitted ones run
# once under loss and retries, replies queued for the CPU answer every
# copy and retry of their request only once their work has run, and
# the record holds what a full scan holds after every event.
LC_PROP_CASES=1500 cargo test --locked --release -q -p lc-core --test admission_props
LC_PROP_CASES=1500 cargo test --locked --release -q -p lc-core --test fault_props -- queued_replies served_records
# The suite's log feeds SIZE.txt's test count below; a failing suite
# still stops the gate here, printing its log.
cargo test --locked -q --workspace > target/tests.log 2>&1 || { cat target/tests.log; exit 1; }
# The docs build without a warning: a deleted or renamed item must take
# its [`intra-doc`] references with it, a public doc may not link to a
# private item, and every code block must parse.
RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps --offline -q

# identical GOLDEN ID [FLAG...] -- the one determinism gate.
#   Run `lcx ID FLAG... STEM` twice; the runs must agree byte for byte on
#   stdout and on every file they write under their stem (every column
#   is virtual time or a count -- nothing in crates/bench reads a clock).
#   GOLDEN  "-" or the stem of the committed artefacts: every committed
#           GOLDEN.<ext> must equal run 1's STEM.<ext> (.out is stdout),
#           so what an experiment prints or writes changes across commits
#           only as a reviewed diff.
identical() {
  golden=$1 id=$2
  shift 2
  stem=target/$id.run
  for i in 1 2; do
    ./target/release/lcx "$id" "$@" "$stem$i" > "$stem$i.out"
  done
  for f in "$stem"1*; do
    diff "$f" "${stem}2${f#"$stem"1}"
  done
  case $golden in
    -) ;;
    *) for g in "$golden".*; do diff "${stem}1${g#"$golden"}" "$g"; done ;;
  esac
  rm -f "$stem"[12]*
}

# Stdout-gated experiments and figures: with the observability stack at
# its defaults (profiler disabled, no sampling, no SLO monitors) every
# one of them is byte-identical run to run and to its committed
# golden/<id>.out. E10 is the fault-injection determinism gate: the same
# seeds must reproduce the same faults, retries and recoveries. E11's
# two trace exports are double-run too (span ids come from per-node
# counters, timestamps from virtual time -- no wall clock, no RNG in the
# tracer).
for id in f1 f2 e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11; do
  identical golden/$id $id
done

# Cache/coalescing (E12): the JSON summary must match the committed
# BENCH_e12.json (the claimed msgs/query reduction is a checked
# artefact, not prose).
identical BENCH_e12 e12

# Scale sweep (E13, hier vs flat): the smoke sweep, then the full one
# (the 10^6-node point must complete) against BENCH_e13.json. Every run
# exits non-zero if any of its hier points exceeds 15 bytes of state
# per node.
identical - e13 --max-nodes 10000
identical BENCH_e13 e13

# Sharded registry (E14): the 1k campus, then the full sweep (the 8k
# points must complete) against BENCH_e14.json. Every run exits non-zero
# unless the former leader's recv bytes drop >= 3x at 4+ shards with p99
# no worse.
identical - e14 --max-nodes 1024
identical BENCH_e14 e14

# Profiling/observability (E15): report, JSON, flamegraph and timeline
# carry only virtual-time weights. The run itself exits non-zero if the
# profiler or the sampler ever perturbs a simulation (the `identical`
# columns). Smoke (part-A sweep capped at 10^4), then the full sweep
# (the 10^5-node point must complete) against the three committed
# BENCH_e15 files. What the profiler hook costs the host is .perf's
# trace.overhead_pct row.
identical - e15 --max-nodes 10000
identical BENCH_e15 e15

# Open-loop capacity (E16) against BENCH_e16.json (headline knee
# included). The run itself exits non-zero when the overload gates
# fail: post-knee goodput with shedding >= 80% of the knee while the
# no-shedding baseline collapses below 50%, hot-replication lifts
# capacity >= 1.3x with at least one replica spawned, and the headline
# knee stays at or above 5000 op/s (the worker's theoretical draw rate).
identical BENCH_e16 e16

# The benchmark is a stand-alone crate over the workspace's public API:
# build it against this tree and run its seconds-long self-check, so an
# API change that breaks .perf fails here and not in the benchmark run.
# `--locked`: .perf/Cargo.lock records every workspace crate's
# dependencies, and a change to one that would rewrite that tracked file
# fails here instead of leaving it modified.
cargo run --release --offline --locked --quiet --manifest-path .perf/Cargo.toml -- selftest

# Cross-commit behaviour gate: the benchmark's exact columns at a fixed
# seed and size must equal the committed PERF_EXACT.txt. A speed-only
# change leaves the fingerprint and sim_* columns as its parent had
# them; an allocation change is a reviewed diff of the two alloc columns.
./perf_exact.sh > target/perf_exact.txt
diff target/perf_exact.txt PERF_EXACT.txt
rm -f target/perf_exact.txt

# The size ledger the ROADMAP judges: non-test lines per crate and in
# total, the tier-1 test count and the length of EXPERIMENTS.md and
# DESIGN.md must equal the committed SIZE.txt. A change that moves one
# regenerates it (`cp target/size.txt SIZE.txt` after this run) and says
# why in CHANGES.md: every growth is a reviewed diff.
./size.sh target/tests.log > target/size.txt
diff target/size.txt SIZE.txt

echo "ci: all green"
