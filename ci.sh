#!/bin/sh
# Repo CI gate: release build, full test suite, lint-clean clippy,
# determinism/API-hygiene static analysis, fault-injection determinism.
set -eu
cd "$(dirname "$0")"

# Determinism & API-hygiene gate runs FIRST: the protocol-flow rules
# (P1-P3, D7) plus the per-file rules must pass with zero open
# violations against the checked-in baseline (which may only shrink --
# a stale entry fails too) before anything else is built or run.
# --stats keeps the unwrap budget trajectory visible across PRs, and
# the JSON stats document is a committed artefact: any drift in rule
# counts without a matching LINT_STATS.json update fails the gate.
cargo run -q -p lc-lint -- --workspace --baseline lint-baseline.txt --stats
cargo run -q -p lc-lint -- --workspace --baseline lint-baseline.txt --format json \
  > target/lint_stats.json
diff target/lint_stats.json LINT_STATS.json
rm -f target/lint_stats.json

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
# Doc links are checked too: a deleted or renamed item must take its
# [`intra-doc`] references with it.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps --offline -q

# Fault-injection determinism gate: the same seeds must reproduce the
# same faults, retries and recoveries byte-for-byte (E10 prints only
# virtual-time/count columns, so any diff is a real regression).
./target/release/e10_fault_tolerance > /tmp/e10_run1.txt
./target/release/e10_fault_tolerance > /tmp/e10_run2.txt
diff /tmp/e10_run1.txt /tmp/e10_run2.txt
rm -f /tmp/e10_run1.txt /tmp/e10_run2.txt

# Observability determinism gate: two e11 runs must agree byte-for-byte
# on the report and on both trace exports (span ids come from per-node
# counters, timestamps from virtual time -- no wall clock, no RNG in
# the tracer).
./target/release/e11_observability target/e11_run1 > /tmp/e11_run1.txt
./target/release/e11_observability target/e11_run2 > /tmp/e11_run2.txt
diff /tmp/e11_run1.txt /tmp/e11_run2.txt
diff target/e11_run1.trace.jsonl target/e11_run2.trace.jsonl
diff target/e11_run1.trace.json target/e11_run2.trace.json
rm -f /tmp/e11_run1.txt /tmp/e11_run2.txt target/e11_run?.trace.*

# Cache/coalescing determinism gate: two e12 runs must agree
# byte-for-byte on the report and the JSON summary, and the summary
# must match the committed BENCH_e12.json (the claimed msgs/query
# reduction is a checked artefact, not prose).
./target/release/e12_cache_perf target/e12_run1.json > /tmp/e12_run1.txt
./target/release/e12_cache_perf target/e12_run2.json > /tmp/e12_run2.txt
diff /tmp/e12_run1.txt /tmp/e12_run2.txt
diff target/e12_run1.json target/e12_run2.json
diff target/e12_run1.json BENCH_e12.json
rm -f /tmp/e12_run1.txt /tmp/e12_run2.txt target/e12_run?.json

# Scale-sweep gates (E13). Smoke double run, then the full sweep (the
# 10^6-node point must complete) with the memory gate: the largest hier
# point may not exceed 160 bytes of state per node. Every column is
# virtual time or a count, so the reports diff clean and the full
# summary must equal the committed BENCH_e13.json.
./target/release/e13_scale_sweep --max-nodes 10000 target/e13_run1.json > /tmp/e13_run1.txt
./target/release/e13_scale_sweep --max-nodes 10000 target/e13_run2.json > /tmp/e13_run2.txt
diff /tmp/e13_run1.txt /tmp/e13_run2.txt
diff target/e13_run1.json target/e13_run2.json
./target/release/e13_scale_sweep --gate-bytes-per-node 160 target/e13_full.json > /dev/null
diff target/e13_full.json BENCH_e13.json
rm -f /tmp/e13_run1.txt /tmp/e13_run2.txt target/e13_run?.json target/e13_full.json

# Sharded-registry gates (E14). Smoke double run at the 1k campus with
# the hotspot gate (the former leader's recv bytes drop >= 3x at 4+
# shards with p99 no worse), then the full sweep (the 8k points must
# complete), which must equal the committed BENCH_e14.json.
./target/release/e14_sharded_registry --max-nodes 1024 --gate-reduction 3 target/e14_run1.json > /tmp/e14_run1.txt
./target/release/e14_sharded_registry --max-nodes 1024 --gate-reduction 3 target/e14_run2.json > /tmp/e14_run2.txt
diff /tmp/e14_run1.txt /tmp/e14_run2.txt
diff target/e14_run1.json target/e14_run2.json
./target/release/e14_sharded_registry --gate-reduction 3 target/e14_full.json > /dev/null
diff target/e14_full.json BENCH_e14.json
rm -f /tmp/e14_run1.txt /tmp/e14_run2.txt target/e14_run?.json target/e14_full.json

# Byte-identity gate: with the observability stack at its defaults
# (profiler disabled, no sampling, no SLO monitors), the experiment
# binaries that print only virtual time and counts must stay
# byte-identical across runs. (E1 and E9 are the wall-clock experiments;
# E10-E16 have their own double-run gates.)
for e in e2_query_scalability e3_consistency e4_fault_tolerance e5_deployment \
  e6_video_migration e7_cscw_fanout e8_grid_speedup f1_node_structure f2_cscw_model; do
  ./target/release/$e > /tmp/ident_run1.txt
  ./target/release/$e > /tmp/ident_run2.txt
  diff /tmp/ident_run1.txt /tmp/ident_run2.txt
done
rm -f /tmp/ident_run1.txt /tmp/ident_run2.txt

# Profiling/observability gates (E15). Smoke double run (part-A sweep
# capped at 10^4): report, JSON, flamegraph and timeline carry only
# virtual-time weights and must be byte-identical. The binary itself
# exits non-zero if the profiler or the sampler ever perturbs a
# simulation (the `identical` columns). The full sweep (the 10^5-node
# point must complete) must equal the committed BENCH_e15 files. What
# the profiler hook costs the host is .perf's trace.overhead_pct row.
./target/release/e15_profiling --max-nodes 10000 target/e15_run1.json > /tmp/e15_run1.txt
./target/release/e15_profiling --max-nodes 10000 target/e15_run2.json > /tmp/e15_run2.txt
diff /tmp/e15_run1.txt /tmp/e15_run2.txt
diff target/e15_run1.json target/e15_run2.json
diff target/e15_run1.flame.txt target/e15_run2.flame.txt
diff target/e15_run1.timeline.txt target/e15_run2.timeline.txt
./target/release/e15_profiling target/e15_full.json > /dev/null
diff target/e15_full.json BENCH_e15.json
diff target/e15_full.flame.txt BENCH_e15.flame.txt
diff target/e15_full.timeline.txt BENCH_e15.timeline.txt
rm -f /tmp/e15_run1.txt /tmp/e15_run2.txt target/e15_run?.* target/e15_full.*

# Open-loop capacity gates (E16). The report and JSON carry only
# virtual-time columns, so two runs must agree byte-for-byte, and the
# run must match the committed BENCH_e16.json artefact (headline knee
# included). The binary itself exits non-zero when the overload gates
# fail: post-knee goodput with shedding >= 80% of the knee while the
# no-shedding baseline collapses below 50%, and hot-replication lifts
# capacity >= 1.3x with at least one replica spawned.
./target/release/e16_capacity target/e16_run1.json > /tmp/e16_run1.txt
./target/release/e16_capacity target/e16_run2.json > /tmp/e16_run2.txt
diff /tmp/e16_run1.txt /tmp/e16_run2.txt
diff target/e16_run1.json target/e16_run2.json
diff target/e16_run1.json BENCH_e16.json
# Knee-regression gate on the committed artefact: the headline capacity
# may not drift below 5000 op/s (the worker's theoretical draw rate).
awk '/"headline_knee_goodput_per_sec"/{g=$2+0; exit} END{if (g < 5000) {print "e16: committed knee goodput " g " < 5000 op/s"; exit 1}}' BENCH_e16.json
rm -f /tmp/e16_run1.txt /tmp/e16_run2.txt target/e16_run?.json

# The benchmark is a stand-alone crate over the workspace's public API:
# build it against this tree and run its seconds-long self-check, so an
# API change that breaks .perf fails here and not in the benchmark run.
cargo run --release --offline --quiet --manifest-path .perf/Cargo.toml -- selftest

# Cross-commit behaviour gate: the benchmark's exact columns at a fixed
# seed and size must equal the committed PERF_EXACT.txt. A speed-only
# change leaves the fingerprint and sim_* columns as its parent had
# them; an allocation change is a reviewed diff of the two alloc columns.
./perf_exact.sh > target/perf_exact.txt
diff target/perf_exact.txt PERF_EXACT.txt
rm -f target/perf_exact.txt

echo "ci: all green"
