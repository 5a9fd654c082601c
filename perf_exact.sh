#!/bin/sh
# Print the benchmark's exact columns, one line per workload, for
# `lcperf run --seed 42 --seconds 3`: the simulated-behaviour fingerprint
# and means (a speed-only change must leave them untouched) and the two
# allocation columns (where an allocation change shows as a reviewed
# diff). ci.sh diffs this against the committed PERF_EXACT.txt;
# regenerate that file with `./perf_exact.sh > PERF_EXACT.txt`.
# `truncated` is 1 when lcperf's wall-clock guard cut an epoch short on
# a much slower host — the other columns then mean nothing.
set -eu
cd "$(dirname "$0")"
for w in query_hier registry_mixed invoke_open scale_hier; do
  cargo run --release --offline --quiet --manifest-path .perf/Cargo.toml -- \
    run --workload "$w" --seed 42 --seconds 3 |
    awk -v w="$w" '
      NF >= 2 { v[$1] = $2 }
      END {
        printf "%s sim_fingerprint=%s sim_mean_ms=%s sim_msgs_per_op=%s allocs_per_op=%s alloc_bytes_per_op=%s truncated=%d\n",
          w, v["sim_fingerprint"], v["sim_mean_ms"], v["sim_msgs_per_op"],
          v["allocs_per_op"], v["alloc_bytes_per_op"], v["truncated"]
      }'
done
