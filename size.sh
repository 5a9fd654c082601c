#!/bin/sh
# Print the size ledger that ci.sh diffs against the committed SIZE.txt:
# non-test lines per crate (the lines before each file's top-level
# #[cfg(test)]) and their total, the tier-1 test count read from the log
# of a `cargo test -q` run (passed and ignored, summed over every
# "test result" line), and the line counts of EXPERIMENTS.md and
# DESIGN.md. Usage: ./size.sh TEST_LOG; regenerate the ledger with
# `cargo test -q > target/tests.log 2>&1 && ./size.sh target/tests.log > SIZE.txt`.
set -eu
tests=$(awk '/^test result:/ { p += $4; i += $8 } END { print "tests passed " p " ignored " i }' "$1")
cd "$(dirname "$0")"
nontest() {
  find "$@" -name '*.rs' | xargs awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n}'
}
for c in crates/*/; do
  c=${c%/}
  echo "lines ${c#crates/} $(nontest "$c/src")"
done
echo "lines total $(nontest crates/*/src)"
echo "$tests"
for d in EXPERIMENTS.md DESIGN.md; do
  echo "doc $d $(wc -l < "$d" | tr -d ' ')"
done
