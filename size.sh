#!/bin/sh
# Print the size ledger that ci.sh diffs against the committed SIZE.txt:
# non-test lines per crate (the lines before each file's top-level
# #[cfg(test)], in every file but those a `#[cfg(test)] mod name;` line
# brings in) and their total, the tier-1 test count read from the log
# of a `cargo test -q` run (passed and ignored, summed over every
# "test result" line), and the line counts of EXPERIMENTS.md and
# DESIGN.md. Usage: ./size.sh TEST_LOG; regenerate the ledger with
# `cargo test -q > target/tests.log 2>&1 && ./size.sh target/tests.log > SIZE.txt`.
set -eu
tests=$(awk '/^test result:/ { p += $4; i += $8 } END { print "tests passed " p " ignored " i }' "$1")
cd "$(dirname "$0")"
nontest() {
  find "$@" -name '*.rs' | xargs awk '
    FNR == 1 { t = 0; m = 0 }
    # `#[cfg(test)] mod name;` in dir/lib.rs, main.rs or mod.rs names
    # dir/name.rs or dir/name/mod.rs; in dir/file.rs, dir/file/name.rs.
    m && /^mod [A-Za-z0-9_]+;/ {
      d = FILENAME; sub(/[^\/]*$/, "", d); f = substr(FILENAME, length(d) + 1)
      if (f != "lib.rs" && f != "main.rs" && f != "mod.rs") d = d substr(f, 1, length(f) - 3) "/"
      name = $2; sub(/;.*/, "", name)
      skip[d name ".rs"] = 1; skip[d name "/mod.rs"] = 1
    }
    { m = 0 }
    /^#\[cfg\(test\)\]/ { t = 1; m = 1 }
    !t { n[FILENAME]++ }
    END { for (f in n) if (!(f in skip)) total += n[f]; print total + 0 }'
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
