#!/bin/sh
# Module-size lint: no implementation file under lib/ may exceed the
# cap. The cap is the guard rail behind the system.ml decomposition —
# a module that outgrows it should be split along a layer boundary,
# not extended (see DESIGN.md §11 for the current module map).
#
# The drivers under bench/ and bin/ get a looser, fixed cap of 1024
# lines (MODULE_SIZE_CAP does not reach it): a driver past that is a
# registry of sections or subcommands asking to be split.
set -eu

cap=${MODULE_SIZE_CAP:-700}
driver_cap=1024
bad=0

# check DIRS CAP: fail every *.ml under DIRS longer than CAP lines.
check() {
  for f in $(find $1 -name '*.ml' | sort); do
    n=$(wc -l < "$f")
    if [ "$n" -gt "$2" ]; then
      echo "FAIL $f: $n lines (cap $2)"
      bad=1
    fi
  done
}

# largest DIRS: the top-5 largest *.ml under DIRS, to surface drift
# before it fails.
largest() {
  for f in $(find $1 -name '*.ml' | sort); do
    printf '%8d %s\n' "$(wc -l < "$f")" "$f"
  done | sort -rn | head -5
}

check lib "$cap"
check "bench bin" "$driver_cap"

if [ "$bad" -ne 0 ]; then
  echo "module-size lint failed: split the offending module(s)"
  exit 1
fi
echo "module-size lint OK (cap $cap); largest implementation files:"
largest lib
echo "bench/ and bin/ (cap $driver_cap); largest implementation files:"
largest "bench bin"
