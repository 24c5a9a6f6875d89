#!/bin/sh
# Top-level mutable-global lint: no implementation file under lib/ may
# bind a module-level [lazy], [ref] or [Hashtbl.create]. Shard engines
# run on several OCaml domains at once, so module-level state is shared
# between them: a [lazy] forced from two domains raises
# CamlinternalLazy.Undefined, and an unguarded ref or table is a data
# race. Per-run state belongs in the value that owns the run (a
# System.t, a Shard.t, a registry).
#
# A top-level binding is a [let NAME =] or [and NAME =] at column 0,
# optionally with a type annotation; its right-hand side starts after
# the [=] or, when that line ends there, on the next non-blank line.
#
# The allow-list below names whole files, one per line, each followed
# by the one-line reason the file's globals are safe.
#
# Second rule: no file under lib/ other than lib/sim/parallel.ml may
# mention [Atomic.], [Mutex.], [Condition.] or [Domain.spawn]. Shards
# hand work to the coordinator through plain queues, and the barrier at
# the end of each Sim.Parallel round is the only hand-off between
# domains; the worker pool behind it stays the one place that
# synchronises them.
set -eu

allow=$(cat <<'EOF'
lib/sim/parallel.ml  the worker-pool refs are read and written only under the module's mutex
EOF
)

bad=0

# Every allow-list entry must carry a reason.
echo "$allow" | while read -r path reason; do
  if [ -n "$path" ] && [ -z "$reason" ]; then
    echo "FAIL allow-list entry $path has no reason"
    exit 1
  fi
done || bad=1

for f in $(find lib -name '*.ml' | sort); do
  if echo "$allow" | awk -v f="$f" '$1 == f { found = 1 } END { exit !found }'; then
    continue
  fi
  hits=$(awk '
    function flag(rhs) {
      if (rhs ~ /^\(?(lazy|ref|Hashtbl\.create)([^A-Za-z0-9_.\047]|$)/)
        printf "%s:%d: %s\n", FILENAME, start, head
    }
    pending && NF > 0 { sub(/^[ \t]+/, ""); flag($0); pending = 0; next }
    /^(let|and)[ \t]+[a-z_][A-Za-z0-9_\047]*[ \t]*(:[^=]*)?=/ {
      head = $0; start = FNR
      rhs = $0
      sub(/^(let|and)[ \t]+[a-z_][A-Za-z0-9_\047]*[ \t]*(:[^=]*)?=[ \t]*/, "", rhs)
      if (rhs == "") pending = 1; else flag(rhs)
    }
  ' "$f")
  if [ -n "$hits" ]; then
    echo "$hits" | sed 's/^/FAIL /'
    bad=1
  fi
done

if [ "$bad" -ne 0 ]; then
  echo "global-state lint failed: move the state into the value that owns it,"
  echo "build it eagerly if it is immutable, or allow-list the file with a reason"
  exit 1
fi

sync=$(find lib \( -name '*.ml' -o -name '*.mli' \) ! -path lib/sim/parallel.ml | sort |
  xargs grep -nE '(^|[^A-Za-z0-9_])(Atomic|Mutex|Condition)\.|(^|[^A-Za-z0-9_])Domain\.spawn' || true)
if [ -n "$sync" ]; then
  echo "$sync" | sed 's/^/FAIL /'
  echo "synchronisation lint failed: only lib/sim/parallel.ml may use Atomic, Mutex,"
  echo "Condition or Domain.spawn; hand work across domains at the Sim.Parallel barrier"
  exit 1
fi
echo "global-state lint OK (no top-level lazy / ref / Hashtbl.create under lib/;"
echo "Atomic / Mutex / Condition / Domain.spawn only in lib/sim/parallel.ml)"
