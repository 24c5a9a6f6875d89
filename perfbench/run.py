#!/usr/bin/env python3
"""Build and run the repository's benchmark (see perfbench/README.md).

From the root of a source checkout:

    python3 perfbench/run.py --workload read_mostly --seed 1 --seconds 25 --trace 0

builds perfbench/bench.exe from source with dune (into .bench_build/,
shared cache off, so nothing is written outside the checkout), then runs
repetitions of the workload, all with the same seed, until --seconds of
set-up plus timed window have been measured.
It prints a report and, as the last line of standard output, one JSON
object: the end-to-end metrics (--trace 0) or the per-layer metrics of a
traced run (--trace 1). The exit code is non-zero when the checkout holds
no simulator sources, when the build fails, or when an output check fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "dune", "default", "perfbench", "bench.exe")
OUT = os.path.join(BUILD, "perfbench")
WORKLOADS = ("read_mostly", "write_crash_durable", "sharded_skew")
MIN_REPS = 5          # per kind: untraced, and traced in a --trace 1 run
STOP_AFTER_S = 120    # no new repetition past this, whatever --seconds says
REP_TIMEOUT_S = 60


def build():
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", os.path.join(BUILD, "dune"),
         "--profile", "release", "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode


def bench(*args):
    done = subprocess.run([EXE, *map(str, args)], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=REP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"bench.exe {args[0]} exited with {done.returncode}")
    return done.stdout


def repetition(workload, seed, traced, check):
    """One repetition: each of the workload's streams in a fresh process
    (its own heap and domain pool), then one process that merges them."""
    for f in os.listdir(OUT):
        if f.startswith(f"stream-{workload}-"):
            os.remove(os.path.join(OUT, f))
    streams, j = 1, 0
    while j < streams:
        out = bench("stream", "--workload", workload, "--seed", seed, "--stream", j,
                    "--trace", int(traced), "--check", int(check), "--out-dir", OUT)
        streams = json.loads(out)["streams"]
        j += 1
    return json.loads(bench("merge", "--workload", workload, "--seed", seed, "--out-dir", OUT))


def second_lowest(values):
    values = sorted(values)
    return values[min(1, len(values) - 1)]


def second_highest(values):
    values = sorted(values)
    return values[max(-2, -len(values))]


# On a host shared with other tenants, a repetition's wall-clock figures
# swing by +-30% with their memory traffic, in phases of seconds to
# minutes (README.md, B5). The second-slowest repetition of a run tracks
# the slow phases and ignores one outlying repetition, which made it the
# most repeatable summary, so the two wall-clock end-to-end metrics
# report it; every other metric is the median over repetitions.
WORST = {"ops_per_s": second_lowest, "setup_s": second_highest}


def summary(reps, key, worst=None):
    pick = worst or {}
    return {k: {"value": pick.get(k, statistics.median)(r[key][k]["value"] for r in reps),
                "unit": reps[0][key][k]["unit"]} for k in reps[0][key]}


def table(title, metrics):
    print(f"\n{title:<42} {'value':>16}  unit")
    for k, m in metrics.items():
        print(f"{k:<42} {m['value']:>16.6g}  {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    for need in ("dune-project", "lib", os.path.join("perfbench", "bench.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} missing under {ROOT}: not a source checkout",
                  file=sys.stderr)
            return 2
    if build() != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)

    # A (workload, seed) whose first repetition passed the full invariant
    # pack under this very executable leaves its digest here; later runs
    # of that seed compare against it instead of paying for the check
    # again. A traced run always checks: the checker's cost is one of its
    # metrics.
    with open(EXE, "rb") as f:
        stamp = hashlib.sha256(f.read()).hexdigest()[:16]
    cache = os.path.join(OUT, f"checked-{args.workload}-{args.seed}-{stamp}")
    cached = None
    if not args.trace and os.path.exists(cache):
        with open(cache) as f:
            cached = f.read().strip()

    # Repetitions alternate traced/untraced in a traced run, so the
    # overhead of tracing is measured against the same seed and moment.
    started = time.monotonic()
    reps, measured = [], 0.0

    def enough():
        if args.trace:
            return len(reps) >= 2 * MIN_REPS and len(reps) % 2 == 0 and measured >= args.seconds
        return len(reps) >= MIN_REPS and measured >= args.seconds

    while not enough() and not (len(reps) >= 2 and time.monotonic() - started > STOP_AFTER_S):
        traced = bool(args.trace) and len(reps) % 2 == 0
        try:
            r = repetition(args.workload, args.seed, traced,
                           check=not reps and cached is None)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            print(f"perfbench: repetition {len(reps) + 1} failed: {e}", file=sys.stderr)
            return 1
        r["traced"] = traced
        reps.append(r)
        e2e = r["end_to_end"]
        measured += e2e["setup_s"]["value"] + r["issued"] / e2e["ops_per_s"]["value"]

    first = reps[0]
    problems = [p for r in reps for p in r["problems"]]
    check = first.get("check")
    if check:
        problems += [f"invariant: {v}" for v in check["violations"]]
    if cached is not None and cached != first["digest"]:
        problems.append(f"digest {first['digest']} differs from the checked run's {cached}")
    problems += [f"repetition {i + 1} digest {r['digest']} differs from {first['digest']}"
                 for i, r in enumerate(reps) if r["digest"] != first["digest"]]
    correct = not problems
    if correct and check:
        with open(cache, "w") as f:
            f.write(first["digest"] + "\n")

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    e2e = summary(untraced, "end_to_end", WORST)
    w = first["workload"]
    print(f"workload {w['name']}  seed {args.seed}  n={w['n']} lambda={w['lambda']}  "
          f"shards={w['shards']} domains={w['domains']}  classes={w['classes']} "
          f"zipf_s={w['zipf_s']}  mix {w['mix']}  policy={w['policy']}")
    print(f"  open loop: Poisson {w['rate']}/unit of virtual time; generator lateness 0 "
          f"(arrivals are virtual instants)")
    print(f"  preload {w['preload_per_class']}/class; {w['streams']} stream(s) of "
          f"{w['ops_per_stream']} arrivals per repetition; "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions")
    if w["wal_checkpoint_every"] is not None:
        print(f"  WAL on every machine, checkpoint every {w['wal_checkpoint_every']} appends")
    if w["crash_rota"] is not None:
        print(f"  crash rota: period {w['crash_rota']['period']}, "
              f"down {w['crash_rota']['down_time']} (Faultgen.periodic, within lambda)")
    print(f"  rebalancer {'armed' if w['rebalance'] else 'off'}; invariant check: "
          + (f"{len(check['violations'])} violations in {check['verify_s']:.3f} s" if check
             else "digest matches the checked run of this seed"))
    print(f"  latency samples {first['per_layer']['sim.latency_samples']['value']:.0f}"
          f" per repetition, {first['beyond_p999']:.0f} beyond p999")
    for k in WORST:
        vals = [r["end_to_end"][k]["value"] for r in untraced]
        print(f"  {k} per repetition (median {statistics.median(vals):.6g}): "
              + " ".join(f"{v:.4g}" for v in vals))
    print("  end-to-end: " + ", ".join(f"{k} is the {f.__name__.replace('_', ' ')}"
                                      for k, f in WORST.items()) + ", the rest medians")
    table("end-to-end (untraced repetitions)", e2e)

    result = e2e
    if args.trace:
        result = summary(traced, "per_layer")
        result["check.verify_s"] = {"value": check["verify_s"], "unit": "s"}
        result["check.violations"] = {"value": len(check["violations"]), "unit": "count"}
        # Each traced repetition against the untraced one run right after
        # it, so host phases cancel as far as they can.
        result["trace.overhead_ops_per_s"] = {
            "value": statistics.median(
                t["end_to_end"]["ops_per_s"]["value"] - u["end_to_end"]["ops_per_s"]["value"]
                for t, u in zip(reps[0::2], reps[1::2])),
            "unit": "1/s"}
        spans = traced[-1]["spans"]
        issued = traced[-1]["issued"]
        print(f"\n{'layer (last traced repetition)':<32} {'calls':>8} {'total ms':>11} "
              f"{'self ms':>11} {'self ns/op':>11}")
        for s in spans:
            if s["calls"]:
                print(f"{s['layer']:<32} {s['calls']:>8.0f} {s['total_ns'] / 1e6:>11.3f} "
                      f"{s['self_ns'] / 1e6:>11.3f} {s['self_ns'] / issued:>11.1f}")
        table("per-layer (median over traced repetitions)", result)

    for p in problems:
        print(f"FAILED CHECK: {p}")
    attempted = sum(r["issued"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(json.dumps({"correct": correct, "attempted": int(attempted), "failed": int(failed),
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
