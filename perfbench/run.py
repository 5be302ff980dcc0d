#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of the repository:

  python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
      one run; the last line of standard output is its JSON result
  python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
      every workload, each metric printed by name with its unit
  python3 perfbench/run.py --agree [--seed N]
      exact-repeat check: traced runs of every workload, twice on the seed
      and once on the next seed; digests and counts must repeat exactly

The Go program is built from source into .bench_build/perfbench, with the
Go build cache, module cache and configuration under .bench_build too, so a
run reads and writes only inside the checkout.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(OUT, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175

# Per-layer counts that must repeat exactly across traced runs of the same
# code and seed.
EXACT_COUNTS = [
    "bench.points", "dram.row_hit_ratio_read", "dram.row_hit_ratio_write",
    "sim.events", "trace.replayed_records", "trace.divergence_pct",
    "trace.speedup_x", "charz.remote_hits", "curvestore.bytes_out",
]


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
    )
    return env


def build():
    os.makedirs(OUT, exist_ok=True)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    try:
        proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.exit(f"perfbench: build failed: {err}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.exit("perfbench: build failed")


def run_binary(args, capture):
    cmd = [BINARY, "--out", OUT] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              stderr=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {' '.join(args)} did not finish in {RUN_TIMEOUT_S} s")
    if not capture:
        return proc.returncode, None, None
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def option(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def workload_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def traced(workload, seed):
    """Runs one traced run; returns its counts, digests and result."""
    code, out, err = run_binary(["--workload", workload, "--seed", str(seed), "--trace", "1"], True)
    if code != 0:
        sys.stderr.write(err)
        sys.exit(f"perfbench: {workload} seed {seed} exited with {code}")
    result = json.loads(out.strip().splitlines()[-1])
    # "digest <name> <sha256>"; names may hold spaces.
    digests = dict(line[len("digest "):].rsplit(" ", 1) for line in err.splitlines() if line.startswith("digest "))
    counts = {k: result["metrics"][k]["value"] for k in EXACT_COUNTS}
    return counts, digests, result


def agree(seed):
    ok = True
    for w in workload_names():
        first = traced(w, seed)
        second = traced(w, seed)
        other = traced(w, seed + 1)
        for label, (counts, digests, result) in (("first", first), ("second", second), (f"seed {seed + 1}", other)):
            if not result["correct"]:
                print(f"{w}: {label} run failed {result['failed']} of {result['attempted']} checks")
                ok = False
        if first[0] != second[0]:
            print(f"{w}: counts differ between runs: {first[0]} vs {second[0]}")
            ok = False
        if first[1] != second[1]:
            print(f"{w}: digests differ between runs")
            ok = False
        print(f"{w}: {len(first[1])} digests and {len(EXACT_COUNTS)} counts "
              f"{'repeat' if first[:2] == second[:2] else 'DIFFER'}; seed {seed + 1} "
              f"{'passes' if other[2]['correct'] else 'FAILS'} its checks")
    return 0 if ok else 1


def run_all(args):
    status = 0
    for w in workload_names():
        code, out, err = run_binary(["--workload", w] + args, True)
        if code != 0:
            sys.stderr.write(err)
            print(f"{w}: exited with {code}")
            status = 1
            continue
        result = json.loads(out.strip().splitlines()[-1])
        print(f"== {w}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for name, m in sorted(result["metrics"].items()):
            print(f"{w:8} {name:34} {m['value']:16.6g} {m['unit']}")
    return status


def main():
    args = sys.argv[1:]
    build()
    if "--agree" in args:
        return agree(int(option(args, "--seed", "1")))
    if "--all" in args:
        args.remove("--all")
        return run_all(args)
    code, _, _ = run_binary(args, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
