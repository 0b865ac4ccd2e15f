#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload paper-figs --seed 2019 --seconds 10 --trace 0

Run from the root of a checkout. Builds `perfbench/` (a package of its
own, see perfbench/README.md) into $CARGO_TARGET_DIR (default
`.bench_build`), measures set-up in fresh processes, runs the workload,
and prints as its last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: every end-to-end metric of
BENCHMARK.json with `--trace 0`, every per-layer metric with `--trace 1`.
Exits non-zero when any output is wrong or a count drifts.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Fresh processes that each measure set-up once; with the measuring
# process's own set-up, setup_s is the median of SETUP_RUNS + 1 values.
SETUP_RUNS = 2
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Per-layer counts of liveness events (a worker killed after a missed
# heartbeat on a loaded host), which need not repeat across runs.
LIVENESS_COUNTS = ("cd-orch.retries", "cd-orch.worker_restarts")
# Source trees whose contents decide the program's counts.
SOURCE_DIRS = ("crates", "src", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target) if not os.path.isabs(target) else target


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def run_exe(exe, args):
    """Runs the measuring process; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([exe] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(args[:3])} did not finish: {e}")
    return done.returncode, done.stdout.splitlines()


def last_json(lines, what):
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line)
    fail(f"{what} printed no result")


def source_digest():
    """Hash of every source file, so counts are only compared between
    runs of the same program."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = sorted(n for n in dirnames if n != "target")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def tool_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
        return done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def check_counts(target, workload, seed, digest, counts):
    """Counts must repeat exactly across runs of one program and seed;
    the first run records them, later runs compare."""
    cache_dir = os.path.join(target, "perfbench-counts")
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"{workload}-seed{seed}-{digest}.json")
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    else:
        known = {}
    drift = [f"{k} = {v} drifted from {known[k]} in an earlier run (determinism bug)"
             for k, v in sorted(counts.items()) if k in known and known[k] != v]
    for k, v in counts.items():
        known.setdefault(k, v)
    with open(path, "w") as f:
        json.dump(known, f, sort_keys=True, indent=0)
    return drift


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-check: flip one reference fingerprint; the run must fail")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = {w["name"] for w in bench["workloads"]}
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(sorted(names))}")

    target = target_dir()
    exe = build(target)
    scratch = os.path.join(target, "perfbench-scratch")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--scratch", scratch]

    setups = []
    for _ in range(0 if args.trace else SETUP_RUNS):
        code, lines = run_exe(exe, ["setup"] + common)
        if code != 0:
            fail(f"set-up run failed with exit code {code}", 1)
        setups.append(last_json(lines, "set-up run")["setup_s"])

    run_args = ["run"] + common + ["--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]
    if args.corrupt_reference:
        run_args.append("--corrupt-reference")
    code, lines = run_exe(exe, run_args)
    out = last_json(lines, "measuring run")
    for line in lines[:-1]:
        print(line)

    failures = list(out["failures"])
    counts = {f"count.{k}": v for k, v in out["counts"].items()}
    metrics = {}
    if args.trace:
        layers = out.get("layers")
        if layers is None:
            failures.append("no traced pass (an earlier check failed)")
            layers = {}
        for m in bench["per_layer"]:
            value = layers.get(m["name"])
            if value is None:
                failures.append(f"per-layer metric {m['name']} missing")
                continue
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            if m["unit"] == "count" and m["name"] not in LIVENESS_COUNTS:
                counts[f"layer.{m['name']}"] = value
    else:
        e2e = dict(out["e2e"])
        setups.append(e2e["setup_s"])
        e2e["setup_s"] = statistics.median(setups)
        for m in bench["end_to_end"]:
            metrics[m["name"]] = {"value": e2e[m["name"]], "unit": m["unit"]}

    # The cross-run count comparison is one more checked operation.
    drift = check_counts(target, args.workload, args.seed, source_digest(), counts)
    own = [f for f in failures if f not in out["failures"]] + drift
    failures += drift
    attempted = int(out["attempted"]) + 1
    failed = int(out["failed"]) + (1 if own else 0)

    header = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": out["passes"],
        "tail_percentile": out["tail"]["percentile"],
        "tail_samples": out["tail"]["samples"],
        "nproc": os.cpu_count(),
        "threads_or_workers": out["threads"],
        "setup_samples": len(setups),
        "rustc": tool_output(["rustc", "--version"]),
        "git_rev": tool_output(["git", "rev-parse", "--short", "HEAD"])
        or f"none (source digest {source_digest()})",
        "failed_frac": failed / max(attempted, 1),
    }
    print("# header " + json.dumps(header, sort_keys=True))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    for f in failures:
        print(f"# FAILED: {f}")
    correct = failed == 0 and code == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
