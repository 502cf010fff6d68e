#!/usr/bin/env python3
"""Build trustseq and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload catalog-hot --seed 1 --seconds 40 --trace 0

prints the run's provenance, every metric by name with its unit and
sample count, and, as the last line of stdout, one JSON object with the
keys correct, attempted, failed and metrics. Without --workload it runs
zipf-soak, catalog-hot and batch-defect in turn, each printed the same
way.

    python3 perfbench/run.py --repeat 10 [--workload NAME] [--seed 1] [--seconds 40]
                             [--fixed-seed]

runs each workload (or the one named) N times on seeds seed .. seed+N-1
(or N times on seed itself with --fixed-seed, so the spread is the
host's noise alone, without the differences between seeds' inputs) and
prints every metric's median, quartiles and spread — the distance
between the quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them — next to the bound in
BENCHMARK.json.

Run it from the root of the repository. It reads and writes only
inside the repository: dune's _build/ and the daemons' sockets under
.bench_run/.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRUSTSEQ = os.path.join("_build", "default", "bin", "trustseq.exe")
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["zipf-soak", "catalog-hot", "batch-defect"]
RUN_TIMEOUT = 175


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Build the daemon binary and the benchmark executable from source."""
    for need in ("dune-project", os.path.join("bin", "trustseq.ml"), "lib"):
        if not os.path.exists(need):
            die("no trustseq source tree here (missing %s); run from the repository root" % need)
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled", TRUSTSEQ, BENCH],
            stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if done.returncode != 0:
        die("build failed")


def source_digest():
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    paths = ["dune-project"]
    for top in ("lib", "bin", "perfbench"):
        for base, dirs, files in os.walk(top):
            dirs.sort()
            paths += [os.path.join(base, f) for f in sorted(files)
                      if f.endswith((".ml", ".mli", ".py")) or f == "dune"]
    for p in paths:
        h.update(p.encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                             text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath("."):
            return None
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=10)
        return head.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def provenance(args):
    version = subprocess.run([TRUSTSEQ, "--version"], capture_output=True, text=True,
                             timeout=30).stdout.strip()
    return {
        "host": {"nproc": os.cpu_count(), "kernel": platform.release(),
                 "arch": platform.machine(), "os": platform.system()},
        "trustseq_version": version,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def bench_command(workload, seed, seconds, trace):
    return [BENCH, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--trustseq", TRUSTSEQ]


def run_once(workload, seed, seconds, trace, echo):
    """Run one workload; return (exit code, parsed result or None)."""
    # its own process group, so a timeout takes the daemon child down too
    proc = subprocess.Popen(bench_command(workload, seed, seconds, trace),
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT, file=sys.stderr)
        return 1, None
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    lines = out.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def repeat(args):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    except (OSError, ValueError, KeyError):
        bounds = {}
    workloads = [args.workload] if args.workload else WORKLOADS
    status = 0
    for w in workloads:
        values = {}
        units = {}
        seeds = [args.seed + (0 if args.fixed_seed else i) for i in range(args.repeat)]
        for seed in seeds:
            code, result = run_once(w, seed, args.seconds, args.trace, echo=False)
            if code != 0 or result is None or not result["correct"] or result["failed"]:
                print("%s seed %d: FAILED (exit %d, %s)" % (w, seed, code, result and
                      {k: result[k] for k in ("correct", "attempted", "failed")}))
                status = 1
                continue
            summary = " ".join("%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())
            print("%s seed %d: %s" % (w, seed, summary), flush=True)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
                units[k] = v["unit"]
        print("\n%s over %d runs (seeds %d..%d)" % (w, args.repeat, seeds[0], seeds[-1]))
        print("%-36s %-6s %14s %14s %14s %8s %6s" % ("metric", "unit", "median", "q1", "q3",
                                                    "spread", "bound"))
        for k, vs in values.items():
            if len(vs) < 2 or any(v is None for v in vs):
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(k)
            print("%-36s %-6s %14.6g %14.6g %14.6g %8.4f %6s" % (
                k, units[k], med, q1, q3, spread, "-" if bound is None else bound))
        print(flush=True)
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run each workload this many times and summarise the spread")
    p.add_argument("--fixed-seed", action="store_true",
                   help="with --repeat: run every repetition on --seed itself")
    args = p.parse_args()
    os.chdir(ROOT)
    build()
    print("provenance " + json.dumps(provenance(args), sort_keys=True), flush=True)
    if args.repeat > 0:
        return repeat(args)
    # without --workload, every workload in turn
    codes = [run_once(w, args.seed, args.seconds, args.trace, echo=True)[0]
             for w in ([args.workload] if args.workload else WORKLOADS)]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
