"""nlfield benchmark: one workload per run, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sign-certify, exact-products, dirichlet-series, cli-session
(see workloads.py for what each one runs and why).

Every pass runs in a fresh interpreter (worker.py), so nlfield's per-field
caches start empty as in a user's process, and issues the workload's fixed
op list built from ``--seed`` once, each op after the previous one returns.
Passes repeat while the next one fits in ``--seconds`` (at least one pass,
and at least MIN_OPS ops in all).  Outputs are checked against independent
references after each pass's timed loop.

``--trace 0`` prints the end-to-end metrics (medians over passes; op
percentiles over all ops of the run):

    setup_s       import nlfield + building the workload's fields, median of
                  SETUP_SAMPLES set-up-only interpreters and every pass
    wall_s        time to run the op list once
    op_p50_ms     median op latency
    op_p90_ms     90th-percentile op latency
    success_rate  1 - error_rate; error_rate = failed / attempted
    peak_rss_mb   ru_maxrss of a pass's process

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of tracer.py, the tracing overhead (traced minus
untraced wall_s), and checks that the workload bypasses the layers its
record says it bypasses.

An op fails if it raises, or if the reference rejects its output.  The
last line of standard output is one JSON object with ``correct`` (no op
returned an output the reference rejects and every bypass check holds),
``attempted``, ``failed`` and ``metrics``.  A result file with an
environment stamp goes to perfbench/results/.  Exit status is 0 on a
completed run, 2 if the sources or arguments are missing, 1 if a pass
crashed.

perfbench/baseline/ holds the result files measured on the commit that
introduced the benchmark; compare a later set against it with
``python3 perfbench/compare.py perfbench/baseline perfbench/results``.
The reference checkers have tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "nlfield")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ["sign-certify", "exact-products", "dirichlet-series", "cli-session"]
SETUP_SAMPLES = 3
MIN_OPS = 100
PASS_TIMEOUT_S = 170


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    """HEAD of the checkout, or None where the checkout is not a git
    repository (git would otherwise search the parent directories)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment_stamp(seed: int) -> dict:
    """What must match for two results to be compared (ENV_KEYS), plus the
    code and seed that produced them."""
    stamp = {
        "python": platform.python_version(),
        "sympy": metadata.version("sympy"),
        "mpmath": metadata.version("mpmath"),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }
    stamp.update(commit=_commit(), src_sha256=_src_digest(), seed=seed)
    return stamp


ENV_KEYS = ("python", "sympy", "mpmath", "numpy", "nproc", "cpu")


def _worker(workload: str, seed: int, mode: str, trace: bool = False,
            spans: str | None = None) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode]
    if trace:
        argv.append("--trace")
    if spans:
        argv += ["--spans", spans]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _passes(seconds: float, run_one) -> list:
    """Call run_one() until the next call would overrun `seconds`, at least
    once and until MIN_OPS ops ran."""
    out, start = [], time.perf_counter()
    while True:
        t = time.perf_counter()
        out.append(run_one())
        last = time.perf_counter() - t
        ops = sum(len(p["lat_s"]) for p in out)
        if time.perf_counter() - start + last > seconds and ops >= MIN_OPS:
            return out


def _counts(passes):
    attempted = sum(len(p["lat_s"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    rejected = sum(1 for f in failures if f["why"] == "rejected")
    return attempted, failures, rejected


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setups = [_worker(workload, seed, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes = _passes(seconds, lambda: _worker(workload, seed, "pass"))
    lat_ms = [x * 1000 for p in passes for x in p["lat_s"]]
    attempted, failures, rejected = _counts(passes)
    p90 = statistics.quantiles(lat_ms, n=10)[8]
    metrics = {
        "setup_s": (statistics.median(setups + [p["setup_s"] for p in passes]), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (p90, "ms"),
        "success_rate": (1 - len(failures) / attempted, "fraction"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    info = {
        "passes": len(passes),
        "setup_samples": len(setups) + len(passes),
        "op_samples": len(lat_ms),
        "op_samples_beyond_p90": sum(1 for x in lat_ms if x > p90),
        "error_rate": len(failures) / attempted,
        "failures_by_kind": _by_kind(failures),
        "pass_wall_s": [p["wall_s"] for p in passes],
    }
    return {"metrics": metrics, "info": info, "attempted": attempted,
            "failed": len(failures), "correct": rejected == 0}


def _by_kind(failures) -> dict:
    out = {}
    for f in failures:
        key = f"{f['kind']} ({f['why']}: {f['detail']})"
        out[key] = out.get(key, 0) + 1
    return out


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    from tracer import per_layer_names
    from workloads import WORKLOADS as RECORDS

    record = RECORDS[workload]
    os.makedirs(RESULTS, exist_ok=True)
    spans = os.path.join(RESULTS, f"spans-{workload}-seed{seed}.json.gz")

    def pair():
        plain = _worker(workload, seed, "pass")
        traced = _worker(workload, seed, "pass", trace=True, spans=spans)
        traced["untraced_wall_s"] = plain["wall_s"]
        traced["overhead_s"] = traced["wall_s"] - plain["wall_s"]
        traced["lat_s"] = plain["lat_s"] + traced["lat_s"]
        traced["failures"] = plain["failures"] + traced["failures"]
        return traced

    pairs = _passes(seconds, pair)
    attempted, failures, rejected = _counts(pairs)
    metrics = {}
    for name, unit in per_layer_names():
        metrics[name] = (statistics.median(p["layers"][name] for p in pairs), unit)
    metrics["trace.overhead_s"] = (statistics.median(p["overhead_s"] for p in pairs), "s")
    broken = [m for m in record.bypasses if metrics[m][0] != 0]
    info = {
        "pairs": len(pairs),
        "untraced_wall_s": statistics.median(p["untraced_wall_s"] for p in pairs),
        "traced_wall_s": statistics.median(p["wall_s"] for p in pairs),
        "spans_per_pass": pairs[0]["spans"],
        "spans_file": os.path.relpath(spans, ROOT),
        "bypass_checks": {m: metrics[m][0] == 0 for m in record.bypasses},
        "touches": record.touches,
        "error_rate": len(failures) / attempted,
        "failures_by_kind": _by_kind(failures),
    }
    for m in broken:
        print(f"bypass check failed: {m} = {metrics[m][0]} on {workload}", file=sys.stderr)
    return {"metrics": metrics, "info": info, "attempted": attempted,
            "failed": len(failures), "correct": rejected == 0 and not broken}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: nlfield sources not found under {os.path.relpath(SRC, ROOT)}",
              file=sys.stderr)
        return 2

    stamp = environment_stamp(args.seed)
    try:
        run = (per_layer if args.trace else end_to_end)(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit) in run["metrics"].items():
        print(f"{args.workload:17s} {name:45s} {value:14.6f} {unit}")
    info = run["info"]
    print(f"{args.workload:17s} {'error_rate':45s} {info['error_rate']:14.6f} fraction "
          f"({run['failed']}/{run['attempted']})")
    for key, n in info["failures_by_kind"].items():
        print(f"  failed x{n}: {key}")
    if args.trace:
        print(f"  wall_s untraced {info['untraced_wall_s']:.6f} s, traced "
              f"{info['traced_wall_s']:.6f} s, over {info['pairs']} pair(s) of passes")
    else:
        print(f"  {info['passes']} passes, {info['op_samples']} op samples "
              f"({info['op_samples_beyond_p90']} beyond p90), "
              f"{info['setup_samples']} set-up samples")
    doc = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "stamp": stamp, "correct": run["correct"], "attempted": run["attempted"],
        "failed": run["failed"], "info": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    print(json.dumps({k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
