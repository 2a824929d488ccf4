#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs of runs.

    python3 scripts/bench_pair.py --workload sign-certify --seeds 401-410 \\
        --out BENCH_6.json [--base HEAD^] [--workdir DIR]

The parent revision (--base) is exported with `git archive` into a
temporary directory, which is removed afterwards; the change is the
checkout holding this script.  Pair i runs `python3 perfbench/run.py
--workload W --seed S_i --seconds T`, T the `run_seconds` of
BENCHMARK.json, once on each side, the parent first in even pairs and
the change first in odd ones, so drift on the host falls on both sides
alike.

The output file holds every run's end-to-end metrics (those listed in
BENCHMARK.json) and the load averages read just before it (`loadavg`), the lines of src/nlfield/*.py in each tree
(`src_lines`), each side's median and quartiles per metric, per
metric the number of pairs in which the change is strictly better, and
per metric a verdict against the metric's bound in BENCHMARK.json:

    worse         the change median is worse than the parent's by more
                  than the bound (relative to the parent median)
    unresolved    the parent's IQR exceeds the bound times its median,
                  and not every change run beats every parent run
    better        the change wins at least 9 in 10 pairs and its median
                  is better by more than the parent's IQR
    within bound  every other case
"""

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _seeds(spec: str) -> list[int]:
    """'401-410' or '401,405,409'."""
    if "-" in spec:
        lo, hi = map(int, spec.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in spec.split(",")]


def _src_lines(tree: str) -> int:
    """Lines of src/nlfield/*.py in a checkout, as `wc -l` counts them."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "nlfield", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One run of the benchmark in a checkout: its last stdout line, and the
    host's 1, 5 and 15 minute load averages just before it started."""
    loadavg = list(os.getloadavg())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench/run.py failed in {tree}:\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "loadavg": loadavg, "correct": doc["correct"],
            "attempted": doc["attempted"], "failed": doc["failed"],
            "metrics": {k: v["value"] for k, v in doc["metrics"].items()}}


def _summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def _verdict(parent: list[float], change: list[float], direction: str, bound: float,
             wins: int) -> str:
    """One metric's verdict, as the module docstring defines it."""
    sign = 1 if direction == "lower" else -1  # sign * (p - c) > 0: the change is better
    p, c = _summary(parent), _summary(change)
    scale = abs(p["median"]) or 1.0
    if sign * (c["median"] - p["median"]) > bound * scale:
        return "worse"
    beats_all = all(sign * (pv - cv) > 0 for pv in parent for cv in change)
    if p["iqr"] > bound * scale and not beats_all:
        return "unresolved"
    if 10 * wins >= 9 * len(change) and sign * (p["median"] - c["median"]) > p["iqr"]:
        return "better"
    return "within bound"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last or a comma list")
    ap.add_argument("--out", required=True)
    ap.add_argument("--base", default="HEAD^", help="parent revision (default HEAD^)")
    ap.add_argument("--workdir", help="where the temporary parent export goes")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    base = _git("rev-parse", args.base)
    runs = {"parent": [], "change": []}
    # a stopped run still removes its export: SIGTERM unwinds like Ctrl-C
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = tempfile.mkdtemp(prefix="bench-pair-", dir=args.workdir)
    parent_tree = os.path.join(tmp, "parent")
    try:
        os.mkdir(parent_tree)
        archive = subprocess.run(["git", "archive", base], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", parent_tree], input=archive, check=True)
        trees = {"parent": parent_tree, "change": ROOT}
        src_lines = {side: _src_lines(tree) for side, tree in trees.items()}
        for i, seed in enumerate(_seeds(args.seeds)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_run(trees[side], args.workload, seed, seconds))
            p, c = (runs[s][-1]["metrics"]["wall_s"] for s in ("parent", "change"))
            print(f"pair {i + 1} seed {seed}: wall_s parent {p:.3f} change {c:.3f}",
                  file=sys.stderr)
    finally:
        shutil.rmtree(tmp)

    summary, wins, verdict = {}, {}, {}
    for name, direction in better.items():
        sides = {s: [r["metrics"][name] for r in runs[s]] for s in runs}
        summary[name] = {s: _summary(v) for s, v in sides.items()}
        sign = 1 if direction == "lower" else -1
        wins[name] = sum(sign * (p - c) > 0 for p, c in zip(sides["parent"], sides["change"]))
        verdict[name] = _verdict(sides["parent"], sides["change"], direction, bounds[name],
                                 wins[name])
    doc = {
        "workload": args.workload, "seconds": seconds, "pairs": len(runs["change"]),
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed S "
                   f"--seconds {seconds:g}",
        "parent": base, "change": _git("rev-parse", "HEAD"),
        "change_dirty": bool(_git("status", "--porcelain", "--", "src", "perfbench")),
        # where bytecode is not written, no run finds it cached, and each
        # compiles the modules it imports inside its setup_s
        "host": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                 "bytecode_cache": not sys.flags.dont_write_bytecode},
        "src_lines": src_lines, "better": better, "bounds": bounds, "summary": summary,
        "change_wins": wins, "verdict": verdict, "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name in better:
        s = summary[name]
        print(f"{name:12s} parent {s['parent']['median']:.4g} (iqr {s['parent']['iqr']:.3g})"
              f"  change {s['change']['median']:.4g} (iqr {s['change']['iqr']:.3g})"
              f"  change wins {wins[name]}/{doc['pairs']}  {verdict[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
