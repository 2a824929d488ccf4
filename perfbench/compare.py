"""Compare two sets of benchmark result files, like for like.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (results/*.json),
for example one run per seed on the parent commit and on a change.  The
comparison is refused (exit 2) when any two files disagree on the
environment stamp (Python, sympy, mpmath, numpy, nproc, CPU model) or on
the run length.  For every workload and end-to-end metric it prints the
median and quartiles of each side and flags a change's median that is
worse than the base median by more than the bound in BENCHMARK.json
(exit 1).  Where the base's own spread is wider than the bound the
metric is reported as unresolved.  Traced results (per-layer metrics)
are printed side by side without a verdict.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

from run import ENV_KEYS, ROOT


def load(directory: str) -> list[dict]:
    docs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        if "stamp" in doc and "metrics" in doc:
            docs.append(doc)
    return docs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("error: no result files found", file=sys.stderr)
        return 2
    env = {tuple((k, d["stamp"][k]) for k in ENV_KEYS) for d in base + new}
    lengths = {d["seconds"] for d in base + new}
    if len(env) > 1 or len(lengths) > 1:
        print("error: results come from different environments or run lengths; "
              "refusing to compare:", file=sys.stderr)
        for e in sorted(env):
            print("  " + ", ".join(f"{k}={v}" for k, v in e), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    regressions = 0
    keys = sorted({(d["workload"], d["trace"]) for d in base} & {(d["workload"], d["trace"]) for d in new})
    for workload, trace in keys:
        side = {label: [d for d in docs if (d["workload"], d["trace"]) == (workload, trace)]
                for label, docs in (("base", base), ("new", new))}
        print(f"\n{workload} (trace {trace}; base n={len(side['base'])}, new n={len(side['new'])})")
        for name in side["base"][0]["metrics"]:
            vals = {label: [d["metrics"][name]["value"] for d in docs if name in d["metrics"]]
                    for label, docs in side.items()}
            if not vals["new"]:
                continue
            (b1, bm, b3), (n1, nm, n3) = _quartiles(vals["base"]), _quartiles(vals["new"])
            line = (f"  {name:42s} base {bm:12.5g} [{b1:.5g}, {b3:.5g}]"
                    f"  new {nm:12.5g} [{n1:.5g}, {n3:.5g}]")
            m = spec.get(name) if trace == 0 else None
            if m and bm:
                worse = (nm - bm) / bm * (1 if m["better"] == "lower" else -1)
                if (b3 - b1) / bm > m["bound"]:
                    verdict = "unresolved (base spread exceeds bound)"
                elif worse > m["bound"]:
                    verdict = f"REGRESSION: {worse:.1%} worse, bound {m['bound']:.1%}"
                    regressions += 1
                elif worse > 0:
                    verdict = f"{worse:.1%} worse, within bound {m['bound']:.1%}"
                else:
                    verdict = f"{-worse:.1%} better"
                line += "  " + verdict
            print(line)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
