"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|pass
                                [--trace] [--spans PATH]

``setup`` mode times ``import nlfield`` plus building the workload's fields
and stops.  ``pass`` mode then generates the seeded op list, issues the
ops one after another (closed loop, one client, no threads), and after the
timed loop checks every output against the references.  The result is one
JSON line on standard output.  run.py starts this script; it is not meant
to be called by hand.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "pass"], required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced spans here (gzip JSON)")
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import nlfield as nlf
    import_s = time.perf_counter() - t0

    # the benchmark's own modules (and mpmath, which sympy has loaded
    # already) stay outside the timed set-up
    import workloads

    workdir = tempfile.mkdtemp(prefix="work-", dir=HERE)
    try:
        wl = workloads.WORKLOADS[args.workload]
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        t1 = time.perf_counter()
        fields = wl.setup(nlf)
        setup_s = import_s + time.perf_counter() - t1
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        # inputs are built untraced: per-layer counts cover set-up and ops
        if tracer:
            tracer.uninstall()
        ops = wl.ops(nlf, fields, random.Random(args.seed), workdir)
        if tracer:
            tracer.install()
        gc.collect()
        lat, outs, errors = [], [], []
        clock = time.perf_counter
        start = clock()
        for i, op in enumerate(ops):
            if tracer:
                tracer.op_id = i
            t = clock()
            try:
                out, err = op.run(), None
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                out, err = None, f"{type(exc).__name__}: {exc}"
            lat.append(clock() - t)
            outs.append(out)
            errors.append(err)
        wall_s = clock() - start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()

        failures = []
        for i, (op, out, err) in enumerate(zip(ops, outs, errors)):
            if err is None:
                try:
                    ok = bool(op.check(out))
                except Exception as exc:  # noqa: BLE001 - a crashing check rejects
                    ok, err = False, f"check raised {type(exc).__name__}: {exc}"
                if ok:
                    continue
                failures.append({"op": i, "kind": op.kind, "why": "rejected",
                                 "detail": err or "output differs from the reference"})
            else:
                failures.append({"op": i, "kind": op.kind, "why": "raised", "detail": err})

        doc = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "lat_s": lat,
            "kinds": [op.kind for op in ops],
            "failures": failures,
            "rss_mb": rss_mb,
        }
        if tracer:
            doc["layers"] = tracer.summary()
            doc["spans"] = len(tracer.spans)
            if args.spans:
                with gzip.open(args.spans, "wt") as fh:
                    json.dump({"fields": ["name", "start", "end", "parent", "op"],
                               "spans": tracer.spans}, fh)
        print(json.dumps(doc))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
