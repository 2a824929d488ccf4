"""The verdict rule and the seed lists of scripts/bench_pair.py, which
decide every performance claim recorded in a BENCH file.  The script is
read here, never changed."""

import importlib.util
import json
import pathlib
import sys
import types

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pair.py"


@pytest.fixture(scope="module")
def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


STEADY = [1.0, 1.01, 0.99, 1.0]  # median 1.0, IQR 0.0125


@pytest.mark.parametrize("parent, change, direction, bound, wins, verdict", [
    (STEADY, [2.0, 2.0, 2.0, 2.0], "lower", 0.25, 0, "worse"),
    (STEADY, [0.99, 0.99, 0.99, 0.99], "higher", 0.001, 0, "worse"),
    ([1.0, 2.0, 3.0, 4.0], [2.4, 2.5, 2.6, 2.5], "lower", 0.25, 2, "unresolved"),
    (STEADY, [0.5, 0.5, 0.5, 0.5], "lower", 0.25, 4, "better"),
    (STEADY, [1.5, 1.5, 1.5, 1.5], "higher", 0.25, 4, "better"),
    (STEADY, [0.9, 0.9, 0.9, 1.1], "lower", 0.25, 3, "within bound"),
    (STEADY, STEADY, "lower", 0.25, 0, "within bound"),
])
def test_verdict(bench_pair, parent, change, direction, bound, wins, verdict):
    assert bench_pair._verdict(parent, change, direction, bound, wins) == verdict


def test_seeds(bench_pair):
    assert bench_pair._seeds("401-403") == [401, 402, 403]
    assert bench_pair._seeds("5,7") == [5, 7]


def test_run_records_the_load_average_before_the_run(bench_pair, monkeypatch):
    events = []

    def getloadavg():
        events.append("loadavg")
        return (1.5, 0.75, 0.25)

    def run(argv, cwd, capture_output, text):
        events.append("run")
        line = {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}
        return types.SimpleNamespace(returncode=0, stdout="log\n" + json.dumps(line) + "\n",
                                     stderr="")

    monkeypatch.setattr(bench_pair.os, "getloadavg", getloadavg)
    monkeypatch.setattr(bench_pair.subprocess, "run", run)
    entry = bench_pair._run("tree", "exact-products", 7, 25)
    assert events == ["loadavg", "run"]
    assert entry == {"seed": 7, "loadavg": [1.5, 0.75, 0.25], "correct": True,
                     "attempted": 3, "failed": 0, "metrics": {"wall_s": 0.5}}


METRICS = [m["name"] for m in json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text())
           ["end_to_end"]]


def _fake_bench(calls):
    """A stand-in for perfbench/run.py: records (argv, cwd), answers with
    the checkout and the seed it ran in."""
    def run(argv, cwd, capture_output, text):
        calls.append((argv[2:], cwd))
        seed = int(argv[argv.index("--seed") + 1])
        metrics = {name: {"value": float(seed), "unit": "-"} for name in METRICS}
        line = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {**metrics, "tree": {"value": cwd, "unit": "path"}}}
        return types.SimpleNamespace(returncode=0, stdout=json.dumps(line) + "\n", stderr="")
    return run


def test_trace_runs_one_traced_pass_per_side(bench_pair, monkeypatch):
    calls = []
    monkeypatch.setattr(bench_pair.subprocess, "run", _fake_bench(calls))
    doc = bench_pair._trace({"parent": "p", "change": "c"}, "dirichlet-series", 2401, 25)
    argv = ["--workload", "dirichlet-series", "--seed", "2401", "--seconds", "25", "--trace", "1"]
    assert calls == [(argv, "p"), (argv, "c")]
    assert doc["command"] == ("python3 perfbench/run.py --workload dirichlet-series --seed 2401 "
                              "--seconds 25 --trace 1")
    assert [doc[side]["metrics"]["tree"]["value"] for side in ("parent", "change")] == ["p", "c"]


def _main_with(bench_pair, monkeypatch, tmp_path, bench):
    """main on seeds 7-8 with --trace-out, perfbench/run.py answered by bench
    and git archive and tar by nothing; the pairs and trace file paths."""
    def run(argv, cwd=None, **kw):
        if argv[0] == sys.executable:
            return bench(argv, cwd, kw["capture_output"], kw["text"])
        return types.SimpleNamespace(returncode=0, stdout=b"", stderr=b"")

    monkeypatch.setattr(bench_pair.subprocess, "run", run)
    monkeypatch.setattr(bench_pair, "_git", lambda *args, **kw: "rev")
    out, trace = tmp_path / "pairs.json", tmp_path / "trace.json"
    bench_pair.main(["--workload", "dirichlet-series", "--seeds", "7-8", "--out", str(out),
                     "--workdir", str(tmp_path), "--trace-out", str(trace)])
    return out, trace


def test_trace_out_uses_the_first_seed_and_the_pairs_parent_export(bench_pair, monkeypatch,
                                                                  tmp_path):
    calls = []
    out, trace = _main_with(bench_pair, monkeypatch, tmp_path, _fake_bench(calls))
    pairs, doc = json.loads(out.read_text()), json.loads(trace.read_text())
    parent = pairs["runs"]["parent"][0]
    assert [r["seed"] for r in pairs["runs"]["change"]] == [7, 8]
    assert [argv for argv, _ in calls[4:]] == [
        ["--workload", "dirichlet-series", "--seed", "7", "--seconds", "25", "--trace", "1"]] * 2
    assert calls[4][1] == calls[0][1] != calls[5][1] == bench_pair.ROOT
    assert sorted(doc) == ["change", "command", "parent"]
    assert doc["parent"]["metrics"]["wall_s"]["value"] == parent["metrics"]["wall_s"] == 7.0


def test_a_failed_traced_run_keeps_the_pairs_file(bench_pair, monkeypatch, tmp_path):
    calls = []
    bench = _fake_bench(calls)

    def traced_run_fails(argv, cwd, capture_output, text):
        proc = bench(argv, cwd, capture_output, text)
        if "--trace" in argv:
            proc.returncode, proc.stderr = 1, "run.py: unknown option --trace"
        return proc

    with pytest.raises(SystemExit, match="unknown option --trace"):
        _main_with(bench_pair, monkeypatch, tmp_path, traced_run_fails)
    out, trace = tmp_path / "pairs.json", tmp_path / "trace.json"
    assert len(calls) == 5 and not trace.exists()
    assert [r["seed"] for r in json.loads(out.read_text())["runs"]["parent"]] == [7, 8]
    assert not list(tmp_path.glob("bench-pair-*"))  # the parent export is removed
