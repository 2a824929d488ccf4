"""The verdict rule and the seed lists of scripts/bench_pair.py, which
decide every performance claim recorded in a BENCH file.  The script is
read here, never changed."""

import importlib.util
import json
import pathlib
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
