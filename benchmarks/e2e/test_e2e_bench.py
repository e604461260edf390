"""Tests of the end-to-end benchmark itself.

Run with ``PYTHONPATH=src python -m pytest -q benchmarks/e2e``.  One
``--quick`` run of all four workloads (untraced and traced) is shared by
most tests; the rest exercise the failure paths and ``compare.py``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
COMPARE = os.path.join(HERE, "compare.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True,
        text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    t0 = time.perf_counter()
    proc = _run("--quick", "--out", str(out))
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {"doc": doc, "elapsed": elapsed, "stdout": proc.stdout}


def test_quick_runs_all_workloads_within_a_minute(quick):
    spec = _spec()
    ran = {(r["workload"], r["trace"]) for r in quick["doc"]["runs"]}
    assert ran == {(w["name"], t) for w in spec["workloads"] for t in (0, 1)}
    assert quick["elapsed"] < 60.0


def test_emits_exactly_the_declared_metrics(quick):
    spec = _spec()
    for run in quick["doc"]["runs"]:
        declared = spec["per_layer"] if run["trace"] else spec["end_to_end"]
        assert list(run["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            assert NAME.match(m["name"]) and UNIT.match(m["unit"])
            assert run["metrics"][m["name"]]["unit"] == m["unit"]
        if not run["trace"]:
            assert all(v["value"] > 0 for v in run["metrics"].values())
    last = json.loads(quick["stdout"].strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0


def test_traced_outputs_equal_untraced(quick):
    for run in quick["doc"]["runs"]:
        if run["trace"]:
            identity = [c for c in run["checks"]
                        if c["name"] == "traced_equals_untraced"]
            assert identity and all(c["ok"] for c in identity)


def test_trace_residual_is_small(quick):
    for run in quick["doc"]["runs"]:
        if run["trace"]:
            assert run["metrics"]["trace.residual_frac"]["value"] <= 0.05


def test_perturbed_expected_output_fails(tmp_path):
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    entry = expected["quick"]["paper-e2e"][0]
    entry["sensors"] = [c + 1 for c in entry["sensors"]]
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    proc = _run("--quick", "--workload", "paper-e2e", "--trace", "0",
                "--expected", str(path))
    assert proc.returncode == 1
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not last["correct"] and last["failed"] > 0
    assert "matches_expected" in proc.stdout


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper-e2e",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_refuses_a_different_run_length():
    proc = _run("--workload", "paper-e2e", "--trace", "0", "--seconds", "7")
    assert proc.returncode == 2
    assert proc.stdout.strip() == "" and "--seconds must be" in proc.stderr


def _result(tmp_path, name, wall, provenance=None):
    runs = [
        {"workload": "paper-e2e", "trace": 0, "seed": i,
         "metrics": {"wall_s": {"value": v, "unit": "s"}}}
        for i, v in enumerate(wall)
    ]
    doc = {"schema": "repro.e2e/v1", "provenance": provenance or {},
           "runs": runs}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _compare(*args):
    return subprocess.run([sys.executable, COMPARE, *args],
                          capture_output=True, text=True, timeout=60)


def test_compare_verdicts(tmp_path):
    base = _result(tmp_path, "a.json", [1.00, 1.01, 0.99, 1.00, 1.02] * 2)
    same = _result(tmp_path, "b.json", [1.01, 1.00, 1.00, 0.99, 1.01] * 2)
    slow = _result(tmp_path, "c.json", [1.40, 1.42, 1.39, 1.41, 1.40] * 2)
    fast = _result(tmp_path, "d.json", [0.80, 0.81, 0.79, 0.80, 0.82] * 2)
    proc = _compare(base, same)
    assert proc.returncode == 0 and " same" in proc.stdout
    proc = _compare(base, slow)
    assert proc.returncode == 1 and " worse" in proc.stdout
    proc = _compare(base, fast)
    assert proc.returncode == 0 and " better" in proc.stdout
    # Fewer than ten pairs can never claim a gain.
    few = _result(tmp_path, "f.json", [0.80, 0.81, 0.79, 0.80, 0.82])
    proc = _compare(base, few)
    assert " same" in proc.stdout and " better" not in proc.stdout
    noisy = _result(tmp_path, "e.json", [0.6, 1.4, 1.0, 0.7, 1.5])
    proc = _compare(base, noisy)
    assert " unresolved" in proc.stdout


def test_compare_refuses_mismatched_provenance(tmp_path):
    a = _result(tmp_path, "a.json", [1.0, 1.0], {"numpy": "2.0", "cpu_count": 2})
    b = _result(tmp_path, "b.json", [1.0, 1.0], {"numpy": "2.1", "cpu_count": 2})
    proc = _compare(a, b)
    assert proc.returncode == 2 and "numpy" in proc.stdout
    assert _compare(a, b, "--force").returncode == 0
    c = _result(tmp_path, "c.json", [1.0, 1.0], {"run_seconds": 20})
    d = _result(tmp_path, "d.json", [1.0, 1.0], {"run_seconds": 10})
    proc = _compare(c, d)
    assert proc.returncode == 2 and "run_seconds" in proc.stdout
