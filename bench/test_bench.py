"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest bench/test_bench.py

They run the benchmark itself, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run  # puts the repository's src/ on sys.path
import tracing
import workloads
from benenti import expr, pairfile, projective

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_deterministic_in_the_seed(name):
    assert workloads.build(name, 3) == workloads.build(name, 3)
    assert workloads.build(name, 3) != workloads.build(name, 4)


def test_generator_is_the_levi_civita_normal_form():
    for n in (2, 3, 4):
        text = workloads.levi_civita_text(n, 5)
        assert text == workloads.levi_civita_text(n, 5)
        assert text != workloads.levi_civita_text(n, 6)
        pair = pairfile.parse_pair(text, f"generated:lc{n}")
        point = pair.sample_point(np.random.default_rng(0))
        # with X_i = x_i the structure tensor is diag(x_1, ..., x_n)
        np.testing.assert_allclose(
            pair.frame(point, 0).L.value(), np.diag(point), rtol=1e-12,
            atol=1e-12)


def test_fresh_pairs_build_the_same_frames_every_pass():
    workload = workloads.build("frames_nd", 1)
    (first, a), (second, b) = (run._traced_pass(workload) for _ in range(2))
    assert a["projective.frame.builds"][0] > 0
    for name in run.COUNTS:
        assert a[name] == b[name], name
    assert first.digests == second.digests
    assert not first.failures and not second.failures


def test_tracer_puts_every_original_back():
    def wrapped_now():
        found = {(id(owner), attr): owner.__dict__[attr]
                 for owner, attr, *_ in tracing._targets()}
        for attr in tracing._FRAME_PROPERTIES:
            found[attr] = projective.PointFrame.__dict__[attr]
        found["_JET_FUNCS"] = dict(expr._JET_FUNCS)
        return found

    before = wrapped_now()
    with tracing.Tracer():
        assert wrapped_now() != before
    assert wrapped_now() == before


def _check_output(proc, spec_metrics):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_ratio 0 ratio" in lines
    assert list(result["metrics"]) == [m["name"] for m in spec_metrics]
    for m in spec_metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        printed = [l for l in lines if l.split(" ")[0] == m["name"]]
        assert len(printed) == 1 and printed[0].endswith(f" {m['unit']}")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(name):
    proc = bench("--workload", name, "--seed", "7", "--seconds", "1", "--trace", "0")
    _check_output(proc, SPEC["end_to_end"])


def test_traced_run_prints_every_per_layer_metric():
    proc = bench("--workload", "geodesic", "--seed", "7", "--seconds", "1",
                 "--trace", "1")
    _check_output(proc, SPEC["per_layer"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "catalog", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
