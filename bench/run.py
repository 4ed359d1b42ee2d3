"""Benchmark of benenti: verify a workload's pairs and print the figures.

    python3 bench/run.py --workload catalog --seed 42 --seconds 30 --trace 0

Run it from the root of a checkout; it imports benenti from ``src/`` there
and refuses to run without it.  ``--workload`` is one of ``catalog``,
``frames_nd`` and ``geodesic`` (see README.md for what each one is for).

A pass parses the workload's pairs afresh, then verifies every pair and
renders its report; only the verifying and rendering are timed.  Passes
repeat on the same inputs until ``--seconds`` are spent, and times are
medians over passes.

With ``--trace 0`` the result holds the end-to-end figures: ``setup_s`` (the
median over fresh interpreters of importing benenti and loading the pairs),
``wall_ref`` (the median pass, in units of the yardstick loop timed beside
it, see yardstick.py) and ``peak_rss_mb``.  With ``--trace 1`` it holds
the per-layer figures instead: single-call timings, and the counts, check
times and self time per module of passes run under the tracer, whose cost is
reported against untraced passes of the same run.

Every figure is printed as ``name value unit``, followed by two that are
shown but not gated: ``wall_s``, the median pass in seconds, and
``failed_ratio``.  Then comes a line ``info`` with what is recorded but never
gated: report digests, the ``src/`` line count and the environment.  The
last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A pair verification fails when it raises, when an equivalent
pair gets a failing record or a control passes; the run is correct when none
fails and every pass renders byte-identical reports (timing aside).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 15
SETUP_TIMEOUT_S = 120
COUNTS = ("jets.mul.calls", "jets.mul.madds", "expr.evaluate.calls",
          "projective.frame.requests", "projective.frame.builds",
          "operators.rk4.steps")

if not (SRC / "benenti" / "__init__.py").is_file():
    sys.exit(f"error: no benenti package under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from benenti import pairfile, verify  # noqa: E402

import micro  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402


@dataclass
class PassResult:
    parse_s: float
    attempted: int
    wall_s: float = 0.0
    render_s: float = 0.0
    yardstick_s: float = 0.0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    @property
    def wall_ref(self) -> float:
        return self.wall_s / self.yardstick_s


def report_digest(text: str) -> str:
    """sha256 of a rendered report without its timing block."""
    head, sep, _ = text.rpartition("\ntiming:\n")
    if not sep:
        raise ValueError("rendered report has no timing block")
    return hashlib.sha256(head.encode()).hexdigest()


def run_pass(workload) -> PassResult:
    """Parse fresh pairs, then verify and render each one under the clock.

    The yardstick runs before the first pair and after every pair; each pair
    is charged the mean of the two runs around it.
    """
    start = time.perf_counter()
    pairs = [pairfile.parse_pair(p.text, p.label) for p in workload.pairs]
    result = PassResult(time.perf_counter() - start, len(pairs))
    before = yardstick.seconds()
    for spec, pair in zip(workload.pairs, pairs):
        start = time.perf_counter()
        try:
            report = verify.verify_pair(
                pair, spec.config, source=spec.label,
                expected_equivalent=spec.expected_equivalent,
            )
            rendered = time.perf_counter()
            text = report.render()
            result.render_s += time.perf_counter() - rendered
        except Exception:  # a verification that raises is a failed one
            report = None
            result.failures.append(f"{spec.label} raised:\n{traceback.format_exc()}")
        result.wall_s += time.perf_counter() - start
        after = yardstick.seconds()
        result.yardstick_s += (before + after) / 2
        before = after
        if report is None:
            continue
        if report.passed != spec.expected_equivalent:
            want = "pass" if spec.expected_equivalent else "fail"
            result.failures.append(
                f"{spec.label} should {want}; max residuals {report.max_residuals()}"
            )
        result.digests[spec.label] = report_digest(text)
    return result


def repeat(fn, seconds: float, minimum: int = 1) -> list:
    """Call ``fn`` until the next call would end after ``seconds``."""
    out, start = [], time.perf_counter()
    while True:
        out.append(fn())
        spent = time.perf_counter() - start
        if len(out) >= minimum and spent * (len(out) + 1) / len(out) > seconds:
            return out


def setup_samples(workload) -> list:
    """Set-up seconds measured in fresh interpreters, one per repetition."""
    job = json.dumps({
        "src": str(SRC),
        "catalog": list(workload.catalog_names),
        "texts": [[p.label, p.text] for p in workload.generated],
    })
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py")], input=job,
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def sampling_seconds(workload) -> float:
    """Seconds verify_pair spends drawing points, with no check selected."""
    pairs = [pairfile.parse_pair(p.text, p.label) for p in workload.pairs]
    start = time.perf_counter()
    for spec, pair in zip(workload.pairs, pairs):
        verify.verify_pair(pair, replace(spec.config, checks=()))
    return time.perf_counter() - start


def consistency_failures(passes) -> list:
    """Reports must be identical in every pass of one run."""
    first = passes[0].digests
    return [f"{label}: report differs between passes"
            for p in passes[1:] for label, digest in p.digests.items()
            if first.get(label) != digest]


def end_to_end(workload, seed, seconds):
    setup = setup_samples(workload)
    passes = repeat(lambda: run_pass(workload), seconds)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_ref": (statistics.median(p.wall_ref for p in passes), "x"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    shown = {"wall_s": (statistics.median(p.wall_s for p in passes), "s")}
    info = {"setup_s": setup, "pass_wall_s": [p.wall_s for p in passes],
            "pass_wall_ref": [p.wall_ref for p in passes]}
    return passes, metrics, shown, info, []


def _traced_pass(workload):
    tracer = tracing.Tracer()
    with tracer:
        result = run_pass(workload)
    calls = tracer.calls
    requests = calls["projective.ProjectivePair.frame"]
    builds = calls["projective.PointFrame.build"]
    trajectories = tracer.counts["operators.drift.trajectories"]
    figures = {
        "jets.mul.calls": (tracer.counts["jets.mul.calls"], "count"),
        "jets.mul.madds": (tracer.counts["jets.mul.madds"], "count-computed"),
        "expr.evaluate.calls": (calls["expr.evaluate"], "count"),
        "projective.frame.requests": (requests, "count"),
        "projective.frame.builds": (builds, "count"),
        "projective.frame.hit_ratio": (1.0 - builds / requests, "ratio"),
        "operators.rk4.steps": (tracer.counts["operators.rk4.steps"], "count"),
        "operators.drift.exit_ratio": (
            tracer.counts["operators.drift.exits"] / trajectories
            if trajectories else 0.0, "ratio"),
    }
    for check in verify.CHECK_IDS:
        figures[f"verify.check_s.{check}"] = (
            tracer.span_seconds(tracing.CHECK_SPANS[check]), "s")
    for layer, seconds in tracer.layer_self_seconds().items():
        figures[f"layer.self_s.{layer}"] = (seconds, "s")
    return result, figures


def per_layer(workload, seed, seconds):
    plain = repeat(lambda: run_pass(workload), seconds / 3)
    traced = repeat(lambda: _traced_pass(workload), seconds / 3, minimum=2)
    passes = plain + [result for result, _ in traced]
    failures = []
    for name in COUNTS:
        values = {figures[name][0] for _, figures in traced}
        if len(values) != 1:
            failures.append(f"{name} differs between traced passes: {sorted(values)}")

    metrics = {}
    for name, (value, unit) in traced[0][1].items():
        if name not in COUNTS:
            value = statistics.median(f[name][0] for _, f in traced)
        metrics[name] = (value, unit)
    traced_wall = statistics.median(r.wall_s for r, _ in traced)
    plain_wall = statistics.median(p.wall_s for p in plain)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["verify.sample_s"] = (
        statistics.median(sampling_seconds(workload) for _ in range(3)), "s")
    metrics["verify.render_s"] = (statistics.median(p.render_s for p in plain), "s")
    metrics["pairfile.parse_ms"] = (
        statistics.median(p.parse_s for p in plain) / len(workload.pairs) * 1e3, "ms")
    metrics.update(micro.measure(seed))
    shown = {"wall_s": (plain_wall, "s")}
    info = {"pass_wall_s": [p.wall_s for p in plain],
            "traced_pass_wall_s": [r.wall_s for r, _ in traced]}
    return passes, metrics, shown, info, failures


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    passes, metrics, shown, info, failures = measure(workload, args.seed, args.seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    failures += [f for p in passes for f in p.failures] + consistency_failures(passes)
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)

    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {failed / attempted:.6g} ratio")
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "report_sha256": passes[0].digests,
        "src_lines": src_lines(),
        "environment": environment(),
    })
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
