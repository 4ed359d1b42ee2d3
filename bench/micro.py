"""Single-call timings of each layer, for the traced run.

Each figure is the median over a few batches of one public call, on inputs
drawn from the seed; a batch repeats the call until it has run for at least
``BATCH_S`` so that clock resolution does not matter.  Frames that a timed
call only reads are built before timing, so each figure is the cost of the
layer it names and not of the frames beneath it.
"""

from __future__ import annotations

import statistics
import time
from itertools import combinations_with_replacement

import numpy as np

from benenti import expr, geometry, jets, operators, pairfile, projective, verify

import workloads

BATCH_S = 0.02
BATCHES = 5

# Cached properties a fresh frame can compute at each order: orders 0 and 1
# stop short of what differentiates the metric twice or three times.
_FRAME_PROPERTIES = {
    0: ("g", "gbar", "g_inv", "gbar_inv", "L", "sqrt_abs_det_g"),
    1: ("g", "gbar", "g_inv", "gbar_inv", "L", "sqrt_abs_det_g", "gamma",
        "gamma_bar", "gamma_trace", "benenti"),
    4: ("g", "gbar", "g_inv", "gbar_inv", "L", "sqrt_abs_det_g", "gamma",
        "gamma_bar", "gamma_trace", "benenti", "ricci_tensor", "ricci_endo"),
}


def per_call_s(fn) -> float:
    """Median seconds of one call of ``fn``."""
    fn()
    start, n = time.perf_counter(), 0
    while time.perf_counter() - start < BATCH_S:
        fn()
        n += 1
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return statistics.median(samples)


def _random_jet(rng, nvars: int, order: int, constant: float) -> jets.Jet:
    coeffs = rng.normal(size=len(jets.multi_indices(nvars, order)))
    coeffs[0] = constant
    return jets.Jet(nvars, order, coeffs)


def _build_frame(pair, point, order):
    frame = projective.PointFrame(pair, point, order)
    for name in _FRAME_PROPERTIES[order]:
        getattr(frame, name)


def measure(seed: int) -> dict:
    """Metric name -> (value, unit) for every single-call figure."""
    rng = np.random.default_rng([seed, 1])
    out = {}

    for n in (2, 3, 4):
        a, b = (_random_jet(rng, n, 4, 1.0) for _ in range(2))
        out[f"jets.mul_us.n{n}"] = (per_call_s(lambda: a * b) * 1e6, "us")
    f3 = _random_jet(rng, 3, 4, 1.5)
    out["jets.compose_us.n3"] = (per_call_s(lambda: jets.reciprocal(f3)) * 1e6, "us")
    out["jets.diff_us.n3"] = (per_call_s(lambda: jets.differentiate(f3, 0)) * 1e6, "us")

    sphere = pairfile.parse_pair(workloads.catalog_text("trivial3"), "catalog:trivial3")
    text = sphere.g.component_texts[2][2]
    coords = sphere.coordinates
    parsed = expr.parse(text, coords)
    x = sphere.sample_point(rng)
    floats = dict(zip(coords, x))
    o1 = dict(zip(coords, jets.seed_coordinates(x, 1)))
    o4 = dict(zip(coords, jets.seed_coordinates(x, 4)))
    out["expr.eval_float_us"] = (per_call_s(lambda: expr.evaluate(parsed, floats)) * 1e6, "us")
    out["expr.eval_jet_us.o1"] = (per_call_s(lambda: expr.evaluate(parsed, o1)) * 1e6, "us")
    out["expr.eval_jet_us.o4"] = (per_call_s(lambda: expr.evaluate(parsed, o4)) * 1e6, "us")
    out["expr.parse_us"] = (per_call_s(lambda: expr.parse(text, coords)) * 1e6, "us")

    dini = pairfile.parse_pair(workloads.catalog_text("dini"), "catalog:dini")
    lc3 = pairfile.parse_pair(workloads.levi_civita_text(3, seed), "generated:lc3")
    lc4 = pairfile.parse_pair(workloads.levi_civita_text(4, seed), "generated:lc4")
    p2, p3, p4 = (pair.sample_point(rng, shrink=0.5) for pair in (dini, lc3, lc4))
    for label, pair, p in (("n2", dini, p2), ("n3", lc3, p3)):
        out[f"geometry.christoffel_values_us.{label}"] = (
            per_call_s(lambda: geometry.christoffel_values(pair.g, p)) * 1e6, "us")
    g4 = lc3.g.evaluate(p3, 4)
    g4_inv = geometry.inverse_metric(g4)
    gamma = geometry.christoffel(g4, g4_inv)
    g4_n4 = lc4.g.evaluate(p4, 4)
    out["geometry.metric_evaluate_ms.o4"] = (per_call_s(lambda: lc3.g.evaluate(p3, 4)) * 1e3, "ms")
    out["geometry.christoffel_ms.o4"] = (per_call_s(lambda: geometry.christoffel(g4, g4_inv)) * 1e3, "ms")
    out["geometry.ricci_ms"] = (per_call_s(lambda: geometry.ricci(gamma)) * 1e3, "ms")
    out["geometry.inverse_metric_ms.n4"] = (per_call_s(lambda: geometry.inverse_metric(g4_n4)) * 1e3, "ms")

    for order in (0, 1, 4):
        out[f"projective.frame_build_ms.o{order}"] = (
            per_call_s(lambda: _build_frame(lc3, p3, order)) * 1e3, "ms")

    suite = verify.function_suite(lc3.coordinates)
    grid = projective.t_grid(lc3, p3)
    t, s = grid[0], grid[-1]
    phi = operators.PhaseSpacePoint(p3, tuple(rng.uniform(-2.0, 2.0, size=3)))
    pairs_ts = list(combinations_with_replacement(grid, 2))

    def commutator_point():
        for f in suite:
            operators.killing_commutator_grid(lc3, f, p3)

    def decompose_point():
        operators.commutator_decompose(
            operators.killing_operator(lc3, t), operators.killing_operator(lc3, s), p3)

    def poisson_point():
        for a, b in pairs_ts:
            operators.poisson_residual(lc3, a, b, phi)

    out["operators.commutator_grid_ms"] = (per_call_s(commutator_point) * 1e3, "ms")
    out["operators.decompose_ms"] = (per_call_s(decompose_point) * 1e3, "ms")
    out["operators.poisson_ms"] = (per_call_s(poisson_point) * 1e3, "ms")

    # A short trajectory from the middle of dini's domain, which stays inside.
    v = rng.uniform(-0.3, 0.3, size=2)
    start = operators.PhaseSpacePoint(p2, tuple(dini.g.values(p2) @ v))
    steps = operators.geodesic_drift(dini, 0.5, start, 0.02, 1e-3).steps
    out["operators.rk4_step_us"] = (
        per_call_s(lambda: operators.geodesic_drift(dini, 0.5, start, 0.02, 1e-3))
        / steps * 1e6, "us")
    return out
