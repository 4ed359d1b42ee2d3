"""Acceptance gate: the eight headline guarantees, one test per criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (run pytest
with ``-s`` to see them all) and then asserts, so the suite both
documents and enforces the contract:

  1. quantized family members commute on a 7-function suite
  2. K^(t) satisfies the Killing equation; a non-Killing control fails
  3. quadratic integrals Poisson-commute and are conserved along
     numerically integrated geodesics, to within the integrator's
     tolerance, while the controls drift at every tolerance
  4. the Ricci endomorphism commutes with the structure tensor and the
     Carter divergence vanishes
  5. commutator decomposition vanishes on equivalent pairs and matches
     a finite-difference oracle on a non-Killing control
  6. first-order structure identities hold, and the non-equivalent
     control violates them at almost every point
  7. kernel soundness: jet chain rule vs finite differences, adjugate
     identity, and family interpolation
  8. the CLI exits 0/1/2 for equivalent/control/malformed inputs within
     the time budget
"""

import math
import time

import numpy as np
import pytest

import jet_reference
from benenti import catalog, expr, jets, operators as ops
from benenti.cli import main as cli_main
from benenti.errors import PairFileError
from benenti.geometry import JetTensor, MetricField, christoffel
from benenti.pairfile import parse_pair
from benenti.projective import (
    adjugate_family,
    check_carter_condition,
    check_connection_difference,
    check_killing,
    check_killing_tensor,
    check_phi_identity,
    check_projective_equivalence,
    check_ricci_commutation,
    t_grid,
)
from benenti.verify import VerifyConfig, _sample_points, function_suite

QUANTUM_ENTRIES = ("dini", "beltrami", "lorentz_dini", "scaled", "trivial")
SEED = 42


def _report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {verdict}: {detail}")


def _points(pair, n=20, seed=SEED):
    return _sample_points(pair, VerifyConfig(points=n), np.random.default_rng(seed))


def _grid_pairs(grid):
    return [(t, s) for i, t in enumerate(grid) for s in grid[i:]]


def test_criterion_1_operator_commutation():
    started = time.perf_counter()
    worst = 0.0
    fewest_pairs = None
    worst_case = None
    for name in QUANTUM_ENTRIES:
        pair = catalog.get_entry(name).pair
        suite = function_suite(pair.coordinates)
        assert len(suite) == 7
        for point in _points(pair):
            grid = t_grid(pair, point)
            pairs = _grid_pairs(grid)
            n_pairs = len(pairs)
            fewest_pairs = n_pairs if fewest_pairs is None else min(fewest_pairs, n_pairs)
            for f in suite:
                B = ops.killing_commutator_grid(pair, f, point)
                for t, s in pairs:
                    value, scale = ops.commutator_from_grid(B, t, s)
                    r = abs(value) / scale
                    if r > worst:
                        worst, worst_case = r, (name, point, f, t, s)
    # the sharpest case, recomputed through the literal operator route
    name, point, f, t, s = worst_case
    pair = catalog.get_entry(name).pair
    literal = ops.commutator_residual(
        ops.killing_operator(pair, t), ops.killing_operator(pair, s), f, point
    )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-7 and literal <= 1e-7 and fewest_pairs >= 28 and elapsed < 30.0
    _report(
        1,
        ok,
        f"operator commutators over {len(QUANTUM_ENTRIES)} pairs x 20 points x "
        f">= {fewest_pairs} (t,s) x 7 functions: worst residual {worst:.3e} "
        f"(literal recheck {literal:.3e}), tolerance 1e-07, {elapsed:.1f}s",
    )
    assert worst <= 1e-7
    assert literal <= 1e-7
    assert fewest_pairs >= 28
    assert elapsed < 30.0


def test_criterion_2_killing_equation():
    worst = 0.0
    for name in catalog.equivalent_entries():
        pair = catalog.get_entry(name).pair
        for point in _points(pair):
            for t in t_grid(pair, point):
                worst = max(worst, check_killing_tensor(pair, t, point))

    # non-Killing control: K = diag(x, 0) against the flat metric
    flat = MetricField(("x", "y"), [["1", "0"], ["0", "1"]])
    rng = np.random.default_rng(SEED)
    control_worst = 0.0
    control_best = math.inf
    for _ in range(10):
        point = tuple(rng.uniform(-2.0, 2.0, 2))
        gamma = christoffel(flat.evaluate(point, 2))
        x, _y = jets.seed_coordinates(point, 2)
        zero = 0.0 * x
        K = JetTensor(np.array([[x, zero], [zero, zero]], dtype=object), 0, 2)
        r = check_killing(K, gamma)
        control_worst = max(control_worst, r)
        control_best = min(control_best, r)

    ok = worst <= 1e-9 and control_best >= 0.1
    _report(
        2,
        ok,
        f"Killing equation: family worst {worst:.3e} (tolerance 1e-09); "
        f"non-Killing control residual >= {control_best:.3f} (needs >= 0.1)",
    )
    assert worst <= 1e-9
    assert control_best >= 0.1


def test_criterion_3_classical_integrals():
    rng = np.random.default_rng(SEED)
    worst_poisson = 0.0
    for name in catalog.equivalent_entries():
        pair = catalog.get_entry(name).pair
        points = _points(pair, n=50)
        for point in points:
            momentum = tuple(rng.uniform(-2.0, 2.0, pair.dim))
            phi = ops.PhaseSpacePoint(point, momentum)
            grid = t_grid(pair, point)
            for t, s in _grid_pairs(grid)[:: max(1, len(_grid_pairs(grid)) // 6)]:
                worst_poisson = max(
                    worst_poisson, ops.poisson_residual(pair, t, s, phi)
                )

    # conservation along geodesics at the drift check's tolerance
    velocity = {
        "dini": ((1.6, 0.75), (0.55, -0.5)),
        "lorentz_dini": ((1.6, -0.5), (0.5, 0.45)),
        "trivial": ((1.2, 1.0), (0.6, 0.5)),
    }

    def drift(name, tol):
        pair = catalog.get_entry(name).pair
        if name in velocity:
            x0, v = velocity[name]
        else:
            x0 = pair.sample_point(np.random.default_rng(SEED))
            v = tuple(np.random.default_rng(SEED + 1).uniform(-0.6, 0.6, pair.dim))
        p0 = tuple(pair.g.values(x0) @ np.asarray(v, dtype=float))
        phi0 = ops.PhaseSpacePoint(x0, p0)
        return ops.geodesic_drift(pair, 0.0, phi0, 1.0, tol).max_drift

    worst_drift = max(drift(name, 1e-11) for name in catalog.equivalent_entries())

    # a tolerance sweep: on dini the drift stays within the tolerance and
    # falls as it tightens; both controls fail at every tolerance
    sweep = (1e-5, 1e-6, 1e-7, 1e-8, 1e-9)
    drifts = {
        name: [drift(name, tol) for tol in sweep]
        for name in ("dini", "control_nonequiv", "control_nonequiv_curved")
    }
    dini_ok = (all(d <= tol for d, tol in zip(drifts["dini"], sweep))
               and all(a > b for a, b in zip(drifts["dini"], drifts["dini"][1:])))
    controls_ok = all(d > 1e-8 for name in drifts if name != "dini"
                      for d in drifts[name])
    ok = worst_poisson <= 1e-8 and worst_drift <= 1e-8 and dini_ok and controls_ok
    sweep_text = ", ".join(f"{tol:.0e}: {d:.1e}" for tol, d in zip(sweep, drifts["dini"]))
    _report(
        3,
        ok,
        f"Poisson worst {worst_poisson:.3e} (tolerance 1e-08) over 50 phase "
        f"points/pair; drift worst {worst_drift:.3e} at tolerance 1e-11 "
        f"(threshold 1e-08); dini drift by tolerance [{sweep_text}]; controls "
        f"drift at least {min(min(drifts[n]) for n in drifts if n != 'dini'):.1e}",
    )
    assert worst_poisson <= 1e-8
    assert worst_drift <= 1e-8
    assert dini_ok, f"dini drifts: {drifts['dini']}"
    assert controls_ok, f"drifts: {drifts}"


def test_criterion_4_curvature_compatibility():
    worst_ricci = 0.0
    worst_carter = 0.0
    for name in catalog.equivalent_entries():
        pair = catalog.get_entry(name).pair
        for point in _points(pair):
            worst_ricci = max(worst_ricci, check_ricci_commutation(pair, point))
            for t in t_grid(pair, point):
                worst_carter = max(
                    worst_carter, check_carter_condition(pair, t, point)
                )
    ok = worst_ricci <= 1e-8 and worst_carter <= 1e-7
    _report(
        4,
        ok,
        f"Ricci commutation worst {worst_ricci:.3e} (tolerance 1e-08); "
        f"Carter divergence worst {worst_carter:.3e} (tolerance 1e-07)",
    )
    assert worst_ricci <= 1e-8
    assert worst_carter <= 1e-7


def test_criterion_5_commutator_decomposition():
    worst_q = 0.0
    worst_v = 0.0
    for name in catalog.equivalent_entries():
        pair = catalog.get_entry(name).pair
        for point in _points(pair, n=5):
            grid = t_grid(pair, point)
            dec = ops.commutator_decompose(
                ops.killing_operator(pair, grid[0]),
                ops.killing_operator(pair, grid[-1]),
                point,
            )
            worst_q = max(worst_q, dec.q_norm)
            worst_v = max(worst_v, dec.v_norm)

    # flat non-Killing control K = diag(x^2, 0): nonzero second-order part
    flat = MetricField(("x", "y"), [["1", "0"], ["0", "1"]])
    ctrl = ops.QuantizedOperator.from_expressions(
        flat, [["x^2", "0"], ["0", "0"]], name="quadratic-non-killing"
    )
    lap = ops.laplacian(flat)
    point = (0.8, -0.6)
    dec = ops.commutator_decompose(lap, ctrl, point)

    h = 2e-3

    def fd_apply(A_fn, f, y):
        y = np.asarray(y, dtype=float)

        def W(z):
            A = A_fn(z)
            df = np.empty(2)
            for j in range(2):
                dz = np.zeros(2)
                dz[j] = h
                df[j] = (f(z + dz) - f(z - dz)) / (2 * h)
            return A @ df

        out = 0.0
        for i in range(2):
            dy = np.zeros(2)
            dy[i] = h
            out += (W(y + dy)[i] - W(y - dy)[i]) / (2 * h)
        return out

    K_fn = lambda z: np.array([[z[0] ** 2, 0.0], [0.0, 0.0]])
    G_fn = lambda z: np.eye(2)
    c = np.asarray(point)
    fd_Q = np.empty((2, 2))
    for a in range(2):
        for b in range(2):
            probe = lambda z: (z[a] - c[a]) * (z[b] - c[b])
            val = (fd_apply(G_fn, lambda z: fd_apply(K_fn, probe, z), point)
                   - fd_apply(K_fn, lambda z: fd_apply(G_fn, probe, z), point))
            fd_Q[a, b] = 0.5 * val
    q_scale = max(1.0, float(np.max(np.abs(fd_Q))))
    fd_err = float(np.max(np.abs(dec.Q - fd_Q))) / q_scale

    ok = worst_q <= 1e-7 and worst_v <= 1e-7 and fd_err <= 1e-4
    _report(
        5,
        ok,
        f"decomposition on equivalent pairs: |Q| worst {worst_q:.3e}, "
        f"|V| worst {worst_v:.3e} (tolerance 1e-07); control Q vs "
        f"finite-difference oracle relative error {fd_err:.3e} (needs <= 1e-4)",
    )
    assert worst_q <= 1e-7
    assert worst_v <= 1e-7
    assert fd_err <= 1e-4


def test_criterion_6_structure_identities():
    worst = 0.0
    for name in catalog.equivalent_entries():
        pair = catalog.get_entry(name).pair
        for point in _points(pair):
            worst = max(worst, check_projective_equivalence(pair, point))
            worst = max(worst, check_connection_difference(pair, point))
            worst = max(worst, check_phi_identity(pair, point))

    control = catalog.get_entry("control_nonequiv").pair
    points = _points(control)
    hits = {"basic": 0, "connection": 0, "phi": 0}
    for point in points:
        if check_projective_equivalence(control, point) > 1e-2:
            hits["basic"] += 1
        if check_connection_difference(control, point) > 1e-2:
            hits["connection"] += 1
        if check_phi_identity(control, point) > 1e-2:
            hits["phi"] += 1
    fractions = {k: v / len(points) for k, v in hits.items()}

    ok = worst <= 1e-8 and all(f >= 0.9 for f in fractions.values())
    frac_text = ", ".join(f"{k}={v:.0%}" for k, v in fractions.items())
    _report(
        6,
        ok,
        f"structure identities worst {worst:.3e} (tolerance 1e-08); control "
        f"violation rates [{frac_text}] (each needs >= 90%)",
    )
    assert worst <= 1e-8
    assert all(f >= 0.9 for f in fractions.values()), fractions


CHAIN_TEMPLATES = (
    "sin({a} * u + {b} * v) * exp({c} * u)",
    "({a} + u^2 + v^2) ^ 1.5",
    "cos({a} * u) / ({b} + v^2)",
    "exp(sin({a} * u) + cos({b} * v))",
    "sqrt({a} + u^2 * v^2) * ({c} + v)",
)


def test_criterion_7_kernel_soundness():
    rng = np.random.default_rng(SEED)
    cases = 0
    worst_rel = 0.0
    h = 1e-5
    while cases < 220:
        dim = int(rng.integers(2, 4))
        coords = ("u", "v", "w")[:dim]
        template = CHAIN_TEMPLATES[int(rng.integers(len(CHAIN_TEMPLATES)))]
        consts = {
            "a": round(float(rng.uniform(1.0, 2.0)), 3),
            "b": round(float(rng.uniform(1.5, 2.5)), 3),
            "c": round(float(rng.uniform(-1.0, 1.0)), 3),
        }
        text = template.format(**consts)
        if dim == 3:
            text = f"({text}) + sin({consts['a']} * w) * w"
        ast = expr.parse(text, coords)
        point = rng.uniform(-1.0, 1.0, dim)
        seeds = jets.seed_coordinates(tuple(point), 1)
        jet = expr.evaluate(ast, dict(zip(coords, seeds)))
        grads = jet.coeffs[1 : 1 + dim]
        scale = max(1.0, float(np.max(np.abs(grads))))
        for i in range(dim):
            shifted = point.copy()
            shifted[i] += h
            hi = expr.evaluate(ast, dict(zip(coords, shifted)))
            shifted[i] -= 2 * h
            lo = expr.evaluate(ast, dict(zip(coords, shifted)))
            fd = (hi - lo) / (2 * h)
            worst_rel = max(worst_rel, abs(grads[i] - fd) / scale)
        cases += 1

    # adjugate identity and family interpolation for jet-valued matrices
    worst_adj = 0.0
    worst_interp = 0.0
    for d in (2, 3):
        for _ in range(3):
            size = jets.Jet.constant(0.0, d, 2).coeffs.size
            comps = np.empty((d, d), dtype=object)
            for i in range(d):
                for j in range(d):
                    comps[i, j] = jets.Jet(d, 2, rng.uniform(-1.0, 1.0, size))
            L = JetTensor(comps, 1, 1)
            S_coeffs, char = adjugate_family(L)

            one = jets.Jet.constant(1.0, d, 2)
            for t in rng.uniform(-2.0, 2.0, 3):
                m = np.empty((d, d), dtype=object)
                s_t = np.empty((d, d), dtype=object)
                for i in range(d):
                    for j in range(d):
                        m[i, j] = (t if i == j else 0.0) * one - comps[i, j]
                        s_t[i, j] = sum(
                            (t ** l) * S_coeffs[l][i, j] for l in range(d)
                        )
                det = sum((t ** k) * char[k] for k in range(d + 1))
                prod = s_t @ m
                for i in range(d):
                    for j in range(d):
                        want = det if i == j else 0.0 * one
                        diff = prod[i, j] - want
                        adj_scale = max(1.0, float(np.max(np.abs(det.coeffs))))
                        worst_adj = max(
                            worst_adj,
                            float(np.max(np.abs(diff.coeffs))) / adj_scale,
                        )

            # recover the family coefficients from d pointwise adjugates
            ts = np.linspace(0.7, 0.7 + d - 1, d)
            vinv = np.linalg.inv(np.vander(ts, d, increasing=True))
            adjs = []
            for t in ts:
                m = np.empty((d, d), dtype=object)
                for i in range(d):
                    for j in range(d):
                        m[i, j] = (t if i == j else 0.0) * one - comps[i, j]
                adj = jet_reference.adjugate(JetTensor(m, 1, 1), d)
                adjs.append(np.array(
                    [[adj[i, j] for j in range(d)] for i in range(d)], dtype=object
                ))
            for l in range(d):
                rec = sum(vinv[l, k] * adjs[k] for k in range(d))
                for i in range(d):
                    for j in range(d):
                        diff = rec[i, j] - S_coeffs[l][i, j]
                        ref = max(
                            1.0,
                            float(np.max(np.abs(S_coeffs[l][i, j].coeffs))),
                        )
                        worst_interp = max(
                            worst_interp, float(np.max(np.abs(diff.coeffs))) / ref
                        )

    ok = worst_rel <= 1e-4 and worst_adj <= 1e-9 and worst_interp <= 1e-9
    _report(
        7,
        ok,
        f"chain rule vs finite differences over {cases} cases: worst relative "
        f"error {worst_rel:.3e} (needs <= 1e-4); adjugate identity worst "
        f"{worst_adj:.3e}, interpolation worst {worst_interp:.3e} (need <= 1e-9)",
    )
    assert cases >= 200
    assert worst_rel <= 1e-4
    assert worst_adj <= 1e-9
    assert worst_interp <= 1e-9


def test_criterion_8_cli_exit_codes(tmp_path, capsys):
    started = time.perf_counter()
    codes = {}
    for name in catalog.list_entries():
        report = tmp_path / f"{name}.yaml"
        codes[name] = cli_main(["verify", name, "--report", str(report)])
    equivalent_ok = all(codes[n] == 0 for n in catalog.equivalent_entries())
    control_ok = all(codes[n] == 1 for n in catalog.control_entries())

    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "dim: 2\ncoords: [x, y]\n"
        "g:\n  - ['1']\n  - ['0', '1 + * x']\n"
        "gbar:\n  - ['1']\n  - ['0', '1']\n"
        "domain:\n  x: [0.1, 1.0]\n  y: [0.1, 1.0]\n"
    )
    rc_bad = cli_main(["verify", str(bad)])
    err = capsys.readouterr().err
    positioned = "line 5" in err and "column" in err
    elapsed = time.perf_counter() - started

    ok = equivalent_ok and control_ok and rc_bad == 2 and positioned and elapsed < 60.0
    _report(
        8,
        ok,
        f"CLI exit codes {codes} (equivalent->0, control->1), malformed "
        f"file -> {rc_bad} with positioned diagnostic={positioned}; full "
        f"catalog in {elapsed:.1f}s (< 60s)",
    )
    assert equivalent_ok, codes
    assert control_ok, codes
    assert rc_bad == 2
    assert positioned, err
    assert elapsed < 60.0


def test_malformed_diagnostics_carry_position():
    doc = (
        "dim: 2\n"
        "coords: [x, y]\n"
        "g: oops\n"
        "gbar:\n  - ['1']\n  - ['0', '1']\n"
        "domain:\n  x: [0.1, 1.0]\n  y: [0.1, 1.0]\n"
    )
    try:
        parse_pair(doc, label="inline")
    except PairFileError as err:
        assert err.line == 3 and err.column is not None
    else:
        pytest.fail("ill-formed document was accepted")
