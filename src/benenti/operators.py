"""Second-order operators nabla_i A^{ij} nabla_j, their commutators, and the
classical (phase-space) counterparts.

The quantum side works pointwise through jets: applying an operator to an
order-m jet of a function yields the order-(m-2) jet of the result, so a
nested application (a commutator) of two second-order operators needs a
working order of exactly 4 and produces a plain number.  No symbolic
coefficient expansion ever happens.

The classical side treats the same coefficient families as quadratic
integrals I_t(x, p) = A_t^{ij}(x) p_i p_j on phase space, with Poisson
brackets (x-derivatives from jets, p-derivatives analytic) and a fixed-step
Runge-Kutta geodesic integrator measuring how well I_t is conserved.

The integrator advances a batch of trajectories together: every stage
evaluates the Christoffel symbols, and every step the conserved form, at
all points of the batch in one call.  A form is therefore a callable from
a ``(B, n)`` array of chart points to their ``(B, n, n)`` (0,2) component
matrices.  Each trajectory's result is bit-identical to integrating it
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Sequence, Union

import numpy as np

from . import expr, jets
from .errors import BenentiError, OrderExhaustedError
from .geometry import (
    JetTensor,
    MetricField,
    _accumulate,
    _contract,
    _diagonal,
    christoffel_values,
    matmul,
    symmetrized,
)
from .projective import PointFrame, ProjectivePair

FunctionLike = Union[str, expr.Expression, Callable]


class QuantizedOperator:
    """The operator f -> nabla_i (A^{ij} d_j f) for a coefficient field A.

    ``geometry`` is a ProjectivePair (a bare MetricField is wrapped in a
    trivial pair); its first metric supplies the connection and volume
    density.  ``coefficients`` maps a PointFrame to the (2,0) component array
    of A at that frame's point and order.  Components are symmetrized on
    evaluation, like metric components.  Operators built this way annihilate
    constants by construction: there is no zeroth-order term.
    """

    def __init__(self, geometry, coefficients, name: str | None = None):
        if isinstance(geometry, MetricField):
            geometry = ProjectivePair(geometry, geometry)
        self.pair = geometry
        self.dim = geometry.dim
        self.coordinates = geometry.coordinates
        self._coefficients = coefficients
        self.name = name

    def coefficient_tensor(self, point, order: int) -> JetTensor:
        """A^{ij} as jets at (point, order), symmetrized."""
        raw = self._coefficients(self.pair.frame(point, order))
        if not isinstance(raw, JetTensor):
            raw = JetTensor(raw, 2, 0)
        field = JetTensor._dense(raw.space, symmetrized(raw).coeffs, 2, 0)
        return field.truncated(order)

    @classmethod
    def from_expressions(cls, metric: MetricField, components, name=None):
        """Operator with A^{ij} given as expression strings over the chart."""
        coords = metric.coordinates
        d = len(coords)
        if len(components) != d or any(len(row) != d for row in components):
            raise ValueError(f"coefficient matrix must be {d}x{d}")
        parsed = [[expr.parse(str(c), coords) for c in row] for row in components]

        def coefficients(frame: PointFrame):
            seeds = jets.seed_coordinates(frame.point, frame.order)
            assignment = dict(zip(coords, seeds))
            return JetTensor(
                [[expr.evaluate(c, assignment) for c in row] for row in parsed], 2, 0
            )

        return cls(metric, coefficients, name=name)

    def __repr__(self):
        label = f"{self.name!r}, " if self.name else ""
        return f"QuantizedOperator({label}dim={self.dim})"


def laplacian(geometry) -> QuantizedOperator:
    """The Laplace-Beltrami operator of the (first) metric: A = g^{-1}."""
    return QuantizedOperator(
        geometry, lambda frame: frame.g_inv, name="laplacian"
    )


def killing_operator(pair: ProjectivePair, t: float) -> QuantizedOperator:
    """Carter operator of the pair's Killing tensor K^(t): A = S(t) g^{-1}."""

    return QuantizedOperator(
        pair, lambda frame: matmul(frame.S_of_t(t), frame.g_inv), name=f"K_hat(t={t})"
    )


def killing_coefficient_operator(pair: ProjectivePair, l: int) -> QuantizedOperator:
    """Operator of the t^l coefficient of the family: A_l = S_l g^{-1}.

    The top coefficient l = n-1 is the Laplace-Beltrami operator itself.
    """
    if not 0 <= l < pair.dim:
        raise ValueError(f"coefficient index {l} outside 0..{pair.dim - 1}")

    return QuantizedOperator(
        pair, lambda frame: frame.A_coeffs[l], name=f"K_hat[{l}]"
    )


def _function_jet(coordinates, f: FunctionLike, point, order: int):
    if isinstance(f, str):
        f = expr.parse(f, coordinates)
    if isinstance(f, jets.Jet):
        raise TypeError(
            "pass a jet factory (point, order) -> Jet, not a fixed jet"
        )
    if callable(f):
        out = f(point, order)
        if not isinstance(out, jets.Jet) or out.order != order:
            raise ValueError("jet factory must produce a Jet of the requested order")
        return out
    seeds = jets.seed_coordinates(point, order)
    return expr.evaluate(f, dict(zip(coordinates, seeds)))


def _apply(frame: PointFrame, A: np.ndarray, sp, f: np.ndarray,
           form: str = "christoffel") -> np.ndarray:
    """nabla_i (A^{ij} d_j f) on arrays of jets; consumes two jet orders.

    ``f`` holds jets of space ``sp`` (order m), ``A`` symmetrized (2,0)
    fields to order m-1 or more, shape (..., n, n, coeffs).  Their leading
    axes broadcast, and each result has the bits of its own application.
    """
    m = sp.order
    if m < 2:
        raise OrderExhaustedError(
            f"applying a second-order operator needs jet order >= 2, got {m}"
        )
    sp1, sp2 = jets._space(sp.nvars, m - 1), jets._space(sp.nvars, m - 2)
    df = jets.gradient_coeffs(sp, f)  # order m-1
    V = _contract(sp1, "ij,j->i", A[..., : sp1.ncoeffs], df)
    if form == "christoffel":
        # nabla_i V^i = d_i V^i + gamma^s_{si} V^i
        weight = frame.gamma_trace.coeffs[..., : sp2.ncoeffs]
        terms = (_diagonal(jets.gradient_coeffs(sp1, V), -3, -2)
                 + jets.product_coeffs(sp2, weight, V[..., : sp2.ncoeffs]))
        return _accumulate(terms)
    if form == "density":
        # (1/w) d_i (w V^i) with w = sqrt |det g|
        w = frame.sqrt_abs_det_g
        wV = jets.product_coeffs(sp1, w.coeffs[: sp1.ncoeffs], V)
        acc = _accumulate(_diagonal(jets.gradient_coeffs(sp1, wV), -3, -2))
        return jets.product_coeffs(
            sp2, jets.reciprocal(jets.truncate(w, m - 2)).coeffs, acc)
    raise ValueError(f"unknown divergence form {form!r}")


def _apply_to_jet(op: QuantizedOperator, f_jet: jets.Jet, point,
                  form: str = "christoffel") -> jets.Jet:
    """Core application to one jet; consumes two jet orders."""
    m = f_jet.order
    A = op.coefficient_tensor(point, m).coeffs
    out = _apply(op.pair.frame(point, m), A, f_jet.space, f_jet.coeffs, form)
    return jets.Jet._new(jets._space(f_jet.nvars, m - 2), out)


def apply_operator(op: QuantizedOperator, f: FunctionLike, point,
                   output_order: int = 0, form: str = "christoffel") -> jets.Jet:
    """Jet of (op f) at the point, to the requested order.

    ``f`` may be expression text, a parsed expression, or a jet factory
    (point, order) -> Jet.  The working order is output_order + 2.
    """
    if output_order < 0:
        raise ValueError(f"output_order must be >= 0, got {output_order}")
    f_jet = _function_jet(op.coordinates, f, point, output_order + 2)
    return _apply_to_jet(op, f_jet, point, form=form)


def laplace_apply(metric, f: FunctionLike, point, output_order: int = 0) -> jets.Jet:
    """Laplace-Beltrami operator applied to f at the point."""
    return apply_operator(laplacian(metric), f, point, output_order)


def _nested_values(op_t: QuantizedOperator, op_s: QuantizedOperator,
                   f_jet4: jets.Jet, point):
    """(op_t op_s f)(p) and (op_s op_t f)(p) from an order-4 jet, as floats,
    or as lists from a stack of them: four applications in all."""
    if op_t.coordinates != op_s.coordinates:
        raise ValueError("operators live on different charts")
    sp, sp2, f = f_jet4.space, jets._space(f_jet4.nvars, 2), f_jet4.coeffs
    A_t, A_s = (op.coefficient_tensor(point, 4).coeffs for op in (op_t, op_s))
    frame_t, frame_s = op_t.pair.frame(point, 4), op_s.pair.frame(point, 4)
    ts = _apply(frame_t, A_t, sp2, _apply(frame_s, A_s, sp, f))[..., 0]
    st = _apply(frame_s, A_s, sp2, _apply(frame_t, A_t, sp, f))[..., 0]
    return ts.tolist(), st.tolist()


def commutator_apply(op_t: QuantizedOperator, op_s: QuantizedOperator,
                     f: FunctionLike, point) -> float:
    """[op_t, op_s] f at the point, as a plain number (working order 4)."""
    ts, st = _nested_values(op_t, op_s, _function_jet(op_t.coordinates, f, point, 4), point)
    return ts - st


def commutator_residual(op_t: QuantizedOperator, op_s: QuantizedOperator,
                        f: FunctionLike, point) -> float:
    """|[op_t, op_s] f| / max(1, |op_t op_s f|, |op_s op_t f|) at the point."""
    ts, st = _nested_values(op_t, op_s, _function_jet(op_t.coordinates, f, point, 4), point)
    return abs(ts - st) / max(1.0, abs(ts), abs(st))


def killing_commutator_grid(pair: ProjectivePair, f, point) -> np.ndarray:
    """B[l, k] = (K_hat[l] K_hat[k] f)(p) over the family's coefficients.

    Since K_hat(t) = sum_l t^l K_hat[l], any [K_hat(t), K_hat(s)] f follows
    from this grid by polynomial combination; see commutator_from_grid.
    A list or tuple of functions gives the stack B[f, l, k] of their grids,
    from two applications of the n stacked fields to the stacked functions.
    """
    d = pair.dim
    functions = f if isinstance(f, (list, tuple)) else [f]
    sp = jets._space(d, 4)
    fs = np.array([_function_jet(pair.coordinates, g, point, 4).coeffs
                   for g in functions])
    frame = pair.frame(point, 4)
    # the fields of killing_coefficient_operator, symmetrized like an operator's
    A = np.array([symmetrized(a).coeffs[..., : sp.ncoeffs] for a in frame.A_coeffs])
    inner = _apply(frame, A, sp, fs[:, None])  # [f, k], order 2
    # [f, l, k]; each grid C-contiguous, as matmul in commutator_from_grid needs
    B = np.ascontiguousarray(
        _apply(frame, A[:, None], jets._space(d, 2), inner[:, None])[..., 0])
    return B if isinstance(f, (list, tuple)) else B[0]


def commutator_from_grid(B: np.ndarray, t: float, s: float):
    """([K_hat(t), K_hat(s)] f, scale) from a nested-application grid.

    The scale is max(1, |K_t K_s f|, |K_s K_t f|), matching
    commutator_residual.
    """
    d = B.shape[0]
    tp = t ** np.arange(d)
    sp = s ** np.arange(d)
    ts = float(tp @ B @ sp)
    st = float(sp @ B @ tp)
    return ts - st, max(1.0, abs(ts), abs(st))


@dataclass(frozen=True)
class CommutatorDecomposition:
    """First-order form of a commutator at a point.

    If the commutator acts as nabla_i Q^{ij} nabla_j + V^l nabla_l (plus
    nothing of third order), probing with centered monomials recovers Q and
    V exactly: linear probes see only V, quadratic probes only 2Q (their
    first derivatives vanish at the center).  cubic_residual measures the
    scaled action on centered cubics, which any such operator annihilates
    at the center.
    """

    point: tuple
    Q: np.ndarray
    V: np.ndarray
    cubic_residual: float

    @property
    def q_norm(self) -> float:
        return float(np.max(np.abs(self.Q)))

    @property
    def v_norm(self) -> float:
        return float(np.max(np.abs(self.V)))


def commutator_decompose(op_t: QuantizedOperator, op_s: QuantizedOperator,
                         point) -> CommutatorDecomposition:
    """Probe [op_t, op_s] at a point with centered monomials.

    Both operators annihilate constants, so the commutator has no
    zeroth-order part; V comes from the linear probes and Q from the
    quadratic ones (halved: d^2 of u_a u_b hits both index orders).
    """
    d = op_t.dim
    seeds = jets.seed_coordinates(point, 4)
    u = [s - s.value for s in seeds]  # centered coordinates
    quadratic = list(combinations_with_replacement(range(d), 2))
    probes = (u + [u[a] * u[b] for a, b in quadratic]
              + [u[a] * u[b] * u[c]
                 for a, b, c in combinations_with_replacement(range(d), 3)])
    stacked = jets.Jet._new(seeds[0].space, np.array([p.coeffs for p in probes]))
    ts, st = _nested_values(op_t, op_s, stacked, point)
    values = [x - y for x, y in zip(ts, st)]
    V = np.array(values[:d])
    Q = np.empty((d, d))
    for (a, b), value in zip(quadratic, values[d:]):
        Q[a, b] = Q[b, a] = 0.5 * value
    cubic = 0.0
    for k in range(d + len(quadratic), len(probes)):
        cubic = max(cubic, abs(values[k]) / max(1.0, abs(ts[k]), abs(st[k])))
    return CommutatorDecomposition(
        point=tuple(float(x) for x in point), Q=Q, V=V, cubic_residual=cubic
    )


@dataclass(frozen=True)
class PhaseSpacePoint:
    """A chart point x with a momentum covector p."""

    x: tuple
    p: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(c) for c in self.x))
        object.__setattr__(self, "p", tuple(float(c) for c in self.p))
        if len(self.x) != len(self.p):
            raise ValueError(
                f"x has {len(self.x)} components but p has {len(self.p)}"
            )
        if not all(np.isfinite(self.x)) or not all(np.isfinite(self.p)):
            raise ValueError(f"non-finite phase-space point {self}")


def _structure_values(pair: ProjectivePair, x):
    """g, and the t-coefficients of S(t), as plain float matrices at x.

    ``x`` is one point or a ``(B, n)`` batch; a batch gives matrices with a
    leading batch axis, equal row by row to the single-point ones.
    """
    gv = pair.g.values(x)
    gbarv = pair.gbar.values(x)
    d = pair.dim
    quotient = np.linalg.det(gbarv) / np.linalg.det(gv)
    # numpy-scalar powers, one per point: an array power can round otherwise
    ratio = np.reshape(
        [abs(q) ** (1.0 / (d + 1)) for q in np.reshape(quotient, -1)],
        np.shape(quotient) + (1, 1),
    )
    L = ratio * np.linalg.solve(gbarv, gv)
    S = [None] * d
    M = np.eye(d)
    S[d - 1] = M
    for k in range(1, d):
        LM = L @ M
        trace = np.trace(LM, axis1=-2, axis2=-1)[..., None, None]
        M = LM - (trace / k) * np.eye(d)
        S[d - 1 - k] = M
    return gv, S


def _S_at(S, t) -> np.ndarray:
    """S(t) = sum_l t^l S_l; ``t`` may hold one value per batch row."""
    t = np.asarray(t, dtype=float)
    St = 0.0
    power = np.ones_like(t)
    for Sl in S:
        St = St + power[..., None, None] * Sl
        power = power * t
    return St


def integral_value(pair: ProjectivePair, t: float, phi: PhaseSpacePoint) -> float:
    """The classical integral I_t = (K^(t))^{ij} p_i p_j at a phase point.

    With both indices raised, (K^(t))^{ij} = S(t)^i_r g^{rj}; the value is
    quadratic in p and polynomial of degree n-1 in t.
    """
    gv, S = _structure_values(pair, phi.x)
    A = _S_at(S, t) @ np.linalg.inv(gv)
    p = np.asarray(phi.p)
    return float(p @ A @ p)


def integral_field(pair: ProjectivePair, t: float, x):
    """(A(t) values, d_s A(t) values) at x for the family's integral I_t,
    from the values and first x-derivatives of every A_l = S_l g^{-1}.
    Computed once per frame and t, and kept with the frame."""
    frame = pair.frame(tuple(x), 1)
    key = float(t).hex()  # tells -0.0 from 0.0
    if key not in frame.integral_fields:
        A = frame.A_coeffs
        vals = np.array([a.value() for a in A])
        # [l, s, i, j] = d_s A_l^{ij}
        derivs = np.array([np.moveaxis(a.coeffs[..., 1 : 1 + pair.dim], -1, 0)
                           for a in A])
        tp = t ** np.arange(pair.dim)
        frame.integral_fields[key] = (
            np.einsum("l,lij->ij", tp, vals),
            np.einsum("l,lsij->sij", tp, derivs),
        )
    return frame.integral_fields[key]


def _bracket_terms(pair: ProjectivePair, t: float, s: float,
                   phi: PhaseSpacePoint):
    """dI_t/dp, dI_t/dx, dI_s/dp and dI_s/dx at the phase point."""
    At, dAt = integral_field(pair, t, phi.x)
    As, dAs = integral_field(pair, s, phi.x)
    p = np.asarray(phi.p)
    dIt_dp = 2.0 * At @ p
    dIs_dp = 2.0 * As @ p
    dIt_dx = np.einsum("sij,i,j->s", dAt, p, p)
    dIs_dx = np.einsum("sij,i,j->s", dAs, p, p)
    return dIt_dp, dIt_dx, dIs_dp, dIs_dx


def poisson_bracket(pair: ProjectivePair, t: float, s: float,
                    phi: PhaseSpacePoint) -> float:
    """{I_t, I_s} = sum_i dI_t/dp_i dI_s/dx^i - dI_t/dx^i dI_s/dp_i.

    The x-derivatives come from order-1 jets of the coefficient fields; the
    p-derivatives are analytic (I is an explicit quadratic in p).
    """
    dIt_dp, dIt_dx, dIs_dp, dIs_dx = _bracket_terms(pair, t, s, phi)
    return float(dIt_dp @ dIs_dx - dIt_dx @ dIs_dp)


def poisson_residual(pair: ProjectivePair, t: float, s: float,
                     phi: PhaseSpacePoint) -> float:
    """|{I_t, I_s}| over max(1, size of either term), cancellation-proof."""
    dIt_dp, dIt_dx, dIs_dp, dIs_dx = _bracket_terms(pair, t, s, phi)
    value = float(dIt_dp @ dIs_dx - dIt_dx @ dIs_dp)
    scale = max(
        1.0,
        float(np.sum(np.abs(dIt_dp * dIs_dx))),
        float(np.sum(np.abs(dIt_dx * dIs_dp))),
    )
    return abs(value) / scale


@dataclass(frozen=True)
class DriftResult:
    """Conservation report for one trajectory."""

    max_drift: float
    exited: bool
    exit_time: float | None
    steps: int


# Failures of a stage that mean the trajectory left the metric's good region.
_STAGE_ERRORS = (BenentiError, np.linalg.LinAlgError)


def geodesic_drift(pair: ProjectivePair, t: float, phi0: PhaseSpacePoint,
                   horizon: float, step: float) -> DriftResult:
    """Max relative drift of I_t along the g-geodesic through phi0.

    Integrates x'' + Gamma(x') x' = 0 with classical fixed-step RK4 (global
    error O(step^4)) and tracks |I_t - I_t(0)| / max(1, |I_t(0)|).
    Integration stops at the domain boundary; the result records the exit.
    """
    return geodesic_drifts(pair, [t], [phi0], horizon, step)[0]


def geodesic_drifts(pair: ProjectivePair, ts: Sequence[float],
                    phi0s: Sequence[PhaseSpacePoint], horizon: float,
                    step: float) -> list[DriftResult]:
    """geodesic_drift of I_{ts[b]} from phi0s[b], for every b at once.

    The trajectories are integrated together, one batched RK4; each result
    equals that of its own geodesic_drift call bit for bit.
    """
    if len(ts) != len(phi0s):
        raise ValueError(f"{len(ts)} values of t for {len(phi0s)} trajectories")
    ts = np.asarray(ts, dtype=float)

    def form(x, rows):
        # one row: the unbatched kernels, faster, same bits
        gv, S = _structure_values(pair, x[0] if len(x) == 1 else x)
        return gv @ _S_at(S, ts[rows])  # K^(t)_ab, to contract with velocities

    return _integrate(pair, form, phi0s, horizon, step)


def geodesic_form_drift(pair: ProjectivePair, form, phi0: PhaseSpacePoint,
                        horizon: float, step: float) -> DriftResult:
    """Drift of an arbitrary quadratic form K_ab(x) v^a v^b along geodesics.

    ``form`` maps a ``(B, n)`` batch of chart points to their (0,2)
    component matrices, shape ``(B, n, n)``; an ``(n, n)`` matrix stands
    for the same form at every point.  The trajectory is integrated by the
    engine behind geodesic_drift as a batch of one.  Non-conserved forms
    make a positive control for the convergence harness.
    """
    return _integrate(pair, lambda x, rows: form(x), [phi0], horizon, step)[0]


def _integrate(pair: ProjectivePair, form, phi0s, horizon: float,
               step: float) -> list[DriftResult]:
    """Fixed-step RK4 over a batch of trajectories, one row each.

    Every row takes the same steps and keeps its own drift.  A row leaves
    the batch when a step takes it out of the domain, or when a stage
    raises at it: a step whose stages raise is re-run row by row, as
    batches of one, to find the rows that fail.  ``form(x, rows)`` gives the
    (0,2) forms at the points ``x`` of the rows still integrated, ``rows``
    being their indices in ``phi0s``.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not phi0s:
        return []
    d = pair.dim
    x = np.array([phi.x for phi in phi0s], dtype=float)
    p = np.array([phi.p for phi in phi0s], dtype=float)
    v = np.linalg.solve(pair.g.values(x), p[..., None])[..., 0]

    def acceleration(y):
        if len(y) == 1:  # one row: the unbatched kernels, faster, same bits
            gamma = christoffel_values(pair.g, y[0, :d])[None]
        else:
            gamma = christoffel_values(pair.g, y[:, :d])
        vel = y[:, d:]
        acc = -np.einsum("bijk,bj,bk->bi", gamma, vel, vel)
        return np.concatenate([vel, acc], axis=1)

    def rk4_step(y, h):
        k1 = acceleration(y)
        k2 = acceleration(y + 0.5 * h * k1)
        k3 = acceleration(y + 0.5 * h * k2)
        k4 = acceleration(y + h * k3)
        return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    def invariants(y, rows):
        forms = form(y[:, :d], rows)
        if np.ndim(forms) == 2:  # one matrix: the same form at every point
            forms = [forms] * len(rows)
        # row by row: a batched contraction can round differently
        return [float(vel @ f @ vel) for vel, f in zip(y[:, d:], forms)]

    y = np.concatenate([x, v], axis=1)
    rows = np.arange(len(phi0s))
    i0 = invariants(y, rows)
    denom = [max(1.0, abs(i)) for i in i0]
    drift = [0.0] * len(phi0s)
    results = [None] * len(phi0s)
    steps = int(np.ceil(horizon / step))
    tau = 0.0
    for n in range(steps):
        if not len(rows):
            break
        h = min(step, horizon - tau)
        live = np.ones(len(rows), dtype=bool)
        try:
            y_next = rk4_step(y, h)
        except _STAGE_ERRORS:
            y_next = np.empty_like(y)
            for r in range(len(rows)):
                try:
                    y_next[r] = rk4_step(y[r : r + 1], h)[0]
                except _STAGE_ERRORS:
                    live[r] = False
        for r, row in enumerate(rows):
            # a failed stage or a step out of the domain is a domain exit
            if not (live[r] and pair.contains(y_next[r, :d])):
                live[r] = False
                results[row] = DriftResult(drift[row], True, tau, n)
        y = y_next
        if not live.all():
            y, rows = y[live], rows[live]
        tau += h
        if len(rows):
            for row, value in zip(rows, invariants(y, rows)):
                new = abs(value - i0[row]) / denom[row]
                if math.isnan(new) or new > drift[row]:  # a NaN drift sticks
                    drift[row] = new
    for row in rows:
        results[row] = DriftResult(drift[row], False, None, steps)
    return results
