"""Second-order operators nabla_i A^{ij} nabla_j, their commutators, and the
classical (phase-space) counterparts.

The quantum side works pointwise through jets: applying an operator to an
order-m jet of a function yields the order-(m-2) jet of the result, so a
nested application (a commutator) of two second-order operators needs a
working order of exactly 4 and produces a plain number.  No symbolic
coefficient expansion ever happens.  The checks take a point, or a block
of points and t or s values per row or in ``[candidate, row]`` stacks, each
row with the bits of its point checked alone.

The classical side treats the same coefficient families as quadratic
integrals I_t(x, p) = A_t^{ij}(x) p_i p_j on phase space, with Poisson
brackets (x-derivatives from jets, p-derivatives analytic) and a
step-controlled Runge-Kutta geodesic integrator measuring how well I_t is
conserved.

The integrator advances a batch of trajectories together, each row with
its own step size: every stage evaluates the Christoffel symbols, and every
round of accepted steps the conserved form, at all points of the batch in
one call.  A form is therefore a callable from
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
    of A at that frame's points and order.  Components are symmetrized on
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

    def coefficient_tensor(self, points, order: int) -> JetTensor:
        """A^{ij} as jets at (points, order), symmetrized."""
        raw = self._coefficients(self.pair.frame(points, order))
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
            seeds = jets.seed_coordinates(frame.points, frame.order)
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


def killing_operator(pair: ProjectivePair, t) -> QuantizedOperator:
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
        wV = jets.product_coeffs(sp1, w.coeffs[..., None, : sp1.ncoeffs], V)
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
                   f: np.ndarray, points):
    """(op_t op_s f)(p) and (op_s op_t f)(p) at each row of the points, from
    order-4 jet coefficients ``f`` whose leading axes broadcast against the
    rows: four applications in all."""
    if op_t.coordinates != op_s.coordinates:
        raise ValueError("operators live on different charts")
    sp, sp2 = (jets._space(op_t.dim, m) for m in (4, 2))
    A_t, A_s = (op.coefficient_tensor(points, 4).coeffs for op in (op_t, op_s))
    frame_t, frame_s = op_t.pair.frame(points, 4), op_s.pair.frame(points, 4)
    ts = _apply(frame_t, A_t, sp2, _apply(frame_s, A_s, sp, f))[..., 0]
    st = _apply(frame_s, A_s, sp2, _apply(frame_t, A_t, sp, f))[..., 0]
    return ts, st


def commutator_apply(op_t: QuantizedOperator, op_s: QuantizedOperator,
                     f: FunctionLike, point) -> float:
    """[op_t, op_s] f at the point, as a plain number (working order 4)."""
    f_jet = _function_jet(op_t.coordinates, f, point, 4)
    ts, st = _nested_values(op_t, op_s, f_jet.coeffs, point)
    return float(ts - st)


def commutator_residual(op_t: QuantizedOperator, op_s: QuantizedOperator,
                        f: FunctionLike, point) -> float:
    """|[op_t, op_s] f| / max(1, |op_t op_s f|, |op_s op_t f|) at the point."""
    f_jet = _function_jet(op_t.coordinates, f, point, 4)
    ts, st = (float(v) for v in _nested_values(op_t, op_s, f_jet.coeffs, point))
    return abs(ts - st) / max(1.0, abs(ts), abs(st))


def killing_commutator_grid(pair: ProjectivePair, f, points) -> np.ndarray:
    """B[l, k] = (K_hat[l] K_hat[k] f)(p) over the family's coefficients at
    the point, or B[p, l, k] at each row p of a block of points.

    Since K_hat(t) = sum_l t^l K_hat[l], any [K_hat(t), K_hat(s)] f follows
    from this grid by polynomial combination; see commutator_from_grid.
    A list or tuple of functions gives the stack B[f, ...] of their grids,
    from two applications of the n stacked fields to the stacked functions.
    """
    d = pair.dim
    functions = f if isinstance(f, (list, tuple)) else [f]
    sp = jets._space(d, 4)
    frame = pair.frame(points, 4)
    fs = np.array([_function_jet(pair.coordinates, g, frame.points, 4).coeffs
                   for g in functions])  # [f, p, coeff]
    # the fields of killing_coefficient_operator, symmetrized like an operator's
    A = np.array([symmetrized(a).coeffs[..., : sp.ncoeffs] for a in frame.A_coeffs])
    inner = _apply(frame, A, sp, fs[:, None])  # [f, k, p], order 2
    nested = _apply(frame, A[:, None], jets._space(d, 2), inner[:, None])[..., 0]
    # [f, p, l, k]; each grid C-contiguous, as matmul in commutator_from_grid needs
    B = np.ascontiguousarray(np.moveaxis(nested, (1, 2), (-2, -1)))
    return B if isinstance(f, (list, tuple)) else B[0]


def commutator_from_grid(B: np.ndarray, t, s):
    """([K_hat(t), K_hat(s)] f, scale) from nested-application grids.

    ``t`` and ``s`` broadcast against the leading axes of ``B``, so one call
    combines a whole grid of (t, s) pairs.  The scale is max(1, |K_t K_s f|,
    |K_s K_t f|), matching commutator_residual.  Each grid is combined as a
    stack of row vectors, which gives the bits of ``tp @ B @ sp``.
    """
    powers = np.arange(B.shape[-1])
    tp = np.asarray(t, dtype=float)[..., None, None] ** powers  # [..., 1, l]
    sp = np.asarray(s, dtype=float)[..., None, None] ** powers
    ts = (tp @ B @ np.swapaxes(sp, -1, -2))[..., 0, 0]
    st = (sp @ B @ np.swapaxes(tp, -1, -2))[..., 0, 0]
    return ts - st, np.fmax(np.fmax(1.0, np.abs(ts)), np.abs(st))


@dataclass(frozen=True)
class CommutatorDecomposition:
    """First-order form of a commutator at a point, or at each row of a
    block of points.

    If the commutator acts as nabla_i Q^{ij} nabla_j + V^l nabla_l (plus
    nothing of third order), probing with centered monomials recovers Q and
    V exactly: linear probes see only V, quadratic probes only 2Q (their
    first derivatives vanish at the center).  cubic_residual measures the
    scaled action on centered cubics, which any such operator annihilates
    at the center.  On a block of points, Q, V and cubic_residual have one
    row per point.
    """

    points: np.ndarray
    Q: np.ndarray
    V: np.ndarray
    cubic_residual: float | np.ndarray

    @property
    def q_norm(self):
        return np.max(np.abs(self.Q), axis=(-2, -1))

    @property
    def v_norm(self):
        return np.max(np.abs(self.V), axis=-1)


def commutator_decompose(op_t: QuantizedOperator, op_s: QuantizedOperator,
                         points) -> CommutatorDecomposition:
    """Probe [op_t, op_s] with centered monomials at a point, or at each
    row of a block of points.

    Both operators annihilate constants, so the commutator has no
    zeroth-order part; V comes from the linear probes and Q from the
    quadratic ones (halved: d^2 of u_a u_b hits both index orders).
    """
    d = op_t.dim
    points = np.array(points, dtype=float)
    u = jets.seed_coordinates(np.zeros(d), 4)  # centered: the seeds at 0
    quadratic = list(combinations_with_replacement(range(d), 2))
    probes = (u + [u[a] * u[b] for a, b in quadratic]
              + [u[a] * u[b] * u[c]
                 for a, b, c in combinations_with_replacement(range(d), 3)])
    rows = points.shape[:-1]
    stacked = np.array([p.coeffs for p in probes]).reshape(  # [probe, *rows]
        (len(probes),) + (1,) * len(rows) + (-1,))
    ts, st = _nested_values(op_t, op_s, stacked, points)
    values = ts - st
    Q = np.empty(rows + (d, d))
    for (a, b), value in zip(quadratic, values[d:]):
        Q[..., a, b] = Q[..., b, a] = 0.5 * value
    k = slice(d + len(quadratic), None)  # the cubic probes
    scale = np.fmax(np.fmax(1.0, np.abs(ts[k])), np.abs(st[k]))
    cubic = np.fmax.reduce(np.abs(values[k]) / scale, axis=0, initial=0.0)
    V = np.moveaxis(values[:d], 0, -1)
    return CommutatorDecomposition(points=points, Q=Q, V=V, cubic_residual=cubic)


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


def integral_field(pair: ProjectivePair, t, x):
    """(A(t) values, d_s A(t) values) at x, or at each row of a block x,
    for the family's integral I_t, from the values and first x-derivatives
    of every A_l = S_l g^{-1}.  ``t`` is a number, one value per row or a
    ``[candidate, row]`` stack, whose axes lead the results."""
    A = pair.frame(x, 1).A_coeffs
    vals = np.array([a.value() for a in A])
    # [l, ..., s, i, j] = d_s A_l^{ij}
    derivs = np.array([np.moveaxis(a.coeffs[..., 1 : 1 + pair.dim], -1, -3)
                       for a in A])
    tp = np.asarray(t, dtype=float)[..., None] ** np.arange(pair.dim)
    return (np.einsum("...l,l...ij->...ij", tp, vals),
            np.einsum("...l,l...sij->...sij", tp, derivs))


def _bracket(pair: ProjectivePair, t, s, phi):
    """{I_t, I_s} and max(1, size of either of its terms) at a phase point,
    or at each row of a block ``(points, momenta)`` of them; ``t`` and ``s``
    may be ``[candidate, row]`` stacks, one bracket each."""
    x, p = (phi.x, phi.p) if isinstance(phi, PhaseSpacePoint) else phi
    At, dAt = integral_field(pair, t, x)
    As, dAs = integral_field(pair, s, x)
    p = np.asarray(p, dtype=float)
    dIt_dp = (2.0 * At @ p[..., None])[..., 0]
    dIs_dp = (2.0 * As @ p[..., None])[..., 0]
    dIt_dx = np.einsum("...sij,...i,...j->...s", dAt, p, p)
    dIs_dx = np.einsum("...sij,...i,...j->...s", dAs, p, p)
    # stacked row-by-column products: the bits of dIt_dp @ dIs_dx per row
    value = (dIt_dp[..., None, :] @ dIs_dx[..., :, None]
             - dIt_dx[..., None, :] @ dIs_dp[..., :, None])[..., 0, 0]
    scale = np.fmax(np.fmax(1.0, np.abs(dIt_dp * dIs_dx).sum(axis=-1)),
                    np.abs(dIt_dx * dIs_dp).sum(axis=-1))
    return value, scale


def poisson_bracket(pair: ProjectivePair, t, s, phi):
    """{I_t, I_s} = sum_i dI_t/dp_i dI_s/dx^i - dI_t/dx^i dI_s/dp_i at a
    PhaseSpacePoint, or one value per row of a block ``(points, momenta)``.

    The x-derivatives come from order-1 jets of the coefficient fields; the
    p-derivatives are analytic (I is an explicit quadratic in p).
    """
    return _bracket(pair, t, s, phi)[0]


def poisson_residual(pair: ProjectivePair, t, s, phi):
    """|{I_t, I_s}| over max(1, size of either term), cancellation-proof,
    at a PhaseSpacePoint or one value per row of a block ``(points,
    momenta)``."""
    value, scale = _bracket(pair, t, s, phi)
    return np.abs(value) / scale


@dataclass(frozen=True)
class DriftResult:
    """Conservation report for one trajectory."""

    max_drift: float
    exited: bool
    exit_time: float | None
    steps: int  # accepted steps
    max_error: float  # largest local error estimate of an accepted step


# Failures of a stage that mean the trajectory left the metric's good region.
_STAGE_ERRORS = (BenentiError, np.linalg.LinAlgError)

# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, II.5): row
# i gives stage i+2 from stages 1..i+1; the last row is the 5th-order step,
# whose derivative is the next step's first stage (first same as last).
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# 5th- minus 4th-order weights: h * sum_i E_i k_i estimates the local error
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

# A step that leaves the domain is halved down to this size before the exit
# is recorded, so an exit time lies within it of the crossing.
_EXIT_STEP = 1e-3

# The smallest tolerance of the integrator.  The error estimate carries a
# rounding error of about h * eps * |y'|, so a tolerance far below eps can
# hold every step to a vanishing size.
MIN_TOLERANCE = 100 * 2.0**-52  # 100 ulp of 1


def geodesic_drift(pair: ProjectivePair, t: float, phi0: PhaseSpacePoint,
                   horizon: float, tol: float) -> DriftResult:
    """Max relative drift of I_t along the g-geodesic through phi0.

    Integrates x'' + Gamma(x') x' = 0 with the step-controlled
    Dormand-Prince 5(4) pair at local error tolerance ``tol`` and tracks
    |I_t - I_t(0)| / max(1, |I_t(0)|) at every accepted step.  The start
    velocity solves g v = p.  Integration stops at the domain boundary; the
    result records the exit.
    """
    return geodesic_drifts(pair, [t], [phi0], horizon, tol)[0]


def geodesic_drifts(pair: ProjectivePair, ts: Sequence[float],
                    phi0s: Sequence[PhaseSpacePoint], horizon: float,
                    tol: float, *, velocities=None) -> list[DriftResult]:
    """geodesic_drift of I_{ts[b]} from phi0s[b], for every b at once.

    The trajectories are integrated together, each stage in one batched
    call; each result equals that of its own geodesic_drift call bit for
    bit.  ``velocities``, when given, are the start velocities.
    """
    if len(ts) != len(phi0s):
        raise ValueError(f"{len(ts)} values of t for {len(phi0s)} trajectories")
    ts = np.asarray(ts, dtype=float)

    def form(x, rows):
        # one row: the unbatched kernels, faster, same bits
        gv, S = _structure_values(pair, x[0] if len(x) == 1 else x)
        # K^(t)_ab, to contract with velocities; a huge t overflows S(t),
        # and the NaN drift that follows fails the record
        with np.errstate(over="ignore", invalid="ignore"):
            return gv @ _S_at(S, ts[rows])

    return _integrate(pair, form, phi0s, velocities, horizon, tol)


def geodesic_form_drift(pair: ProjectivePair, form, phi0: PhaseSpacePoint,
                        horizon: float, tol: float) -> DriftResult:
    """Drift of an arbitrary quadratic form K_ab(x) v^a v^b along geodesics.

    ``form`` maps a ``(B, n)`` batch of chart points to their (0,2)
    component matrices, shape ``(B, n, n)``; an ``(n, n)`` matrix stands
    for the same form at every point.  The trajectory is integrated by the
    engine behind geodesic_drift as a batch of one.  Non-conserved forms
    make a positive control for the tolerance harness.
    """
    return _integrate(pair, lambda x, rows: form(x), [phi0], None, horizon, tol)[0]


def _step_factor(err: float, tol: float, grow: float) -> float:
    """Step-size factor after a step with error estimate err: the 5th root of
    tol / err, damped by 0.9 and kept within [0.2, grow]."""
    if err == 0.0:
        return grow
    return min(grow, max(0.2, 0.9 * (tol / err) ** 0.2))


def _integrate(pair: ProjectivePair, form, phi0s, velocities, horizon: float,
               tol: float) -> list[DriftResult]:
    """Dormand-Prince 5(4) over a batch of trajectories, one row each.

    Every row keeps its own time, step size, drift and accept/reject
    decision; each stage is evaluated for all rows still integrated in one
    call.  A step is accepted when its error estimate, scaled per component
    by max(1, |y|), is at most ``tol``.  A step that leaves the domain, or
    whose stages raise at the row (found by re-running it row by row), is
    halved down to _EXIT_STEP before the row exits.  ``form(x, rows)``
    gives the (0,2) forms at the points ``x`` of ``rows``, their indices in
    ``phi0s``.  Start velocities solve g v = p unless given.
    """
    if not tol >= MIN_TOLERANCE:
        raise ValueError(f"tolerance must be at least {MIN_TOLERANCE:.3g}, got {tol}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not phi0s:
        return []
    d = pair.dim

    def derivative(y):
        if len(y) == 1:  # one row: the unbatched kernels, faster, same bits
            gamma = christoffel_values(pair.g, y[0, :d])[None]
        else:
            gamma = christoffel_values(pair.g, y[:, :d])
        vel = y[:, d:]
        acc = -np.einsum("bijk,bj,bk->bi", gamma, vel, vel)
        return np.concatenate([vel, acc], axis=1)

    def dp_step(y, k1, h):
        """(5th-order y at tau + h, its derivative, local error estimate)."""
        ks = [k1]
        for row in _DP_A:
            z = y + h[:, None] * sum(a * k for a, k in zip(row, ks) if a)
            ks.append(derivative(z))
        return z, ks[-1], h[:, None] * sum(e * k for e, k in zip(_DP_E, ks) if e)

    def attempt(y, k1, h):
        """dp_step on the batch, or row by row if a stage raises; a row
        whose stage raises reads NaN, which counts as leaving the domain."""
        try:
            return dp_step(y, k1, h)
        except _STAGE_ERRORS:
            if len(y) == 1:
                return (np.full_like(y, np.nan),) * 3
            parts = [attempt(y[r : r + 1], k1[r : r + 1], h[r : r + 1])
                     for r in range(len(y))]
            return tuple(np.concatenate(p) for p in zip(*parts))

    def invariants(y, rows):
        forms = form(y[:, :d], rows)
        if np.ndim(forms) == 2:  # one matrix: the same form at every point
            forms = [forms] * len(rows)
        # row by row: a batched contraction can round differently
        return [float(vel @ f @ vel) for vel, f in zip(y[:, d:], forms)]

    B = len(phi0s)
    x = np.array([phi.x for phi in phi0s], dtype=float)
    if velocities is None:
        p = np.array([phi.p for phi in phi0s], dtype=float)
        velocities = np.linalg.solve(pair.g.values(x), p[..., None])[..., 0]
    y = np.concatenate([x, np.asarray(velocities, dtype=float)], axis=1)
    k = derivative(y)
    rows = list(range(B))
    i0 = invariants(y, rows)
    denom = [max(1.0, abs(i)) for i in i0]
    drift, max_err, steps = [0.0] * B, [0.0] * B, [0] * B
    tau, grow, h = [0.0] * B, [5.0] * B, [min(horizon, tol ** 0.2)] * B
    results = [None] * B
    while rows:
        hs = np.array([min(h[row], horizon - tau[row]) for row in rows])
        z, kz, e = attempt(y[rows], k[rows], hs)
        scale = np.maximum(1.0, np.maximum(np.abs(y[rows]), np.abs(z)))
        errs = np.max(np.abs(e) / scale, axis=1)
        accepted = []
        for r, row in enumerate(rows):
            step, err = float(hs[r]), float(errs[r])
            # a step too small to move tau means the control has stalled
            if (not (math.isfinite(err) and pair.contains(z[r, :d]))
                    or tau[row] + step == tau[row]):
                if step > _EXIT_STEP:
                    h[row], grow[row] = step / 2, 1.0
                else:
                    results[row] = DriftResult(drift[row], True, tau[row],
                                               steps[row], max_err[row])
            elif err > tol:
                h[row], grow[row] = step * _step_factor(err, tol, 1.0), 1.0
            else:
                last = step == horizon - tau[row]  # lands on the horizon exactly
                tau[row] = horizon if last else tau[row] + step
                y[row], k[row] = z[r], kz[r]
                steps[row] += 1
                max_err[row] = max(max_err[row], err)
                h[row], grow[row] = step * _step_factor(err, tol, grow[row]), 5.0
                accepted.append(row)
        values = invariants(y[accepted], accepted) if accepted else []
        for row, value in zip(accepted, values):
            new = abs(value - i0[row]) / denom[row]
            if math.isnan(new) or new > drift[row]:  # a NaN drift sticks
                drift[row] = new
            if tau[row] == horizon:
                results[row] = DriftResult(drift[row], False, None, steps[row],
                                           max_err[row])
        rows = [row for row in rows if results[row] is None]
    return results
