"""Structure tensors of a projectively equivalent metric pair, and checks.

Given two metrics g, gbar on one chart, this module builds the (1,1) tensor

    L^i_j = |det(gbar)/det(g)|^(1/(n+1)) gbar^{il} g_{lj},

the scalar lam = (1/2) trace L with its differential lam_form, the 1-form
phi_form entering the connection difference, and the one-parameter family of
Killing-candidate tensors

    K^(t)_ij = g_ir S(t)^r_j,     S(t) = adjugate(t Id - L),

as explicit polynomial coefficients in t (degree n-1), obtained by the
Faddeev-LeVerrier recursion in jet arithmetic rather than by sampling t.

The residual checks quantify, at a point or at each row of a block of
points, how well the pair satisfies the identities that characterize
projective equivalence:

  * check_projective_equivalence:  nabla_k L_ij = lam_i g_jk + lam_j g_ik
  * check_connection_difference:   gammabar - gamma = delta^i_k phi_j
                                                    + delta^i_j phi_k
  * check_phi_identity:            trace route vs algebraic route to phi
  * check_killing:                 nabla_(i K_jk) = 0
  * check_ricci_commutation:       [Ric_endo, L] = 0
  * check_carter_condition:        div [Ric_endo, S(t)] = 0

All residuals are max-norms normalized by the scale of the terms entering
them, so they are dimensionless and comparable across metrics.  At one
point a check returns one number; on a block of points it returns one
residual per row, each with the bits of its point checked alone.  Wherever
a parameter t enters, it is a number, one value per row or a ``[candidate,
row]`` stack, one residual each.  A check reads its frame at the lowest
order its residual needs.

On phi: the 1-form that makes the connection-difference identity hold is
phi_i = -(L^{-1})^s_i lam_s, equivalently phi = -(1/2) d ln|det L|.  The
contraction with L runs the other way in some statements of the identity
(lam_i = -L^s_i phi_s is the inverse-free form); both are verified in the
test suite.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, permutations
from typing import Mapping, Sequence

import numpy as np

from . import jets
from .errors import BenentiError, DegenerateMetricError, SingularInputError
from .geometry import (
    JetTensor,
    MetricField,
    adjugate_family,
    christoffel,
    contract,
    covariant_derivative,
    determinant,
    _contract,
    gradient_tensor,
    inverse_metric,
    matmul,
    ricci,
)


def _is_number(value) -> bool:  # a Python or numpy integer or float, not a bool
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def domain_interval(c: str, entry) -> tuple[float, float]:
    """The domain entry of coordinate ``c`` as floats ``(lo, hi)``, or a
    ValueError: a pair of numbers, an integer too large for a float being
    infinite, both finite, with ``lo < hi``."""
    listed = isinstance(entry, Iterable) and not isinstance(entry, str)
    bounds = tuple(entry) if listed else ()
    if len(bounds) != 2:
        raise ValueError(f"domain[{c}] must be [lo, hi], got {entry!r}")
    floats = []
    for bound in bounds:
        if not _is_number(bound):
            raise ValueError(f"domain[{c}] must be [lo, hi]: bound {bound!r} is not a number")
        try:
            floats.append(float(bound))
        except OverflowError:  # an integer too large for a float
            floats.append(math.inf if bound > 0 else -math.inf)
    lo, hi = floats
    for bound in floats:
        if not math.isfinite(bound):
            raise ValueError(f"domain[{c}] bound {bound} is not finite")
    if not lo < hi:
        raise ValueError(f"domain[{c}] must be [lo, hi] with lo < hi, got [{lo}, {hi}]")
    return lo, hi


class ProjectivePair:
    """Two metrics sharing a chart, with an optional sampling domain.

    The pair is just data; whether it is actually projectively equivalent is
    decided numerically by the checks below, never assumed.
    """

    def __init__(
        self,
        g: MetricField,
        gbar: MetricField,
        domain: Mapping[str, Sequence[float]] | None = None,
        name: str | None = None,
        notes: str | None = None,
    ):
        if g.coordinates != gbar.coordinates:
            raise ValueError(
                f"metrics use different charts: {g.coordinates} vs "
                f"{gbar.coordinates}"
            )
        self.g = g
        self.gbar = gbar
        self.dim = g.dim
        self.coordinates = g.coordinates
        self.name = name
        self.notes = notes
        self.domain = None
        if domain is not None:
            for fault, names in (
                    ("missing coordinates", set(self.coordinates) - set(domain)),
                    ("names coordinates not on the chart", set(domain) - set(self.coordinates))):
                if names:
                    raise ValueError(f"domain {fault}: {sorted(names)}")
            self.domain = {c: domain_interval(c, domain[c]) for c in self.coordinates}
        self._frame = None

    def frame(self, points, order: int) -> "PointFrame":
        """Geometric data at a point, or at each row of a ``(P, n)`` block
        of points, to at least ``order``.

        The pair keeps one frame, the last one built.  It serves every order
        at or below its own at its points (graded jets make those prefixes
        of its coefficients); any other request builds a frame that replaces
        it.  Callers therefore finish with one block before the next, as
        ``verify_pair`` does.
        """
        points = np.array(points, dtype=float)
        fr = self._frame
        if (fr is None or fr.points.tolist() != points.tolist()
                or not 0 <= order <= fr.order):
            fr = self._frame = PointFrame(self, points, order)  # rejects order < 0
        return fr

    def sample_point(self, rng: np.random.Generator, shrink: float = 0.0,
                     rows: int | None = None):
        """The first uniform draw in the domain box, shrunk toward its center
        by ``shrink``, where both metrics are nondegenerate, as a tuple; with
        ``rows``, the first ``rows`` such draws in draw order, a ``(rows, n)``
        array with the bits of as many calls.  Draws come as many at a time
        as points are missing; 100 rejected draws in a row raise."""
        if self.domain is None:
            raise ValueError("pair has no sampling domain")
        lo, hi = np.array([self.domain[c] for c in self.coordinates]).T
        pad = shrink * (hi - lo) / 2
        wanted, points, misses = 1 if rows is None else rows, [], 0
        while len(points) < wanted:
            block = rng.uniform(lo + pad, hi - pad, size=(wanted - len(points), self.dim))
            ok = self.g.nondegenerate(block) & self.gbar.nondegenerate(block)
            for row, good in zip(block, ok.tolist()):
                misses = 0 if good else misses + 1
                if misses == 100:
                    raise DegenerateMetricError(f"could not sample a non-degenerate point in "
                                                f"{self.name or 'pair'} after 100 tries")
                if good:
                    points.append(row)
        return tuple(points[0].tolist()) if rows is None else np.array(points)

    def contains(self, point) -> bool:
        if self.domain is None:
            return True
        return all(
            self.domain[c][0] <= v <= self.domain[c][1]
            for c, v in zip(self.coordinates, point)
        )

    def __repr__(self):
        label = f"{self.name!r}, " if self.name else ""
        return f"ProjectivePair({label}dim={self.dim})"


@dataclass(frozen=True)
class BenentiData:
    """L and everything derived from it at one (point, order).

    K_coeffs[l] is the coefficient of t^l in K^(t)_ij; S_coeffs[l] the
    coefficient of t^l in S(t)^i_j; char_coeffs are the characteristic
    polynomial coefficients of L (det(t Id - L) = t^n + c_{n-1} t^{n-1} +
    ... + c_0) as jets.
    """

    L: JetTensor
    lam: jets.Jet
    lam_form: JetTensor
    phi_form: JetTensor
    S_coeffs: tuple
    K_coeffs: tuple
    char_coeffs: tuple


def _polynomial(coeffs, t, inner: int) -> np.ndarray:
    """sum_l t^l coeffs[l], powers by repeated products; the axes of ``t``
    go before the ``inner`` last axes of the terms, against a block's rows."""
    t = np.reshape(t, np.shape(t) + (1,) * inner)
    power = np.ones(t.shape)
    acc = coeffs[0] * power
    for c in coeffs[1:]:
        power = power * t
        acc = acc + c * power
    return acc


def _family_at(coeffs, t) -> JetTensor:
    """_polynomial of tensors of jets, whose tensor and jet axes are inner."""
    return coeffs[0]._like(_polynomial([c.coeffs for c in coeffs], t, sum(coeffs[0].rank) + 1))


class PointFrame:
    """Lazily computed jet data of a pair at one truncation order, at one
    point of shape ``(n,)`` or at a ``(P, n)`` block of points.

    Every quantity is an array of shape ``(*tensor, ncoeffs)`` at a point
    and ``(P, *tensor, ncoeffs)`` on a block, whose rows have the bits of
    that point's frame built alone: the same code serves both.  Derivatives
    consume orders; with the metrics at order m, each quantity is built at
    the order its readers need:

      * g, gbar, g_inv, gbar_inv, sqrt_abs_det_g, L, A_coeffs and
        benenti's L, lam, S_coeffs, char_coeffs: m
      * gamma, gamma_trace and benenti's lam_form: m-1
      * ricci_tensor, ricci_endo: m-2
      * benenti's K_coeffs: 1 (check_killing reads nabla K at order 0)
      * gamma_bar and benenti's phi_form: 0 (read as values only)

    The inverses are terminating series (``geometry._inverse``).  L and its
    Killing family come from one Faddeev-LeVerrier pass over gbar^{-1} g,
    and phi reads L^{-1} = -S_0 / c_0.  Only sqrt_abs_det_g, which no check
    reads, takes a ``determinant``.
    """

    def __init__(self, pair: ProjectivePair, points, order: int):
        if order < 0:
            raise ValueError(f"order must be non-negative, got {order}")
        # the metrics, not the pair: the pair holds its frame, and a cycle
        # would keep every frame alive until the cyclic collector runs
        self.metrics = (pair.g, pair.gbar)
        self.points = np.array(points, dtype=float)
        self.order = order
        self.dim = pair.dim

    @cached_property
    def g(self) -> JetTensor:
        return self.metrics[0].evaluate(self.points, self.order)

    @cached_property
    def gbar(self) -> JetTensor:
        return self.metrics[1].evaluate(self.points, self.order)

    @cached_property
    def g_inv(self) -> JetTensor:
        return inverse_metric(self.g)

    @cached_property
    def gbar_inv(self) -> JetTensor:
        return inverse_metric(self.gbar)

    @cached_property
    def gamma(self) -> JetTensor:
        return christoffel(self.g, self.g_inv)

    @cached_property
    def gamma_bar(self) -> JetTensor:
        """Order 0: its readers take values only."""
        return christoffel(self.gbar.truncated(min(self.order, 1)), self.gbar_inv)

    @cached_property
    def gamma_trace(self) -> JetTensor:
        """gamma^s_si as a (0,1) tensor (order m-1); the divergence weight."""
        return contract(self.gamma, 0, 0)

    @cached_property
    def sqrt_abs_det_g(self) -> jets.Jet:
        return jets.sqrt(jets.absolute(determinant(self.g)))

    @cached_property
    def _pencil(self) -> tuple:
        """X = gbar^{-1} g, its adjugate_family and f = |c_0(X)|^(-1/(n+1)),
        so L = f X.  Scaling t by f gives L's family: adjugate(t Id - L) =
        sum_l t^l f^(n-1-l) S_l(X), det(t Id - L) = sum_l t^l f^(n-l) c_l(X).
        Where f cannot be formed, a BenentiError names the first such point."""
        X = matmul(self.gbar_inv, self.g)
        S_X, char_X = adjugate_family(X)
        c0, e = char_X[0], -1.0 / (self.dim + 1)
        try:
            return X, S_X, char_X, jets.power(jets.absolute(c0), e)
        except SingularInputError:  # f is formed row by row: find the first bad row
            points = np.reshape(self.points, (-1, self.dim))
            for point, row in zip(points, np.atleast_2d(c0.coeffs)):
                try:
                    jets.power(jets.absolute(jets.Jet._new(c0.space, row)), e)
                except SingularInputError as err:
                    raise BenentiError(f"L cannot be formed at {tuple(point.tolist())}: "
                                       f"{err}") from err
            raise

    @cached_property
    def L(self) -> JetTensor:
        X, _, _, f = self._pencil
        return X * f

    @cached_property
    def benenti(self) -> BenentiData:
        n, L = self.dim, self.L
        _, S_X, char_X, f = self._pencil
        powers = (None, *accumulate([f] * n, lambda a, b: a * b))  # f^k
        S_coeffs = tuple(S_X[l] * powers[n - 1 - l] for l in range(n - 1)) + S_X[-1:]
        char_coeffs = tuple(char_X[l] * powers[n - l] for l in range(n)) + char_X[-1:]
        lam = contract(L, 0, 0)[()] * 0.5
        lam_form = gradient_tensor(lam)
        # phi_i = -(L^{-1})^s_i lam_s with L^{-1} = -S_0 / c_0, at order 0:
        # its readers take values
        lam0 = lam_form.truncated(0)
        c0 = jets.truncate(char_coeffs[0], 0)
        L_inv = S_coeffs[0].truncated(0) * jets.reciprocal(c0) * -1.0
        phi = -_contract(lam0.space, "si,s->i", L_inv.coeffs, lam0.coeffs)
        # K_l at order 1: check_killing reads nabla K at order 0
        g1 = self.g.truncated(1)
        return BenentiData(
            L=L,
            lam=lam,
            lam_form=lam_form,
            phi_form=lam0._like(phi),
            S_coeffs=S_coeffs,
            K_coeffs=tuple(matmul(g1, S.truncated(1)) for S in S_coeffs),
            char_coeffs=char_coeffs,
        )

    @cached_property
    def A_coeffs(self) -> tuple:
        """The raised coefficients A_l = S_l g^{-1} of the Killing family,
        one (2,0) tensor per power t^l."""
        S_coeffs = self.benenti.S_coeffs  # S_{n-1} = Id, so A_{n-1} = g^{-1}
        return tuple(matmul(S, self.g_inv) for S in S_coeffs[:-1]) + (self.g_inv,)

    @cached_property
    def ricci_tensor(self) -> JetTensor:
        return ricci(self.gamma)

    @cached_property
    def ricci_endo(self) -> JetTensor:
        """Ric raised on the first slot: R^i_j = g^{is} R_sj, order m-2."""
        ric = self.ricci_tensor
        return matmul(self.g_inv.truncated(ric.order), ric)

    def S_of_t(self, t) -> JetTensor:
        """S(t) assembled from its polynomial coefficients."""
        return _family_at(self.benenti.S_coeffs, t)

    def K_of_t(self, t) -> JetTensor:
        return _family_at(self.benenti.K_coeffs, t)

    def L_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of L's values; a BenentiError names the first point
        where L is not finite."""
        values = self.L.value()
        finite = np.isfinite(values).all(axis=(-2, -1)).ravel()
        if not finite.all():
            at = np.reshape(self.points, (-1, self.dim))[np.argmin(finite)]
            raise BenentiError(f"L is not finite at {tuple(at.tolist())}")
        return np.linalg.eigvals(values)


DEFAULT_T_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)


def t_grid(pair: ProjectivePair, points):
    """The default t sample grid, minus values within 1e-6 of an eigenvalue
    of L: a tuple at a point, and a list of one tuple per row of a
    ``(P, n)`` block of points.

    Proximity to the spectrum only degrades the conditioning of eigenvalue
    diagnostics; the polynomial family itself is fine there, so the filter
    is purely cosmetic for reports.
    """
    eigs = pair.frame(points, 0).L_eigenvalues()
    near = np.abs(eigs[..., :, None] - np.array(DEFAULT_T_GRID)).min(axis=-2)
    grids = [tuple(t for t, keep in zip(DEFAULT_T_GRID, row) if keep)
             for row in (near > 1e-6).reshape(-1, len(DEFAULT_T_GRID)).tolist()]
    return grids if eigs.ndim > 1 else grids[0]


def _peak(values: np.ndarray, rank: int) -> np.ndarray:
    """max |values| over the last ``rank`` axes: one number per row."""
    return np.max(np.abs(values), axis=tuple(range(-rank, 0)))


def check_projective_equivalence(pair: ProjectivePair, points):
    """Residual of nabla_k L_ij = lam_i g_jk + lam_j g_ik at each point.

    Zero (to rounding) iff the pair is projectively equivalent there; the
    value is normalized by max(1, |nabla L|) so it is scale-free.
    """
    frame = pair.frame(points, 1)
    bd = frame.benenti
    # lowered form a_ij = g_is L^s_j, to the first order nabla reads
    a = matmul(frame.g.truncated(1), bd.L.truncated(1))
    nav = covariant_derivative(a, frame.gamma).value()  # [..., k, i, j]
    lam_v = bd.lam_form.value()[..., None, :]
    g_v = np.swapaxes(frame.g.value(), -1, -2)
    model = (lam_v[..., :, None] * g_v[..., :, None, :]
             + lam_v[..., None, :] * g_v[..., :, :, None])
    return _peak(nav - model, 3) / np.fmax(1.0, _peak(nav, 3))


def check_connection_difference(pair: ProjectivePair, points):
    """Residual of gammabar - gamma = delta^i_k phi_j + delta^i_j phi_k."""
    frame = pair.frame(points, 1)
    phi_v = frame.benenti.phi_form.value()
    diff = frame.gamma_bar.value() - frame.gamma.value()
    d = frame.dim
    model = np.zeros_like(diff)
    for i in range(d):
        for j in range(d):
            model[..., i, j, i] += phi_v[..., j]  # delta^i_k phi_j at k = i
            model[..., i, i, j] += phi_v[..., j]  # delta^i_j phi_k at j = i, k = j
    return _peak(diff - model, 3) / np.fmax(1.0, _peak(diff, 3))


def check_phi_identity(pair: ProjectivePair, points):
    """Residual between the two routes to the 1-form phi.

    Tracing the connection difference over its upper and first lower index
    gives gammabar^s_{si} - gamma^s_{si} = (n+1) phi_i; the algebraic route
    is phi_i = -(L^{-1})^s_i lam_s.  Both agree exactly when the pair is
    projectively equivalent and generically disagree otherwise.
    """
    frame = pair.frame(points, 1)
    d = frame.dim
    phi_alg = frame.benenti.phi_form.value()
    gamma_bar, gamma = frame.gamma_bar.value(), frame.gamma.value()
    trace_bar = sum(gamma_bar[..., s, s, :] for s in range(d))
    trace = sum(gamma[..., s, s, :] for s in range(d))
    phi_conn = (trace_bar - trace) / (d + 1)
    return _peak(phi_conn - phi_alg, 1) / np.fmax(1.0, _peak(phi_conn, 1))


def check_killing(K: JetTensor, gamma: JetTensor):
    """Residual of the Killing equation nabla_(i K_jk) = 0.

    The symmetrization averages over all six permutations of (i, j, k);
    for symmetric K this equals the cyclic average.  Normalized by
    max(1, |nabla K|), so nabla K is needed at order 0 only.
    """
    if K.rank != (0, 2):
        raise ValueError(f"check_killing needs a (0,2) tensor, got {K.rank}")
    nabla = covariant_derivative(K, gamma.truncated(0)).value()  # [..., k, i, j]
    lead = tuple(range(nabla.ndim - 3))
    sym = np.zeros_like(nabla)
    for perm in permutations(range(3)):
        sym += nabla.transpose(*lead, *(len(lead) + p for p in perm))
    sym /= 6.0
    return _peak(sym, 3) / np.fmax(1.0, _peak(nabla, 3))


def check_killing_tensor(pair: ProjectivePair, t, points):
    """check_killing applied to the pair's K^(t) at each point."""
    frame = pair.frame(points, 1)
    return check_killing(frame.K_of_t(t), frame.gamma)


def check_ricci_commutation(pair: ProjectivePair, points):
    """Residual of [R_endo, L] = 0, normalized by max(1, |R| |L|)."""
    frame = pair.frame(points, 2)
    r = frame.ricci_endo.value()
    l = frame.L.value()
    comm = r @ l - l @ r
    return _peak(comm, 2) / np.fmax(1.0, _peak(r, 2) * _peak(l, 2))


def check_carter_condition(pair: ProjectivePair, t, points):
    """Residual of nabla_i B^i_j = 0 for B = R_endo S(t) - S(t) R_endo.

    The divergence is computed as d_i B^i_j + gamma^i_is B^s_j
    - gamma^s_ij B^i_s.  It reads B to first order, so the metrics to third
    (two orders for Ricci, one for the divergence).
    """
    frame = pair.frame(points, 3)
    r = frame.ricci_endo.truncated(1)
    s_t = frame.S_of_t(t).truncated(1)
    B = matmul(r, s_t) - matmul(s_t, r)
    div = contract(covariant_derivative(B, frame.gamma), 0, 0)
    db_max = _peak(B.coeffs[..., 1 : 1 + frame.dim], 3)
    gamma_max = _peak(frame.gamma.value(), 3)
    scale = np.fmax(np.fmax(1.0, db_max), gamma_max * _peak(B.value(), 2))
    return _peak(div.value(), 1) / scale
