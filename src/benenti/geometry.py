"""Chart-local Riemannian geometry over jet arithmetic.

A metric is a symmetric matrix of coordinate expressions.  Evaluating it at
a point with a truncation order produces a ``JetTensor`` whose entries are
jets, and everything downstream (inverse, Christoffel symbols, covariant
derivatives, Ricci tensor) is exact polynomial algebra on those jets.  No
finite differencing happens anywhere in this module; the tests use finite
differences as an independent cross-check.

Index conventions
-----------------
``JetTensor`` stores components in an object ndarray with all upper (contra-
variant) axes first, then all lower (covariant) axes.  ``raise_index`` and
``lower_index`` append the moved index at the end of its new block;
``covariant_derivative`` inserts the differentiation index at the *front* of
the lower block, so ``(nabla T)[..., k, j, ...]`` means ``nabla_k T..._j...``.

Each derivative costs one jet order: a metric evaluated at order m yields
Christoffel symbols at order m - 1 and a Ricci tensor at order m - 2.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from . import expr, jets
from .errors import DegenerateMetricError

DEGENERACY_FACTOR = 1e-10  # |det g| must exceed this times (max |g_ij|)^dim


class JetTensor:
    """Tensor with jet components, upper axes before lower axes."""

    __slots__ = ("comps", "n_upper", "n_lower")

    def __init__(self, comps, n_upper: int, n_lower: int):
        comps = np.asarray(comps, dtype=object)
        if comps.ndim != n_upper + n_lower:
            raise ValueError(
                f"components have {comps.ndim} axes, expected "
                f"{n_upper} upper + {n_lower} lower"
            )
        self.comps = comps
        self.n_upper = n_upper
        self.n_lower = n_lower

    @property
    def dim(self) -> int:
        return self.comps.shape[0] if self.comps.ndim else 0

    @property
    def rank(self) -> tuple[int, int]:
        return (self.n_upper, self.n_lower)

    @property
    def order(self) -> int:
        return self.comps.flat[0].order

    def value(self) -> np.ndarray:
        """Point values of all components as a float array; batched jets
        give a leading batch axis."""
        batch = self.comps.flat[0].coeffs.shape[:-1]
        consts = np.array([c.coeffs.T[0] for c in self.comps.flat])
        return consts.T.reshape(batch + self.comps.shape)

    def __getitem__(self, idx):
        return self.comps[idx]

    def __add__(self, other):
        self._check_like(other)
        return JetTensor(self.comps + other.comps, self.n_upper, self.n_lower)

    def __sub__(self, other):
        self._check_like(other)
        return JetTensor(self.comps - other.comps, self.n_upper, self.n_lower)

    def __neg__(self):
        return JetTensor(-self.comps, self.n_upper, self.n_lower)

    def __mul__(self, scalar):
        return JetTensor(self.comps * scalar, self.n_upper, self.n_lower)

    __rmul__ = __mul__

    def truncated(self, order: int) -> "JetTensor":
        out = np.empty(self.comps.shape, dtype=object)
        for idx in np.ndindex(*self.comps.shape):
            out[idx] = jets.truncate(self.comps[idx], order)
        return JetTensor(out, self.n_upper, self.n_lower)

    def _check_like(self, other):
        if not isinstance(other, JetTensor):
            raise TypeError(f"expected JetTensor, got {type(other).__name__}")
        if other.rank != self.rank or other.comps.shape != self.comps.shape:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __repr__(self):
        return (
            f"JetTensor(rank={self.rank}, dim={self.dim}, order={self.order})"
        )


class MetricField:
    """Symmetric metric given componentwise as coordinate expressions.

    The component matrix is symmetrized on evaluation (entries are averaged
    with their transposes), and every evaluation checks that the metric is
    comfortably nondegenerate at the point: |det g| must exceed
    ``DEGENERACY_FACTOR * (max |g_ij|)^dim``.  ``evaluate`` and ``values``
    also take a ``(B, dim)`` batch of points and then fail if the metric is
    degenerate at any of them.
    """

    def __init__(
        self,
        coordinates: Sequence[str],
        components: Sequence[Sequence[str]],
        name: str | None = None,
    ):
        self.coordinates = tuple(coordinates)
        self.dim = len(self.coordinates)
        if self.dim == 0:
            raise ValueError("metric needs at least one coordinate")
        if len(set(self.coordinates)) != self.dim:
            raise ValueError(f"duplicate coordinate names: {self.coordinates}")
        if len(components) != self.dim or any(
            len(row) != self.dim for row in components
        ):
            raise ValueError(
                f"component matrix must be {self.dim}x{self.dim}"
            )
        self.component_texts = tuple(tuple(str(c) for c in row) for row in components)
        self.components = tuple(
            tuple(expr.parse(text, self.coordinates) for text in row)
            for row in self.component_texts
        )
        self.name = name

    def evaluate(self, point: Sequence[float], order: int) -> JetTensor:
        """Metric components as jets at the point, symmetrized and checked."""
        coords = jets.seed_coordinates(point, order)
        assignment = dict(zip(self.coordinates, coords))
        raw = np.empty((self.dim, self.dim), dtype=object)
        for i in range(self.dim):
            for j in range(self.dim):
                raw[i, j] = expr.evaluate(self.components[i][j], assignment)
        sym = np.empty_like(raw)
        for i in range(self.dim):
            sym[i, i] = raw[i, i]
            for j in range(i + 1, self.dim):
                sym[i, j] = sym[j, i] = 0.5 * (raw[i, j] + raw[j, i])
        g = JetTensor(sym, 0, 2)
        self._check_nondegenerate(g.value(), point)
        return g

    def values(self, point) -> np.ndarray:
        """Plain float components at the point (symmetrized, checked)."""
        pts = np.asarray(point, dtype=float)
        if pts.ndim == 1:
            assignment = dict(zip(self.coordinates, map(float, pts)))
        else:
            assignment = dict(zip(self.coordinates, pts.T))
        raw = np.empty(pts.shape[:-1] + (self.dim, self.dim))
        for i in range(self.dim):
            for j in range(self.dim):
                raw[..., i, j] = expr.evaluate(self.components[i][j], assignment)
        sym = 0.5 * (raw + np.swapaxes(raw, -1, -2))
        self._check_nondegenerate(sym, pts)
        return sym

    def _check_nondegenerate(self, values: np.ndarray, point) -> None:
        """Raise unless the metric is nondegenerate at the point, or at
        every point of a batch."""
        if values.ndim == 2:
            self._require(float(np.linalg.det(values)), np.max(np.abs(values)), point)
            return
        dets = np.linalg.det(values)
        scales = np.abs(values).max(axis=(1, 2))
        for det, scale, pt in zip(dets, scales, point):
            self._require(float(det), scale, pt)

    def _require(self, det: float, scale, point) -> None:
        if abs(det) <= DEGENERACY_FACTOR * scale**self.dim:
            raise DegenerateMetricError(
                f"metric{' ' + self.name if self.name else ''} is degenerate "
                f"at {tuple(float(c) for c in point)}: |det| = {abs(det):.3e}"
            )

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"MetricField({label} dim={self.dim}, coords={self.coordinates})"


def _parity(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def determinant(t: JetTensor) -> jets.Jet:
    """Determinant of a rank-2 tensor via the Leibniz expansion."""
    if t.n_upper + t.n_lower != 2:
        raise ValueError(f"determinant needs a rank-2 tensor, got {t.rank}")
    d = t.dim
    acc = None
    for perm in itertools.permutations(range(d)):
        term = t.comps[0, perm[0]]
        for i in range(1, d):
            term = term * t.comps[i, perm[i]]
        term = term * _parity(perm)
        acc = term if acc is None else acc + term
    return acc


def _adjugate(comps: np.ndarray) -> np.ndarray:
    """Adjugate matrix of an object ndarray of jets: adj(A) @ A = det(A) I."""
    d = comps.shape[0]
    if d == 1:
        out = np.empty((1, 1), dtype=object)
        out[0, 0] = jets.Jet.constant(
            1.0, comps[0, 0].nvars, comps[0, 0].order
        )
        return out
    out = np.empty((d, d), dtype=object)
    rows = list(range(d))
    cols = list(range(d))
    for i in range(d):
        sub_rows = rows[:i] + rows[i + 1 :]
        for j in range(d):
            sub_cols = cols[:j] + cols[j + 1 :]
            minor = comps[np.ix_(sub_rows, sub_cols)]
            cof = determinant(JetTensor(minor, 0, 2))
            out[j, i] = cof if (i + j) % 2 == 0 else -cof
    return out


def inverse_metric(g: JetTensor) -> JetTensor:
    """Inverse of a (0,2) metric jet as a (2,0) tensor, adjugate over det."""
    if g.rank != (0, 2):
        raise ValueError(f"inverse_metric needs a (0,2) tensor, got {g.rank}")
    det = determinant(g)
    adj = _adjugate(g.comps)
    inv_det = jets.reciprocal(det)
    out = np.empty_like(adj)
    for idx in np.ndindex(*adj.shape):
        out[idx] = adj[idx] * inv_det
    return JetTensor(out, 2, 0)


def christoffel(g: JetTensor, g_inv: JetTensor | None = None) -> JetTensor:
    """Levi-Civita connection coefficients, one jet order below the metric.

    gamma^i_jk = (1/2) g^{is} (d_j g_sk + d_k g_sj - d_s g_jk)
    """
    if g.rank != (0, 2):
        raise ValueError(f"christoffel needs a (0,2) metric, got {g.rank}")
    if g.order < 1:
        raise ValueError("metric jets must have order >= 1 for christoffel")
    if g_inv is None:
        g_inv = inverse_metric(g)
    d = g.dim
    out_order = g.order - 1
    dg = np.empty((d, d, d), dtype=object)  # dg[s, j, k] = d_s g_jk
    for s in range(d):
        for j in range(d):
            for k in range(j, d):
                dg[s, j, k] = dg[s, k, j] = jets.differentiate(g.comps[j, k], s)
    ginv_t = np.empty((d, d), dtype=object)
    for idx in np.ndindex(d, d):
        ginv_t[idx] = jets.truncate(g_inv.comps[idx], out_order)
    gamma = np.empty((d, d, d), dtype=object)
    for j in range(d):
        for k in range(j, d):
            for i in range(d):
                acc = None
                for s in range(d):
                    term = ginv_t[i, s] * (dg[j, s, k] + dg[k, s, j] - dg[s, j, k])
                    acc = term if acc is None else acc + term
                gamma[i, j, k] = gamma[i, k, j] = 0.5 * acc
    return JetTensor(gamma, 1, 2)


def covariant_derivative(t: JetTensor, gamma: JetTensor) -> JetTensor:
    """Covariant derivative; the new lower index leads the lower block.

    For T with u upper and l lower indices the result has indices
    (i_1..i_u; k, j_1..j_l) with

        (nabla T)^{i..}_{k j..} = d_k T^{i..}_{j..}
                                  + sum_a gamma^{i_a}_{k s} T^{..s..}_{j..}
                                  - sum_b gamma^{s}_{k j_b} T^{i..}_{..s..}
    """
    u, l = t.rank
    d = t.dim
    out_order = min(t.order - 1, gamma.order)
    if out_order < 0:
        raise ValueError("tensor jets must have order >= 1 to differentiate")
    tt = t.truncated(out_order + 1) if t.order > out_order + 1 else t
    gm = gamma.truncated(out_order) if gamma.order > out_order else gamma
    out_shape = (d,) * u + (d,) + (d,) * l
    out = np.empty(out_shape, dtype=object)
    for idx in np.ndindex(*out_shape):
        upper = idx[:u]
        k = idx[u]
        lower = idx[u + 1 :]
        acc = jets.differentiate(tt.comps[upper + lower], k)
        for a in range(u):
            for s in range(d):
                t_idx = upper[:a] + (s,) + upper[a + 1 :] + lower
                acc = acc + gm.comps[upper[a], k, s] * jets.truncate(
                    tt.comps[t_idx], out_order
                )
        for b in range(l):
            for s in range(d):
                t_idx = upper + lower[:b] + (s,) + lower[b + 1 :]
                acc = acc - gm.comps[s, k, lower[b]] * jets.truncate(
                    tt.comps[t_idx], out_order
                )
        out[idx] = acc
    return JetTensor(out, u, l + 1)


def gradient_tensor(f: jets.Jet) -> JetTensor:
    """Coordinate gradient of a scalar jet as a (0,1) tensor."""
    d = f.nvars
    out = np.empty((d,), dtype=object)
    for i in range(d):
        out[i] = jets.differentiate(f, i)
    return JetTensor(out, 0, 1)


def ricci(gamma: JetTensor) -> JetTensor:
    """Ricci tensor from connection coefficients, one jet order below them.

    R_ij = d_s gamma^s_ij - d_j gamma^s_si
           + gamma^s_sp gamma^p_ij - gamma^s_jp gamma^p_si
    """
    if gamma.rank != (1, 2):
        raise ValueError(f"ricci needs a (1,2) connection, got {gamma.rank}")
    if gamma.order < 1:
        raise ValueError("connection jets must have order >= 1 for ricci")
    d = gamma.dim
    out_order = gamma.order - 1
    gm = gamma.truncated(out_order)
    out = np.empty((d, d), dtype=object)
    for i in range(d):
        for j in range(i, d):
            acc = None
            for s in range(d):
                term = jets.differentiate(gamma.comps[s, i, j], s)
                term = term - jets.differentiate(gamma.comps[s, s, i], j)
                acc = term if acc is None else acc + term
            for s in range(d):
                for p in range(d):
                    acc = acc + (
                        gm.comps[s, s, p] * gm.comps[p, i, j]
                        - gm.comps[s, j, p] * gm.comps[p, s, i]
                    )
            # symmetric for a Levi-Civita connection, so mirror i <-> j
            out[i, j] = out[j, i] = acc
    return JetTensor(out, 0, 2)


def contract(t: JetTensor, upper_slot: int, lower_slot: int) -> JetTensor:
    """Trace over one upper and one lower slot (0-based within each block)."""
    u, l = t.rank
    if not (0 <= upper_slot < u and 0 <= lower_slot < l):
        raise ValueError(
            f"cannot contract slots ({upper_slot}, {lower_slot}) of rank {t.rank}"
        )
    ax_u = upper_slot
    ax_l = u + lower_slot
    d = t.dim
    out_shape = t.comps.shape[:ax_u] + t.comps.shape[ax_u + 1 :]
    out_shape = out_shape[: ax_l - 1] + out_shape[ax_l:]
    out = np.empty(out_shape, dtype=object)
    for idx in np.ndindex(*out_shape) if out_shape else [()]:
        pre = idx[:ax_u]
        mid = idx[ax_u : ax_l - 1]
        post = idx[ax_l - 1 :]
        acc = None
        for s in range(d):
            full = pre + (s,) + mid + (s,) + post
            acc = t.comps[full] if acc is None else acc + t.comps[full]
        if out_shape:
            out[idx] = acc
        else:
            return JetTensor(np.asarray(acc, dtype=object), 0, 0)
    return JetTensor(out, u - 1, l - 1)


def raise_index(t: JetTensor, g_inv: JetTensor, lower_slot: int) -> JetTensor:
    """Raise one lower slot with the inverse metric; new upper slot goes last."""
    u, l = t.rank
    if not 0 <= lower_slot < l:
        raise ValueError(f"no lower slot {lower_slot} in rank {t.rank}")
    ax = u + lower_slot
    moved = np.moveaxis(t.comps, ax, -1)
    raised = np.einsum("...s,is->...i", moved, g_inv.comps)
    # contraction appended the new upper axis last; the upper block ends at u
    raised = np.moveaxis(raised, -1, u)
    return JetTensor(raised, u + 1, l - 1)


def lower_index(t: JetTensor, g: JetTensor, upper_slot: int) -> JetTensor:
    """Lower one upper slot with the metric; new lower slot goes last."""
    u, l = t.rank
    if not 0 <= upper_slot < u:
        raise ValueError(f"no upper slot {upper_slot} in rank {t.rank}")
    moved = np.moveaxis(t.comps, upper_slot, -1)
    lowered = np.einsum("...s,is->...i", moved, g.comps)
    return JetTensor(lowered, u - 1, l + 1)


def christoffel_values(metric: MetricField, point) -> np.ndarray:
    """Connection coefficients as plain floats, for tight numeric loops.

    Evaluates the metric at order 1 only and finishes with real linear
    algebra, which is much cheaper than the full jet pipeline.  Used by the
    geodesic integrator where Christoffel values are needed per stage.  A
    ``(B, dim)`` batch of points gives a ``(B, dim, dim, dim)`` array whose
    rows equal the single-point results bit for bit.
    """
    g = metric.evaluate(point, order=1)
    d = metric.dim
    gv = g.value()
    dg = np.empty(gv.shape[:-2] + (d, d, d))  # dg[..., s, j, k] = d_s g_jk
    for j in range(d):
        for k in range(j, d):
            # order-1 jet coefficients 1..d are exactly the partials
            dg[..., j, k] = dg[..., k, j] = g.comps[j, k].coeffs[..., 1 : 1 + d]
    ginv = np.linalg.inv(gv)
    # braces[s, j, k] = d_j g_sk + d_k g_sj - d_s g_jk
    dg_jsk = dg.swapaxes(-3, -2)
    braces = dg_jsk + dg_jsk.swapaxes(-2, -1) - dg
    return 0.5 * np.einsum("...is,...sjk->...ijk", ginv, braces)
