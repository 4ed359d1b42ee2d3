"""Chart-local Riemannian geometry over jet arithmetic.

A metric is a symmetric matrix of coordinate expressions.  Evaluating it at
a point with a truncation order produces a ``JetTensor`` whose entries are
jets, and everything downstream (inverse, Christoffel symbols, covariant
derivatives, Ricci tensor) is exact polynomial algebra on those jets.  No
finite differencing happens anywhere in this module; the tests use finite
differences as an independent cross-check.

Index conventions
-----------------
``JetTensor`` stores its jets in one float array ``coeffs`` of shape
``(*batch, *tensor, ncoeffs)``: optional batch axes (one per axis of a
batch of points), then the tensor axes with all upper (contravariant) axes
before all lower (covariant) ones, then the jet coefficients.
``covariant_derivative`` inserts the differentiation index at the *front*
of the lower block, so ``(nabla T)[..., k, j, ...]`` means
``nabla_k T..._j...``.

Contractions multiply every term at once and then add the terms of each
sum one after another, in the order of the summed index, so each component
gets the bits of the scalar loop ``acc = term_0; acc = acc + term_1; ...``.
That loop also gives the bits of one that starts at ``acc = 0``, such as
``np.einsum`` over jets: no coefficient of a product is ``-0.0`` (each is
summed from ``+0.0``), so adding the first term to zero changes nothing.

Each derivative costs one jet order: a metric evaluated at order m yields
Christoffel symbols at order m - 1 and a Ricci tensor at order m - 2.

Nothing is expanded by permutations: the inverse is a series that ends at
the jet order (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch.
13), and determinants come from the Faddeev-LeVerrier recursion.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from . import expr, jets
from .errors import DegenerateMetricError, ExpressionError

# |det g| must exceed this times Hadamard's bound prod_i |row_i of g|, which
# it never exceeds: their ratio is 1 for a diagonal metric with no zero entry,
# whatever the dimension, and a constant rescaling of g leaves it alone
DEGENERACY_FACTOR = 1e-10


class JetTensor:
    """Tensor with jet components, upper axes before lower axes.

    The constructor takes an array-like of ``Jet``s of one space (and one
    batch), shaped like the tensor; ``t[i, j]`` gives a component back as a
    ``Jet``.
    """

    __slots__ = ("space", "coeffs", "n_upper", "n_lower")

    def __init__(self, comps, n_upper: int, n_lower: int):
        flat, shape = _flat_jets(comps, n_upper + n_lower)
        space = flat[0].space
        if any(j.space is not space for j in flat):
            raise ValueError("tensor components must share nvars and order")
        # [component, *batch, coeff] -> [*batch, component, coeff]
        stacked = np.moveaxis(np.array([j.coeffs for j in flat]), 0, -2)
        self.space, self.n_upper, self.n_lower = space, n_upper, n_lower
        self.coeffs = stacked.reshape(stacked.shape[:-2] + shape + (space.ncoeffs,))

    @classmethod
    def _dense(cls, space, coeffs: np.ndarray, n_upper: int, n_lower: int):
        t = object.__new__(cls)
        t.space, t.coeffs, t.n_upper, t.n_lower = space, coeffs, n_upper, n_lower
        return t

    @property
    def dim(self) -> int:
        rank = self.n_upper + self.n_lower
        return self.coeffs.shape[-1 - rank] if rank else 0

    @property
    def rank(self) -> tuple[int, int]:
        return (self.n_upper, self.n_lower)

    @property
    def order(self) -> int:
        return self.space.order

    def value(self) -> np.ndarray:
        """Point values of all components as a float array; batched jets
        give leading batch axes."""
        return self.coeffs[..., 0].copy()

    def __getitem__(self, idx) -> jets.Jet:
        idx = idx if isinstance(idx, tuple) else (idx,)
        if len(idx) != self.n_upper + self.n_lower:
            raise IndexError(f"a component of a rank-{self.rank} tensor needs "
                             f"{sum(self.rank)} indices, got {len(idx)}")
        return jets.Jet._new(self.space, self.coeffs[(Ellipsis, *idx, slice(None))])

    def _like(self, coeffs) -> "JetTensor":
        return JetTensor._dense(self.space, coeffs, self.n_upper, self.n_lower)

    def __add__(self, other):
        self._check_like(other)
        return self._like(self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_like(other)
        return self._like(self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        """Product with a number, or with a scalar jet (component on the left)."""
        if isinstance(scalar, jets.Jet):
            if scalar.space is not self.space:
                raise ValueError("jets must share nvars and order")
            c = scalar.coeffs
            c = c.reshape(c.shape[:-1] + (1,) * sum(self.rank) + c.shape[-1:])
            return self._like(jets.product_coeffs(self.space, self.coeffs, c))
        return self._like(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def truncated(self, order: int) -> "JetTensor":
        if order == self.order:
            return self
        if order > self.order or order < 0:
            raise ValueError(f"cannot truncate order-{self.order} jets to order {order}")
        sp = jets._space(self.space.nvars, order)
        return JetTensor._dense(sp, self.coeffs[..., : sp.ncoeffs].copy(),
                                self.n_upper, self.n_lower)

    def _check_like(self, other):
        if not isinstance(other, JetTensor):
            raise TypeError(f"expected JetTensor, got {type(other).__name__}")
        if (other.rank, other.coeffs.shape, other.space) != (
                self.rank, self.coeffs.shape, self.space):
            raise ValueError(f"tensors differ in rank, shape or jet space: "
                             f"{self!r} vs {other!r}")

    def __repr__(self):
        return (
            f"JetTensor(rank={self.rank}, dim={self.dim}, order={self.order})"
        )


def _flat_jets(comps, rank: int):
    """The jets of a nested sequence ``rank`` levels deep, in row-major
    order, and the shape of the nesting."""
    if isinstance(comps, jets.Jet) != (rank == 0):
        raise ValueError(f"expected jets nested {rank} levels deep, got {comps!r}")
    if rank == 0:
        return [comps], ()
    parts = [_flat_jets(c, rank - 1) for c in comps]
    shapes = {shape for _, shape in parts}
    if len(shapes) != 1:
        raise ValueError("tensor components must form a full, non-empty array")
    return [j for js, _ in parts for j in js], (len(parts),) + shapes.pop()


def _accumulate(terms: np.ndarray, acc=None, subtract: bool = False) -> np.ndarray:
    """Add (or subtract) the terms ``terms[..., r, :]`` onto ``acc`` one
    after another; without ``acc`` the sum starts from the first term."""
    for r in range(terms.shape[-2]):
        term = terms[..., r, :]
        if acc is None:
            acc = term
        else:
            acc = acc - term if subtract else acc + term
    return acc


def _terms(sp, spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products ``a * b`` of the jets an einsum-style ``spec`` pairs up,
    not yet summed: the output axes, then one axis over the summed letters
    (row-major, in the order they first appear), then the coefficients.
    The tensor axes of ``a`` and ``b`` carry the letters of ``spec``;
    leading batch axes broadcast."""
    inputs, out = spec.split("->")
    letters_a, letters_b = inputs.split(",")
    summed = "".join(dict.fromkeys(c for c in letters_a + letters_b if c not in out))
    full = out + summed

    def aligned(x, letters):
        lead = x.ndim - 1 - len(letters)
        axes = sorted(range(len(letters)), key=lambda i: full.index(letters[i]))
        x = x.transpose(*range(lead), *(lead + i for i in axes), x.ndim - 1)
        return x[(Ellipsis, *(slice(None) if c in letters else None for c in full),
                  slice(None))]

    terms = jets.product_coeffs(sp, aligned(a, letters_a), aligned(b, letters_b))
    return terms.reshape(terms.shape[: terms.ndim - 1 - len(summed)] + (-1, sp.ncoeffs))


def _contract(sp, spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The einsum ``spec`` of two coefficient arrays, each sum added term by
    term from its first term."""
    return _accumulate(_terms(sp, spec, a, b))


def _diagonal(c: np.ndarray, axis1: int, axis2: int) -> np.ndarray:
    """``c[..., s, ..., s, ...]`` over two axes given from the end, the
    diagonal index placed just before the coefficients."""
    return np.moveaxis(np.diagonal(c, axis1=axis1, axis2=axis2), -1, -2)


def _mirrored(c: np.ndarray) -> np.ndarray:
    """Copy of ``c`` with the last two tensor axes made symmetric from the
    upper triangle."""
    out = c.copy()
    for i, j in itertools.combinations(range(c.shape[-2]), 2):
        out[..., j, i, :] = c[..., i, j, :]
    return out


def _symmetrize(c: np.ndarray) -> np.ndarray:
    """Average the last two tensor axes of ``c`` with their transpose in
    place: each off-diagonal average is computed once and mirrored."""
    for i, j in itertools.combinations(range(c.shape[-2]), 2):
        c[..., i, j, :] = c[..., j, i, :] = 0.5 * (c[..., i, j, :] + c[..., j, i, :])
    return c


def symmetrized(t: JetTensor) -> JetTensor:
    """Rank-2 tensor averaged with its transpose (see ``_symmetrize``)."""
    return t._like(_symmetrize(t.coeffs.copy()))


class MetricField:
    """Symmetric metric given componentwise as coordinate expressions.

    The component matrix is symmetrized on evaluation (entries are averaged
    with their transposes), and every evaluation checks that the point and
    the metric are finite and the metric comfortably nondegenerate there:
    the determinant of g with unit rows, |det g| over Hadamard's bound, must
    exceed ``DEGENERACY_FACTOR`` in size.  ``evaluate`` and ``values``
    also take a ``(B, dim)`` batch of points and then fail if the metric is
    degenerate at any of them; ``nondegenerate`` says at which.

    Each distinct component tree is evaluated once per call and written to
    every slot it fills, and a bare constant is written without evaluation;
    the results keep the bits of evaluating every component alone.
    ``evaluate`` writes the jets straight into the ``(*batch, i, j, coeff)``
    array it returns, through a ``[coeff, *batch, i, j]`` view, averages the
    off-diagonals there and checks the values ``[..., 0]`` of that array.
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
        # each distinct component tree once, with the (i, j) slots it fills,
        # such as the mirrored upper triangle of a lower-triangle file
        slots = {}
        for i, row in enumerate(self.components):
            for j, tree in enumerate(row):
                slots.setdefault(tree, []).append((i, j))
        self._groups = tuple(slots.items())
        self.name = name

    def evaluate(self, point: Sequence[float], order: int) -> JetTensor:
        """Metric components as jets at the point, symmetrized and checked."""
        try:
            coords = jets.seed_coordinates(point, order)
        except ValueError:
            self._check_point(point)  # no jet is seeded at a point that is not finite
            raise
        sp = coords[0].space
        c = np.zeros(np.shape(point)[:-1] + (self.dim, self.dim, sp.ncoeffs))
        raw = c.transpose(-1, *range(c.ndim - 1))  # [coeff, *batch, i, j] view
        # an overflow shows as a non-finite coefficient, as in _float_values
        with np.errstate(over="ignore", invalid="ignore"):
            self._fill(raw, raw[0], dict(zip(self.coordinates, coords)))
            _symmetrize(c)
        self._check_nondegenerate(c[..., 0], point)
        return JetTensor._dense(sp, c, 0, 2)

    def values(self, point) -> np.ndarray:
        """Plain float components at the point (symmetrized, checked)."""
        self._check_point(point)
        sym = self._float_values(point)
        self._check_nondegenerate(sym, point)
        return sym

    def nondegenerate(self, points) -> np.ndarray:
        """Whether the metric passes the check of ``values`` at a point, or
        at each row of a ``(B, dim)`` batch, without raising: False where
        an expression cannot be evaluated."""
        try:
            return self._ratios(self._float_values(points), points) > DEGENERACY_FACTOR
        except ExpressionError:  # some row is off an expression's domain
            pts = np.asarray(points, dtype=float)
            return np.array([self.nondegenerate(p) for p in pts] if pts.ndim > 1 else False)

    def _float_values(self, point) -> np.ndarray:
        pts = np.asarray(point, dtype=float)
        assignment = dict(zip(self.coordinates, map(float, pts) if pts.ndim == 1 else pts.T))
        raw = np.empty(pts.shape[:-1] + (self.dim, self.dim))
        # an overflow shows as a non-finite component, which is degenerate
        with np.errstate(over="ignore", invalid="ignore"):
            self._fill(raw, raw, assignment)
            return _symmetrize(raw[..., None])[..., 0]

    def _fill(self, raw: np.ndarray, values: np.ndarray, assignment) -> None:
        """Write each component into ``raw[..., i, j]``, evaluating each
        distinct tree once: floats, or jet coefficients on the first axis.
        A bare constant is written straight into ``values[..., i, j]``, the
        point values in ``raw``, whose other jet coefficients stay zero."""
        for tree, slots in self._groups:
            if isinstance(tree, expr.Const):
                target, value = values, tree.value
            else:
                target, value = raw, expr.evaluate(tree, assignment)
                if isinstance(value, jets.Jet):
                    value = value.coeffs.T  # [*batch, coeff] -> [coeff, *batch]
            for i, j in slots:
                target[..., i, j] = value

    def _ratios(self, values: np.ndarray, points) -> np.ndarray:
        """|det g| over Hadamard's bound at each row: the |det| of g with
        unit rows, whose norms take no squares that could overflow.  A row
        of g that is zero or not finite makes it NaN, which reads 0, as a
        point that is not finite does."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            unit = values / np.hypot.reduce(values, axis=-1)[..., None]
            ratios = np.fmax(np.abs(np.linalg.det(unit)), 0.0)
        return np.where(np.isfinite(points).all(-1), ratios, 0.0)

    def _check_point(self, point) -> None:
        """Raise at a point that is not finite before anything is evaluated
        there: its ratio is 0 whatever the components."""
        if not np.isfinite(point).all():
            self._check_nondegenerate(
                np.broadcast_to(np.eye(self.dim), np.shape(point) + (self.dim,)), point)

    def _check_nondegenerate(self, values: np.ndarray, point) -> None:
        """Raise at the first row whose ratio is at most DEGENERACY_FACTOR."""
        ratios = self._ratios(values, point).ravel()
        if (ratios > DEGENERACY_FACTOR).all():
            return
        row = int(np.argmin(ratios > DEGENERACY_FACTOR))
        at = tuple(float(x) for x in np.reshape(point, (-1, self.dim))[row])
        value = values.reshape(-1, self.dim, self.dim)[row]
        if np.isfinite(at).all() and np.isfinite(value).all():
            with np.errstate(over="ignore"):  # the text's |det| only
                det = abs(np.linalg.det(value))
            detail = f"|det| = {det:.3e}, {ratios[row]:.3e} of Hadamard's bound"
        else:
            detail = f"a {'component' if np.isfinite(at).all() else 'coordinate'} is not finite"
        raise DegenerateMetricError(f"metric{' ' + self.name if self.name else ''} "
                                    f"is degenerate at {at}: {detail}")

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"MetricField({label} dim={self.dim}, coords={self.coordinates})"


def adjugate_family(L: JetTensor):
    """Coefficients of adjugate(t Id - L) and of det(t Id - L) in t.

    Faddeev-LeVerrier: M_1 = Id and, for k = 1..n-1,

        c_{n-k}  = -trace(L M_k) / k,
        M_{k+1}  = L M_k + c_{n-k} Id,

    with c_0 = -trace(L M_n)/n.  Then adjugate(t Id - L) = sum_k t^{n-k} M_k,
    so the coefficient of t^l is M_{n-l}.  Everything is exact polynomial
    algebra; no t is ever substituted.
    """
    d = L.dim
    sp = L.space
    diag = np.arange(d)
    M = np.zeros(L.coeffs.shape)
    M[..., diag, diag, 0] = 1.0
    S = [None] * d  # S[l] = coefficient of t^l
    char = [None] * (d + 1)
    char[d] = jets.Jet._new(sp, M[..., 0, 0, :].copy())  # 1, in every row
    S[d - 1] = M
    for k in range(1, d):
        # L Id is L + 0.0 by the constant-jet rule of jets, so it takes no product
        M = L.coeffs + 0.0 if k == 1 else _contract(sp, "is,sj->ij", L.coeffs, M)
        c = _accumulate(_diagonal(M, -3, -2)) * (-1.0 / k)  # trace, first term first
        char[d - k] = jets.Jet._new(sp, c)
        M[..., diag, diag, :] += c[..., None, :]
        S[d - 1 - k] = M
    LM = _contract(sp, "is,si->i", L.coeffs, M)  # the diagonal of L M only
    char[0] = jets.Jet._new(sp, _accumulate(LM) * (-1.0 / d))
    S_coeffs = tuple(JetTensor._dense(sp, m, 1, 1) for m in S)
    return S_coeffs, tuple(char)


def determinant(t: JetTensor) -> jets.Jet:
    """Determinant of a rank-2 tensor, (-1)^n c_0 of ``adjugate_family``."""
    if t.n_upper + t.n_lower != 2:
        raise ValueError(f"determinant needs a rank-2 tensor, got {t.rank}")
    return adjugate_family(t)[1][0] * (-1.0) ** t.dim


def _inverse(t: JetTensor) -> JetTensor:
    """Inverse of a rank-2 tensor jet, with its index positions swapped.

    With C the inverse of the point value and N = t - t(x), which has no
    constant term, t^{-1} = (Id + C N)^{-1} C = (sum_k (-C N)^k) C, and
    (C N)^k starts at degree k, so the series ends at the jet order.  The
    two float-by-jet products with C are summed term by term
    (``_accumulate``), and only the powers k >= 2 take jet products.  The
    sum of the powers starts from +0.0, so a coefficient of degree d has
    the same bits at every order >= d.
    """
    sp, diag = t.space, np.arange(t.dim)
    c = np.linalg.inv(t.coeffs[..., 0])
    tail = t.coeffs.copy()
    tail[..., 0] = 0.0
    # step[i, j] = sum_s -C[i, s] N[s, j]
    step = _accumulate(-c[..., :, None, :, None] * np.swapaxes(tail, -3, -2)[..., None, :, :, :])
    total, power = 0.0 + step, step
    total[..., diag, diag, 0] += 1.0
    for _ in range(1, sp.order):
        power = _contract(sp, "is,sj->ij", step, power)
        total += power
    out = _accumulate(total[..., :, None, :, :] * np.swapaxes(c, -1, -2)[..., None, :, :, None])
    return JetTensor._dense(sp, out, t.n_lower, t.n_upper)


def inverse_metric(g: JetTensor) -> JetTensor:
    """Inverse of a (0,2) metric jet as a (2,0) tensor (see ``_inverse``)."""
    if g.rank != (0, 2):
        raise ValueError(f"inverse_metric needs a (0,2) tensor, got {g.rank}")
    return _inverse(g)


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
    ginv_t = g_inv.truncated(g.order - 1)
    # dg[s, j, k] = d_s g_jk, from the upper triangle of g
    dg = np.moveaxis(jets.gradient_coeffs(g.space, _mirrored(g.coeffs)), -2, -4)
    # braces[s, j, k] = d_j g_sk + d_k g_sj - d_s g_jk
    braces = np.swapaxes(dg, -4, -3) + np.moveaxis(dg, -4, -2) - dg
    gamma = _contract(ginv_t.space, "is,sjk->ijk", ginv_t.coeffs, braces) * 0.5
    return JetTensor._dense(ginv_t.space, _mirrored(gamma), 1, 2)


def covariant_derivative(t: JetTensor, gamma: JetTensor) -> JetTensor:
    """Covariant derivative; the new lower index leads the lower block.

    For T with u upper and l lower indices the result has indices
    (i_1..i_u; k, j_1..j_l) with

        (nabla T)^{i..}_{k j..} = d_k T^{i..}_{j..}
                                  + sum_a gamma^{i_a}_{k s} T^{..s..}_{j..}
                                  - sum_b gamma^{s}_{k j_b} T^{i..}_{..s..}
    """
    u, l = t.rank
    out_order = min(t.order - 1, gamma.order)
    if out_order < 0:
        raise ValueError("tensor jets must have order >= 1 to differentiate")
    tt = t.truncated(out_order + 1)
    gm = gamma.truncated(out_order)
    sp = gm.space
    acc = np.moveaxis(jets.gradient_coeffs(tt.space, tt.coeffs), -2, -2 - l)
    tc = tt.coeffs[..., : sp.ncoeffs]
    upper, lower = "abcd"[:u], "pqrt"[:l]
    out = upper + "k" + lower
    for a in range(u):
        moved = upper[:a] + "s" + upper[a + 1:] + lower
        terms = _terms(sp, f"{upper[a]}ks,{moved}->{out}", gm.coeffs, tc)
        acc = _accumulate(terms, acc)
    for b in range(l):
        moved = upper + lower[:b] + "s" + lower[b + 1:]
        terms = _terms(sp, f"sk{lower[b]},{moved}->{out}", gm.coeffs, tc)
        acc = _accumulate(terms, acc, subtract=True)
    return JetTensor._dense(sp, acc, u, l + 1)


def gradient_tensor(f: jets.Jet) -> JetTensor:
    """Coordinate gradient of a scalar jet as a (0,1) tensor."""
    c = jets.gradient_coeffs(f.space, f.coeffs)
    return JetTensor._dense(jets._space(f.nvars, f.order - 1), c, 0, 1)


def ricci(gamma: JetTensor) -> JetTensor:
    """Ricci tensor from connection coefficients, one jet order below them.

    R_ij = d_s gamma^s_ij - d_j gamma^s_si
           + gamma^s_sp gamma^p_ij - gamma^s_jp gamma^p_si
    """
    if gamma.rank != (1, 2):
        raise ValueError(f"ricci needs a (1,2) connection, got {gamma.rank}")
    if gamma.order < 1:
        raise ValueError("connection jets must have order >= 1 for ricci")
    gm = gamma.truncated(gamma.order - 1)
    sp = gm.space
    dgamma = jets.gradient_coeffs(gamma.space, gamma.coeffs)  # [s, i, j, v] = d_v gamma^s_ij
    # per s: d_s gamma^s_ij - d_j gamma^s_si, as [i, j, s]
    acc = _accumulate(_diagonal(dgamma, -5, -2) - _diagonal(dgamma, -5, -4))
    trace = np.swapaxes(_diagonal(gm.coeffs, -4, -3), -3, -2)  # [s, p] = gamma^s_sp
    quadratic = (
        _terms(sp, "sp,pij->ij", trace, gm.coeffs)
        - _terms(sp, "sjp,psi->ij", gm.coeffs, gm.coeffs)
    )
    # symmetric for a Levi-Civita connection, so mirror i <-> j
    return JetTensor._dense(sp, _mirrored(_accumulate(quadratic, acc)), 0, 2)


def contract(t: JetTensor, upper_slot: int, lower_slot: int) -> JetTensor:
    """Trace over one upper and one lower slot (0-based within each block)."""
    u, l = t.rank
    if not (0 <= upper_slot < u and 0 <= lower_slot < l):
        raise ValueError(
            f"cannot contract slots ({upper_slot}, {lower_slot}) of rank {t.rank}"
        )
    rank = u + l
    diag = _diagonal(t.coeffs, upper_slot - rank - 1, u + lower_slot - rank - 1)
    return JetTensor._dense(t.space, _accumulate(diag), u - 1, l - 1)


def matmul(a: JetTensor, b: JetTensor) -> JetTensor:
    """The rank-2 product a_{i s} b_{s j}, index positions kept."""
    upper = int(a.n_upper > 0) + int(b.n_upper > 1)
    c = _contract(a.space, "is,sj->ij", a.coeffs, b.coeffs)
    return JetTensor._dense(a.space, c, upper, 2 - upper)


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
    # order-1 jet coefficients 1..d are exactly the partials: dg[..., s, j, k] = d_s g_jk
    partials = g.coeffs[..., 1 : 1 + d]  # [..., j, k, s]
    dg = np.ascontiguousarray(partials.swapaxes(-1, -2).swapaxes(-2, -3))
    ginv = np.linalg.inv(gv)
    # braces[s, j, k] = d_j g_sk + d_k g_sj - d_s g_jk
    dg_jsk = dg.swapaxes(-3, -2)
    braces = dg_jsk + dg_jsk.swapaxes(-2, -1) - dg
    return 0.5 * np.einsum("...is,...sjk->...ijk", ginv, braces)
