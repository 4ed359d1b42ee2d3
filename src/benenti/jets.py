"""Truncated multivariate Taylor ("jet") arithmetic.

A jet of order ``m`` in ``n`` variables stores the Taylor coefficients
``c_alpha = (d^alpha f)(p) / alpha!`` of a scalar function at a base point,
for every multi-index ``alpha`` with ``|alpha| <= m``.  Arithmetic on jets is
exact up to the truncation order, so jets replace symbolic differentiation
everywhere derivatives of metric components or test functions are needed.

Coefficients are kept in a dense float64 vector in graded-lexicographic
multi-index order (sorted by total degree, then by exponent tuple in
descending lexicographic order).  That ordering makes the coefficient vector
of a lower-order jet a prefix of the higher-order one, so truncation is a
slice.  Index bookkeeping (multi-index lists, multiplication tables,
differentiation maps) is precomputed once per ``(nvars, order)`` and cached;
the intended regime is ``nvars <= 4`` and ``order <= 6`` where the dense
tables stay tiny.

A jet may carry a leading batch axis: ``coeffs`` of shape ``(B, ncoeffs)``
holds B jets of the same space, one per row, at B base points.  Every
operation acts row by row and performs, for each row, exactly the
floating-point operations it performs on an unbatched jet, so a batched
result equals the stacked unbatched results bit for bit.  The Taylor series
of the analytic functions are therefore computed per row by the same scalar
expressions (array ``exp`` or ``**`` can round differently).

Arrays of jets are plain coefficient arrays whose last axis holds the
coefficients and whose leading axes index the jets.  ``product_coeffs`` and
``gradient_coeffs`` act on such arrays, broadcasting the leading axes, and
give every jet the bits of the same operation on a single ``Jet``.

Constant-jet rule: a product sums each coefficient from +0.0, so none is
-0.0, and a product by the constant jet ``c`` has at every coefficient the
bits of ``c * B[k] + 0.0`` wherever ``B`` is finite (its other terms are
``0 * B[j] = +-0.0``).  So ``power`` skips ``1 * B`` for a square ``B``, and
``_compose`` takes its first Horner step without a product.  Where ``B``
has an infinite or NaN coefficient, the product's ``0 * inf`` terms were
NaN and the shortcut's are not (the one edge; the corpus never reaches it).

Zero-jet rule: for the same reason, a product of a zero jet (every
coefficient +-0.0) with a finite jet has every coefficient +0.0.  So the
block path of ``product_coeffs`` multiplies only the rows whose factors both
have a nonzero coefficient (NaN counts as nonzero) and leaves the others at
+0.0.  Its edge is the constant-jet rule's: a zero jet times an infinite or
NaN coefficient has NaN terms, so where any coefficient of either factor is
not finite every row is multiplied.

Jets are immutable values and all operations are pure.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np

from .errors import OrderExhaustedError, SingularInputError

MultiIndex = tuple  # tuple[int, ...], one non-negative exponent per variable


def multi_indices(nvars: int, order: int) -> list[MultiIndex]:
    """All multi-indices with ``|alpha| <= order`` in graded-lex order."""
    if nvars < 1:
        raise ValueError("nvars must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")

    def degree_block(total: int, k: int):
        if k == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for tail in degree_block(total - head, k - 1):
                yield (head,) + tail

    out: list[MultiIndex] = []
    for d in range(order + 1):
        out.extend(degree_block(d, nvars))
    return out


# Products of more table terms than this run in blocks of rows, which bounds
# the temporary terms and the output slots that batch_bins keeps.
BLOCK_TERMS = 2**14


class _Space:
    """Cached index tables for jets of a fixed (nvars, order)."""

    __slots__ = (
        "nvars", "order", "indices", "position", "ncoeffs",
        "_mul", "_diff", "_bins", "block_rows", "factorials",
    )

    def __init__(self, nvars: int, order: int):
        self.nvars = nvars
        self.order = order
        self.indices = multi_indices(nvars, order)
        self.position = {a: i for i, a in enumerate(self.indices)}
        self.ncoeffs = len(self.indices)
        # Convolution table: all (i, j, k) with index_i + index_j = index_k.
        ii, jj, kk = [], [], []
        for i, a in enumerate(self.indices):
            da = sum(a)
            for j, b in enumerate(self.indices):
                if da + sum(b) > order:
                    continue
                s = tuple(x + y for x, y in zip(a, b))
                ii.append(i)
                jj.append(j)
                kk.append(self.position[s])
        self._mul = (np.asarray(ii), np.asarray(jj), np.asarray(kk))
        self._diff = None
        self._bins = np.empty(0, dtype=np.intp)
        self.block_rows = max(1, BLOCK_TERMS // len(ii))  # jets per product block
        self.factorials = np.array(
            [math.prod(math.factorial(e) for e in a) for a in self.indices]
        )

    def diff_tables(self):
        """Source positions and factors, of shape (nvars, lower ncoeffs), that
        map a jet's coefficients to those of its partial in each variable."""
        if self._diff is None:
            lower = _space(self.nvars, self.order - 1)
            src = np.empty((self.nvars, lower.ncoeffs), dtype=np.intp)
            fac = np.empty((self.nvars, lower.ncoeffs))
            for v in range(self.nvars):
                for t, beta in enumerate(lower.indices):
                    shifted = beta[:v] + (beta[v] + 1,) + beta[v + 1:]
                    src[v, t] = self.position[shifted]
                    fac[v, t] = beta[v] + 1
            self._diff = (src, fac)
        return self._diff

    def batch_bins(self, rows: int) -> np.ndarray:
        """Output slots of the convolution table for ``rows`` stacked jets,
        row after row, so one ``bincount`` multiplies every row at once.  The
        slots of fewer rows are a prefix of those of more, so one array, grown
        to the most rows asked for (one block at most), serves every count."""
        size = rows * len(self._mul[2])
        if len(self._bins) < size:
            kk = self._mul[2]
            self._bins = (kk + self.ncoeffs * np.arange(rows)[:, None]).ravel()
        return self._bins[:size]


def product_coeffs(sp: _Space, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated products of two arrays of jets of one space, broadcast
    over their leading axes.

    Each output coefficient of each jet sums its products in the order of
    the convolution table, starting from zero: one ``np.bincount`` of the
    table terms of every row into that row's slots.  A broadcast of more
    jets than fit in BLOCK_TERMS table terms takes the block path: it
    gathers the live rows (those whose factors both have a nonzero
    coefficient; every row when a coefficient of ``a`` or ``b`` is not
    finite), multiplies them in blocks of rows, and leaves every other row
    at +0.0, the zero-jet rule.  Neither changes a bit.
    """
    ii, jj, _ = sp._mul
    step = sp.block_rows
    if a.size * b.size > step * sp.ncoeffs**2:  # more rows than a block, maybe
        lead = np.broadcast(a[..., 0], b[..., 0]).shape
        rows = math.prod(lead)
        if rows > step:  # gather each block's rows, never the whole broadcast
            (a, ra), (b, rb) = (
                (x.reshape(-1, x.shape[-1]), np.broadcast_to(  # row of x per row
                    np.arange(x.size // x.shape[-1]).reshape(x.shape[:-1]), lead).ravel())
                for x in (a, b))
            live = (np.flatnonzero(a.any(-1)[ra] & b.any(-1)[rb])
                    if np.isfinite(a).all() and np.isfinite(b).all()
                    else np.arange(rows))
            out = np.zeros((rows, sp.ncoeffs))
            for start in range(0, len(live), step):
                block = live[start:start + step]
                out[block] = product_coeffs(sp, a[ra[block]], b[rb[block]])
            return out.reshape(lead + (sp.ncoeffs,))
    terms = a[..., ii] * b[..., jj]
    rows = terms.size // len(ii)
    return np.bincount(
        sp.batch_bins(rows), terms.ravel(), minlength=rows * sp.ncoeffs,
    ).reshape(terms.shape[:-1] + (sp.ncoeffs,))


def gradient_coeffs(sp: _Space, c: np.ndarray) -> np.ndarray:
    """Coefficients of every first partial of an array of jets: the
    variable goes on a new axis before the (one order lower) coefficients."""
    if sp.order < 1:
        raise OrderExhaustedError("cannot differentiate an order-0 jet")
    src, fac = sp.diff_tables()
    return c[..., src] * fac


@functools.lru_cache(maxsize=None)
def _space(nvars: int, order: int) -> _Space:
    return _Space(nvars, order)


class Jet:
    """A truncated Taylor expansion at a base point, or a batch of them.

    The public constructor accepts coefficients either as a mapping from
    multi-index tuples to floats (missing entries are zero) or as a dense
    array in graded-lex order, of shape ``(ncoeffs,)`` or, for a batch of B
    jets, ``(B, ncoeffs)``.
    """

    __slots__ = ("space", "coeffs")

    def __init__(self, nvars: int, order: int, coeffs=None):
        sp = _space(nvars, order)
        vec = np.zeros(sp.ncoeffs)
        if coeffs is not None:
            if isinstance(coeffs, dict):
                for alpha, c in coeffs.items():
                    alpha = tuple(alpha)
                    if alpha not in sp.position:
                        raise ValueError(f"multi-index {alpha} out of range")
                    vec[sp.position[alpha]] = c
            else:
                arr = np.asarray(coeffs, dtype=float)
                if arr.ndim not in (1, 2) or arr.shape[-1] != sp.ncoeffs:
                    raise ValueError(
                        f"expected {sp.ncoeffs} coefficients, got {arr.shape}"
                    )
                vec = arr.copy()
        self.space = sp
        self.coeffs = vec

    @classmethod
    def _new(cls, space: _Space, coeffs: np.ndarray) -> "Jet":
        j = object.__new__(cls)
        j.space = space
        j.coeffs = coeffs
        return j

    @classmethod
    def constant(cls, value: float, nvars: int, order: int,
                 batch: int | None = None) -> "Jet":
        """The constant ``value``; ``batch`` rows of it when given."""
        sp = _space(nvars, order)
        vec = np.zeros(sp.ncoeffs if batch is None else (batch, sp.ncoeffs))
        vec[..., 0] = value
        return cls._new(sp, vec)

    @property
    def nvars(self) -> int:
        return self.space.nvars

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def batch(self) -> int | None:
        """Number of rows of a batched jet, None for a single jet."""
        return None if self.coeffs.ndim == 1 else self.coeffs.shape[0]

    @property
    def value(self):
        """The constant term, i.e. the function value at the base point
        (a float, or one value per row of a batch)."""
        if self.coeffs.ndim == 1:
            return float(self.coeffs[0])
        return self.coeffs[:, 0].copy()

    def coefficient(self, alpha: Iterable[int]) -> float:
        return float(self.coeffs[self.space.position[tuple(alpha)]])

    def __repr__(self):
        if self.coeffs.ndim == 2:
            return (f"Jet(nvars={self.nvars}, order={self.order}, "
                    f"batch={self.batch})")
        terms = ", ".join(
            f"{a}: {c:.6g}"
            for a, c in zip(self.space.indices, self.coeffs)
            if c != 0.0
        )
        return f"Jet(nvars={self.nvars}, order={self.order}, {{{terms or '0'}}})"

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise ValueError(
                    "jets must share nvars and order: "
                    f"({self.nvars},{self.order}) vs ({other.nvars},{other.order})"
                )
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            vec = np.zeros(self.coeffs.shape)
            vec[..., 0] = other
            return Jet._new(self.space, vec)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet._new(self.space, self.coeffs + o.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet._new(self.space, self.coeffs - o.coeffs)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet._new(self.space, o.coeffs - self.coeffs)

    def __neg__(self):
        return Jet._new(self.space, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet._new(self.space, self.coeffs * float(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if a.shape != b.shape:
            raise ValueError(
                f"jets must share the batch: {a.shape[:-1]} vs {b.shape[:-1]}"
            )
        return Jet._new(self.space, product_coeffs(self.space, a, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * reciprocal(other)
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet._new(self.space, self.coeffs / float(other))
        return NotImplemented

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * reciprocal(self)

    def __pow__(self, exponent):
        return power(self, exponent)


def seed_coordinates(point, order: int) -> list[Jet]:
    """Coordinate jets at ``point``: constant term ``point[i]``, unit linear
    term in slot ``i``.  Everything else is built from these by arithmetic.

    ``point`` is one point of shape ``(n,)`` or a batch of shape ``(B, n)``;
    a batch gives batched jets with one row per point.
    """
    pt = np.asarray(point, dtype=float)
    if pt.ndim not in (1, 2) or pt.size < 1:
        raise ValueError("point must be a non-empty 1-d sequence or a 2-d batch")
    if not np.isfinite(pt).all():
        raise ValueError(f"non-finite coordinate in point {point}")
    if order < 0:
        raise ValueError("order must be >= 0")
    nvars = pt.shape[-1]
    sp = _space(nvars, order)
    vecs = np.zeros((nvars,) + pt.shape[:-1] + (sp.ncoeffs,))
    vecs.T[0] = pt  # coefficient 0 of every jet, batch rows included
    if order >= 1:
        # graded-lex order puts the unit multi-index e_i at position 1 + i
        for i in range(nvars):
            vecs[i].T[1 + i] = 1.0
    return [Jet._new(sp, vec) for vec in vecs]


def truncate(f: Jet, order: int) -> Jet:
    """Discard coefficients above ``order`` (graded storage makes this a
    prefix slice)."""
    if order == f.order:
        return f
    if order > f.order or order < 0:
        raise ValueError(f"cannot truncate order-{f.order} jet to order {order}")
    sp = _space(f.nvars, order)
    return Jet._new(sp, f.coeffs[..., : sp.ncoeffs].copy())


def partial(f: Jet, alpha: Iterable[int]) -> float:
    """The partial derivative ``d^alpha f`` at the base point."""
    alpha = tuple(alpha)
    if len(alpha) != f.nvars:
        raise ValueError(f"multi-index length {len(alpha)} != nvars {f.nvars}")
    if sum(alpha) > f.order:
        raise OrderExhaustedError(
            f"requested |alpha|={sum(alpha)} derivative from an order-{f.order} jet"
        )
    pos = f.space.position[alpha]
    return float(f.coeffs[pos] * f.space.factorials[pos])


def differentiate(f: Jet, i: int) -> Jet:
    """Jet of ``d f / d x_i``, one order lower than ``f``."""
    if f.order < 1:
        raise OrderExhaustedError("cannot differentiate an order-0 jet")
    if not 0 <= i < f.nvars:
        raise ValueError(f"variable index {i} out of range for nvars={f.nvars}")
    src, fac = f.space.diff_tables()
    lower = _space(f.nvars, f.order - 1)
    return Jet._new(lower, f.coeffs[..., src[i]] * fac[i])


def gradient(f: Jet) -> list[Jet]:
    return [differentiate(f, i) for i in range(f.nvars)]


# -- analytic functions via Taylor-of-outer composed with the nilpotent part --


def _compose(f: Jet, series: np.ndarray) -> Jet:
    """Evaluate ``sum_k series[..., k] * (f - f.value)^k`` by Horner, with
    the same recurrence on every row of a batch.  The first step, the top
    coefficient's constant jet times ``w = f - f.value``, is
    ``series[..., -1] * w + 0.0`` by the constant-jet rule; at order 1 the
    terms it skips are all ``0 * w_0 = 0 * 0.0``, so there it holds on any jet."""
    w = f.coeffs.copy()
    w.T[0] = 0.0  # .T[0]: the constant term of the jet, or of every row
    acc = np.zeros(w.shape)
    acc.T[0] = series.T[-1]
    for k, a in enumerate(series.T[-2::-1]):
        acc = (series[..., -1:] * w + 0.0 if k == 0
               else product_coeffs(f.space, acc, w))
        acc.T[0] += a
    return Jet._new(f.space, acc)


def _constant_terms(f: Jet) -> list[float]:
    """The constant term of each row (one entry for a single jet)."""
    return [float(c) for c in f.coeffs[..., :1].ravel()]


def _series(f: Jet, outer) -> np.ndarray:
    """Taylor coefficients of an outer function about each row's constant
    term: the sequence ``outer(c0)`` per row, stacked into one array for a
    batch."""
    series = np.array([outer(c0) for c0 in _constant_terms(f)])
    return series.reshape(f.coeffs.shape[:-1] + series.shape[-1:])


def reciprocal(f: Jet) -> Jet:
    k = np.arange(f.order + 1)

    def outer(c0):
        if c0 == 0.0:
            raise SingularInputError("div", "division by a jet with zero constant term")
        return (-1.0) ** k / c0 ** (k + 1)

    return _compose(f, _series(f, outer))


def exp(f: Jet) -> Jet:
    factorials = [math.factorial(k) for k in range(f.order + 1)]

    def outer(c0):
        e0 = math.exp(c0)
        return [e0 / factorial for factorial in factorials]

    return _compose(f, _series(f, outer))


def log(f: Jet) -> Jet:
    def outer(c0):
        if c0 <= 0.0:
            raise SingularInputError("ln", f"log of non-positive constant term {c0}")
        return [math.log(c0)] + [(-1.0) ** (k - 1) / (k * c0**k)
                                 for k in range(1, f.order + 1)]

    return _compose(f, _series(f, outer))


def _shifted(func, f: Jet) -> Jet:
    """sin or cos of a jet: the k-th derivative of either is the function
    itself shifted by k pi/2."""

    terms = [(k * math.pi / 2, math.factorial(k)) for k in range(f.order + 1)]

    def outer(c0):
        return [func(c0 + shift) / factorial for shift, factorial in terms]

    return _compose(f, _series(f, outer))


def sin(f: Jet) -> Jet:
    return _shifted(math.sin, f)


def cos(f: Jet) -> Jet:
    return _shifted(math.cos, f)


def power(f: Jet, exponent: float) -> Jet:
    """``f ** exponent`` for a real exponent.

    Non-negative integer exponents work for any jet (repeated squaring, so
    ``x**2`` is fine at ``x = 0``); other exponents go through the binomial
    series and require a nonzero (negative-integer exponent) or positive
    (fractional exponent) constant term.  Squaring skips ``1 * B`` for a
    square ``B`` (the constant-jet rule) and keeps ``1 * f`` for an odd
    exponent, which turns a -0.0 of ``f`` into +0.0.
    """
    if isinstance(exponent, Jet):
        raise SingularInputError("pow", "exponent must be a real constant")
    e = float(exponent)
    if e.is_integer() and e >= 0:
        n = int(e)
        one = result = Jet.constant(1.0, f.nvars, f.order, f.batch)
        base = f
        while n:
            if n & 1:
                result = base if result is one and base is not f else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def outer(c0):
        if e.is_integer() and c0 == 0.0:
            raise SingularInputError("pow", "negative power of a jet with zero constant term")
        if not e.is_integer() and c0 <= 0.0:
            raise SingularInputError("pow", f"fractional power of non-positive constant term {c0}")
        series, coeff = [], 1.0
        for k in range(f.order + 1):
            series.append(coeff * c0 ** (e - k))
            coeff *= (e - k) / (k + 1)
        return series

    return _compose(f, _series(f, outer))


def sqrt(f: Jet) -> Jet:
    for c0 in _constant_terms(f):
        if c0 <= 0.0:
            raise SingularInputError("sqrt", f"sqrt of non-positive constant term {c0}")
    return power(f, 0.5)


def absolute(f: Jet) -> Jet:
    """``|f|`` for a jet bounded away from zero: ``sign(c0) * f``."""
    c0 = f.coeffs[..., :1]
    if np.any(c0 == 0.0):
        raise SingularInputError("abs", "abs of a jet with zero constant term")
    return Jet._new(f.space, np.where(c0 > 0.0, f.coeffs, -f.coeffs))
