import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jet_reference as ref
from benenti import jets
from benenti.errors import OrderExhaustedError, SingularInputError
from benenti.jets import (
    Jet,
    absolute,
    differentiate,
    multi_indices,
    partial,
    seed_coordinates,
    truncate,
)


def test_multi_index_counts():
    # C(nvars + order, order) indices, graded so truncation is a prefix
    assert len(multi_indices(1, 2)) == 3
    assert len(multi_indices(3, 4)) == 35
    assert len(multi_indices(2, 4)) == 15
    assert multi_indices(2, 2)[:3] == [(0, 0), (1, 0), (0, 1)]
    lo = multi_indices(3, 2)
    hi = multi_indices(3, 4)
    assert hi[: len(lo)] == lo


def test_seed_single_coordinate():
    (x,) = seed_coordinates([3.0], order=2)
    assert x.coefficient((0,)) == 3.0
    assert x.coefficient((1,)) == 1.0
    assert x.coefficient((2,)) == 0.0


def test_seed_two_coordinates():
    x, y = seed_coordinates([2.0, 5.0], order=1)
    assert (x.value, x.coefficient((1, 0)), x.coefficient((0, 1))) == (2.0, 1.0, 0.0)
    assert (y.value, y.coefficient((1, 0)), y.coefficient((0, 1))) == (5.0, 0.0, 1.0)


def test_seed_coefficient_count():
    seeds = seed_coordinates([0.0, 0.0, 0.0], order=4)
    assert len(seeds) == 3
    for s in seeds:
        assert s.coeffs.shape == (35,)


def test_seed_rejects_non_finite():
    with pytest.raises(ValueError):
        seed_coordinates([1.0, float("nan")], order=2)
    with pytest.raises(ValueError):
        seed_coordinates([float("inf")], order=1)


def test_square_of_seed():
    (x,) = seed_coordinates([3.0], order=2)
    f = x * x
    assert f.coefficient((0,)) == 9.0
    assert f.coefficient((1,)) == 6.0
    assert f.coefficient((2,)) == 1.0  # f'' = 2, stored as 2/2!


def test_sqrt_at_four():
    (x,) = seed_coordinates([4.0], order=2)
    f = jets.sqrt(x)
    assert f.value == pytest.approx(2.0, rel=1e-15)
    assert f.coefficient((1,)) == pytest.approx(0.25, rel=1e-15)
    assert f.coefficient((2,)) == pytest.approx(-0.015625, rel=1e-12)


def test_polynomial_two_vars():
    x, y = seed_coordinates([1.0, 2.0], order=2)
    f = x * x * y
    assert f.value == 2.0
    assert f.coefficient((1, 0)) == 4.0
    assert f.coefficient((0, 1)) == 1.0
    assert f.coefficient((1, 1)) == 2.0
    assert f.coefficient((2, 0)) == 2.0


def test_partial_extracts_derivatives():
    x, y = seed_coordinates([1.0, 2.0], order=2)
    f = x * x * y
    assert partial(f, (1, 1)) == pytest.approx(2.0)  # d_x d_y x^2 y = 2x
    assert partial(f, (0, 0)) == f.value
    (x,) = seed_coordinates([0.0], order=3)
    assert partial(jets.sin(x), (3,)) == pytest.approx(-1.0)


def test_partial_past_order_raises():
    (x,) = seed_coordinates([1.0], order=2)
    with pytest.raises(OrderExhaustedError):
        partial(x, (3,))


def test_differentiate():
    (x,) = seed_coordinates([3.0], order=2)
    d = differentiate(x * x, 0)
    assert d.order == 1
    assert d.value == 6.0
    assert d.coefficient((1,)) == 2.0

    c = Jet.constant(7.0, 2, 3)
    dz = differentiate(c, 1)
    assert dz.order == 2
    assert np.all(dz.coeffs == 0.0)

    with pytest.raises(OrderExhaustedError):
        differentiate(Jet.constant(1.0, 1, 0), 0)


def test_mixed_partials_commute():
    rng = np.random.default_rng(7)
    x, y, z = seed_coordinates([0.3, -1.2, 2.0], order=4)
    f = jets.exp(x * 0.3) * jets.sin(y) + z * z * x
    dxy = differentiate(differentiate(f, 0), 1)
    dyx = differentiate(differentiate(f, 1), 0)
    np.testing.assert_array_equal(dxy.coeffs, dyx.coeffs)
    assert rng is not None  # keep the seeded generator pattern uniform


def _random_jet(rng, nvars, order, scale=1.0):
    sp_len = len(multi_indices(nvars, order))
    return Jet(nvars, order, scale * rng.standard_normal(sp_len))


@given(st.integers(0, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_ring_laws(order, nvars, seed):
    rng = np.random.default_rng(seed)
    a = _random_jet(rng, nvars, order)
    b = _random_jet(rng, nvars, order)
    c = _random_jet(rng, nvars, order)
    np.testing.assert_allclose((a + b).coeffs, (b + a).coeffs, rtol=0, atol=0)
    ab = (a * b).coeffs
    ulp4 = 4 * np.spacing(np.max(np.abs(ab)) or 1.0)
    np.testing.assert_allclose(ab, (b * a).coeffs, rtol=9e-16, atol=ulp4)
    lhs = (a * (b * c)).coeffs
    rhs = ((a * b) * c).coeffs
    np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)
    lhs = (a * (b + c)).coeffs
    rhs = (a * b + a * c).coeffs
    np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)


@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(order, nvars, seed):
    rng = np.random.default_rng(seed)
    f = _random_jet(rng, nvars, order)
    g = _random_jet(rng, nvars, order)
    for i in range(nvars):
        lhs = differentiate(f * g, i)
        rhs = differentiate(f, i) * truncate(g, order - 1) + truncate(
            f, order - 1
        ) * differentiate(g, i)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-12)


def test_truncation_consistency():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a4 = _random_jet(rng, 2, 4)
        b4 = _random_jet(rng, 2, 4)
        a2, b2 = truncate(a4, 2), truncate(b4, 2)
        np.testing.assert_allclose(
            truncate(a4 * b4, 2).coeffs, (a2 * b2).coeffs, rtol=1e-13, atol=1e-13
        )
        np.testing.assert_allclose(
            truncate(jets.exp(a4), 2).coeffs, jets.exp(a2).coeffs,
            rtol=1e-12, atol=1e-12,
        )


def test_reciprocal_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = _random_jet(rng, 2, 4)
        f = f + (3.0 if f.value >= 0 else -3.0)  # keep away from 0
        one = f * jets.reciprocal(f)
        expect = np.zeros_like(one.coeffs)
        expect[0] = 1.0
        np.testing.assert_allclose(one.coeffs, expect, rtol=0, atol=1e-12)


def test_division_and_abs_singularities():
    x, y = seed_coordinates([0.0, 1.0], order=2)
    with pytest.raises(SingularInputError) as e:
        y / x
    assert e.value.operation == "div"
    with pytest.raises(SingularInputError):
        jets.sqrt(x - 1.0)
    with pytest.raises(SingularInputError):
        jets.log(x)
    with pytest.raises(SingularInputError):
        jets.power(x + 0.0, 0.5)
    with pytest.raises(SingularInputError):
        absolute(x)


def test_abs_is_signed_identity():
    x, y = seed_coordinates([2.0, -3.0], order=3)
    np.testing.assert_array_equal(absolute(x).coeffs, x.coeffs)
    np.testing.assert_array_equal(absolute(y).coeffs, (-y).coeffs)


def test_integer_power_at_zero():
    (x,) = seed_coordinates([0.0], order=3)
    f = x**3
    assert f.coefficient((3,)) == 1.0
    assert f.value == 0.0
    g = x**0
    assert g.value == 1.0


def test_power_matches_repeated_multiplication():
    rng = np.random.default_rng(5)
    f = _random_jet(rng, 2, 4)
    np.testing.assert_allclose(
        (f**4).coeffs, (f * f * f * f).coeffs, rtol=1e-12, atol=1e-12
    )
    f = f + 5.0
    np.testing.assert_allclose(
        jets.power(f, -2).coeffs,
        jets.reciprocal(f * f).coeffs,
        rtol=1e-11, atol=1e-11,
    )


def test_mismatched_spaces_rejected():
    (a,) = seed_coordinates([1.0], order=2)
    (b,) = seed_coordinates([1.0], order=3)
    with pytest.raises(ValueError):
        a + b
    x2 = seed_coordinates([1.0, 2.0], order=2)[0]
    with pytest.raises(ValueError):
        a * x2


# -- chain rule against central finite differences ---------------------------

_UNARY = {
    "exp": (jets.exp, math.exp, lambda v: True),
    "ln": (jets.log, math.log, lambda v: v > 0.1),
    "sin": (jets.sin, math.sin, lambda v: True),
    "cos": (jets.cos, math.cos, lambda v: True),
    "sqrt": (jets.sqrt, math.sqrt, lambda v: v > 0.1),
    "pow1.7": (
        lambda j: jets.power(j, 1.7),
        lambda v: v**1.7,
        lambda v: v > 0.1,
    ),
    "recip": (jets.reciprocal, lambda v: 1.0 / v, lambda v: abs(v) > 0.2),
}


def _inner(point_jets):
    # fixed smooth inner function with non-trivial mixed structure
    x, y = point_jets
    return 0.3 * x * y + 0.5 * x + 1.7 + 0.1 * y * y


def _inner_real(x, y):
    return 0.3 * x * y + 0.5 * x + 1.7 + 0.1 * y * y


@pytest.mark.parametrize("name", sorted(_UNARY))
def test_chain_rule_vs_finite_differences(name):
    jet_fn, real_fn, ok = _UNARY[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    h = 1e-5
    checked = 0
    while checked < 30:
        p = rng.uniform(-2, 2, size=2)
        base = _inner_real(*p)
        if not ok(base):
            continue
        f = jet_fn(_inner(seed_coordinates(p, order=2)))
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            if not (ok(_inner_real(*(p + e))) and ok(_inner_real(*(p - e)))):
                break
            fd = (
                real_fn(_inner_real(*(p + e))) - real_fn(_inner_real(*(p - e)))
            ) / (2 * h)
            alpha = tuple(1 if v == i else 0 for v in range(2))
            jet_val = partial(f, alpha)
            assert jet_val == pytest.approx(fd, rel=1e-5, abs=1e-8)
        checked += 1


@pytest.mark.parametrize("nvars", [2, 3, 4])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_monomial_shift_has_the_bits_of_the_product(nvars, order):
    """A product with c u^beta, |beta| <= 2, has the bits of the coefficient
    shift: coefficient kappa is c a[kappa - beta], or zero where kappa - beta
    has a negative entry.  Rows hold +0.0 and -0.0, and a shifted -0.0 must
    read +0.0, as the product's sum from zero gives it.  This is why
    decompose's unit-jet probes cost no bits through the general product."""
    sp = jets._space(nvars, order)
    rng = np.random.default_rng(100 * nvars + order)
    a = rng.normal(size=(3, 2, sp.ncoeffs))
    a[0, 0] = 0.0
    a[0, 1] = -0.0
    a[1, 0, ::2] = -0.0
    a[2, 1, 1::3] = 0.0
    betas = multi_indices(nvars, 2)
    scales = rng.choice([1.0, 2.0, 3.0, -0.5, -1.0], size=len(betas))
    for beta, c in zip(betas, scales):
        monomial = np.zeros(sp.ncoeffs)  # zero past the order
        if sum(beta) <= order:
            monomial[sp.position[beta]] = c
        shifted = np.zeros_like(a)
        for k, kappa in enumerate(sp.indices):
            rest = tuple(x - y for x, y in zip(kappa, beta))
            if min(rest) >= 0:
                shifted[..., k] = a[..., sp.position[rest]] * c + 0.0
        got = jets.product_coeffs(sp, a, monomial)
        assert np.array_equal(got.view(np.int64), shifted.view(np.int64)), (beta, c)


COMPOSED = {
    "reciprocal": jets.reciprocal,
    "exp": jets.exp,
    "log": jets.log,
    "sin": jets.sin,
    "cos": jets.cos,
    "power 1/3": lambda f: jets.power(f, 1 / 3),
    "power -2": lambda f: jets.power(f, -2),
}


def signed_zero_jets(nvars, order, batch):
    """Finite jets, single or ``batch`` rows, with constant terms in
    [0.3, 1.4] and +0.0 and -0.0 among the other coefficients, at
    positions that shift from row to row."""
    sp = jets._space(nvars, order)
    rng = np.random.default_rng(10 * nvars + order)
    c = rng.uniform(-1.5, 1.5, (batch or 1, sp.ncoeffs))
    for r, row in enumerate(c):
        row[1 + r % 3::3] = -0.0
        row[1 + (r + 1) % 3::3] = 0.0
        row[0] = 0.3 + 0.37 * r
    return Jet(nvars, order, c if batch else c[0])


def same_bits(a: Jet, b: Jet) -> bool:
    return a.coeffs.shape == b.coeffs.shape and a.coeffs.tobytes() == b.coeffs.tobytes()


def spaces_and_batches():
    for nvars in range(1, 5):
        for order in range(5):
            for batch in (None, 3):
                yield signed_zero_jets(nvars, order, batch)


@pytest.mark.parametrize("name", sorted(COMPOSED))
def test_composed_series_skip_the_constant_jet_product(name, monkeypatch):
    """The first Horner step, taken without the product by a constant
    jet, gives the bits of the full recurrence; a -0.0 that the product's
    sum from +0.0 would turn into +0.0 must read +0.0 here too."""
    fn = COMPOSED[name]
    for f in spaces_and_batches():
        got = fn(f)
        with monkeypatch.context() as m:
            m.setattr(jets, "_compose", ref.compose)
            want = fn(f)
        assert same_bits(got, want), (name, f.nvars, f.order, f.batch)


@pytest.mark.parametrize("n", range(7))
def test_integer_powers_skip_the_product_with_one(n):
    """Powers skip ``1 * square``, which has the square's bits, and keep
    ``1 * f``, which turns a -0.0 of f into +0.0."""
    for f in spaces_and_batches():
        assert same_bits(jets.power(f, n), ref.integer_power(f, n)), (f.nvars, f.order)


@pytest.mark.parametrize("name, value", [
    *((name, value) for value in (math.inf, -math.inf)
      for name in ("reciprocal", "exp", "power -2", "power 1", "power 3", "power 5")),
    ("log", math.inf), ("power 1/3", math.inf),  # sin and cos reject inf
])
def test_order_one_jets_with_an_infinite_value(name, value, monkeypatch):
    """At order 1 the shortcuts keep the bits even where the value is
    infinite: every term a product by a constant jet adds is 0 * 0.0, and
    odd powers keep their product with 1."""
    fn = COMPOSED.get(name) or (lambda f: jets.power(f, int(name.split()[1])))
    for nvars in (1, 3):
        f = signed_zero_jets(nvars, 1, 3)
        f.coeffs[:, 0] = value
        with np.errstate(invalid="ignore", over="ignore"), monkeypatch.context() as m:
            got = fn(f)
            if name in COMPOSED:
                m.setattr(jets, "_compose", ref.compose)
                want = fn(f)
            else:
                want = ref.integer_power(f, int(name.split()[1]))
        assert same_bits(got, want), nvars


def test_known_edges_of_the_constant_jet_rule():
    """Where the skipped product would have met an infinite coefficient,
    its 0 * inf terms were NaN and the shortcut has none.  An even power
    of an infinite value, and a composed series at order 2 with an
    infinite first-order coefficient, are the two such inputs."""
    with np.errstate(invalid="ignore", over="ignore"):
        f = Jet(1, 1, [math.inf, 1.0])
        assert np.isnan(ref.integer_power(f, 2).coeffs[1])
        assert jets.power(f, 2).coeffs.tolist() == [math.inf, math.inf]
        g = Jet(1, 2, [0.5, math.inf, 0.0])
        series = np.array([math.exp(0.5), math.exp(0.5), math.exp(0.5) / 2])
        assert np.isnan(ref.compose(g, series).coeffs[2])
        assert jets.exp(g).coeffs[2] == math.inf
