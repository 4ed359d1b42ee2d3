import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jet_reference as ref
from benenti import catalog, expr, jets
from benenti.errors import DegenerateMetricError, EvaluationDomainError
from benenti.geometry import (
    JetTensor,
    MetricField,
    christoffel,
    christoffel_values,
    contract,
    covariant_derivative,
    determinant,
    gradient_tensor,
    inverse_metric,
    matmul,
    ricci,
    symmetrized,
)

POLAR = MetricField(("r", "phi"), [["1", "0"], ["0", "r^2"]], name="polar")
SPHERE = MetricField(
    ("theta", "phi"), [["1", "0"], ["0", "sin(theta)^2"]], name="sphere"
)
CURVED = MetricField(
    ("x", "y"),
    [["2 + x^2", "x * y"], ["x * y", "1 + y^2"]],
    name="curved",
)


def fd_metric_derivatives(metric, point, h=1e-6):
    """Central-difference d_s g_jk, the independent oracle for christoffel."""
    d = metric.dim
    dg = np.empty((d, d, d))
    for s in range(d):
        plus = np.array(point, dtype=float)
        minus = plus.copy()
        plus[s] += h
        minus[s] -= h
        dg[s] = (metric.values(plus) - metric.values(minus)) / (2 * h)
    return dg


def fd_christoffel(metric, point, h=1e-6):
    dg = fd_metric_derivatives(metric, point, h)
    ginv = np.linalg.inv(metric.values(point))
    braces = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    return 0.5 * np.einsum("is,sjk->ijk", ginv, braces)


def max_coeff(tensor):
    return np.max(np.abs(tensor.coeffs))


class TestMetricField:
    def test_values_and_symmetrization(self):
        m = MetricField(("x", "y"), [["1", "x"], ["0", "1"]])
        v = m.values((0.6, 0.0))
        assert v[0, 1] == v[1, 0] == 0.3  # averaged halves

    def test_degenerate_rejected(self):
        m = MetricField(("x", "y"), [["x", "0"], ["0", "x"]])
        with pytest.raises(DegenerateMetricError):
            m.values((0.0, 1.0))
        with pytest.raises(DegenerateMetricError):
            m.evaluate((0.0, 1.0), order=2)

    def test_non_finite_components_are_degenerate(self):
        # g_11 = inf - inf + 1 is NaN once x * 1e200 overflows when squared
        huge = "(x*1e200)*(x*1e200)"
        m = MetricField(("x", "y"), [[f"{huge} - {huge} + 1", "0"], ["0", "1"]])
        for point in ((1.5, 1.0), [(1e-150, 1.0), (1.5, 1.0)]):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DegenerateMetricError, match=r"\(1\.5, 1\.0\).*not finite"):
                    m.values(point)
                with pytest.raises(DegenerateMetricError, match="not finite"):
                    m.evaluate(point, order=1)
        assert m.values((1e-150, 1.0))[0, 0] == 1.0

    def test_values_keep_the_diagonal_as_evaluated(self):
        # averaging 1e308 with itself would overflow, and so would squaring
        # it for a row norm: the diagonal comes back, and is nondegenerate
        m = MetricField(("x", "y"), [["1e308", "0"], ["0", "1"]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert m.values([0, 0]).tolist() == [[1e308, 0.0], [0.0, 1.0]]
            assert m.evaluate([0, 0], 0).value().tolist() == [[1e308, 0.0], [0.0, 1.0]]
            assert m.nondegenerate([[0.0, 0.0]]).all()

    def test_a_point_that_is_not_finite_cannot_be_read(self):
        # the three calls agree, even where the components are constant
        m = MetricField(("x", "y"), [["1", "0"], ["0", "2"]])
        for point in ([math.inf, 0.0], [[0.0, 0.0], [math.inf, 0.0]]):
            for call in (lambda: m.values(point), lambda: m.evaluate(point, 1)):
                with pytest.raises(DegenerateMetricError,
                                   match=r"\(inf, 0\.0\): a coordinate is not finite"):
                    call()
        assert m.nondegenerate([[0.0, 0.0], [math.inf, 0.0], [0.0, math.nan]]).tolist() == [
            True, False, False]

    def test_nondegenerate_is_false_where_an_expression_cannot_be_evaluated(self):
        m = MetricField(("x", "y"), [["1 + ln(x + 0.5)^2", "0"], ["0", "1"]])
        points = [[0.0, 0.0], [-0.6, 0.0], [0.5, 1.0]]
        with pytest.raises(EvaluationDomainError):
            m.values(points)
        assert m.nondegenerate(points).tolist() == [True, False, True]
        assert not m.nondegenerate(points[1])

    def test_degeneracy_threshold_tracks_scale(self):
        # uniformly tiny metrics are fine; the threshold is relative
        m = MetricField(("x", "y"), [["1e-8", "0"], ["0", "1e-8"]])
        assert np.allclose(m.values((0.0, 0.0)), 1e-8 * np.eye(2))
        m2 = MetricField(("x", "y"), [["x", "0"], ["0", "x"]])
        v = m2.values((1e-7, 0.0))
        assert v[0, 0] == pytest.approx(1e-7)

    def test_degeneracy_is_measured_against_hadamards_bound(self):
        # a diagonal metric is as far from degenerate as any, whatever its
        # dimension and scale; rows that are nearly parallel are degenerate
        coords = tuple(f"x{i}" for i in range(7))
        entries = [0.154] + [0.0016] * 6  # |det| is 1.3e-12 of max^7
        for scale in (1.0, 1e-5, 1e5):
            diagonal = [[repr(scale * entries[i]) if i == j else "0" for j in range(7)]
                        for i in range(7)]
            assert MetricField(coords, diagonal).nondegenerate(np.zeros(7))
        # the ratio is |det| with unit rows, good to about 1e-4 relative
        # here: the rows' difference is 1e-12 of their size
        m = MetricField(("x", "y"), [["1", "1"], ["1", "1 + 1e-12"]])
        with pytest.raises(DegenerateMetricError,
                           match=r"\|det\| = 1\.000e-12, 5\.001e-13 of Hadamard's bound"):
            m.values((0.0, 0.0))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MetricField(("x",), [["1", "0"]])
        with pytest.raises(ValueError):
            MetricField(("x", "x"), [["1", "0"], ["0", "1"]])

    def test_jet_evaluation_matches_values(self):
        g = CURVED.evaluate((0.5, -0.3), order=3)
        assert np.allclose(g.value(), CURVED.values((0.5, -0.3)))


def componentwise(metric, point, order=None):
    """The symmetrized components from one expr.evaluate per component:
    jet coefficients at ``order``, or float values without it."""
    pts = np.asarray(point, dtype=float)
    if order is None:
        assignment = dict(zip(metric.coordinates, map(float, pts) if pts.ndim == 1
                              else pts.T))
    else:
        assignment = dict(zip(metric.coordinates, jets.seed_coordinates(pts, order)))
    with np.errstate(over="ignore", invalid="ignore"):
        raw = [[expr.evaluate(c, assignment) for c in row] for row in metric.components]
        if order is None:
            raw = np.moveaxis(np.array(np.broadcast_arrays(*sum(raw, []))), 0, -1)
            raw = raw.reshape(pts.shape[:-1] + (metric.dim, metric.dim))
            return 0.5 * (raw + np.swapaxes(raw, -1, -2))
        raw = np.moveaxis(np.array([[c.coeffs for c in row] for row in raw]), (0, 1), (-3, -2))
        space = jets._space(metric.dim, order)
        return symmetrized(JetTensor._dense(space, raw, 0, 2)).coeffs


GROUPED = {
    "bare constants": [["2", "0"], ["0", "x^2 + 1"]],
    # a Neg: its jet has -0.0 slots, so it is evaluated, not written
    "negated constant": [["-1", "0"], ["0", "1 + y^2"]],
    # equal values from unequal trees, each evaluated
    "full matrix": [["2 + x^2", "x*y"], ["y*x", "1 + y^2"]],
    # 1e308 * x^2 overflows in its first derivatives, not its value
    "overflowing component": [["1 + 0 * (1e308 * x^2)", "x - x"], ["x - x", "1"]],
}


@pytest.mark.parametrize("name", GROUPED)
class TestGroupedComponents:
    """MetricField writes each constant and evaluates each distinct tree
    once; the results keep the bits of evaluating every component alone."""

    POINTS = [(1.1, 0.4), [(1.1, 0.4), (1.25, -0.3), (1.0, 0.9)]]

    @pytest.mark.parametrize("order", range(5))
    def test_evaluate(self, name, order):
        metric = MetricField(("x", "y"), GROUPED[name])
        for point in self.POINTS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = metric.evaluate(point, order).coeffs
            want = componentwise(metric, point, order)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_values(self, name):
        metric = MetricField(("x", "y"), GROUPED[name])
        for point in self.POINTS:
            got, want = metric.values(point), componentwise(metric, point)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_grouping_keeps_signed_zeros_and_overflow():
    negated = MetricField(("x", "y"), GROUPED["negated constant"])
    assert np.signbit(negated.evaluate((1.1, 0.4), 2).coeffs[0, 0, 1:]).all()
    overflowing = MetricField(("x", "y"), GROUPED["overflowing component"])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(overflowing.evaluate((1.1, 0.4), 1).coeffs[0, 0, 1])  # d/dx


def test_each_distinct_component_is_evaluated_once(monkeypatch):
    calls = []

    def counted(e, assignment):
        calls.append(e)
        return evaluate(e, assignment)

    evaluate = expr.evaluate
    monkeypatch.setattr(expr, "evaluate", counted)
    # x - y twice and 0 twice: one call, where every component once made four
    dini = catalog.get_entry("dini").pair.g
    for point in [(1.6, 0.75), [(1.6, 0.75), (2.0, 0.5)]]:
        for order in (0, 1, 4):
            calls.clear()
            dini.evaluate(point, order)
            assert len(calls) == 1
        calls.clear()
        dini.values(point)
        assert len(calls) == 1
        calls.clear()
        christoffel_values(dini, point)  # one drift stage
        assert len(calls) == 1


class TestInverseAndDeterminant:
    def test_determinant_matches_numpy(self):
        g = CURVED.evaluate((0.7, 0.2), order=3)
        det = determinant(g)
        assert det.value == pytest.approx(np.linalg.det(g.value()), rel=1e-13)

    def test_inverse_is_exact_in_jets(self):
        g = CURVED.evaluate((0.7, 0.2), order=4)
        ginv = inverse_metric(g)
        # g_is g^{sj} must be the identity to machine precision, all orders
        d = g.dim
        for i in range(d):
            for j in range(d):
                acc = None
                for s in range(d):
                    term = g[i, s] * ginv[s, j]
                    acc = term if acc is None else acc + term
                expect = 1.0 if i == j else 0.0
                assert acc.value == pytest.approx(expect, abs=1e-13)
                assert np.max(np.abs(acc.coeffs[1:])) < 1e-12

    def test_inverse_matches_numpy_values(self):
        g = SPHERE.evaluate((1.1, 0.4), order=2)
        assert np.allclose(
            inverse_metric(g).value(), np.linalg.inv(g.value()), rtol=1e-13
        )

    def test_three_dimensional_inverse(self):
        m = MetricField(
            ("x", "y", "z"),
            [
                ["2", "0", "x"],
                ["0", "1 + z^2", "0"],
                ["x", "0", "3 + y^2"],
            ],
        )
        g = m.evaluate((0.4, 0.8, -0.6), order=3)
        ginv = inverse_metric(g)
        assert np.allclose(
            ginv.value(), np.linalg.inv(g.value()), rtol=1e-12, atol=1e-14
        )


class TestChristoffel:
    def test_polar_closed_form(self):
        g = POLAR.evaluate((2.0, 0.3), order=2)
        gamma = christoffel(g)
        vals = gamma.value()
        assert vals[0, 1, 1] == pytest.approx(-2.0)  # -r
        assert vals[1, 0, 1] == pytest.approx(0.5)  # 1/r
        assert vals[1, 1, 0] == pytest.approx(0.5)
        assert vals[0, 0, 0] == 0.0

    def test_against_finite_differences(self):
        for point in [(0.5, -0.3), (1.2, 0.8), (-0.4, 0.9)]:
            g = CURVED.evaluate(point, order=2)
            gamma = christoffel(g).value()
            oracle = fd_christoffel(CURVED, point)
            assert np.allclose(gamma, oracle, rtol=1e-7, atol=1e-8)

    def test_fast_values_match_jet_route(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            point = rng.uniform(0.3, 1.5, size=2)
            fast = christoffel_values(CURVED, point)
            slow = christoffel(CURVED.evaluate(point, order=2)).value()
            assert np.allclose(fast, slow, rtol=1e-12, atol=1e-14)

    def test_trace_is_log_volume_gradient(self):
        # gamma^s_sk = d_k ln sqrt(det g)
        point = (0.9, 0.4)
        g = CURVED.evaluate(point, order=3)
        tr = contract(christoffel(g), 0, 0)
        logvol = jets.log(jets.sqrt(jets.absolute(determinant(g))))
        for k in range(2):
            want = jets.partial(logvol, tuple(1 if i == k else 0 for i in range(2)))
            assert tr[k].value == pytest.approx(want, rel=1e-12)


class TestCovariantDerivative:
    def test_metricity(self):
        g = CURVED.evaluate((0.6, 0.5), order=3)
        gamma = christoffel(g)
        nabla_g = covariant_derivative(g, gamma)
        assert nabla_g.rank == (0, 3)
        assert max_coeff(nabla_g) < 1e-12 * max_coeff(g)

    def test_inverse_metric_is_parallel(self):
        g = CURVED.evaluate((0.6, 0.5), order=3)
        gamma = christoffel(g)
        nabla_ginv = covariant_derivative(inverse_metric(g), gamma)
        assert max_coeff(nabla_ginv) < 1e-12

    def test_scalar_gradient(self):
        x, y = jets.seed_coordinates((1.2, 0.7), order=3)
        f = jets.exp(x) * jets.sin(y)
        grad = gradient_tensor(f)
        assert grad[0].value == pytest.approx(math.exp(1.2) * math.sin(0.7))
        assert grad[1].value == pytest.approx(math.exp(1.2) * math.cos(0.7))

    def test_scalar_hessian_symmetric(self):
        point = (1.2, 0.7)
        g = CURVED.evaluate(point, order=4)
        gamma = christoffel(g)
        x, y = jets.seed_coordinates(point, order=4)
        f = jets.exp(x - y) + x * y * y
        hess = covariant_derivative(gradient_tensor(f), gamma)
        diff = hess[0, 1] - hess[1, 0]
        assert np.max(np.abs(diff.coeffs)) < 1e-12

    def test_one_form_components(self):
        # w = dr on the polar chart: (nabla w)[k, j] = -gamma^r_kj
        point = (1.7, 0.2)
        g = POLAR.evaluate(point, order=2)
        gamma = christoffel(g)
        w = np.empty((2,), dtype=object)
        w[0] = jets.Jet.constant(1.0, 2, 2)
        w[1] = jets.Jet.constant(0.0, 2, 2)
        nabla_w = covariant_derivative(JetTensor(w, 0, 1), gamma)
        assert nabla_w[1, 1].value == pytest.approx(1.7)  # -(-r)
        assert nabla_w[0, 0].value == pytest.approx(0.0)


class TestRicci:
    def test_unit_sphere(self):
        # Ricci of the unit sphere equals the metric itself
        point = (math.pi / 4, 0.8)
        g = SPHERE.evaluate(point, order=3)
        ric = ricci(christoffel(g))
        vals = ric.value()
        assert vals[0, 0] == pytest.approx(1.0, rel=1e-10)
        assert vals[1, 1] == pytest.approx(0.5, rel=1e-10)
        assert abs(vals[0, 1]) < 1e-12

    def test_flat_space_vanishes(self):
        g = POLAR.evaluate((1.3, 0.5), order=4)
        ric = ricci(christoffel(g))
        assert max_coeff(ric) < 1e-12

    def test_two_dimensional_einstein_identity(self):
        # in 2 dimensions R_ij - (1/2) R g_ij vanishes identically
        point = (0.8, -0.2)
        g = CURVED.evaluate(point, order=4)
        gamma = christoffel(g)
        ric = ricci(gamma)
        ginv = inverse_metric(g).truncated(ric.order)
        scalar = contract(matmul(ginv, ric), 0, 0)[()]
        gt = g.truncated(ric.order)
        einstein = ric - 0.5 * scalar * gt
        assert max_coeff(einstein) < 1e-10

    def test_sphere_scalar_curvature(self):
        point = (1.0, 0.3)
        g = SPHERE.evaluate(point, order=3)
        ric = ricci(christoffel(g))
        ginv = inverse_metric(g).truncated(ric.order)
        scalar = contract(matmul(ginv, ric), 0, 0)[()]
        assert scalar.value == pytest.approx(2.0, rel=1e-10)


class TestIndexAlgebra:
    def _random_tensor(self, rng, point, order=3):
        x, y = jets.seed_coordinates(point, order)
        basis = [
            jets.Jet.constant(1.0, 2, order), x, y, x * y, x * x, jets.sin(y)
        ]
        comps = np.empty((2, 2), dtype=object)
        for idx in np.ndindex(2, 2):
            weights = rng.uniform(-1, 1, size=len(basis))
            acc = None
            for w, b in zip(weights, basis):
                term = b * w
                acc = term if acc is None else acc + term
            comps[idx] = acc
        return JetTensor(comps, 0, 2)

    def test_contract_matches_trace(self):
        point = (0.9, 0.4)
        g = CURVED.evaluate(point, order=3)
        ginv = inverse_metric(g)
        t = self._random_tensor(np.random.default_rng(3), point)
        mixed = matmul(ginv, t)  # t^i_j
        tr = contract(mixed, 0, 0)[()]
        expect = np.trace(ginv.value() @ t.value())
        assert tr.value == pytest.approx(expect, rel=1e-12)

    def test_contract_slot_validation(self):
        g = CURVED.evaluate((0.9, 0.4), order=2)
        with pytest.raises(ValueError):
            contract(g, 0, 0)  # no upper slots


class TestJetTensor:
    def test_shape_checks(self):
        comps = np.empty((2, 2), dtype=object)
        comps[:] = jets.Jet.constant(1.0, 2, 2)
        with pytest.raises(ValueError):
            JetTensor(comps, 0, 1)

    def test_arithmetic(self):
        g = CURVED.evaluate((0.5, 0.5), order=2)
        z = g - g
        assert max_coeff(z) == 0.0
        doubled = 2.0 * g
        assert np.allclose(doubled.value(), 2 * g.value())


def random_jet_tensor(rng, n, rank, order=4, symmetric=False, diagonal=0.0):
    """A tensor of random order-``order`` jets in n variables; ``diagonal``
    is added to the constant terms of a rank-2 diagonal."""
    size = len(jets.multi_indices(n, order))
    comps = {}
    for idx in np.ndindex(*(n,) * sum(rank)):
        if symmetric and idx[::-1] in comps:
            comps[idx] = comps[idx[::-1]]
            continue
        c = rng.uniform(-0.5, 0.5, size)
        if len(set(idx)) == 1 and len(idx) == 2:
            c[0] += diagonal + idx[0]
        comps[idx] = jets.Jet(n, order, c)
    nested = np.empty((n,) * sum(rank), dtype=object)
    for idx, jet in comps.items():
        nested[idx] = jet
    return JetTensor(nested, *rank)


# Relative accuracy of the series inverse and the Faddeev-LeVerrier
# determinant: against the Leibniz expansions, and of g^{-1} g - Id against
# max |g| max |g^{-1}|, over every coefficient.  Measured at most 7.6e-16
# and 5.8e-16.
INVERSE_RTOL = 1e-14


@given(st.integers(2, 6), st.integers(0, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_inverse_metric_times_metric_is_the_identity(n, order, seed):
    """Random symmetric metrics of any signature with |eigenvalues| in
    [1, 4] at the point: every coefficient of g^{-1} g - Id stays within
    INVERSE_RTOL."""
    rng = np.random.default_rng(seed)
    sp = jets._space(n, order)
    c = rng.uniform(-0.5, 0.5, (n, n, sp.ncoeffs))
    c = 0.5 * (c + np.swapaxes(c, 0, 1))
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    c[..., 0] = q @ np.diag(rng.uniform(1.0, 4.0, n) * rng.choice([-1.0, 1.0], n)) @ q.T
    g = JetTensor._dense(sp, c, 0, 2)
    g_inv = inverse_metric(g)
    residual = matmul(g_inv, g).coeffs
    residual[np.arange(n), np.arange(n), 0] -= 1.0
    scale = np.max(np.abs(c)) * np.max(np.abs(g_inv.coeffs))
    assert np.max(np.abs(residual)) <= INVERSE_RTOL * scale


@pytest.mark.parametrize("n", [2, 3, 4])
class TestDenseKernelsBitwise:
    """The dense kernels against per-component loops on scalar jets, bit
    for bit at order 4, so a change in the order of a sum shows here."""

    @pytest.fixture
    def metric(self, n):
        return random_jet_tensor(np.random.default_rng(n), n, (0, 2),
                                 symmetric=True, diagonal=2.0)

    def test_determinant_and_inverse(self, n, metric):
        det, inv = determinant(metric), inverse_metric(metric)
        ref.assert_same_bits({(): det}, {(): ref.fl_determinant(metric, n)})
        ref.assert_same_bits(inv, ref.series_inverse(metric, n))
        # the Leibniz expansions agree to within INVERSE_RTOL
        leibniz = ref.determinant(lambda i, j: metric[i, j], n).coeffs
        assert np.max(np.abs(det.coeffs - leibniz)) <= INVERSE_RTOL * np.max(np.abs(leibniz))
        leibniz = np.array([[ref.inverse(metric, n)[i, j].coeffs for j in range(n)]
                            for i in range(n)])
        assert np.max(np.abs(inv.coeffs - leibniz)) <= INVERSE_RTOL * np.max(np.abs(leibniz))

    def test_christoffel(self, n, metric):
        g_inv = inverse_metric(metric)
        ref.assert_same_bits(christoffel(metric, g_inv), ref.christoffel(metric, g_inv, n))

    @pytest.mark.parametrize("rank", [(0, 1), (0, 2), (1, 1)])
    def test_covariant_derivative(self, n, metric, rank):
        gamma = christoffel(metric)
        t = random_jet_tensor(np.random.default_rng(10 * n), n, rank)
        ref.assert_same_bits(covariant_derivative(t, gamma),
                         ref.covariant_derivative(t, gamma, n))

    def test_ricci(self, n, metric):
        gamma = christoffel(metric)
        ref.assert_same_bits(ricci(gamma), ref.ricci(gamma, n))

    def test_contract(self, n, metric):
        gamma = christoffel(metric)
        for slot in (0, 1):
            ref.assert_same_bits(contract(gamma, 0, slot), ref.contract(gamma, n, 0, slot))
        mixed = random_jet_tensor(np.random.default_rng(n + 1), n, (1, 1))
        ref.assert_same_bits(contract(mixed, 0, 0), ref.contract(mixed, n, 0, 0))
