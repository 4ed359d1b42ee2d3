"""A leading batch axis gives, row by row, the bits of the unbatched code.

Every comparison here is exact: array ``exp`` or ``**`` and some batched
contractions round differently from the scalar code, so a batched kernel
that takes such a shortcut shows up as a mismatch in the last bit.
"""

import numpy as np
import pytest

from benenti import catalog, expr, geometry, jets, operators, projective, verify
from benenti.errors import (
    DegenerateMetricError,
    EvaluationDomainError,
    SingularInputError,
)
from benenti.geometry import MetricField

# Batches wider than a SIMD register, with enough rows that a rounding
# mismatch in 5 % of the values cannot hide.
ROWS = 32
JET_ROWS = 64


def same_bits(batched, singles) -> bool:
    """Batched array equals the stacked single results, bit for bit."""
    stacked = np.stack([np.asarray(s, dtype=float) for s in singles])
    return batched.shape == stacked.shape and batched.tobytes() == stacked.tobytes()


def random_jets(nvars, order, seed, low=0.3, high=2.0):
    """A batch of jets with constant terms in [low, high], and its rows."""
    ncoeffs = len(jets.multi_indices(nvars, order))
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.5, 1.5, size=(JET_ROWS, ncoeffs))
    coeffs[:, 0] = rng.uniform(low, high, size=JET_ROWS)
    batch = jets.Jet(nvars, order, coeffs)
    return batch, [jets.Jet(nvars, order, row) for row in coeffs]


SPACES = [(1, 4), (2, 1), (2, 4), (3, 2)]

UNARY = {
    "reciprocal": jets.reciprocal,
    "power 2": lambda f: jets.power(f, 2),
    "power 3": lambda f: jets.power(f, 3),
    "power -1": lambda f: jets.power(f, -1),
    "power -2": lambda f: jets.power(f, -2),
    "power 1/2": lambda f: jets.power(f, 0.5),
    "power -1/3": lambda f: jets.power(f, -1 / 3),
    "power 1.7": lambda f: jets.power(f, 1.7),
    "sqrt": jets.sqrt,
    "sin": jets.sin,
    "cos": jets.cos,
    "exp": jets.exp,
    "log": jets.log,
    "abs": jets.absolute,
    "negate": lambda f: -f,
    "scalar ops": lambda f: (2.5 - f) * 0.3 + 1.25 / f - 4.0,
}


class TestBatchedJets:
    @pytest.mark.parametrize("nvars, order", SPACES)
    def test_product(self, nvars, order):
        a, a_rows = random_jets(nvars, order, 1)
        b, b_rows = random_jets(nvars, order, 2)
        assert same_bits((a * b).coeffs, [(x * y).coeffs for x, y in zip(a_rows, b_rows)])
        assert same_bits((a / b).coeffs, [(x / y).coeffs for x, y in zip(a_rows, b_rows)])
        assert same_bits((a - b).coeffs, [(x - y).coeffs for x, y in zip(a_rows, b_rows)])

    @pytest.mark.parametrize("name", sorted(UNARY))
    @pytest.mark.parametrize("nvars, order", SPACES)
    def test_unary(self, name, nvars, order):
        fn = UNARY[name]
        f, rows = random_jets(nvars, order, 3)
        assert same_bits(fn(f).coeffs, [fn(r).coeffs for r in rows])

    @pytest.mark.parametrize("nvars, order", SPACES)
    def test_truncate_and_differentiate(self, nvars, order):
        f, rows = random_jets(nvars, order, 4)
        assert same_bits(jets.truncate(f, 0).coeffs,
                         [jets.truncate(r, 0).coeffs for r in rows])
        for i in range(nvars):
            assert same_bits(jets.differentiate(f, i).coeffs,
                             [jets.differentiate(r, i).coeffs for r in rows])

    def test_values_and_batch_size(self):
        f, rows = random_jets(2, 3, 5)
        assert f.batch == JET_ROWS and rows[0].batch is None
        assert same_bits(f.value, [r.value for r in rows])

    @pytest.mark.parametrize("fn", [jets.absolute, jets.sin, jets.exp])
    def test_constant_terms_of_both_signs(self, fn):
        f, rows = random_jets(2, 3, 12, low=-2.0, high=2.0)
        assert same_bits(fn(f).coeffs, [fn(r).coeffs for r in rows])

    @pytest.mark.parametrize("fn, low", [
        (jets.log, 0.0),
        (jets.sqrt, 0.0),
        (jets.reciprocal, 0.0),
        (lambda f: jets.power(f, -1), 0.0),
        (lambda f: jets.power(f, 0.25), -0.5),
        (jets.absolute, 0.0),
    ])
    def test_an_off_domain_row_fails_the_batch(self, fn, low):
        f, _ = random_jets(2, 2, 6)
        coeffs = f.coeffs.copy()
        coeffs[3, 0] = low
        with pytest.raises(SingularInputError):
            fn(jets.Jet(2, 2, coeffs))

    def test_batches_must_match_in_products(self):
        a, _ = random_jets(2, 2, 7)
        single = jets.Jet.constant(1.0, 2, 2)
        with pytest.raises(ValueError):
            a * single

    def test_products_of_many_blocks(self):
        # 495 table terms at order 4 in 4 variables: the 7 x 40 broadcast
        # rows span several blocks of BLOCK_TERMS, the last one partly full
        sp = jets._space(4, 4)
        rng = np.random.default_rng(9)
        a = rng.uniform(-1.5, 1.5, size=(7, 1, sp.ncoeffs))
        b = rng.uniform(-1.5, 1.5, size=(40, sp.ncoeffs))
        rows = jets.BLOCK_TERMS // len(sp._mul[0])
        assert 7 * 40 > 2 * rows and 7 * 40 % rows
        singles = [[(jets.Jet(4, 4, x) * jets.Jet(4, 4, y)).coeffs for y in b]
                   for x in a[:, 0]]
        assert same_bits(jets.product_coeffs(sp, a, b), singles)
        assert 0 < len(sp._bins) <= jets.BLOCK_TERMS  # the slots of one block

    @staticmethod
    def zero_jet_factors(poison):
        """7 x 40 broadcast factors, several blocks of rows, that mix all-zero
        jets, all -0.0 jets and jets with one nonzero coefficient among
        ordinary ones; ``poison`` goes into a row that meets a zero row."""
        sp = jets._space(4, 4)
        rng = np.random.default_rng(11)
        a = rng.uniform(-1.5, 1.5, size=(7, 1, sp.ncoeffs))
        b = rng.uniform(-1.5, 1.5, size=(40, sp.ncoeffs))
        a[1], a[2], b[3], b[5] = 0.0, -0.0, 0.0, -0.0
        a[3, 0, 1:] = b[7, :-1] = 0.0
        if poison is not None:
            a[4, 0, 3], a[4, 0, 5] = poison  # a[4] times b[3] is NaN
            b[9, 0] = poison[0]  # b[9] times a[1] too
        return sp, a, b

    @pytest.mark.parametrize("poison", [None, (np.nan, 1.0), (np.inf, -np.inf)])
    def test_products_with_zero_jets(self, poison):
        # rows with an all-zero factor have the bits of their own product,
        # +0.0 where the other factor is finite and NaN where it is not
        sp, a, b = self.zero_jet_factors(poison)
        assert 7 * 40 > 2 * sp.block_rows
        with np.errstate(invalid="ignore"):  # inf * 0
            singles = [[(jets.Jet(4, 4, x) * jets.Jet(4, 4, y)).coeffs for y in b]
                       for x in a[:, 0]]
            assert same_bits(jets.product_coeffs(sp, a, b), singles)

    @pytest.mark.parametrize("poison", [None, (np.nan, 1.0)])
    def test_rows_with_a_zero_factor_are_not_multiplied(self, poison, monkeypatch):
        sp, a, b = self.zero_jet_factors(poison)
        original, inner = jets.product_coeffs, []

        def counting(sp, x, y):
            inner.append((x, y))
            return original(sp, x, y)

        monkeypatch.setattr(jets, "product_coeffs", counting)
        original(sp, a, b)  # the block driver, whose blocks call counting
        rows = sum(len(x) for x, _ in inner)  # each block gathers its rows
        live = a.any(-1) & b.any(-1)  # [7, 40]
        assert 1 < len(inner) and all(len(x) <= sp.block_rows for x, _ in inner)
        if poison is None:  # only live rows reach the inner products
            assert rows == live.sum() < 7 * 40
            assert all(x.any(-1).all() and y.any(-1).all() for x, y in inner)
        else:  # a coefficient that is not finite makes every row live
            assert rows == 7 * 40

    def test_seed_coordinates(self):
        pts = np.random.default_rng(8).uniform(-2, 2, size=(ROWS, 3))
        batched = jets.seed_coordinates(pts, 2)
        singles = [jets.seed_coordinates(p, 2) for p in pts]
        for i in range(3):
            assert same_bits(batched[i].coeffs, [s[i].coeffs for s in singles])


TEXTS = [
    "x * y - 3.5 / (x + 2*y)",
    "x^2 + y^3 - x^(-1) + y^(-2)",
    "x^(-1/3) * y^(1/2) + (x*y)^1.7",
    "exp(x - y) + ln(x * y) - sqrt(x + y)",
    "sin(x)^2 * cos(y) + abs(y - 7)",
]


class TestBatchedExpressions:
    @pytest.mark.parametrize("text", TEXTS)
    def test_floats_and_jets(self, text):
        e = expr.parse(text, ("x", "y"))
        pts = np.random.default_rng(9).uniform(0.2, 3.0, size=(ROWS, 2))
        floats = expr.evaluate(e, {"x": pts[:, 0], "y": pts[:, 1]})
        assert same_bits(floats, [expr.evaluate(e, {"x": a, "y": b}) for a, b in pts])
        for order in (1, 3):
            seeds = jets.seed_coordinates(pts, order)
            batched = expr.evaluate(e, dict(zip(("x", "y"), seeds)))
            singles = [
                expr.evaluate(e, dict(zip(("x", "y"), jets.seed_coordinates(p, order))))
                for p in pts
            ]
            assert same_bits(batched.coeffs, [s.coeffs for s in singles])

    @pytest.mark.parametrize("text", ["ln(x)", "sqrt(x)", "1 / (x + 1)", "x^(1/3)", "y / (x - 1)"])
    def test_an_off_domain_point_fails_the_batch(self, text):
        e = expr.parse(text, ("x", "y"))
        xs = np.array([2.0, 3.0, -1.0, 1.0])
        ys = np.ones(4)
        with pytest.raises(EvaluationDomainError):
            expr.evaluate(e, {"x": xs, "y": ys})
        with pytest.raises(EvaluationDomainError):
            seeds = jets.seed_coordinates(np.stack([xs, ys], axis=1), 1)
            expr.evaluate(e, dict(zip(("x", "y"), seeds)))


def catalog_points(pair, count=ROWS, seed=10):
    rng = np.random.default_rng(seed)
    return np.array([pair.sample_point(rng) for _ in range(count)])


@pytest.mark.parametrize("name", catalog.list_entries())
class TestBatchedMetrics:
    def test_values(self, name):
        pair = catalog.get_entry(name).pair
        pts = catalog_points(pair)
        for metric in (pair.g, pair.gbar):
            assert same_bits(metric.values(pts), [metric.values(p) for p in pts])

    def test_evaluate(self, name):
        pair = catalog.get_entry(name).pair
        pts = catalog_points(pair)
        for order in (0, 1, 2):
            batched = pair.g.evaluate(pts, order)
            singles = [pair.g.evaluate(p, order) for p in pts]
            assert same_bits(batched.value(), [s.value() for s in singles])
            for idx in np.ndindex(pair.dim, pair.dim):
                assert same_bits(batched[idx].coeffs,
                                 [s[idx].coeffs for s in singles])

    def test_christoffel_values(self, name):
        pair = catalog.get_entry(name).pair
        pts = catalog_points(pair, seed=11)
        singles = [geometry.christoffel_values(pair.g, p) for p in pts]
        for size in (1, 3, ROWS):
            for start in range(0, len(pts) - size + 1, size):
                batched = geometry.christoffel_values(pair.g, pts[start:start + size])
                assert same_bits(batched, singles[start:start + size])

    def test_structure_values(self, name):
        pair = catalog.get_entry(name).pair
        pts = catalog_points(pair, seed=12)
        ts = np.linspace(-2.0, 3.0, len(pts))
        gv, S = operators._structure_values(pair, pts)
        singles = [operators._structure_values(pair, p) for p in pts]
        assert same_bits(gv, [s[0] for s in singles])
        forms = gv @ projective._polynomial(S, ts, 2)
        assert same_bits(forms, [g @ projective._polynomial(s, t, 2)
                                 for (g, s), t in zip(singles, ts)])

    def test_drift_starts(self, name):
        # the start momenta read the metric of all starts in one call; each
        # must still be the per-point g.values(x0) @ v
        pair = catalog.get_entry(name).pair
        config = verify.VerifyConfig(points=7, drift_trajectories=7, seed=5,
                                     drift_horizon=0.02, checks=("drift",))
        records = verify.verify_pair(pair, config).records
        assert len(records) == 7
        for rec in records:
            params = dict(rec.params)
            momentum = pair.g.values(np.array(rec.point)) @ np.array(params["velocity"])
            assert np.array(params["momentum"]).tobytes() == momentum.tobytes()


def test_a_degenerate_point_fails_the_batch():
    metric = MetricField(("x", "y"), [["1", "0"], ["0", "x"]])
    pts = np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 3.0]])
    with pytest.raises(DegenerateMetricError, match=r"\(0.0, 3.0\)"):
        metric.values(pts)
    with pytest.raises(DegenerateMetricError):
        metric.evaluate(pts, 1)
    assert metric.values(pts[:2]).shape == (2, 2, 2)
