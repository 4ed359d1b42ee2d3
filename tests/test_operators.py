import math
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

import jet_reference as ref
from benenti import catalog, jets, operators as ops, pairfile, verify
from benenti.errors import OrderExhaustedError
from benenti.geometry import MetricField, matmul
from benenti.operators import PhaseSpacePoint
from benenti.projective import (
    PointFrame,
    ProjectivePair,
    check_carter_condition,
    check_killing_tensor,
    t_grid,
)

FLAT = MetricField(("x", "y"), [["1", "0"], ["0", "1"]])
SPHERE = MetricField(("theta", "phi"), [["1", "0"], ["0", "sin(theta)^2"]])


# generated Levi-Civita pairs at n = 3 and n = 4, kept with the golden reports
FIXTURES = Path(__file__).resolve().parent / "golden"
STACKED_PAIRS = [*catalog.list_entries(), "lc3", "lc4"]


def dini():
    return catalog.get_entry("dini").pair


def stacked_pair(name):
    if name in catalog.list_entries():
        return catalog.get_entry(name).pair
    return pairfile.load_pair(FIXTURES / f"{name}.yaml")


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def raised_killing_values(pair, t, x):
    """Independent float route to K^{(t)ij}: numpy only, no jets."""
    gv = pair.g.values(x)
    gbarv = pair.gbar.values(x)
    d = len(gv)
    ratio = abs(np.linalg.det(gbarv) / np.linalg.det(gv)) ** (1.0 / (d + 1))
    L = ratio * np.linalg.inv(gbarv) @ gv
    m = t * np.eye(d) - L
    adj = np.linalg.det(m) * np.linalg.inv(m)  # t must avoid the spectrum
    return adj @ np.linalg.inv(gv)


def fd_divergence_apply(pair, t, f, x, h=1e-4):
    """(1/w) d_i (w K^{ij} d_j f) by central differences; the stencil oracle."""
    x = np.asarray(x, dtype=float)
    d = x.size

    def w(y):
        return math.sqrt(abs(np.linalg.det(pair.g.values(y))))

    def W(y):
        K = raised_killing_values(pair, t, y)
        df = np.empty(d)
        for j in range(d):
            dy = np.zeros(d)
            dy[j] = h
            df[j] = (f(y + dy) - f(y - dy)) / (2 * h)
        return w(y) * (K @ df)

    out = 0.0
    for i in range(d):
        dy = np.zeros(d)
        dy[i] = h
        out += (W(x + dy)[i] - W(x - dy)[i]) / (2 * h)
    return out / w(x)


class TestApply:
    def test_flat_laplacian_of_square(self):
        out = ops.laplace_apply(FLAT, "x^2 + y^2", (0.3, -0.8), output_order=1)
        assert out.value == pytest.approx(4.0, abs=1e-13)
        assert np.allclose(out.coeffs[1:3], 0.0, atol=1e-13)

    def test_flat_laplacian_of_sine_at_zero(self):
        out = ops.laplace_apply(FLAT, "sin(x)", (0.0, 0.4))
        assert out.value == pytest.approx(0.0, abs=1e-13)

    def test_sphere_laplacian_closed_form(self):
        # (1/sin) d_theta(sin d_theta cos(theta)) = -2 cos(theta)
        point = (0.8, 0.3)
        out = ops.laplace_apply(SPHERE, "cos(theta)", point)
        assert out.value == pytest.approx(-2.0 * math.cos(0.8), rel=1e-12)

    def test_dini_killing_operator_matches_fd_stencil(self):
        pair = dini()
        k0 = ops.killing_operator(pair, 0.0)
        for point in ((2.0, 1.0), (1.4, 0.3)):
            got = ops.apply_operator(k0, "x * y", point).value
            want = fd_divergence_apply(
                pair, 0.0, lambda y: y[0] * y[1], point
            )
            assert got == pytest.approx(want, abs=2e-6)

    def test_divergence_forms_agree(self):
        # the Christoffel divergence against the density one, (1/w) d_i (w
        # A^ij d_j f) with w = sqrt |det g|, taken by the reference
        rng = np.random.default_rng(6)
        for name in ("dini", "beltrami", "trivial"):
            pair = catalog.get_entry(name).pair
            op = ops.killing_operator(pair, 0.5)
            for f in ("exp(%s - %s)" % pair.coordinates,
                      "%s^2 * %s" % pair.coordinates):
                p = pair.sample_point(rng, shrink=0.1)
                a = ops.apply_operator(op, f, p, output_order=1)
                b = ref.density_apply(pair.frame(p, 2), op.coefficient_tensor(p, 2),
                                      ops._function_jet(pair.coordinates, f, p, 3))
                scale = max(1.0, np.max(np.abs(a.coeffs)))
                assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-10 * scale

    def test_nested_jets_apply_as_their_jet_tensor(self):
        # a coefficient callable may return the (2,0) field as nested lists
        # of Jets, one per component, in place of a JetTensor
        pair = stacked_pair("lc3")
        d = pair.dim

        def nested(frame):
            A = frame.A_coeffs[1]
            return [[A[i, j] for j in range(d)] for i in range(d)]

        as_jets = ops.QuantizedOperator(pair, nested)
        as_tensor = ops.killing_coefficient_operator(pair, 1)
        point = pair.sample_point(np.random.default_rng(5), shrink=0.1)
        f = "x1 * exp(x2 - x3)"
        assert same_bits(ops.apply_operator(as_jets, f, point, output_order=2).coeffs,
                         ops.apply_operator(as_tensor, f, point, output_order=2).coeffs)
        points = TestStackedApplication.sampled(pair)
        other = ops.laplacian(pair)
        for got, want in zip(TestDecompose.decomposed(as_jets, other, points),
                             TestDecompose.decomposed(as_tensor, other, points)):
            assert same_bits(got, want)

    def test_constants_annihilated_exactly(self):
        op = ops.killing_operator(dini(), 1.7)
        out = ops.apply_operator(op, "3.5", (1.9, 0.4), output_order=2)
        assert np.all(out.coeffs == 0.0)

    def test_output_jet_matches_analytic_derivatives(self):
        # flat laplacian of x^3 y is 6 x y; ask for its order-2 jet
        point = (0.7, -1.1)
        out = ops.laplace_apply(FLAT, "x^3 * y", point, output_order=2)
        x, y = jets.seed_coordinates(point, 2)
        want = 6.0 * x * y
        assert np.allclose(out.coeffs, want.coeffs, atol=1e-12)

    def test_laplacian_is_top_family_coefficient(self):
        pair = dini()
        top = ops.killing_coefficient_operator(pair, pair.dim - 1)
        lap = ops.laplacian(pair)
        p = (1.5, 0.5)
        a = ops.apply_operator(top, "x^2 * y", p, output_order=1)
        b = ops.apply_operator(lap, "x^2 * y", p, output_order=1)
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-12)

    @staticmethod
    def applied(op, f, point, output_order, form):
        if form == "christoffel":
            return ops.apply_operator(op, f, point, output_order)
        m = output_order + 2
        return ref.density_apply(op.pair.frame(point, m - 1),
                                 op.coefficient_tensor(point, m - 1),
                                 ops._function_jet(op.coordinates, f, point, m))

    @pytest.mark.parametrize("name", ["dini", "trivial3"])
    @pytest.mark.parametrize("form", ["christoffel", "density"])
    def test_application_reads_the_frame_one_order_below_the_jet(self, name, form):
        # an order-m application builds its frame at m - 1; warmed at m, the
        # pair serves the order-m frame the application read before, and
        # the results agree bit for bit, by either divergence
        shared = catalog.get_entry(name).pair
        point = shared.sample_point(np.random.default_rng(8), shrink=0.1)
        f = "exp(%s - %s) * %s^2" % (shared.coordinates[0], shared.coordinates[-1],
                                     shared.coordinates[0])
        operators = (
            ops.laplacian,
            lambda pair: ops.killing_operator(pair, 0.5),
            lambda pair: ops.killing_coefficient_operator(pair, 0),
            lambda pair: ops.QuantizedOperator.from_expressions(
                pair.g, [[f"{c} * {r}" for c in pair.coordinates]
                         for r in pair.coordinates]),
        )
        for make in operators:
            for output_order in range(3):
                m = output_order + 2
                ops_at = [make(ProjectivePair(shared.g, shared.gbar, shared.domain))
                          for _ in range(2)]
                ops_at[1].pair.frame(point, m)
                got, want = (self.applied(op, f, point, output_order, form)
                             for op in ops_at)
                assert ops_at[0].pair.frame(point, 0).order == m - 1
                assert same_bits(got.coeffs, want.coeffs), (make, m)

    def test_bad_inputs_rejected(self):
        op = ops.laplacian(FLAT)
        with pytest.raises(ValueError):
            ops.apply_operator(op, "x", (0.0, 0.0), output_order=-1)
        with pytest.raises(ValueError):
            ops.killing_coefficient_operator(dini(), 2)
        with pytest.raises(ValueError):
            ops.QuantizedOperator.from_expressions(FLAT, [["1"]])

    def test_jet_factory_input(self):
        def factory(point, order):
            x, y = jets.seed_coordinates(point, order)
            return x * x + y * y

        out = ops.apply_operator(ops.laplacian(FLAT), factory, (1.0, 2.0))
        assert out.value == pytest.approx(4.0, abs=1e-13)

    def test_low_order_jet_exhausts(self):
        op = ops.laplacian(FLAT)
        x, _ = jets.seed_coordinates((0.0, 0.0), 1)
        A = op.coefficient_tensor((0.0, 0.0), 0).coeffs
        with pytest.raises(OrderExhaustedError):
            ops._apply(op.pair.frame((0.0, 0.0), 0), A, x.space, x.coeffs)


class TestCommutator:
    def test_self_commutator_vanishes(self):
        op = ops.killing_operator(dini(), 0.5)
        assert ops.commutator_apply(op, op, "exp(x)*sin(y)", (1.8, 0.7)) == 0.0

    def test_antisymmetry(self):
        pair = dini()
        a = ops.killing_operator(pair, -1.0)
        b = ops.killing_operator(pair, 2.0)
        ab = ops.commutator_apply(a, b, "x^2 * y", (1.6, 0.4))
        ba = ops.commutator_apply(b, a, "x^2 * y", (1.6, 0.4))
        assert ab == pytest.approx(-ba, rel=1e-12, abs=1e-15)

    def test_dini_family_commutes(self):
        pair = dini()
        a = ops.killing_operator(pair, 0.0)
        b = ops.killing_operator(pair, 3.0)
        rng = np.random.default_rng(8)
        for f in ("x^2 * y", "sin(x) + cos(y)", "exp(x - y)"):
            for _ in range(20):
                p = pair.sample_point(rng, shrink=0.05)
                assert ops.commutator_residual(a, b, f, p) < 1e-7

    def test_linearity_in_each_slot(self):
        pair = dini()
        ops0 = ops.killing_coefficient_operator(pair, 0)
        ops1 = ops.killing_coefficient_operator(pair, 1)
        other = ops.killing_operator(pair, 2.0)
        a, b = 0.37, -1.21

        def combo_coeffs(frame):
            ginv = frame.g_inv
            S0 = frame.benenti.S_coeffs[0]
            S1 = frame.benenti.S_coeffs[1]
            from benenti.geometry import matmul
            return a * matmul(S0, ginv) + b * matmul(S1, ginv)

        combined = ops.QuantizedOperator(pair, combo_coeffs)
        p, f = (1.7, 0.8), "exp(x) * y"
        lhs = ops.commutator_apply(combined, other, f, p)
        rhs = (a * ops.commutator_apply(ops0, other, f, p)
               + b * ops.commutator_apply(ops1, other, f, p))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_control_commutator_frozen_values(self):
        # K = diag(x, 0) on flat space: direct expansion gives
        # [Delta, K_hat] = 2 d^3/dx^3, which kills x^2 and sends x^3 to 12
        ctrl = ops.QuantizedOperator.from_expressions(
            FLAT, [["x", "0"], ["0", "0"]], name="non-killing"
        )
        lap = ops.laplacian(FLAT)
        for point in ((1.0, 0.5), (-0.3, 2.0)):
            assert ops.commutator_apply(lap, ctrl, "x^2", point) == pytest.approx(
                0.0, abs=1e-12
            )
            assert ops.commutator_apply(lap, ctrl, "x^3", point) == pytest.approx(
                12.0, rel=1e-11
            )

    def test_control_commutator_matches_nested_fd(self):
        ctrl = ops.QuantizedOperator.from_expressions(
            FLAT, [["x", "0"], ["0", "0"]], name="non-killing"
        )
        lap = ops.laplacian(FLAT)
        point = (0.9, -0.4)

        h = 2e-3

        def fd_apply(coeff_fn, f, y):
            y = np.asarray(y, dtype=float)

            def W(z):
                A = coeff_fn(z)
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

        K = lambda z: np.array([[z[0], 0.0], [0.0, 0.0]])
        G = lambda z: np.eye(2)
        f = lambda z: z[0] ** 3

        fd = (fd_apply(G, lambda z: fd_apply(K, f, z), point)
              - fd_apply(K, lambda z: fd_apply(G, f, z), point))
        got = ops.commutator_apply(lap, ctrl, "x^3", point)
        assert got == pytest.approx(fd, rel=1e-4)

    def test_grid_route_equals_literal(self):
        pair = dini()
        rng = np.random.default_rng(10)
        for f in ("x^2 * y", "exp(x - y)"):
            p = pair.sample_point(rng, shrink=0.1)
            B = ops.killing_commutator_grid(pair, f, p)
            for (t, s) in ((0.0, 3.0), (-1.0, 0.5), (2.0, 2.0)):
                val, scale = ops.commutator_from_grid(B, t, s)
                lit = ops.commutator_apply(
                    ops.killing_operator(pair, t),
                    ops.killing_operator(pair, s), f, p,
                )
                assert abs(val - lit) <= 1e-12 * scale

    def test_mismatched_charts_rejected(self):
        with pytest.raises(ValueError):
            ops.commutator_apply(
                ops.laplacian(FLAT), ops.laplacian(SPHERE), "x", (0.5, 0.5)
            )


class TestStackedApplication:
    """The stacked applications on a block of two sampled points per pair
    against one application at a time at one point at a time
    (tests/jet_reference.py), bit for bit."""

    @staticmethod
    def sampled(pair):
        return pair.sample_point(np.random.default_rng(11), rows=2)

    @pytest.mark.parametrize("name", STACKED_PAIRS)
    def test_commutator_grids_match_per_function_loops(self, name):
        pair = stacked_pair(name)
        suite = verify.function_suite(pair.coordinates)
        points = self.sampled(pair)
        grids = ops.killing_commutator_grid(pair, suite, points)  # [f, row, l, k]
        one = ops.killing_commutator_grid(pair, suite[0], points)  # a str
        assert same_bits(one, grids[0]) and one.flags.c_contiguous
        assert all(B.flags.c_contiguous for B in grids[:, 0])
        for row, point in enumerate(points):
            assert same_bits(grids[:, row], ref.commutator_grids(pair, suite, point))

    @pytest.mark.parametrize("name", STACKED_PAIRS)
    def test_decomposition_matches_per_probe_loops(self, name):
        pair = stacked_pair(name)
        points = self.sampled(pair)
        grids = t_grid(pair, points)
        t, s = (np.array([grid[k] for grid in grids]) for k in (0, -1))  # per row
        dec = ops.commutator_decompose(
            ops.killing_operator(pair, t), ops.killing_operator(pair, s), points)
        for row, point in enumerate(points):
            Q, V, cubic = ref.decompose(ops.killing_operator(pair, t[row]),
                                        ops.killing_operator(pair, s[row]), point)
            assert same_bits(dec.Q[row], Q) and same_bits(dec.V[row], V)
            assert same_bits(dec.cubic_residual[row], cubic)

    @pytest.mark.parametrize("name", ["dini", "lc4"])
    def test_stacked_candidates_match_one_call_per_column(self, name):
        pair = stacked_pair(name)
        points = self.sampled(pair)
        cols = np.array([[-1.0, 0.5], [0.0, 2.0], [3.0, -0.5]])  # [column, row]
        for check in (check_killing_tensor, check_carter_condition):
            assert same_bits(check(pair, cols, points),
                             [check(pair, c, points) for c in cols])
        phase = (points, np.array([[0.8, -0.3, 1.1, 0.2][: pair.dim],
                                   [-1.5, 0.4, 0.9, -0.7][: pair.dim]]))
        i, j = np.array(list(combinations_with_replacement(range(len(cols)), 2))).T
        assert same_bits(ops.poisson_residual(pair, cols[i], cols[j], phase),
                         [ops.poisson_residual(pair, cols[a], cols[b], phase)
                          for a, b in zip(i, j)])

    def test_commutator_record_computes_n_coefficient_fields(self, monkeypatch):
        pair = stacked_pair("lc3")
        original = ops.symmetrized  # called once per field computation
        fields = []

        def counting(t):
            fields.append(t)
            return original(t)

        monkeypatch.setattr(ops, "symmetrized", counting)
        report = verify.verify_pair(
            pair, verify.VerifyConfig(points=2, checks=("commutator",)))
        assert len(report.records) == 2
        assert len(fields) == pair.dim  # once for the block of both points


class TestDecompose:
    def test_self_decomposition_is_zero(self):
        op = ops.killing_operator(dini(), 1.0)
        dec = ops.commutator_decompose(op, op, (1.8, 0.6))
        assert dec.q_norm == 0.0 and dec.v_norm == 0.0
        assert dec.cubic_residual == 0.0

    def test_coefficient_field_is_computed_once_per_operator(self):
        # the four nested applications read each operator's field once
        pair = dini()
        calls = []

        def killing(t):
            def coefficients(frame):
                calls.append(t)
                return matmul(frame.S_of_t(t), frame.g_inv)
            return ops.QuantizedOperator(pair, coefficients)

        dec = ops.commutator_decompose(killing(0.0), killing(3.0), (1.9, 0.45))
        assert sorted(calls) == [0.0, 3.0]
        reference = ops.commutator_decompose(
            ops.killing_operator(pair, 0.0), ops.killing_operator(pair, 3.0),
            (1.9, 0.45))
        assert np.array_equal(dec.Q, reference.Q)
        assert np.array_equal(dec.V, reference.V)

    def test_equivalent_pair_decomposes_to_zero(self):
        pair = dini()
        a = ops.killing_operator(pair, 0.0)
        b = ops.killing_operator(pair, 3.0)
        rng = np.random.default_rng(12)
        for _ in range(5):
            p = pair.sample_point(rng, shrink=0.05)
            dec = ops.commutator_decompose(a, b, p)
            assert dec.q_norm < 1e-7
            assert dec.v_norm < 1e-7
            assert dec.cubic_residual < 1e-7

    @staticmethod
    def multiplied_out(monkeypatch):
        """Make commutator_decompose's probes reach _nested_values as
        products of the centred seeds, in its order of the linear, quadratic
        and cubic monomials.  Returns a list that gets one pair (the unit-jet
        probes it built, the multiplied probes) per call."""
        original, seen = ops._nested_values, []

        def multiplied(op_t, op_s, probes, points):
            u = jets.seed_coordinates(np.zeros(op_t.dim), 4)
            stacked = []
            for k in (1, 2, 3):
                for index in combinations_with_replacement(range(op_t.dim), k):
                    probe = u[index[0]]
                    for v in index[1:]:
                        probe = probe * u[v]
                    stacked.append(probe.coeffs)
            seen.append((probes, np.reshape(stacked, probes.shape)))
            return original(op_t, op_s, seen[-1][1], points)

        monkeypatch.setattr(ops, "_nested_values", multiplied)
        return seen

    @staticmethod
    def decomposed(op_t, op_s, points):
        dec = ops.commutator_decompose(op_t, op_s, points)
        return dec.Q, dec.V, dec.cubic_residual

    @pytest.mark.parametrize("name", ["dini", "lc4"])
    def test_unit_jet_probes_match_the_multiplied_probes(self, name, monkeypatch):
        pair = stacked_pair(name)
        points = TestStackedApplication.sampled(pair)
        args = (ops.killing_operator(pair, -1.0), ops.killing_operator(pair, 2.0), points)
        unit = self.decomposed(*args)
        seen = self.multiplied_out(monkeypatch)
        for got, want in zip(unit, self.decomposed(*args)):
            assert same_bits(got, want)
        (probes, multiplied), = seen
        assert same_bits(probes, multiplied)

    def test_a_field_that_is_not_finite_puts_nan_in_its_row(self):
        # inf * 0 is NaN in the products of the probes' applications, so the
        # row whose field has an infinite coefficient reads NaN in Q; the
        # other row keeps the bits of the finite field
        pair = stacked_pair("dini")
        points = TestStackedApplication.sampled(pair)

        def coefficients(infinite):
            def field(frame):
                A = frame.A_coeffs[0]
                c = A.coeffs.copy()
                if infinite:
                    c[1, 0, 1, 7] = np.inf  # a degree-3 coefficient of row 1
                return A._like(c)
            return ops.QuantizedOperator(pair, field)

        finite = self.decomposed(coefficients(False), ops.laplacian(pair), points)
        with np.errstate(invalid="ignore", over="ignore"):
            got = self.decomposed(coefficients(True), ops.laplacian(pair), points)
        assert np.isnan(got[0][1]).any()
        for g, w in zip(got, finite[:2]):
            assert same_bits(g[0], w[0])

    def test_control_decomposition_frozen_and_fd(self):
        # [Delta, K_hat] for K = diag(x^2, 0) is 4x d^3/dx^3 + 6 d^2/dx^2:
        # Q = diag(6, 0)/2 per probe convention -> Q^xx = 6, V = 0, and the
        # cubic probes see the genuine third-order part
        ctrl = ops.QuantizedOperator.from_expressions(
            FLAT, [["x^2", "0"], ["0", "0"]], name="quadratic-non-killing"
        )
        lap = ops.laplacian(FLAT)
        point = (1.0, 0.5)
        dec = ops.commutator_decompose(lap, ctrl, point)
        assert np.allclose(dec.Q, [[6.0, 0.0], [0.0, 0.0]], atol=1e-10)
        assert np.allclose(dec.V, 0.0, atol=1e-10)
        assert dec.cubic_residual > 0.1

        # finite-difference oracle for Q: nested stencil composition applied
        # to the centered quadratic probes, halved like the probe inversion
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

        K = lambda z: np.array([[z[0] ** 2, 0.0], [0.0, 0.0]])
        G = lambda z: np.eye(2)
        c = np.asarray(point, dtype=float)
        fd_Q = np.empty((2, 2))
        for a_i in range(2):
            for b_i in range(2):
                probe = lambda z: (z[a_i] - c[a_i]) * (z[b_i] - c[b_i])
                val = (fd_apply(G, lambda z: fd_apply(K, probe, z), point)
                       - fd_apply(K, lambda z: fd_apply(G, probe, z), point))
                fd_Q[a_i, b_i] = 0.5 * val
        assert np.allclose(dec.Q, fd_Q, rtol=1e-4, atol=1e-4)


class TestIntegrals:
    def test_dini_frozen_value(self):
        phi = PhaseSpacePoint((2.0, 1.0), (1.0, 1.0))
        assert ops.integral_value(dini(), 0.0, phi) == pytest.approx(-3.0, rel=1e-12)

    def test_identical_metrics_closed_form(self):
        pair = catalog.get_entry("trivial").pair
        x, p = (1.0, 0.7), (0.4, -0.9)
        ginv = np.linalg.inv(pair.g.values(x))
        quad = np.asarray(p) @ ginv @ np.asarray(p)
        for t in (-1.0, 0.0, 2.5):
            got = ops.integral_value(pair, t, PhaseSpacePoint(x, p))
            assert got == pytest.approx((t - 1.0) * quad, rel=1e-12)

    def test_zero_momentum(self):
        phi = PhaseSpacePoint((2.0, 0.5), (0.0, 0.0))
        for t in (-2.0, 0.0, 3.0):
            assert ops.integral_value(dini(), t, phi) == 0.0

    def test_polynomial_degree_bound(self):
        # in 2d the family is linear in t with the free Hamiltonian on top;
        # fitting 4 samples must produce vanishing quadratic and cubic terms
        pair = dini()
        phi = PhaseSpacePoint((1.7, 0.7), (0.8, -0.3))
        ts = np.array([-1.0, 0.3, 1.1, 2.4])
        vals = [ops.integral_value(pair, t, phi) for t in ts]
        coeffs = np.linalg.solve(np.vander(ts, 4, increasing=True), vals)
        scale = max(1.0, np.max(np.abs(coeffs)))
        assert abs(coeffs[3]) < 1e-12 * scale
        assert abs(coeffs[2]) < 1e-12 * scale
        ginv = np.linalg.inv(pair.g.values(phi.x))
        ham = np.asarray(phi.p) @ ginv @ np.asarray(phi.p)
        assert coeffs[1] == pytest.approx(ham, rel=1e-12)

    def test_phase_point_validation(self):
        with pytest.raises(ValueError):
            PhaseSpacePoint((1.0, 2.0), (1.0,))
        with pytest.raises(ValueError):
            PhaseSpacePoint((float("nan"), 0.0), (0.0, 0.0))


class TestPoisson:
    def test_equal_parameters_bracket_is_zero(self):
        phi = PhaseSpacePoint((1.9, 0.8), (0.7, 0.2))
        assert ops.poisson_bracket(dini(), 1.3, 1.3, phi) == 0.0

    def test_family_poisson_commutes(self):
        pair = dini()
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = pair.sample_point(rng, shrink=0.05)
            mom = tuple(rng.uniform(-2, 2, 2))
            phi = PhaseSpacePoint(x, mom)
            for (t, s) in ((0.0, 3.0), (-2.0, 0.5), (1.0, 2.0)):
                assert ops.poisson_residual(pair, t, s, phi) < 1e-8

    def test_integral_fields_are_built_once_per_block_and_side(self, monkeypatch):
        # the check brackets every unordered (t, s) pair of the grid, 36 of
        # them on 8 values, in one call: one stack of fields I_t per side
        original = PointFrame.A_coeffs
        reads = []

        def counting(frame):
            reads.append(len(frame.points))
            return original.func(frame)

        monkeypatch.setattr(PointFrame, "A_coeffs", property(counting))
        grid = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)
        report = verify.verify_pair(dini(), verify.VerifyConfig(
            points=2, checks=("poisson",), t_grid=grid))
        assert len(report.records) == 2
        assert reads == [2, 2]  # both points in one block

    def test_hand_value_for_flat_control(self):
        # g = 1, gbar = diag(1 + x^2, 1): L = diag(b^-2, b) with b = (1+x^2)^(1/3),
        # so I_t = (t - b) p_x^2 + (t - b^-2) p_y^2. At p = (1, 0) the bracket
        # is -2 (t - s) b'(x); at x = 1, t = 1, s = 0 that is -(4/3) 2^(-2/3)
        pair = catalog.get_entry("control_nonequiv").pair
        phi = PhaseSpacePoint((1.0, 1.0), (1.0, 0.0))
        assert ops.poisson_bracket(pair, 1.0, 0.0, phi) == pytest.approx(
            -(4.0 / 3.0) * 2.0 ** (-2.0 / 3.0), rel=1e-14
        )

    def test_bracket_matches_fd_hamiltonian_oracle(self):
        # the control pair has genuinely nonzero brackets; compare the jet
        # route against central differences of I_t on phase space
        pair = catalog.get_entry("control_nonequiv").pair
        rng = np.random.default_rng(16)
        h = 1e-5
        for _ in range(50):
            x = np.asarray(pair.sample_point(rng, shrink=0.1))
            p = rng.uniform(-2, 2, 2)
            t, s = rng.uniform(-2, 3, 2)
            fd = 0.0
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                dFt_dp = (ops.integral_value(pair, t, PhaseSpacePoint(x, p + e))
                          - ops.integral_value(pair, t, PhaseSpacePoint(x, p - e))) / (2 * h)
                dFs_dp = (ops.integral_value(pair, s, PhaseSpacePoint(x, p + e))
                          - ops.integral_value(pair, s, PhaseSpacePoint(x, p - e))) / (2 * h)
                dFt_dx = (ops.integral_value(pair, t, PhaseSpacePoint(x + e, p))
                          - ops.integral_value(pair, t, PhaseSpacePoint(x - e, p))) / (2 * h)
                dFs_dx = (ops.integral_value(pair, s, PhaseSpacePoint(x + e, p))
                          - ops.integral_value(pair, s, PhaseSpacePoint(x - e, p))) / (2 * h)
                fd += dFt_dp * dFs_dx - dFt_dx * dFs_dp
            got = ops.poisson_bracket(pair, t, s, PhaseSpacePoint(x, p))
            assert got == pytest.approx(fd, rel=1e-4, abs=1e-6)


class TestGeodesicDrift:
    def test_flat_constant_form_is_exact(self):
        pair = catalog.get_entry("beltrami").pair  # g is Euclidean
        form = lambda x: np.broadcast_to([[1.0, 0.3], [0.3, 2.0]], (len(x), 2, 2))
        phi0 = PhaseSpacePoint((0.1, -0.2), (0.5, 0.4))
        r = ops.geodesic_form_drift(pair, form, phi0, 1.0, 1e-11)
        assert r.max_drift <= 1e-12
        assert not r.exited

    def test_dini_killing_integral_conserved(self):
        pair = dini()
        x0 = (1.6, 0.75)
        p0 = tuple(pair.g.values(x0) @ np.array([0.55, -0.5]))
        phi0 = PhaseSpacePoint(x0, p0)
        r = ops.geodesic_drift(pair, 0.0, phi0, 1.0, 1e-11)
        assert r.max_drift <= 1e-8
        assert not r.exited

    def test_drift_follows_the_tolerance(self):
        # every accepted step's error estimate is within the tolerance, and
        # a tighter tolerance takes more steps to a smaller drift
        pair = dini()
        x0 = (1.6, 0.75)
        p0 = tuple(pair.g.values(x0) @ np.array([0.55, -0.5]))
        phi0 = PhaseSpacePoint(x0, p0)
        runs = [ops.geodesic_drift(pair, 0.0, phi0, 1.0, tol)
                for tol in (1e-5, 1e-7, 1e-9)]
        for r, tol in zip(runs, (1e-5, 1e-7, 1e-9)):
            assert not r.exited
            assert 0.0 < r.max_error <= tol and r.max_drift <= tol
        assert runs[0].steps < runs[1].steps < runs[2].steps
        assert runs[0].max_drift > runs[1].max_drift > runs[2].max_drift

    def test_non_conserved_form_drifts(self):
        pair = catalog.get_entry("trivial").pair
        # theta'^2, not conserved
        form = lambda x: np.broadcast_to(np.diag([1.0, 0.0]), (len(x), 2, 2))
        x0 = (1.2, 1.0)
        p0 = tuple(pair.g.values(x0) @ np.array([0.5, 0.4]))
        r = ops.geodesic_form_drift(pair, form, PhaseSpacePoint(x0, p0), 1.0, 1e-11)
        assert r.max_drift >= 1e-3

    def test_domain_exit_reported(self):
        pair = dini()
        x0 = (2.8, 0.9)
        p0 = tuple(pair.g.values(x0) @ np.array([1.5, 1.5]))
        r = ops.geodesic_drift(pair, 0.0, PhaseSpacePoint(x0, p0), 2.0, 1e-11)
        assert r.exited
        assert r.exit_time is not None and 0.0 <= r.exit_time < 2.0

    def test_bad_steps_rejected(self):
        phi0 = PhaseSpacePoint((2.0, 0.5), (0.1, 0.1))
        with pytest.raises(ValueError):
            ops.geodesic_drift(dini(), 0.0, phi0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ops.geodesic_drift(dini(), 0.0, phi0, -1.0, 1e-11)
        with pytest.raises(ValueError):  # below the rounding of the estimate
            ops.geodesic_drift(dini(), 0.0, phi0, 1.0, ops.MIN_TOLERANCE / 2)
