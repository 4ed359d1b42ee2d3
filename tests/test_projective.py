import math
from pathlib import Path

import numpy as np
import pytest

import jet_reference as ref
from benenti import catalog, geometry, jets, pairfile, projective
from benenti.errors import BenentiError
from benenti.geometry import (
    JetTensor,
    MetricField,
    _contract,
    christoffel,
    matmul,
)
from benenti.projective import (
    PointFrame,
    ProjectivePair,
    adjugate_family,
    check_carter_condition,
    check_connection_difference,
    check_killing,
    check_killing_tensor,
    check_phi_identity,
    check_projective_equivalence,
    check_ricci_commutation,
)
from levi_civita import LC5_BOXES, levi_civita_pair

DINI_POINT = (2.0, 1.0)


def dini():
    return catalog.get_entry("dini").pair


def fresh(pair):
    """A copy of the pair with an empty frame cache."""
    return ProjectivePair(pair.g, pair.gbar, pair.domain)


# the catalog, generated Levi-Civita pairs at n = 3 and n = 4 kept with
# the golden reports, and one at n = 5 built here
FIXTURES = Path(__file__).resolve().parent / "golden"
NAMED_PAIRS = [*catalog.list_entries(), "lc3", "lc4", "lc5"]


def named_pair(name):
    """A pair of NAMED_PAIRS with an empty frame cache."""
    if name in catalog.list_entries():
        return fresh(catalog.get_entry(name).pair)
    if name == "lc5":
        return levi_civita_pair(LC5_BOXES, name)
    return pairfile.load_pair(FIXTURES / f"{name}.yaml")


def sampled_block(pair, rows=3):
    """A ``(rows, n)`` block of nondegenerate points, as verify samples them."""
    return pair.sample_point(np.random.default_rng(13), rows=rows)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def tensor_values(t):
    return t.value()


def jet_matrix_values(t):
    return np.array([[t[i, j].value for j in range(t.dim)]
                     for i in range(t.dim)])


def jet_array(t):
    """The components of a rank-2 tensor as an object array of jets."""
    return np.array([[t[i, j] for j in range(t.dim)] for i in range(t.dim)],
                    dtype=object)


class TestStructureTensor:
    def test_dini_L_closed_form(self):
        # for g = (x-y) delta, gbar = (1/y - 1/x) diag(1/x, 1/y): L = diag(x, y)
        pair = dini()
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = pair.sample_point(rng)
            L = pair.frame(p, 2).L.value()
            assert np.allclose(L, np.diag(p), atol=1e-12)

    def test_lorentz_dini_L_closed_form(self):
        # same formulas continued to y < 0 flip the sign: L = -diag(x, y)
        pair = catalog.get_entry("lorentz_dini").pair
        p = (2.0, -0.5)
        L = pair.frame(p, 2).L.value()
        assert np.allclose(L, np.diag([-2.0, 0.5]), atol=1e-12)

    def test_beltrami_L_closed_form(self):
        # flat g, sphere-projection gbar: L = Id + x x^T
        pair = catalog.get_entry("beltrami").pair
        p = (0.4, -0.7)
        L = pair.frame(p, 2).L.value()
        x = np.array(p)
        assert np.allclose(L, np.eye(2) + np.outer(x, x), atol=1e-12)

    def test_scaled_pair_constant_L(self):
        # gbar = 4 g gives L = 4^(-1/(n+1)) Id in any dimension; here n = 2
        pair = catalog.get_entry("scaled").pair
        L = pair.frame((1.0, 0.5), 2).L.value()
        assert np.allclose(L, 4.0 ** (-1.0 / 3.0) * np.eye(2), atol=1e-14)

    def test_L_gradient_matches_finite_differences(self):
        pair = dini()
        p = np.array([1.7, 0.35])
        L = pair.frame(p, 2).L
        h = 1e-6
        for s in range(2):
            plus, minus = p.copy(), p.copy()
            plus[s] += h
            minus[s] -= h
            fd = (
                pair.frame(plus, 0).L.value() - pair.frame(minus, 0).L.value()
            ) / (2 * h)
            grad = np.array([[L[i, j].coeffs[1 + s] for j in range(2)]
                             for i in range(2)])
            assert np.allclose(grad, fd, rtol=1e-7, atol=1e-9)

    def test_L_is_self_adjoint_wrt_g(self):
        # g_is L^s_j must be symmetric for any metric pair
        for name in catalog.equivalent_entries():
            pair = catalog.get_entry(name).pair
            rng = np.random.default_rng(11)
            p = pair.sample_point(rng, shrink=0.1)
            frame = pair.frame(p, 2)
            a = np.einsum("is,sj->ij", frame.g.value(), frame.L.value())
            assert np.max(np.abs(a - a.T)) < 1e-10 * max(1.0, np.max(np.abs(a)))

    def test_eigenvalues_match_char_coeffs(self):
        pair = catalog.get_entry("trivial3").pair
        p = (1.1, 0.8, 2.0)
        bd = pair.frame(p, 2).benenti
        coeffs = [c.value for c in bd.char_coeffs]  # ascending in t
        roots = np.sort(np.roots(coeffs[::-1]))
        eigs = np.sort(pair.frame(p, 2).L_eigenvalues().real)
        assert np.allclose(roots, eigs, atol=1e-10)

    def test_a_point_where_L_cannot_be_formed_is_named(self):
        # det(gbar^-1 g) = x^2: at x = 1e-120 the order-1 coefficient of
        # |det|^(-1/3) is beyond the float range, though g is not degenerate
        g = MetricField(("x", "y"), [["x", "0"], ["0", "x"]])
        gbar = MetricField(("x", "y"), [["1", "0"], ["0", "1"]])
        pair = ProjectivePair(g, gbar)
        for points, at in (([(0.5, 0.5), (1e-120, 0.25), (1e-120, 0.5)], "(1e-120, 0.25)"),
                           ((1e-120, 0.75), "(1e-120, 0.75)")):
            with pytest.raises(BenentiError) as raised:
                PointFrame(pair, points, 1).L
            assert str(raised.value) == (f"L cannot be formed at {at}: "
                                         "pow: Taylor coefficient beyond the float range")


class TestBenentiData:
    def test_dini_point_oracle(self):
        # at (2, 1): L = diag(2, 1), lam = 3/2, dlam = (1/2, 1/2),
        # phi = (-1/4, -1/2), char poly t^2 - 3 t + 2
        bd = dini().frame(DINI_POINT, 3).benenti
        assert bd.lam.value == pytest.approx(1.5, abs=1e-14)
        assert np.allclose(bd.lam_form.value(), [0.5, 0.5], atol=1e-14)
        assert np.allclose(bd.phi_form.value(), [-0.25, -0.5], atol=1e-14)
        assert np.allclose([c.value for c in bd.char_coeffs], [2.0, -3.0, 1.0],
                           atol=1e-13)

    def test_dini_S0_K0(self):
        # S(0) = adjugate(-L) = diag(-1, -2); K(0) = g S(0) with g = delta here
        bd = dini().frame(DINI_POINT, 2).benenti
        assert np.allclose(jet_matrix_values(bd.S_coeffs[0]),
                           [[-1.0, 0.0], [0.0, -2.0]], atol=1e-14)
        assert np.allclose(bd.K_coeffs[0].value(),
                           [[-1.0, 0.0], [0.0, -2.0]], atol=1e-14)

    def test_K_coefficients_are_symmetric(self):
        for name in catalog.equivalent_entries():
            pair = catalog.get_entry(name).pair
            p = pair.sample_point(np.random.default_rng(5), shrink=0.1)
            bd = pair.frame(p, 2).benenti
            for K in bd.K_coeffs:
                v = K.value()
                assert np.max(np.abs(v - v.T)) < 1e-10 * max(1.0, np.max(np.abs(v)))

    def test_top_K_coefficient_is_metric(self):
        # S(t) = t^(n-1) Id + lower order, so the t^(n-1) part of K is g itself
        pair = catalog.get_entry("trivial3").pair
        p = (1.0, 1.2, 0.3)
        frame = pair.frame(p, 2)
        top = frame.benenti.K_coeffs[-1].value()
        assert np.allclose(top, frame.g.value(), atol=1e-13)

    def test_phi_equals_half_dlog_det_L(self):
        # phi = -(1/2) d ln |det L|, checked against central differences
        for name in ("dini", "beltrami", "lorentz_dini"):
            pair = catalog.get_entry(name).pair
            p = np.array(pair.sample_point(np.random.default_rng(2), shrink=0.1))
            phi = pair.frame(p, 2).benenti.phi_form.value()
            h = 1e-6
            fd = np.empty(pair.dim)
            for s in range(pair.dim):
                plus, minus = p.copy(), p.copy()
                plus[s] += h
                minus[s] -= h
                lp = math.log(abs(np.linalg.det(pair.frame(plus, 0).L.value())))
                lm = math.log(abs(np.linalg.det(pair.frame(minus, 0).L.value())))
                fd[s] = (lp - lm) / (2 * h)
            assert np.allclose(phi, -0.5 * fd, rtol=1e-6, atol=1e-9)

    def test_lam_is_minus_L_applied_to_phi(self):
        # the inverse-free pairing: lam_i = -L^s_i phi_s
        for name in ("dini", "beltrami", "trivial3"):
            pair = catalog.get_entry(name).pair
            p = pair.sample_point(np.random.default_rng(4), shrink=0.1)
            bd = pair.frame(p, 2).benenti
            lam = bd.lam_form.value()
            recon = -np.einsum("si,s->i", bd.L.value(), bd.phi_form.value())
            assert np.allclose(lam, recon, atol=1e-12 * max(1.0, np.max(np.abs(lam))))

    def test_lam_gradient_matches_finite_differences(self):
        pair = catalog.get_entry("beltrami").pair
        p = np.array([0.3, 0.6])
        bd = pair.frame(p, 2).benenti
        # closed form for this pair: lam = 1 + r^2 / 2 so dlam = x
        assert np.allclose(bd.lam_form.value(), p, atol=1e-12)
        h = 1e-6
        for s in range(2):
            plus, minus = p.copy(), p.copy()
            plus[s] += h
            minus[s] -= h
            lp = 0.5 * np.trace(pair.frame(plus, 0).L.value())
            lm = 0.5 * np.trace(pair.frame(minus, 0).L.value())
            assert bd.lam_form.value()[s] == pytest.approx((lp - lm) / (2 * h),
                                                           rel=1e-7, abs=1e-9)


def generic_pair(n):
    """Two full, non-equivalent metrics in n variables: every entry of L,
    S(t) and K(t) is a non-trivial jet."""
    def metric(diagonal, off):
        rows = [[diagonal(i) if i == j else off(min(i, j) + 1, max(i, j) + 1)
                 for j in range(n)] for i in range(n)]
        return MetricField([f"x{i + 1}" for i in range(n)], rows)

    g = metric(lambda i: f"{4 + i} + 0.3 * x{i + 1}^2",
               lambda a, b: f"0.3 * sin(x{a} + 2 * x{b})")
    gbar = metric(lambda i: f"{2 + i} + 0.2 * x{i + 1} * x{(i + 1) % n + 1}",
                  lambda a, b: f"0.25 * x{a} * cos(x{a} - x{b})")
    return ProjectivePair(g, gbar)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_benenti_matches_scalar_jet_loops(n):
    """PointFrame.benenti at order 4 against per-component loops on scalar
    jets, bit for bit, so a change in the order of a sum shows here.  The
    frame builds phi_form at order 0 and K_coeffs at order 1, so those are
    compared with the reference truncated to those orders."""
    frame = generic_pair(n).frame((0.3, 0.5, 0.7, 0.9)[:n], 4)
    bd = frame.benenti
    L, lam, lam_form, phi, S, K, char = ref.benenti(frame)

    def truncated(reference, order):
        return {idx: jets.truncate(jet, order) for idx, jet in reference.items()}

    ref.assert_same_bits(bd.L, L)
    ref.assert_same_bits({(): bd.lam}, {(): lam})
    ref.assert_same_bits(bd.lam_form, lam_form)
    ref.assert_same_bits(bd.phi_form, truncated(phi, 0))
    for l in range(n):
        ref.assert_same_bits(bd.S_coeffs[l], S[l])
        ref.assert_same_bits(bd.K_coeffs[l], truncated(K[l], 1))
    ref.assert_same_bits(dict(enumerate(bd.char_coeffs)), dict(enumerate(char)))


def levi_civita_3():
    """Levi-Civita normal form in three variables with X_i = x_i."""
    return levi_civita_pair(((3.0, 3.8), (1.8, 2.5), (0.4, 1.2)))


# PointFrame quantities by the lowest frame order that can compute them
FRAME_QUANTITIES = {
    0: ("g", "gbar", "g_inv", "gbar_inv", "sqrt_abs_det_g", "L"),
    1: ("gamma", "gamma_bar", "gamma_trace", "benenti", "A_coeffs"),
    2: ("ricci_tensor", "ricci_endo"),
}


def frame_coefficients(frame):
    """(name, coefficient array) of every quantity the frame's order allows."""
    out = []
    for lowest, names in FRAME_QUANTITIES.items():
        if frame.order < lowest:
            continue
        for name in names:
            value = getattr(frame, name)
            if name == "benenti":
                parts = [value.L, value.lam, value.lam_form, value.phi_form,
                         *value.S_coeffs, *value.K_coeffs, *value.char_coeffs]
            elif isinstance(value, tuple):
                parts = list(value)
            else:
                parts = [value]
            out += [(f"{name}[{i}]", part.coeffs) for i, part in enumerate(parts)]
    return out


TRUNCATION_PAIRS = [*catalog.list_entries(), "levi_civita_3", "generic_3", "lc4", "lc5"]


@pytest.mark.parametrize("name", TRUNCATION_PAIRS)
def test_lower_order_frames_are_prefixes_of_the_top_one(name):
    """Every quantity of a frame built at order k < 4 equals the leading
    coefficients of the order-4 frame's, bit for bit: the frame cache serves
    every lower order from one top-order frame per point, and the commutator
    checks read at order 3 what an order-4 frame holds.  ``lc4`` is checked
    on a block of points."""
    if name == "levi_civita_3":
        pair = levi_civita_3()
    elif name == "generic_3":
        pair = generic_pair(3)
    else:
        pair = named_pair(name)
    if name == "lc4":
        point = sampled_block(pair)
    elif pair.domain is None:
        point = (0.3, 0.5, 0.7)
    else:
        point = pair.sample_point(np.random.default_rng(5), shrink=0.1)
    top = dict(frame_coefficients(PointFrame(pair, point, 4)))
    for order in range(4):
        low = frame_coefficients(PointFrame(pair, point, order))
        assert low
        for label, coeffs in low:
            prefix = top[label][..., : coeffs.shape[-1]]
            assert prefix.shape == coeffs.shape, (order, label)
            assert np.array_equal(prefix.view(np.int64), coeffs.view(np.int64)), (
                order, label)


@pytest.mark.parametrize("name", [*catalog.list_entries(), "lc4", "lc5"])
def test_value_read_quantities_are_prefixes_of_the_order_3_ones(name):
    """An order-3 frame builds gamma_bar and phi_form at order 0 and the
    K_l at order 1, the orders their checks read; each equals the leading
    coefficients of the same quantity built at full order, bit for bit,
    with L^{-1} = -S_0 / c_0 at full order for phi.  ``lc4`` is checked on
    a block of three points."""
    pair = named_pair(name)
    if name == "lc4":
        point = sampled_block(pair)
    else:
        point = pair.sample_point(np.random.default_rng(5), shrink=0.1)
    frame = PointFrame(pair, point, 3)
    bd = frame.benenti
    assert (frame.gamma_bar.order, bd.phi_form.order) == (0, 0)
    assert {K.order for K in bd.K_coeffs} == {1}
    L_inv = (bd.S_coeffs[0] * jets.reciprocal(bd.char_coeffs[0]) * -1.0).coeffs
    sub = bd.lam_form.space
    full = {
        "gamma_bar": christoffel(frame.gbar, frame.gbar_inv).coeffs,
        "phi_form": -_contract(sub, "si,s->i", L_inv[..., : sub.ncoeffs],
                               bd.lam_form.coeffs),
    }
    capped = {"gamma_bar": frame.gamma_bar.coeffs, "phi_form": bd.phi_form.coeffs}
    for l, S in enumerate(bd.S_coeffs):
        full[f"K[{l}]"] = matmul(frame.g, S).coeffs
        capped[f"K[{l}]"] = bd.K_coeffs[l].coeffs
    for label, coeffs in capped.items():
        prefix = full[label][..., : coeffs.shape[-1]]
        assert np.array_equal(prefix.view(np.int64), coeffs.view(np.int64)), label


def test_a_frame_expands_each_determinant_once(monkeypatch):
    """A frame's one determinant is c_0 of X = gbar^{-1} g, from the one
    Faddeev-LeVerrier pass that also gives L's family; the inverses take
    none.  Only sqrt_abs_det_g, which no check reads, calls determinant."""
    calls = {"determinant": 0, "adjugate_family": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(t):
            calls[name] += 1
            return original(t)
        monkeypatch.setattr(module, name, counted)

    for module in (geometry, projective):
        counting(module, "determinant")
    counting(projective, "adjugate_family")
    pair = named_pair("lc4")
    frame = PointFrame(pair, sampled_block(pair), 3)
    for names in FRAME_QUANTITIES.values():
        for name in names:
            if name != "sqrt_abs_det_g":
                getattr(frame, name)
    assert calls == {"determinant": 0, "adjugate_family": 1}


class TestAdjugateFamily:
    def rand_L(self, rng, d, order=2):
        comps = np.empty((d, d), dtype=object)
        for i in range(d):
            for j in range(d):
                size = jets.Jet.constant(0.0, d, order).coeffs.size
                comps[i, j] = jets.Jet(d, order, rng.uniform(-1, 1, size))
        return JetTensor(comps, 1, 1)

    @pytest.mark.parametrize("d", [2, 3])
    def test_adjugate_identity_as_jets(self, d):
        # S(t) (t Id - L) = det(t Id - L) Id must hold in every jet coefficient
        rng = np.random.default_rng(d)
        L = self.rand_L(rng, d)
        S_coeffs, char = adjugate_family(L)
        for t in rng.uniform(-3, 3, 5):
            S = jet_array(S_coeffs[0])
            power = 1.0
            for c in S_coeffs[1:]:
                power *= t
                S = S + jet_array(c) * power
            tid_minus_L = -jet_array(L)
            det = char[0]
            power = 1.0
            for c in char[1:]:
                power *= t
                det = det + c * power
            for i in range(d):
                tid_minus_L[i, i] = tid_minus_L[i, i] + t
            prod = np.einsum("is,sj->ij", S, tid_minus_L)
            for i in range(d):
                for j in range(d):
                    target = det.coeffs if i == j else np.zeros_like(det.coeffs)
                    assert np.allclose(prod[i, j].coeffs, target, atol=1e-10)

    @pytest.mark.parametrize("name,point", [
        ("dini", (1.6, 0.4)),
        ("trivial3", (1.0, 1.3, 0.7)),
    ])
    def test_coefficients_match_pointwise_adjugate_interpolation(self, name, point):
        # independent route: evaluate adjugate(t Id - L) numerically on a grid
        # of n t-values and recover the polynomial coefficients by solving the
        # Vandermonde system; must match the recursion's output
        pair = catalog.get_entry(name).pair
        d = pair.dim
        frame = pair.frame(point, 2)
        S_coeffs = frame.benenti.S_coeffs
        Lv = frame.L.value()
        ts = np.linspace(0.7, 2.3, d)
        vander = np.vander(ts, d, increasing=True)
        samples = np.empty((d, d, d))
        for a, t in enumerate(ts):
            m = t * np.eye(d) - Lv
            adj = np.linalg.det(m) * np.linalg.inv(m)
            samples[a] = adj
        recovered = np.linalg.solve(vander, samples.reshape(d, d * d))
        recovered = recovered.reshape(d, d, d)
        for l in range(d):
            assert np.allclose(recovered[l],
                               jet_matrix_values(S_coeffs[l]), atol=1e-9)

    def test_two_dim_closed_form(self):
        # for n = 2 the family is S(t) = t Id + (L - trace(L) Id)
        pair = dini()
        frame = pair.frame((1.9, 0.6), 2)
        S0 = jet_matrix_values(frame.benenti.S_coeffs[0])
        S1 = jet_matrix_values(frame.benenti.S_coeffs[1])
        Lv = frame.L.value()
        assert np.allclose(S1, np.eye(2), atol=1e-14)
        assert np.allclose(S0, Lv - np.trace(Lv) * np.eye(2), atol=1e-13)

    def test_S_of_t_matches_direct_adjugate(self):
        pair = catalog.get_entry("trivial3").pair
        frame = pair.frame((0.9, 1.4, 1.1), 2)
        for t in (-1.2, 0.3, 2.5):
            direct = ref.adjugate(frame.L * -1.0 + _identity_times(frame, t), 3)
            assert np.allclose(frame.S_of_t(t).value(),
                               [[direct[i, j].value for j in range(3)] for i in range(3)],
                               atol=1e-11)


def _identity_times(frame, t):
    d = frame.dim
    comps = np.empty((d, d), dtype=object)
    sample = frame.L[0, 0]
    for i in range(d):
        for j in range(d):
            comps[i, j] = jets.Jet.constant(t if i == j else 0.0,
                                            sample.nvars, sample.order)
    return JetTensor(comps, 1, 1)


class TestEquivalenceChecks:
    @pytest.mark.parametrize("name", catalog.equivalent_entries())
    def test_equivalent_pairs_pass_pointwise_checks(self, name):
        pair = catalog.get_entry(name).pair
        rng = np.random.default_rng(17)
        for _ in range(4):
            p = pair.sample_point(rng, shrink=0.05)
            assert check_projective_equivalence(pair, p) < 1e-9
            assert check_connection_difference(pair, p) < 1e-9
            for t in (-1.0, 0.5, 2.0):
                assert check_killing_tensor(pair, t, p) < 1e-10

    @pytest.mark.parametrize("name", catalog.equivalent_entries())
    def test_equivalent_pairs_pass_curvature_checks(self, name):
        pair = catalog.get_entry(name).pair
        rng = np.random.default_rng(23)
        for _ in range(3):
            p = pair.sample_point(rng, shrink=0.05)
            assert check_ricci_commutation(pair, p) < 1e-10
            for t in (-0.5, 1.5):
                assert check_carter_condition(pair, t, p) < 1e-10

    def test_control_fails_equivalence_checks(self):
        pair = catalog.get_entry("control_nonequiv").pair
        rng = np.random.default_rng(29)
        hits = 0
        for _ in range(10):
            p = pair.sample_point(rng)
            if (check_projective_equivalence(pair, p) > 1e-2
                    and check_connection_difference(pair, p) > 1e-2):
                hits += 1
        assert hits >= 9

    def test_curved_control_fails_curvature_checks(self):
        pair = catalog.get_entry("control_nonequiv_curved").pair
        rng = np.random.default_rng(31)
        for _ in range(5):
            p = pair.sample_point(rng, shrink=0.05)
            assert check_ricci_commutation(pair, p) > 1e-3
            assert check_carter_condition(pair, 0.7, p) > 1e-3

    def test_dini_connection_difference_hand_value(self):
        # at (2, 1) the 111 component of gammabar - gamma equals 2 phi_1 = -1/2
        pair = dini()
        frame = pair.frame(DINI_POINT, 2)
        diff = frame.gamma_bar.value() - frame.gamma.value()
        assert diff[0, 0, 0] == pytest.approx(-0.5, abs=1e-12)

    def test_killing_flat_control(self):
        # K = diag(x, 0) on flat space: nabla K has a single entry 1, the
        # symmetrization keeps it, so the normalized residual is exactly 1
        flat = MetricField(("x", "y"), [["1", "0"], ["0", "1"]])
        g = flat.evaluate((0.7, -0.2), 2)
        gamma = christoffel(g)
        x_jet, _ = jets.seed_coordinates((0.7, -0.2), 1)
        zero = jets.Jet.constant(0.0, 2, 1)
        comps = np.array([[x_jet, zero], [zero, zero]], dtype=object)
        K = JetTensor(comps, 0, 2)
        assert check_killing(K, gamma) == pytest.approx(1.0, abs=1e-14)

    def test_killing_accepts_killing_vector_square(self):
        # on the round sphere K = (d phi)x(d phi) sin^4 comes from the Killing
        # field d/dphi; its symmetrized derivative must vanish
        sphere = MetricField(("theta", "phi"), [["1", "0"], ["0", "sin(theta)^2"]])
        point = (0.9, 0.4)
        g = sphere.evaluate(point, 3)
        gamma = christoffel(g)
        s = jets.sin(jets.seed_coordinates(point, 2)[0])
        k_pp = s * s * s * s
        zero = jets.Jet.constant(0.0, 2, 2)
        K = JetTensor(np.array([[zero, zero], [zero, k_pp]], dtype=object), 0, 2)
        assert check_killing(K, gamma) < 1e-14


# [candidate, row] stacks of t for a block of three points
T_STACK = np.array([[-1.0, 0.5, 2.0], [0.0, 3.0, -0.5]])


@pytest.mark.parametrize("name", ["dini", "lc4"])
def test_an_array_of_t_is_a_stack_of_single_calls(name):
    """At a point an array of t gives one result per value, and on a block a
    ``[candidate, row]`` stack one per candidate and row, each with the bits
    of its own call."""
    pair = named_pair(name)
    points = sampled_block(pair)
    for at, ts in ((points[0], T_STACK[0]), (points, T_STACK)):
        frame = pair.frame(at, 4)
        for family in (frame.S_of_t, frame.K_of_t):
            assert same_bits(family(ts).coeffs, [family(t).coeffs for t in ts])
        for check in (check_killing_tensor, check_carter_condition):
            assert same_bits(check(pair, ts, at), [check(pair, t, at) for t in ts])


PROJECTIVE_CHECKS = {
    "basic": lambda pair, points: check_projective_equivalence(pair, points),
    "connection": lambda pair, points: check_connection_difference(pair, points),
    "phi": lambda pair, points: check_phi_identity(pair, points),
    "killing": lambda pair, points: check_killing_tensor(pair, T_STACK, points),
    "ricci-comm": lambda pair, points: check_ricci_commutation(pair, points),
    "carter": lambda pair, points: check_carter_condition(pair, T_STACK, points),
}


@pytest.mark.parametrize("name", NAMED_PAIRS)
def test_checks_give_the_same_bits_on_an_order_4_frame(name):
    """Each check builds its frame at the lowest order it reads; a cached
    order-4 frame of the same points serves it, not rebuilt, with the same
    bits."""
    points = sampled_block(named_pair(name))
    for check, run in PROJECTIVE_CHECKS.items():
        cold = run(named_pair(name), points)
        pair = named_pair(name)
        top = pair.frame(points, 4)
        assert same_bits(run(pair, points), cold), check
        assert pair.frame(points, 4) is top, check


class TestPairBehavior:
    def test_mismatched_charts_rejected(self):
        a = MetricField(("x", "y"), [["1", "0"], ["0", "1"]])
        b = MetricField(("u", "v"), [["1", "0"], ["0", "1"]])
        with pytest.raises(ValueError):
            ProjectivePair(a, b)

    def test_domain_validation(self):
        a = MetricField(("x", "y"), [["1", "0"], ["0", "1"]])
        with pytest.raises(ValueError):
            ProjectivePair(a, a, domain={"x": (0, 1)})
        with pytest.raises(ValueError):
            ProjectivePair(a, a, domain={"x": (1, 0), "y": (0, 1)})

    @pytest.mark.parametrize("bounds", [(1.1, math.inf), (-math.inf, 2.0),
                                        (math.nan, 2.0), (0.0, math.nan)])
    def test_domain_bound_that_is_not_finite(self, bounds):
        # rejected where the pair is made, not in numpy when it samples
        a = MetricField(("x", "y"), [["1", "0"], ["0", "1"]])
        with pytest.raises(ValueError, match=r"domain\[y\] bound [-a-z]+ is not finite"):
            ProjectivePair(a, a, domain={"x": (0, 1), "y": bounds})
        # finite bounds out of order keep their own message
        with pytest.raises(ValueError) as err:
            ProjectivePair(a, a, domain={"x": (0, 1), "y": (2, 1)})
        assert str(err.value) == "domain[y] must be [lo, hi] with lo < hi, got [2.0, 1.0]"

    def test_integer_bound_too_large_for_a_float_is_infinite(self):
        pair = dini()
        x, y = pair.coordinates
        with pytest.raises(ValueError) as err:
            ProjectivePair(pair.g, pair.gbar, domain={x: (1, 2), y: (0, 10**400)})
        assert str(err.value) == f"domain[{y}] bound inf is not finite"

    def test_domain_off_the_chart(self):
        # named, not silently dropped
        pair = dini()
        x, y = pair.coordinates
        box = {x: (1, 2), y: (0, 1), "z": (5, 6), "w": (0, 1)}
        with pytest.raises(ValueError) as err:
            ProjectivePair(pair.g, pair.gbar, domain=box)
        assert str(err.value) == "domain names coordinates not on the chart: ['w', 'z']"

    @pytest.mark.parametrize("bound", ["a", True, np.bool_(False), None, [1.0], 1j],
                             ids=repr)
    def test_domain_bound_that_is_not_a_number(self, bound):
        pair = dini()
        x, y = pair.coordinates
        with pytest.raises(ValueError) as err:
            ProjectivePair(pair.g, pair.gbar, domain={x: (1, 2), y: (0, bound)})
        assert str(err.value) == f"domain[{y}] must be [lo, hi]: bound {bound!r} is not a number"

    @pytest.mark.parametrize("entry", [(1, 2, 3), 5, (1,), "ab", ()], ids=repr)
    def test_domain_entry_that_is_not_a_pair(self, entry):
        pair = dini()
        x, y = pair.coordinates
        with pytest.raises(ValueError) as err:
            ProjectivePair(pair.g, pair.gbar, domain={x: entry, y: (0, 1)})
        assert str(err.value) == f"domain[{x}] must be [lo, hi], got {entry!r}"

    def test_numpy_and_integer_bounds_are_numbers(self):
        pair = dini()
        x, y = pair.coordinates
        box = {x: (np.int64(1), np.float32(2.5)), y: (0, np.float64(1.0))}
        made = ProjectivePair(pair.g, pair.gbar, domain=box)
        assert made.domain == {x: (1.0, 2.5), y: (0.0, 1.0)}
        assert all(type(b) is float for lo_hi in made.domain.values() for b in lo_hi)

    def test_sampling_respects_domain(self):
        pair = dini()
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert pair.contains(pair.sample_point(rng))
        with pytest.raises(ValueError):
            ProjectivePair(pair.g, pair.gbar).sample_point(rng)

    def test_frame_cache_returns_same_object(self):
        pair = fresh(dini())
        p = (1.5, 0.5)
        assert pair.frame(p, 2) is pair.frame(p, 2)
        high = pair.frame(p, 3)
        assert high.order == 3
        # one frame per point: lower orders are served by the highest one
        assert pair.frame(p, 2) is high
        assert pair.frame(p, 0) is high
        assert pair.frame(p, 4).order == 4

    def test_negative_order_rejected(self):
        pair = fresh(dini())
        with pytest.raises(ValueError):
            pair.frame(DINI_POINT, -1)
        pair.frame(DINI_POINT, 2)
        with pytest.raises(ValueError):
            pair.frame(DINI_POINT, -1)
