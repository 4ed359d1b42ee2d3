"""Per-component reference versions of the tensor kernels, on scalar jets.

Each function spells out one component at a time with ``Jet`` arithmetic,
in the order of operations the dense kernels of ``benenti.geometry``,
``benenti.projective`` and ``benenti.operators`` promise, so the dense
results must equal these bit for bit.  Tensors are read through
``t[i, j, ...]``; results are dicts from index tuples to jets.

``compose`` and ``integer_power`` take every step of the analytic
functions and of integer powers as a full product, with no shortcut for a
constant factor.

The operator references apply one operator to one jet at a time, with the
per-function and per-probe loops the stacked applications replace, and the
sampler reference draws one point at a time.  Three references are not
bitwise: ``determinant``, ``adjugate`` and ``inverse`` expand by Leibniz, as
accuracy oracles for the Faddeev-LeVerrier determinant and the series
inverse, and ``density_apply`` takes the divergence another way, as a
tolerance oracle for the Christoffel one.
"""

import itertools

import numpy as np

from benenti import expr, jets, operators
from benenti.errors import DegenerateMetricError
from benenti.projective import DEFAULT_T_GRID


def assert_same_bits(tensor, expected):
    """Every component ``tensor[idx]`` equals the reference jet
    ``expected[idx]`` bit for bit."""
    for idx, jet in expected.items():
        got = tensor[idx].coeffs
        assert got.shape == jet.coeffs.shape, idx
        assert np.array_equal(got.view(np.int64), jet.coeffs.view(np.int64)), idx


def compose(f, series):
    """``sum_k series[..., k] * (f - f.value)^k`` by Horner with every step a
    dense product, the first by the constant jet of the top coefficient."""
    w = f.coeffs.copy()
    w.T[0] = 0.0
    acc = np.zeros(w.shape)
    acc.T[0] = series.T[-1]
    for a in series.T[-2::-1]:
        acc = jets.product_coeffs(f.space, acc, w)
        acc.T[0] += a
    return jets.Jet._new(f.space, acc)


def integer_power(f, n):
    """``f ** n`` by repeated squaring from the constant 1, every factor
    taken by a dense product, ``1 * f`` and ``1 * square`` included."""
    result = jets.Jet.constant(1.0, f.nvars, f.order, f.batch)
    base = f
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def parity(perm) -> int:
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


def first_term_sum(terms):
    acc = None
    for term in terms:
        acc = term if acc is None else acc + term
    return acc


def determinant(entry, d):
    """Leibniz expansion of the d x d matrix ``entry(i, j)``."""
    terms = []
    for perm in itertools.permutations(range(d)):
        term = entry(0, perm[0])
        for i in range(1, d):
            term = term * entry(i, perm[i])
        terms.append(term * parity(perm))
    return first_term_sum(terms)


def adjugate(t, d):
    sample = t[(0,) * 2]
    if d == 1:
        return {(0, 0): jets.Jet.constant(1.0, sample.nvars, sample.order)}
    out = {}
    for i in range(d):
        rows = [r for r in range(d) if r != i]
        for j in range(d):
            cols = [c for c in range(d) if c != j]
            cof = determinant(lambda a, b: t[rows[a], cols[b]], d - 1)
            out[j, i] = cof if (i + j) % 2 == 0 else -cof
    return out


def inverse(g, d):
    inv_det = jets.reciprocal(determinant(lambda i, j: g[i, j], d))
    return {idx: a * inv_det for idx, a in adjugate(g, d).items()}


def series_inverse(t, d):
    """The inverse of ``geometry._inverse``, one component at a time: with C
    the inverse of the point value and N = t - t(x), the powers of
    P = -C N summed from +0.0 over k = 0..order, times C; each sum of
    products from its first term."""
    c = np.linalg.inv(np.array([[t[i, j].value for j in range(d)] for i in range(d)]))
    sample = t[0, 0]
    pairs = [(i, j) for i in range(d) for j in range(d)]
    tail = {(i, j): t[i, j] - t[i, j].value for i, j in pairs}
    step = {(i, j): first_term_sum(tail[s, j] * float(-c[i, s]) for s in range(d))
            for i, j in pairs}
    zero = jets.Jet.constant(0.0, sample.nvars, sample.order)
    total = {(i, j): zero + step[i, j] + (1.0 if i == j else 0.0) for i, j in pairs}
    power = step
    for _ in range(1, sample.order):
        power = {(i, j): first_term_sum(step[i, s] * power[s, j] for s in range(d))
                 for i, j in pairs}
        total = {idx: total[idx] + power[idx] for idx in pairs}
    return {(i, j): first_term_sum(total[i, s] * float(c[s, j]) for s in range(d))
            for i, j in pairs}


def adjugate_family(L, d):
    """(S, char) of ``geometry.adjugate_family`` for a dict or tensor ``L``:
    the Faddeev-LeVerrier recursion one component at a time."""
    sample = L[0, 0]
    one = jets.Jet.constant(1.0, sample.nvars, sample.order)
    zero = jets.Jet.constant(0.0, sample.nvars, sample.order)
    M = {(i, j): one if i == j else zero for i in range(d) for j in range(d)}
    S = [None] * d
    char = [None] * (d + 1)
    char[d] = one
    S[d - 1] = M

    def times_L(M):
        return {(i, j): sum(L[i, s] * M[s, j] for s in range(d))
                for i in range(d) for j in range(d)}

    for k in range(1, d):
        LM = times_L(M)
        c = first_term_sum(LM[s, s] for s in range(d)) * (-1.0 / k)
        char[d - k] = c
        M = {(i, j): LM[i, j] + c if i == j else LM[i, j] for (i, j) in LM}
        S[d - 1 - k] = M
    LM = times_L(M)
    char[0] = first_term_sum(LM[s, s] for s in range(d)) * (-1.0 / d)
    return S, char


def fl_determinant(t, d):
    """``geometry.determinant``: (-1)^d c_0 of the recursion."""
    return adjugate_family(t, d)[1][0] * (-1.0) ** d


def christoffel(g, g_inv, d):
    order = g.order - 1
    dg = {}
    for s in range(d):
        for j in range(d):
            for k in range(j, d):
                dg[s, j, k] = dg[s, k, j] = jets.differentiate(g[j, k], s)
    out = {}
    for j in range(d):
        for k in range(j, d):
            for i in range(d):
                acc = first_term_sum(
                    jets.truncate(g_inv[i, s], order)
                    * (dg[j, s, k] + dg[k, s, j] - dg[s, j, k])
                    for s in range(d)
                )
                out[i, j, k] = out[i, k, j] = 0.5 * acc
    return out


def covariant_derivative(t, gamma, d):
    u, l = t.rank
    order = min(t.order - 1, gamma.order)
    out = {}
    for idx in np.ndindex(*(d,) * (u + l + 1)):
        upper, k, lower = idx[:u], idx[u], idx[u + 1:]
        acc = jets.differentiate(jets.truncate(t[upper + lower], order + 1), k)
        for a in range(u):
            for s in range(d):
                t_idx = upper[:a] + (s,) + upper[a + 1:] + lower
                acc = acc + jets.truncate(gamma[upper[a], k, s], order) * jets.truncate(
                    t[t_idx], order)
        for b in range(l):
            for s in range(d):
                t_idx = upper + lower[:b] + (s,) + lower[b + 1:]
                acc = acc - jets.truncate(gamma[s, k, lower[b]], order) * jets.truncate(
                    t[t_idx], order)
        out[idx] = acc
    return out


def ricci(gamma, d):
    order = gamma.order - 1
    gm = {idx: jets.truncate(gamma[idx], order) for idx in np.ndindex(d, d, d)}
    out = {}
    for i in range(d):
        for j in range(i, d):
            acc = first_term_sum(
                jets.differentiate(gamma[s, i, j], s)
                - jets.differentiate(gamma[s, s, i], j)
                for s in range(d)
            )
            for s in range(d):
                for p in range(d):
                    acc = acc + (gm[s, s, p] * gm[p, i, j] - gm[s, j, p] * gm[p, s, i])
            out[i, j] = out[j, i] = acc
    return out


def contract(t, d, upper_slot, lower_slot):
    u, l = t.rank
    out = {}
    for idx in np.ndindex(*(d,) * (u + l - 2)):
        def full(s):
            rest = list(idx)
            rest.insert(upper_slot, s)
            rest.insert(u + lower_slot, s)
            return tuple(rest)
        out[idx] = first_term_sum(t[full(s)] for s in range(d))
    return out


def benenti(frame):
    """L, lam, lam_form, phi, S_coeffs, K_coeffs and char_coeffs of a frame,
    from its g and gbar, each indexed like the frame's tensors: one
    recursion over X = gbar^{-1} g, scaled by f = |c_0(X)|^(-1/(n+1))."""
    g, gbar, d = frame.g, frame.gbar, frame.dim
    gbar_inv = series_inverse(gbar, d)
    X = {(i, j): first_term_sum(gbar_inv[i, s] * g[s, j] for s in range(d))
         for i in range(d) for j in range(d)}
    S_X, char_X = adjugate_family(X, d)
    f = jets.power(jets.absolute(char_X[0]), -1.0 / (d + 1))
    powers = [None, f]
    for _ in range(1, d):
        powers.append(powers[-1] * f)
    S = [{idx: m * powers[d - 1 - l] for idx, m in S_X[l].items()} for l in range(d - 1)]
    S.append(S_X[d - 1])
    char = [char_X[l] * powers[d - l] for l in range(d)] + [char_X[d]]
    L = {idx: x * f for idx, x in X.items()}
    lam = first_term_sum(L[s, s] for s in range(d)) * 0.5
    lam_form = [jets.differentiate(lam, i) for i in range(d)]
    # L^{-1} = -S_0 / c_0
    L_inv = {idx: m * jets.reciprocal(char[0]) * -1.0 for idx, m in S[0].items()}
    sub = lam.order - 1
    phi = [-first_term_sum(jets.truncate(L_inv[s, i], sub) * lam_form[s]
                           for s in range(d)) for i in range(d)]
    K = [{(i, j): first_term_sum(g[i, r] * Sl[r, j] for r in range(d))
          for i in range(d) for j in range(d)} for Sl in S]
    return L, lam, dict(enumerate(lam_form)), dict(enumerate(phi)), S, K, char


def apply_operator(frame, A, f):
    """nabla_i (A^{ij} d_j f) for one (2,0) field ``A`` and one order-m jet
    ``f``: V^i = sum_j A^{ij} d_j f, then the sum over i of
    d_i V^i + gamma^s_{si} V^i, each sum from its first term."""
    m, d = f.order, f.nvars
    df = [jets.differentiate(f, j) for j in range(d)]
    V = [first_term_sum(jets.truncate(A[i, j], m - 1) * df[j] for j in range(d))
         for i in range(d)]
    weight = frame.gamma_trace
    return first_term_sum(
        jets.differentiate(V[i], i)
        + jets.truncate(weight[i], m - 2) * jets.truncate(V[i], m - 2)
        for i in range(d)
    )


def density_apply(frame, A, f):
    """(1/w) d_i (w A^{ij} d_j f) for one (2,0) field ``A`` and one order-m
    jet ``f``, with w = sqrt |det g| from the Leibniz determinant above:
    the divergence of the volume density, an independent route to the
    Christoffel divergence of apply_operator."""
    m, d = f.order, f.nvars
    g = frame.g
    w = jets.truncate(jets.sqrt(jets.absolute(determinant(lambda i, j: g[i, j], d))),
                      m - 1)
    df = [jets.differentiate(f, j) for j in range(d)]
    flux = [w * first_term_sum(jets.truncate(A[i, j], m - 1) * df[j] for j in range(d))
            for i in range(d)]
    div = first_term_sum(jets.differentiate(flux[i], i) for i in range(d))
    return div * jets.reciprocal(jets.truncate(w, m - 2))


def function_jet(pair, f, point):
    seeds = jets.seed_coordinates(point, 4)
    return expr.evaluate(expr.parse(f, pair.coordinates),
                         dict(zip(pair.coordinates, seeds)))


def commutator_grids(pair, functions, point):
    """[f, l, k] = (K_hat[l] K_hat[k] f)(p), one function and one
    application at a time."""
    d = pair.dim
    frame = pair.frame(point, 4)
    fields = [operators.killing_coefficient_operator(pair, l)
              .coefficient_tensor(point, 4) for l in range(d)]
    out = np.empty((len(functions), d, d))
    for n, f in enumerate(functions):
        f_jet = function_jet(pair, f, point)
        inner = [apply_operator(frame, fields[k], f_jet) for k in range(d)]
        for l in range(d):
            for k in range(d):
                out[n, l, k] = apply_operator(frame, fields[l], inner[k]).value
    return out


def nested_values(op_t, op_s, f_jet, point):
    """(op_t op_s f)(p) and (op_s op_t f)(p) for one order-4 jet."""
    frame_t, frame_s = op_t.pair.frame(point, 4), op_s.pair.frame(point, 4)
    A_t, A_s = op_t.coefficient_tensor(point, 4), op_s.coefficient_tensor(point, 4)
    inner_s = apply_operator(frame_s, A_s, f_jet)
    inner_t = apply_operator(frame_t, A_t, f_jet)
    return (apply_operator(frame_t, A_t, inner_s).value,
            apply_operator(frame_s, A_s, inner_t).value)


def decompose(op_t, op_s, point):
    """(Q, V, cubic_residual) of [op_t, op_s] at the point, one centred
    monomial probe at a time."""
    d = op_t.dim
    u = [s - s.value for s in jets.seed_coordinates(point, 4)]

    def commutator_on(probe):
        ts, st = nested_values(op_t, op_s, probe, point)
        return ts - st, max(1.0, abs(ts), abs(st))

    V = np.empty(d)
    for a in range(d):
        V[a], _ = commutator_on(u[a])
    Q = np.empty((d, d))
    for a in range(d):
        for b in range(a, d):
            value, _ = commutator_on(u[a] * u[b])
            Q[a, b] = Q[b, a] = 0.5 * value
    cubic = 0.0
    for a, b, c in itertools.combinations_with_replacement(range(d), 3):
        value, scale = commutator_on(u[a] * u[b] * u[c])
        cubic = max(cubic, abs(value) / scale)
    return Q, V, cubic


def draw(pair, rng, shrink=0.0):
    """One uniform point of the domain box, one coordinate at a time."""
    out = []
    for c in pair.coordinates:
        lo, hi = pair.domain[c]
        pad = shrink * (hi - lo) / 2
        out.append(rng.uniform(lo + pad, hi - pad))
    return tuple(out)


def sample_points(pair, cfg, rng):
    """(points, t grids) draw by draw: each draw is tested on its own
    order-0 frame, redrawn up to 100 times, and its t grid is taken from
    that frame's eigenvalues of L."""
    points, grids = [], []
    for _ in range(cfg.points):
        for _attempt in range(100):
            p = draw(pair, rng)
            try:
                eigs = pair.frame(p, 0).L_eigenvalues()
            except DegenerateMetricError:
                continue
            points.append(p)
            grids.append(tuple(t for t in DEFAULT_T_GRID
                               if np.min(np.abs(eigs - t)) > 1e-6)
                         if cfg.t_grid is None else tuple(cfg.t_grid))
            break
        else:
            raise DegenerateMetricError(
                f"could not sample a non-degenerate point in "
                f"{pair.name or 'pair'} after 100 tries"
            )
    return points, grids
