"""Per-component reference versions of the tensor kernels, on scalar jets.

Each function spells out one component at a time with ``Jet`` arithmetic,
in the order of operations the dense kernels of ``benenti.geometry`` and
``benenti.projective`` promise, so the dense results must equal these bit
for bit.  Tensors are read through ``t[i, j, ...]``; results are dicts from
index tuples to jets.
"""

import itertools

import numpy as np

from benenti import jets


def assert_same_bits(tensor, expected):
    """Every component ``tensor[idx]`` equals the reference jet
    ``expected[idx]`` bit for bit."""
    for idx, jet in expected.items():
        got = tensor[idx].coeffs
        assert got.shape == jet.coeffs.shape, idx
        assert np.array_equal(got.view(np.int64), jet.coeffs.view(np.int64)), idx


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


def raise_index(t, g_inv, d, lower_slot):
    """Like ``np.einsum`` over jets: every sum starts at the integer 0."""
    u, l = t.rank
    ax = u + lower_slot
    out = {}
    for idx in np.ndindex(*(d,) * (u + l)):
        i, rest = idx[u], idx[:u] + idx[u + 1:]
        out[idx] = sum(t[rest[:ax] + (s,) + rest[ax:]] * g_inv[i, s] for s in range(d))
    return out


def benenti(frame):
    """lam, lam_form, phi, S_coeffs, K_coeffs and char_coeffs of a frame,
    from its L and g, each indexed like the frame's tensors."""
    L, g, d = frame.L, frame.g, frame.dim
    lam = first_term_sum(L[s, s] for s in range(d)) * 0.5
    lam_form = [jets.differentiate(lam, i) for i in range(d)]
    inv_det = jets.reciprocal(determinant(lambda i, j: L[i, j], d))
    adj = adjugate(L, d)
    sub = lam.order - 1
    phi = [-first_term_sum(jets.truncate(adj[s, i] * inv_det, sub) * lam_form[s]
                           for s in range(d)) for i in range(d)]
    one = jets.Jet.constant(1.0, lam.nvars, lam.order)
    zero = jets.Jet.constant(0.0, lam.nvars, lam.order)
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
    K = [{(i, j): first_term_sum(g[i, r] * Sl[r, j] for r in range(d))
          for i in range(d) for j in range(d)} for Sl in S]
    return lam, dict(enumerate(lam_form)), dict(enumerate(phi)), S, K, char
