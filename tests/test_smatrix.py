"""Modular S-matrix: unitarity, closed forms, and the Verlinde route."""

import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusionq import (
    FusionContext,
    alcove_reduce,
    build_root_system,
    build_smatrix,
    conjugate,
    element_quantum_dimension,
    fusion_product,
    generalized_qdim,
    quantum_dimension,
    smatrix_entry,
    verlinde_coefficient,
    verlinde_matrix,
    weyl_group,
)
from fusionq.smatrix import _BLOCK_BYTES, _epsilon_map, _levi_cosets

WEYL_ORDERS = {
    ("A", 2): 6,
    ("A", 3): 24,
    ("B", 2): 8,
    ("B", 3): 48,
    ("C", 3): 48,
    ("D", 4): 192,
    ("G", 2): 12,
    ("F", 4): 1152,
    ("E", 6): 51840,
}


@pytest.mark.parametrize("key", sorted(WEYL_ORDERS))
def test_weyl_group_order(key, make_rs):
    mats, signs = weyl_group(make_rs(*key))
    n = WEYL_ORDERS[key]
    assert len(mats) == len(signs) == n
    # dets split evenly between the two signs
    assert int(np.sum(signs == 1)) == n // 2
    ident = np.eye(make_rs(*key).rank, dtype=np.int64)
    assert any(np.array_equal(m, ident) for m in mats)


def test_weyl_group_rank_cap(make_rs):
    """Above rank 6 the reference refuses before allocating anything."""
    for key in [("D", 7), ("E", 7), ("E", 8)]:
        rs = make_rs(*key)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                weyl_group(rs)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()
    assert len(weyl_group(make_rs("E", 6))[1]) == 51840


# Coset count |W| / |W_J|, |W_J| and |W| for the classical Levi W_J of each type.
LEVI_COSETS = {
    ("E", 6): (27, 1920, 51840),
    ("E", 7): (126, 23040, 2903040),
    ("E", 8): (2160, 322560, 696729600),
    ("F", 4): (24, 48, 1152),
    ("G", 2): (6, 2, 12),
    ("A", 3): (1, 24, 24),
    ("C", 4): (1, 384, 384),
}


@pytest.mark.parametrize("key", sorted(LEVI_COSETS))
def test_levi_cosets(key, make_rs):
    rs = make_rs(*key)
    levi, J, mats, signs = _levi_cosets(rs)
    count, levi_order, order = LEVI_COSETS[key]
    assert len(mats) == len(signs) == count
    assert count * levi_order == order
    # The reference enumeration confirms the orders it can reach.
    for sub, size in [(rs, order), (levi, levi_order)]:
        if sub.rank <= 6:
            assert len(weyl_group(sub)[1]) == size
    assert levi.rank == len(J)
    assert [round(np.linalg.det(u)) for u in mats] == signs.tolist()
    assert len({u.tobytes() for u in mats}) == count


def test_weyl_matrices_are_orthogonal_for_form(make_rs):
    rs = make_rs("B", 2)
    mats, _ = weyl_group(rs)
    x, y = (1, 2), (3, 1)
    base = rs.ip(x, y)
    for m in mats:
        mx = tuple(int(v) for v in m @ np.array(x))
        my = tuple(int(v) for v in m @ np.array(y))
        assert rs.ip(mx, my) == base


CLASSICAL = [("A", r) for r in range(1, 6)] + [
    (f, r) for f in "BC" for r in range(2, 6)
] + [("D", r) for r in range(4, 7)]


def _both_sums(ctx, sample=None):
    """S-matrix entries and their smatrix_entry references, on every basis
    pair or on a seeded sample of that many pairs."""
    sm = build_smatrix(ctx)
    n = len(ctx.basis)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    if sample is not None:
        pairs = random.Random(11).sample(pairs, sample)
    basis = ctx.basis
    return (
        np.array([sm.matrix[i, j] for i, j in pairs]),
        np.array([smatrix_entry(ctx, basis[i][1:], basis[j][1:]) for i, j in pairs]),
    )


@pytest.mark.parametrize(
    "family,rank,level",
    [(f, r, k) for f, r in CLASSICAL for k in (1, 2, 3)]
    + [("A", 5, 5), ("G", 2, 5), ("F", 4, 3), ("E", 6, 2), ("E", 6, 4)],
)
def test_determinant_matches_weyl_sum(family, rank, level, make_ctx):
    sample = 300 if (family, rank, level) in {("A", 5, 5), ("E", 6, 4)} else None
    det, ref = _both_sums(make_ctx(family, rank, level), sample)
    assert np.max(np.abs(det - ref)) <= 1e-12


@pytest.mark.parametrize(
    "family,rank",
    [("A", r) for r in range(1, 10)]
    + [(f, r) for f in "BC" for r in range(2, 10)]
    + [("D", r) for r in range(4, 10)],
)
def test_epsilon_map_gives_gram(family, rank, make_rs):
    rs = make_rs(family, rank)
    E, c = _epsilon_map(rs)
    assert c == (Fraction(1, 2) if family == "C" else 1)
    assert len(E) == (rank + 1 if family == "A" else rank)
    for a in range(rank):
        for b in range(rank):
            assert c * sum(row[a] * row[b] for row in E) == rs.gram[a][b]


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_smatrix_peak_memory(make_ctx):
    """tracemalloc sees numpy buffers: the A5 k5 build stays far below the
    (720, 252, 252) complex Weyl-sum intermediate, and the coset builds of
    E6 and E8 (2160 cosets) stay within the block budget."""
    assert _peak_bytes(build_smatrix, make_ctx("A", 5, 5)) < 200 * 2**20
    for key in [("E", 6, 4), ("E", 8, 4)]:
        assert _peak_bytes(build_smatrix, make_ctx(*key)) < _BLOCK_BYTES + 2**20


@pytest.mark.parametrize(
    "family,rank", [("A", 7), ("B", 7), ("C", 7), ("D", 7), ("D", 8), ("B", 9)]
)
def test_classical_smatrix_above_rank_6(family, rank, make_ctx):
    ctx = make_ctx(family, rank, 2)
    sm = build_smatrix(ctx)
    assert sm.unitarity_residual() < 1e-12
    assert sm.symmetry_residual() < 1e-12
    # A factor of small dimension keeps the exact products cheap at these ranks.
    small = [w for w in ctx.basis if ctx.rs.weyl_dimension(w[1:]) <= 600]
    rng = random.Random(7)
    for _ in range(20):
        la, mu = rng.choice(small), rng.choice(ctx.basis)
        prod = fusion_product(ctx, la, mu)
        for nu in ctx.basis:
            assert verlinde_coefficient(sm, la, mu, nu) == prod.coeff(nu)


@pytest.mark.parametrize("family,rank,level", [("E", 7, 2), ("E", 7, 3), ("E", 8, 2)])
def test_e7_e8_smatrix_matches_exact_products(family, rank, level, make_sm):
    """Above rank 6 the reference is Verlinde against the exact ring."""
    sm = make_sm(family, rank, level)
    assert sm.unitarity_residual() < 1e-12
    assert sm.symmetry_residual() < 1e-12
    ctx = sm.ctx
    N, _ = verlinde_matrix(sm)
    for i, la in enumerate(ctx.basis):
        for j, mu in enumerate(ctx.basis):
            prod = fusion_product(ctx, la, mu)
            assert [prod.coeff(nu) for nu in ctx.basis] == N[i, j].tolist()


@pytest.mark.parametrize("family,rank,level", [("G", 2, 3), ("F", 4, 2)])
def test_weyl_sum_matches_entries(family, rank, level, make_sm):
    sm = make_sm(family, rank, level)
    for la in sm.basis[:5]:
        for mu in sm.basis[:5]:
            direct = smatrix_entry(sm.ctx, la[1:], mu[1:])
            assert abs(sm.entry(la, mu) - direct) < 1e-12


@pytest.mark.parametrize(
    "family,rank,level",
    [("A", 2, 3), ("A", 3, 3), ("B", 3, 2), ("C", 3, 2), ("D", 4, 2), ("D", 5, 3)],
)
def test_unitarity_and_symmetry(family, rank, level, make_sm):
    sm = make_sm(family, rank, level)
    assert sm.unitarity_residual() < 1e-9
    assert sm.symmetry_residual() < 1e-9


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_su2_closed_form(level, make_ctx):
    """S_ab = sqrt(2/(k+2)) sin(pi (a+1)(b+1)/(k+2)) in spin labels."""
    ctx = make_ctx("A", 1, level)
    sm = build_smatrix(ctx)
    kappa = level + 2
    for i, la in enumerate(ctx.basis):
        for j, mu in enumerate(ctx.basis):
            a, b = la[1], mu[1]
            expect = math.sqrt(2 / kappa) * math.sin(
                math.pi * (a + 1) * (b + 1) / kappa
            )
            assert abs(sm.matrix[i, j] - expect) < 1e-12


def test_entry_lookup_matches_matrix(make_sm):
    sm = make_sm("A", 2, 3)
    for la in sm.basis[:4]:
        for mu in sm.basis[:4]:
            direct = smatrix_entry(sm.ctx, la[1:], mu[1:])
            assert abs(sm.entry(la, mu) - direct) < 1e-12


def test_conjugation_conjugates_entries(make_sm):
    sm = make_sm("A", 3, 3)
    ctx = sm.ctx
    for la in ctx.basis:
        star = conjugate(ctx, la).support()[0]
        for mu in ctx.basis[:6]:
            assert abs(sm.entry(star, mu) - sm.entry(la, mu).conjugate()) < 1e-10


@settings(max_examples=60, deadline=None)
@given(fin=st.tuples(st.integers(-4, 7), st.integers(-4, 7)))
def test_shifted_weyl_action_sign(fin):
    """Reducing a weight multiplies its S-column by the reduction sign."""
    ctx = _ctx_a2k3()
    sm = _sm_a2k3()
    red = alcove_reduce(ctx, (ctx.level - fin[0] - fin[1],) + fin)
    for mu in ctx.basis[:3]:
        raw = smatrix_entry(ctx, fin, mu[1:])
        if red.sign == 0:
            assert abs(raw) < 1e-9
        else:
            assert abs(raw - red.sign * sm.entry(red.weight, mu)) < 1e-9


_SM_A2K3 = None
_CTX_A2K3 = None


def _ctx_a2k3():
    global _CTX_A2K3
    if _CTX_A2K3 is None:
        _CTX_A2K3 = FusionContext(build_root_system("A", 2), 3)
    return _CTX_A2K3


def _sm_a2k3():
    global _SM_A2K3
    if _SM_A2K3 is None:
        _SM_A2K3 = build_smatrix(_ctx_a2k3())
    return _SM_A2K3


def test_outer_automorphism_phase(make_sm):
    """S after a diagram rotation picks up e^{-2 pi i (omega_{tau(0)} | mu)}."""
    for key in [("A", 3, 3), ("D", 4, 2)]:
        sm = make_sm(*key)
        ctx = sm.ctx
        rs = ctx.rs
        for a, perm in rs.tau_table.items():
            if perm == tuple(range(rs.rank + 1)):
                continue
            omega = rs.fundamental_weight(perm[0])
            for la in ctx.basis:
                moved = ctx.basis_element(la).relabel(perm).support()[0]
                for mu in ctx.basis[:5]:
                    phase = cmath.exp(-2j * cmath.pi * float(rs.ip(omega, mu[1:])))
                    assert (
                        abs(sm.entry(moved, mu) - phase * sm.entry(la, mu)) < 1e-9
                    ), (key, a, la, mu)


def test_weight_lattice_translation_phase(make_sm):
    """Adding (k + h-dual) sigma twists S-entries by e^{-2 pi i (sigma|mu+rho)}."""
    sm = make_sm("A", 2, 3)
    ctx = sm.ctx
    rs = ctx.rs
    kappa = ctx.level + rs.dual_coxeter
    for sigma in [(1, 0), (0, 1), (1, 1), (2, -1)]:
        for la in ctx.basis[:4]:
            fin = la[1:]
            moved = tuple(x + kappa * s for x, s in zip(fin, sigma))
            for mu in ctx.basis[:4]:
                mu_fin = mu[1:]
                mu_rho = tuple(x + 1 for x in mu_fin)
                phase = cmath.exp(-2j * cmath.pi * float(rs.ip(sigma, mu_rho)))
                lhs = smatrix_entry(ctx, moved, mu_fin)
                rhs = phase * smatrix_entry(ctx, fin, mu_fin)
                assert abs(lhs - rhs) < 1e-8


def test_coroot_translation_invariance(make_sm):
    # translating by kappa times a coroot leaves every entry alone
    sm = make_sm("B", 3, 2)
    ctx = sm.ctx
    rs = ctx.rs
    kappa = ctx.level + rs.dual_coxeter
    coroot = tuple(rs.t[0] * c for c in rs.simple_roots[0])
    la = ctx.basis[2][1:]
    moved = tuple(x + kappa * c for x, c in zip(la, coroot))
    for mu in ctx.basis[:4]:
        assert abs(
            smatrix_entry(ctx, moved, mu[1:]) - smatrix_entry(ctx, la, mu[1:])
        ) < 1e-8


def test_quantum_dimensions_positive_and_consistent(make_sm):
    for key in [("A", 3, 3), ("B", 2, 3), ("C", 3, 2)]:
        sm = make_sm(*key)
        ctx = sm.ctx
        zero = ctx.basis_index[ctx.unit_weight]
        for i, w in enumerate(ctx.basis):
            ratio = (sm.matrix[i, zero] / sm.matrix[zero, zero]).real
            qd = quantum_dimension(ctx, w)
            assert qd > 0
            assert abs(qd - ratio) < 1e-9


def test_element_quantum_dimension_is_linear(make_ctx):
    ctx = make_ctx("A", 2, 2)
    u = ctx.basis_element(ctx.basis[1])
    v = ctx.basis_element(ctx.basis[2])
    lhs = element_quantum_dimension(ctx, u + 2 * v)
    rhs = element_quantum_dimension(ctx, u) + 2 * element_quantum_dimension(ctx, v)
    assert abs(lhs - rhs) < 1e-12


def test_generalized_qdim_is_multiplicative(make_sm):
    """Evaluation at any probe column is a ring homomorphism."""
    sm = make_sm("B", 2, 3)
    ctx = sm.ctx
    for mu in ctx.basis:
        for u in ctx.basis[:4]:
            for v in ctx.basis[:4]:
                prod = fusion_product(ctx, u, v)
                lhs = generalized_qdim(sm, prod, mu)
                rhs = generalized_qdim(sm, u, mu) * generalized_qdim(sm, v, mu)
                assert abs(lhs - rhs) < 1e-8


def test_generalized_qdim_at_unit_column(make_sm):
    sm = make_sm("A", 3, 3)
    ctx = sm.ctx
    for w in ctx.basis:
        gq = generalized_qdim(sm, w, ctx.unit_weight)
        assert abs(gq - quantum_dimension(ctx, w)) < 1e-9
        assert abs(gq.imag) < 1e-9


def test_zero_element_has_zero_qdim_everywhere(make_sm):
    sm = make_sm("A", 2, 3)
    ctx = sm.ctx
    for mu in ctx.basis:
        assert generalized_qdim(sm, ctx.zero(), mu) == 0


@pytest.mark.parametrize(
    "family,rank,level",
    [("A", 2, 3), ("B", 2, 2), ("D", 4, 2)],
)
def test_verlinde_matches_alcove_products(family, rank, level, make_sm):
    sm = make_sm(family, rank, level)
    ctx = sm.ctx
    N, resid = verlinde_matrix(sm)
    assert resid < 1e-6
    n = len(ctx.basis)
    for i in range(n):
        for j in range(n):
            prod = fusion_product(ctx, ctx.basis[i], ctx.basis[j])
            for l in range(n):
                assert N[i, j, l] == prod.coeff(ctx.basis[l]), (i, j, l)


def test_verlinde_coefficient_single(make_sm):
    sm = make_sm("A", 2, 3)
    ctx = sm.ctx
    adj = (1, 1, 1)
    assert verlinde_coefficient(sm, adj, adj, adj) == 2
    assert verlinde_coefficient(sm, adj, adj, ctx.unit_weight) == 1


def test_verlinde_tensor_symmetries(make_sm):
    sm = make_sm("B", 2, 2)
    N, _ = verlinde_matrix(sm)
    assert np.array_equal(N, N.transpose(1, 0, 2))
    # lowering the last index with conjugation gives a fully symmetric tensor
    ctx = sm.ctx
    conj_idx = [
        ctx.basis_index[conjugate(ctx, w).support()[0]] for w in ctx.basis
    ]
    M = N[:, :, conj_idx]
    assert np.array_equal(M, M.transpose(0, 2, 1))
