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
    apply_outer,
    build_root_system,
    build_smatrix,
    conjugate,
    fusion_product,
    qdim_table,
    verlinde_coefficient,
)
from fusionq import smatrix
from fusionq.fusion import _quantum_dimensions
from fusionq.smatrix import (
    _BLOCK_BYTES,
    _determinant_sum,
    _epsilon_map,
    _levi_cosets,
    _shared_minors,
)
from reference import alcove_reduce, smatrix_entry, verlinde_matrix, weyl_group


def _product(ctx, la, mu):
    """fusion_product of two basis weights, as a row over the basis."""
    return fusion_product(ctx, ctx.basis_element(la), ctx.basis_element(mu))


WEYL_ORDERS = {
    ("A", 2): 6,
    ("A", 3): 24,
    ("A", 6): 5040,
    ("B", 2): 8,
    ("B", 3): 48,
    ("B", 6): 46080,
    ("C", 3): 48,
    ("C", 6): 46080,
    ("D", 4): 192,
    ("D", 6): 23040,
    ("G", 2): 12,
    ("F", 4): 1152,
    ("E", 6): 51840,
}


@pytest.mark.parametrize(
    "key", sorted(WEYL_ORDERS), ids=lambda key: "-".join(map(str, key))
)
def test_weyl_group_order(key, make_rs):
    mats, signs = weyl_group(make_rs(*key))
    n = WEYL_ORDERS[key]
    assert len(mats) == len(signs) == n
    # each sign is its matrix's determinant, and they split evenly
    assert np.array_equal(np.rint(np.linalg.det(mats)), signs)
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


@pytest.mark.parametrize(
    "key", sorted(LEVI_COSETS), ids=lambda key: "-".join(map(str, key))
)
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


def _det_path_smatrix(ctx, monkeypatch):
    """build_smatrix with every determinant from np.linalg.det."""
    with monkeypatch.context() as patch:
        patch.setattr(
            smatrix, "_determinant_sum", lambda *args, shared: _determinant_sum(*args)
        )
        return build_smatrix(ctx).matrix


# Budgets for the column blocks of the shared minors.  16 MiB takes every
# column of these small cases in one block, as the default budget does; the
# ids stay the same when the default changes.
@pytest.mark.parametrize("block_bytes", [1 << 24, 1 << 14, 1])
@pytest.mark.parametrize("family,rank", CLASSICAL)
def test_shared_minors_match_det_path(family, rank, block_bytes, make_ctx, monkeypatch):
    """The one-coset S-matrix from shared minors equals the np.linalg.det
    path, in one column block, in blocks of a few columns or of one.  This
    holds the five S-matrices whose smatrix JSON is pinned in OUTPUT_DIGESTS
    (A1 k2, A3 k3, B3 k2, C3 k2, D4 k2) to that path within 1e-14."""
    for level in (1, 2, 3):
        ctx = make_ctx(family, rank, level)
        ref = _det_path_smatrix(ctx, monkeypatch)
        monkeypatch.setattr(smatrix, "_BLOCK_BYTES", block_bytes)
        assert np.max(np.abs(build_smatrix(ctx).matrix - ref)) <= 1e-14
        monkeypatch.undo()


@pytest.mark.parametrize("block_bytes", [1 << 24, 1])
def test_shared_minors_hand_made_rows(block_bytes, monkeypatch):
    """Rows in unsorted value order take the sign of their sorting
    permutation, and a row with a repeated value is exactly 0."""
    monkeypatch.setattr(smatrix, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(5)
    modulus = 13
    table = rng.normal(size=modulus) + 1j * rng.normal(size=modulus)
    X = np.array([
        [0, 2, 4, 9], [9, 4, 2, 0], [2, 0, 4, 9], [0, 9, 4, 2],  # one subset
        [11, 3, 7, 1], [1, 3, 7, 11],
        [4, 4, 9, 2], [0, 2, 9, 2], [7, 7, 7, 7],  # repeated values
    ])
    Y = np.array([[1, 2, 3, 5], [2, 7, 1, 8], [-3, 4, 6, -1], [5, -2, 9, 4]])
    got = _shared_minors(X, np.unique(X), Y, modulus, table)
    want = np.linalg.det(table[(X[:, None, :, None] * Y[None, :, None, :]) % modulus])
    assert np.all(np.abs(want[:6]) > 1e-3)
    assert np.max(np.abs(got[:6] - want[:6])) <= 1e-12
    # Reversed order is an even permutation of four; the others are odd.
    assert np.array_equal(got[1], got[0])
    assert np.array_equal(got[2], -got[0]) and np.array_equal(got[3], -got[0])
    assert np.all(got[6:] == 0)
    # Many random rows, most with a repeated value, share their subsets.
    X = rng.integers(0, 7, size=(300, 4))
    got = _shared_minors(X, np.unique(X), Y, modulus, table)
    want = np.linalg.det(table[(X[:, None, :, None] * Y[None, :, None, :]) % modulus])
    assert np.max(np.abs(got - want)) <= 1e-12
    repeated = (np.diff(np.sort(X, axis=1), axis=1) == 0).any(1)
    assert 0 < repeated.sum() < len(X) and np.all(got[repeated] == 0)


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
    E6 and E8 (2160 cosets, with the index stacks of their determinants)
    stay within the block budget.  The A6 k6 build holds S (924 x 924
    complex, 13.0 MiB) and at most twice the budget besides: the shared
    minors' columns, then the residual's row blocks."""
    assert _peak_bytes(build_smatrix, make_ctx("A", 5, 5)) < 200 * 2**20
    for key in [("E", 6, 4), ("E", 8, 4)]:
        assert _peak_bytes(build_smatrix, make_ctx(*key)) < _BLOCK_BYTES + 2**20
    ctx = make_ctx("A", 6, 6)
    n = len(ctx.basis)
    assert _peak_bytes(build_smatrix, ctx) <= 16 * n * n + 2 * _BLOCK_BYTES


def _dense_residual(S):
    """max |S S-dagger - I| from the whole product, as one BLAS call."""
    return float(np.max(np.abs(S @ S.conj().T - np.eye(len(S)))))


@pytest.mark.parametrize("block_bytes", [1, 1 << 14])
@pytest.mark.parametrize(
    "family,rank,level",
    [("A", 4, 3), ("D", 4, 2), ("G", 2, 3), ("E", 6, 2)],
    ids=str,
)
def test_blocked_residual_matches_dense(family, rank, level, block_bytes, make_sm,
                                        monkeypatch):
    """The residual from row blocks of the upper block triangle equals the
    dense max |S S-dagger - I|: within float noise on S itself, and to
    1e-12 relative on copies of S made non-unitary.  Row i leaning toward
    row j puts the largest entry at (i, j) and (j, i), off the diagonal
    blocks; a scaled last row puts it on the diagonal of the last block.  A
    NaN gives NaN.  One-coset (A4, D4) and multi-coset (G2, E6) matrices,
    in row blocks of one row or of a few (A4 k3 at 1 << 14: 35 rows in
    blocks of 11, the last of 2)."""
    sm = make_sm(family, rank, level)
    S = sm.matrix
    n = len(S)
    monkeypatch.setattr(smatrix, "_BLOCK_BYTES", block_bytes)
    if (family, block_bytes) == ("A", 1 << 14):
        step = block_bytes // (40 * n)
        assert 1 < step < n and n % step
    assert abs(sm.unitarity_residual() - _dense_residual(S)) <= 1e-15
    for i, j, delta in [(0, n - 1, 1e-3), (n // 2, 1, 5e-4j), (n - 1, n - 1, -2e-3)]:
        bad = S.copy()
        bad[i] += delta * S[j]
        got = smatrix.SMatrix(sm.ctx, bad).unitarity_residual()
        assert got > 1e-4
        assert got == pytest.approx(_dense_residual(bad), rel=1e-12)
    bad = S.copy()
    bad[n - 1, n // 2] = np.nan
    assert math.isnan(smatrix.SMatrix(sm.ctx, bad).unitarity_residual())


@pytest.mark.parametrize(
    "family,rank,level",
    [("A", 1, 2), ("A", 3, 3), ("B", 3, 2), ("C", 3, 2), ("D", 4, 2)],
    ids=str,
)
def test_blocked_residual_text(family, rank, level, make_sm):
    """On the S-matrices whose smatrix JSON is pinned in OUTPUT_DIGESTS, the
    residual text it prints (.6g) is that of the dense formula."""
    sm = make_sm(family, rank, level)
    assert f"{sm.residual:.6g}" == f"{_dense_residual(sm.matrix):.6g}"


def test_nan_smatrix_is_numeric_degradation(make_ctx, monkeypatch):
    """A NaN in S fails the unitarity check instead of passing it."""
    ctx = make_ctx("A", 2, 3)
    det_sum = smatrix._determinant_sum

    def with_nan(*args, **kwargs):
        out = det_sum(*args, **kwargs)
        out[-1, 0] = np.nan
        return out

    monkeypatch.setattr(smatrix, "_determinant_sum", with_nan)
    with pytest.raises(smatrix.NumericDegradationError, match="residual nan"):
        build_smatrix(ctx)


@pytest.mark.parametrize(
    "family,rank", [("A", 7), ("B", 7), ("C", 7), ("D", 7), ("D", 8), ("B", 9)]
)
def test_classical_smatrix_above_rank_6(family, rank, make_ctx):
    ctx = make_ctx(family, rank, 2)
    sm = build_smatrix(ctx)
    assert sm.unitarity_residual() < 1e-12
    assert np.abs(sm.matrix - sm.matrix.T).max() < 1e-12
    # A factor of small dimension keeps the exact products cheap at these ranks.
    small = [w for w in ctx.basis if ctx.rs.weyl_dimension(w[1:]) <= 600]
    rng = random.Random(7)
    for _ in range(20):
        la, mu = rng.choice(small), rng.choice(ctx.basis)
        prod = _product(ctx, la, mu)
        for nu in ctx.basis:
            assert verlinde_coefficient(sm, la, mu, nu) == prod[ctx.basis_index[nu]]


@pytest.mark.parametrize("family,rank,level", [("E", 7, 2), ("E", 7, 3), ("E", 8, 2)])
def test_e7_e8_smatrix_matches_exact_products(family, rank, level, make_sm):
    """Above rank 6 the reference is Verlinde against the exact ring."""
    sm = make_sm(family, rank, level)
    assert sm.unitarity_residual() < 1e-12
    assert np.abs(sm.matrix - sm.matrix.T).max() < 1e-12
    ctx = sm.ctx
    N, _ = verlinde_matrix(sm)
    for i, la in enumerate(ctx.basis):
        for j, mu in enumerate(ctx.basis):
            prod = _product(ctx, la, mu)
            assert [prod[ctx.basis_index[nu]] for nu in ctx.basis] == N[i, j].tolist()


@pytest.mark.parametrize("family,rank,level", [("G", 2, 3), ("F", 4, 2)])
def test_weyl_sum_matches_entries(family, rank, level, make_sm):
    sm = make_sm(family, rank, level)
    S, at = sm.matrix, sm.index
    for la in sm.basis[:5]:
        for mu in sm.basis[:5]:
            direct = smatrix_entry(sm.ctx, la[1:], mu[1:])
            assert abs(S[at(la), at(mu)] - direct) < 1e-12


@pytest.mark.parametrize(
    "family,rank,level",
    [("A", 2, 3), ("A", 3, 3), ("B", 3, 2), ("C", 3, 2), ("D", 4, 2), ("D", 5, 3)],
)
def test_unitarity_and_symmetry(family, rank, level, make_sm):
    sm = make_sm(family, rank, level)
    assert sm.unitarity_residual() < 1e-9
    assert np.abs(sm.matrix - sm.matrix.T).max() < 1e-9


@pytest.mark.parametrize("level", [1, 2, 3, 4, 62, 63])
def test_su2_closed_form(level, make_ctx):
    """S_ab = sqrt(2/(k+2)) sin(pi (a+1)(b+1)/(k+2)) in spin labels.  At
    level 62 the rows have 64 distinct values, the most the int64 bitmask
    keys of the shared minors hold (the last one sets the sign bit); at
    level 63 they have 65, so the np.linalg.det path builds S."""
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
    S, at = sm.matrix, sm.index
    for la in sm.basis[:4]:
        for mu in sm.basis[:4]:
            direct = smatrix_entry(sm.ctx, la[1:], mu[1:])
            assert abs(S[at(la), at(mu)] - direct) < 1e-12


def test_conjugation_conjugates_entries(make_sm):
    sm = make_sm("A", 3, 3)
    S, at = sm.matrix, sm.index
    ctx = sm.ctx
    for la in ctx.basis:
        star = ctx.basis[np.flatnonzero(conjugate(ctx, ctx.basis_element(la)))[0]]
        for mu in ctx.basis[:6]:
            assert abs(S[at(star), at(mu)] - S[at(la), at(mu)].conjugate()) < 1e-10


@settings(max_examples=60, deadline=None)
@given(fin=st.tuples(st.integers(-4, 7), st.integers(-4, 7)))
def test_shifted_weyl_action_sign(fin):
    """Reducing a weight multiplies its S-column by the reduction sign."""
    ctx = _ctx_a2k3()
    sm = _sm_a2k3()
    S, at = sm.matrix, sm.index
    red = alcove_reduce(ctx, (ctx.level - fin[0] - fin[1],) + fin)
    for mu in ctx.basis[:3]:
        raw = smatrix_entry(ctx, fin, mu[1:])
        if red.sign == 0:
            assert abs(raw) < 1e-9
        else:
            assert abs(raw - red.sign * S[at(red.weight), at(mu)]) < 1e-9


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
        S, at = sm.matrix, sm.index
        ctx = sm.ctx
        rs = ctx.rs
        for a, perm in rs.tau_table.items():
            if perm == tuple(range(rs.rank + 1)):
                continue
            omega = rs.fundamental_weight(perm[0])
            for la in ctx.basis:
                image = apply_outer(ctx, perm, ctx.basis_element(la))
                moved = ctx.basis[np.flatnonzero(image)[0]]
                for mu in ctx.basis[:5]:
                    phase = cmath.exp(-2j * cmath.pi * float(rs.ip(omega, mu[1:])))
                    err = abs(S[at(moved), at(mu)] - phase * S[at(la), at(mu)])
                    assert err < 1e-9, (key, a, la, mu)


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
        dims = _quantum_dimensions(ctx, ctx.basis)
        for i, qd in enumerate(dims.tolist()):
            ratio = (sm.matrix[i, zero] / sm.matrix[zero, zero]).real
            assert qd > 0
            assert abs(qd - ratio) < 1e-9


def test_element_quantum_dimension_is_linear(make_sm):
    sm = make_sm("A", 2, 2)
    ctx = sm.ctx
    u = ctx.basis_element(ctx.basis[1])
    v = ctx.basis_element(ctx.basis[2])
    lhs, du, dv = qdim_table(sm, [u + 2 * v, u, v])[:, sm.index(ctx.unit_weight)]
    assert abs(lhs - (du + 2 * dv)) < 1e-12


def test_generalized_qdim_is_multiplicative(make_sm):
    """Evaluation at any probe column is a ring homomorphism."""
    sm = make_sm("B", 2, 3)
    ctx = sm.ctx
    for mu in ctx.basis:
        for u in ctx.basis[:4]:
            for v in ctx.basis[:4]:
                u_row, v_row = ctx.basis_element(u), ctx.basis_element(v)
                prod = fusion_product(ctx, u_row, v_row)
                lhs, du, dv = qdim_table(sm, [prod, u_row, v_row])[:, sm.index(mu)]
                assert abs(lhs - du * dv) < 1e-8


def test_generalized_qdim_at_unit_column(make_sm):
    sm = make_sm("A", 3, 3)
    ctx = sm.ctx
    for w in ctx.basis:
        gq = qdim_table(sm, [ctx.basis_element(w)])[0, sm.index(ctx.unit_weight)]
        assert abs(gq - _quantum_dimensions(ctx, [w])[0]) < 1e-9
        assert abs(gq.imag) < 1e-9


def test_zero_element_has_zero_qdim_everywhere(make_sm):
    sm = make_sm("A", 2, 3)
    ctx = sm.ctx
    for mu in ctx.basis:
        assert qdim_table(sm, [ctx.zero()])[0, sm.index(mu)] == 0


def test_qdim_rejects_bare_weights(make_sm):
    """qdim_table takes rows over the basis: a bare basis weight (3 labels
    against A2 k3's 10 basis weights) raises."""
    sm = make_sm("A", 2, 3)
    with pytest.raises(ValueError):
        qdim_table(sm, [sm.ctx.basis[1]])


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
            prod = _product(ctx, ctx.basis[i], ctx.basis[j])
            for l in range(n):
                assert N[i, j, l] == prod[ctx.basis_index[ctx.basis[l]]], (i, j, l)


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
        np.flatnonzero(conjugate(ctx, ctx.basis_element(w)))[0] for w in ctx.basis
    ]
    M = N[:, :, conj_idx]
    assert np.array_equal(M, M.transpose(0, 2, 1))
