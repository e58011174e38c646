"""Acceptance battery: ten go/no-go checks, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Tolerances are
pinned in each criterion and never loosened: integer identities are
compared exactly, numeric residuals against 1e-6 / 1e-8 / 1e-9 / 1e-10
as stated.
"""

import cmath
import time

import numpy as np
import pytest

from fusionq import (
    FusionContext,
    KRDataUnavailableError,
    WGrid,
    apply_outer,
    build_root_system,
    build_smatrix,
    check_conjecture,
    boundary_check,
    conjugate,
    fusion_product,
    fusion_products,
    kns_report,
    kr_classical_components,
    kr_element,
    qdim_table,
    restricted_solution,
)
from reference import alcove_reduce, smatrix_entry, verify_beta_chain, verlinde_matrix

# The verification matrix shared by criteria 3, 4, 5, 7, 8.
MATRIX = (
    [("A", 1, k) for k in (2, 3, 4)]
    + [("A", 2, k) for k in (2, 3, 4)]
    + [("A", 3, k) for k in (2, 3, 4)]
    + [("B", 2, k) for k in (2, 3)]
    + [("B", 3, k) for k in (2, 3)]
    + [("C", 2, k) for k in (2, 3)]
    + [("C", 3, k) for k in (2, 3)]
    + [("D", 4, k) for k in (2, 3)]
    + [("D", 5, k) for k in (2, 3)]
)

_GRIDS = {}


def case_grid(make_ctx, family, rank, level):
    key = (family, rank, level)
    if key not in _GRIDS:
        ctx = make_ctx(family, rank, level)
        _GRIDS[key] = (ctx, WGrid(ctx))
    return _GRIDS[key]


# Level-3 A3 element grid, rows m = 0..27, columns the three vertices.
# Each cell is None (zero) or (sign, affine weight).  Transcribed from
# the worked 28-row example; the rows repeat with period 28.
GOLDEN_A3K3 = {
    0: ((1, (3, 0, 0, 0)), (1, (3, 0, 0, 0)), (1, (3, 0, 0, 0))),
    1: ((1, (2, 1, 0, 0)), (1, (2, 0, 1, 0)), (1, (2, 0, 0, 1))),
    2: ((1, (1, 2, 0, 0)), (1, (1, 0, 2, 0)), (1, (1, 0, 0, 2))),
    3: ((1, (0, 3, 0, 0)), (1, (0, 0, 3, 0)), (1, (0, 0, 0, 3))),
    4: (None, None, None),
    5: (None, None, None),
    6: (None, None, None),
    7: ((-1, (0, 3, 0, 0)), (1, (0, 0, 3, 0)), (-1, (0, 0, 0, 3))),
    8: ((-1, (0, 2, 1, 0)), (1, (1, 0, 2, 0)), (-1, (0, 0, 1, 2))),
    9: ((-1, (0, 1, 2, 0)), (1, (2, 0, 1, 0)), (-1, (0, 0, 2, 1))),
    10: ((-1, (0, 0, 3, 0)), (1, (3, 0, 0, 0)), (-1, (0, 0, 3, 0))),
    11: (None, None, None),
    12: (None, None, None),
    13: (None, None, None),
    14: ((1, (0, 0, 3, 0)), (1, (3, 0, 0, 0)), (1, (0, 0, 3, 0))),
    15: ((1, (0, 0, 2, 1)), (1, (2, 0, 1, 0)), (1, (0, 1, 2, 0))),
    16: ((1, (0, 0, 1, 2)), (1, (1, 0, 2, 0)), (1, (0, 2, 1, 0))),
    17: ((1, (0, 0, 0, 3)), (1, (0, 0, 3, 0)), (1, (0, 3, 0, 0))),
    18: (None, None, None),
    19: (None, None, None),
    20: (None, None, None),
    21: ((-1, (0, 0, 0, 3)), (1, (0, 0, 3, 0)), (-1, (0, 3, 0, 0))),
    22: ((-1, (1, 0, 0, 2)), (1, (1, 0, 2, 0)), (-1, (1, 2, 0, 0))),
    23: ((-1, (2, 0, 0, 1)), (1, (2, 0, 1, 0)), (-1, (2, 1, 0, 0))),
    24: ((-1, (3, 0, 0, 0)), (1, (3, 0, 0, 0)), (-1, (3, 0, 0, 0))),
    25: (None, None, None),
    26: (None, None, None),
    27: (None, None, None),
}


def test_criterion_01_golden_table_a3():
    start = time.perf_counter()
    ctx = FusionContext(build_root_system("A", 3), 3)
    grid = WGrid(ctx)
    for m, row in GOLDEN_A3K3.items():
        for a, cell in zip((1, 2, 3), row):
            got = grid.get(a, m)
            if cell is None:
                assert np.array_equal(got, ctx.zero()), (a, m)
            else:
                sign, w = cell
                assert np.array_equal(got, sign * ctx.basis_element(w)), (a, m)
    # the displayed matrix continues by repeating with period 28
    for m in range(28, 32):
        for a in (1, 2, 3):
            assert np.array_equal(grid.get(a, m), grid.get(a, m - 28))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"golden table took {elapsed:.2f}s"
    print(f"CRITERION 1 (A3 level-3 golden table): PASS in {elapsed:.2f}s")


def test_criterion_02_d5_worked_example():
    start = time.perf_counter()
    ctx = FusionContext(build_root_system("D", 5), 4)
    red1 = alcove_reduce(ctx, (-2, 0, 3, 0, 0, 0))
    assert red1.sign == -1 and red1.weight == (0, 0, 2, 0, 0, 0)
    red2 = alcove_reduce(ctx, (-4, 0, 4, 0, 0, 0))
    assert red2.sign == -1 and red2.weight == (2, 0, 1, 0, 0, 0)
    assert np.array_equal(kr_element(ctx, 2, 4), ctx.basis_element((4, 0, 0, 0, 0, 0)))
    assert np.array_equal(kr_element(ctx, 2, 4), ctx.unit())
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"worked example took {elapsed:.2f}s"
    print(f"CRITERION 2 (D5 level-4 worked example): PASS in {elapsed:.2f}s")


def test_criterion_03_conjecture_matrix(make_ctx):
    start = time.perf_counter()
    for family, rank, level in MATRIX:
        ctx, grid = case_grid(make_ctx, family, rank, level)
        rep = check_conjecture(ctx, grid=grid)
        assert rep.ok, (family, rank, level, rep.counterexamples[:3])
        ids = {i["id"] for i in rep.items}
        assert {"i", "ii", "iii", "iv", "v", "sign", "period"} <= ids
        assert all(i["status"] == "pass" for i in rep.items)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"matrix sweep took {elapsed:.1f}s"
    print(f"CRITERION 3 (conjecture + periodicity, 21 cases): PASS in {elapsed:.1f}s")


def test_criterion_04_verlinde_oracle(make_ctx, make_sm):
    worst = 0.0
    for family, rank, level in MATRIX:
        ctx = make_ctx(family, rank, level)
        sm = make_sm(family, rank, level)
        N, resid = verlinde_matrix(sm, resid_tol=1e-6)
        worst = max(worst, resid)
        n = len(ctx.basis)
        for i in range(n):
            ei = ctx.basis_element(ctx.basis[i])
            for j in range(n):
                prod = fusion_product(ctx, ei, ctx.basis_element(ctx.basis[j]))
                for l in range(n):
                    assert N[i, j, l] == prod[ctx.basis_index[ctx.basis[l]]], (
                        family, rank, level, i, j, l,
                    )
    assert worst < 1e-6
    print(f"CRITERION 4 (Verlinde = alcove products, 21 cases): PASS, residual {worst:.2e}")


def test_criterion_05_smatrix_identities(make_sm):
    for family, rank, level in MATRIX:
        sm = make_sm(family, rank, level)
        S, at = sm.matrix, sm.index
        ctx = sm.ctx
        rs = ctx.rs
        kappa = level + rs.dual_coxeter
        assert sm.unitarity_residual() < 1e-9, (family, rank, level)

        # shifted Weyl action on sampled non-dominant arguments
        for la in ctx.basis[: min(4, len(ctx.basis))]:
            fin = list(la[1:])
            fin[0] -= 3
            fin[-1] += 1
            fin = tuple(fin)
            red = alcove_reduce(ctx, (level - sum(
                c * m for c, m in zip(fin, rs.comarks[1:])
            ),) + fin)
            for mu in ctx.basis[:3]:
                raw = smatrix_entry(ctx, fin, mu[1:])
                if red.sign == 0:
                    assert abs(raw) < 1e-8
                else:
                    assert abs(raw - red.sign * S[at(red.weight), at(mu)]) < 1e-8

        # diagram automorphism phase
        for a, perm in rs.tau_table.items():
            if perm == tuple(range(rs.rank + 1)):
                continue
            omega = rs.fundamental_weight(perm[0])
            for la in ctx.basis[:3]:
                image = apply_outer(ctx, perm, ctx.basis_element(la))
                moved = ctx.basis[np.flatnonzero(image)[0]]
                for mu in ctx.basis[:3]:
                    phase = cmath.exp(
                        -2j * cmath.pi * float(rs.ip(omega, mu[1:]))
                    )
                    assert abs(S[at(moved), at(mu)] - phase * S[at(la), at(mu)]) < 1e-8

        # conjugation
        for la in ctx.basis[:4]:
            star = ctx.basis[np.flatnonzero(conjugate(ctx, ctx.basis_element(la)))[0]]
            for mu in ctx.basis[:4]:
                assert abs(S[at(star), at(mu)] - S[at(la), at(mu)].conjugate()) < 1e-8

        # translation by (k + h-dual) times a lattice vector.  The phase law
        # needs (w sigma - sigma | mu + rho) in Z for every Weyl w, which
        # pins sigma to the sublattice pairing integrally with the root
        # lattice: all fundamental weights in simply laced types, only the
        # long-node ones otherwise.  Simple coroots always qualify and give
        # exact invariance (phase 1).
        sigmas = [
            rs.fundamental_weight(a)
            for a in range(1, rank + 1)
            if all(
                rs.ip(rs.fundamental_weight(a), rs.simple_roots[i]).denominator == 1
                for i in range(rank)
            )
        ]
        sigmas += [
            tuple(rs.t[i] * c for c in rs.simple_roots[i]) for i in range(rank)
        ]
        # every diagram-automorphism target must be covered by the valid set
        for a, perm in rs.tau_table.items():
            if perm != tuple(range(rank + 1)):
                assert rs.fundamental_weight(perm[0]) in sigmas
        for sigma in sigmas:
            for la in ctx.basis[:3]:
                fin = la[1:]
                moved = tuple(x + kappa * s for x, s in zip(fin, sigma))
                for mu in ctx.basis[:3]:
                    mu_rho = tuple(x + 1 for x in mu[1:])
                    phase = cmath.exp(
                        -2j * cmath.pi * float(rs.ip(sigma, mu_rho))
                    )
                    lhs = smatrix_entry(ctx, moved, mu[1:])
                    rhs = phase * smatrix_entry(ctx, fin, mu[1:])
                    assert abs(lhs - rhs) < 1e-8, (family, rank, level)
    print("CRITERION 5 (S-matrix identities, 21 cases): PASS")


BOUNDARY_CASES = [
    ("A", 3, 2), ("A", 4, 2), ("B", 2, 2), ("B", 3, 2), ("B", 4, 2),
    ("C", 2, 2), ("C", 3, 2), ("C", 4, 2), ("D", 4, 2), ("D", 5, 2),
    ("D", 6, 2), ("E", 6, 2), ("E", 7, 2), ("E", 8, 2), ("F", 4, 2),
    ("G", 2, 2),
]


def _lattice_conditions(rs):
    fam, r = rs.type.family, rs.rank
    w = rs.fundamental_weight

    def combo(*pairs):
        out = [0] * r
        for coef, a in pairs:
            for i, c in enumerate(w(a)):
                out[i] += coef * c
        return tuple(out)

    if fam == "B":
        return [combo((2, 1))]
    if fam == "C":
        return [combo((2, r))]
    if fam == "D" and r % 2 == 1:
        return [
            combo((2, 1)),
            combo((1, r - 1), (1, r), (-2, 1)),
            combo((2, r - 1), (-1, 1)),
            combo((2, r), (-1, 1)),
        ]
    if fam == "D":
        return [
            combo((2, 1)),
            combo((1, 1), (1, r - 1), (1, r)),
            combo((2, r - 1)),
            combo((2, r)),
        ]
    if fam == "E" and r == 6:
        return [
            combo((2, 1), (-1, 5)),
            combo((2, 5), (-1, 1)),
            combo((1, 1), (1, 5)),
        ]
    if fam == "E" and r == 7:
        return [combo((2, 6))]
    return []


def test_criterion_06_boundary_solution(make_ctx, make_rs):
    for family, rank, level in BOUNDARY_CASES:
        rep = boundary_check(make_ctx(family, rank, level))
        assert rep.ok, (family, rank, level, rep.counterexamples[:3])
        assert {i["id"] for i in rep.items} == {"ring", "lattice"}
        assert all(i["status"] == "pass" for i in rep.items)
    for family, rank in [
        ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4),
        ("D", 4), ("D", 5), ("D", 6), ("E", 6), ("E", 7),
    ]:
        rs = make_rs(family, rank)
        conds = _lattice_conditions(rs)
        assert conds, (family, rank)
        for vec in conds:
            assert rs.in_coroot_lattice(vec), (family, rank, vec)
    print("CRITERION 6 (boundary ring + lattice conditions, A-G): PASS")


def test_criterion_07_restricted_grid(make_ctx):
    saw_even = saw_odd = False
    for family, rank, level in MATRIX:
        ctx, grid = case_grid(make_ctx, family, rank, level)
        sol = restricted_solution(ctx, grid=grid)
        rep = sol.report
        assert rep.ok, (family, rank, level, rep.counterexamples[:3])
        ids = {i["id"] for i in rep.items}
        assert {"relation", "positivity"} <= ids
        saw_even |= "glue-even" in ids
        saw_odd |= "glue-odd" in ids
        if "glue-even" in ids:
            assert "overlap" in ids
        assert all(i["status"] == "pass" for i in rep.items)
    assert saw_even and saw_odd
    print("CRITERION 7 (restricted solution + gluing, 21 cases): PASS")


def test_criterion_08_kns_dimensions(make_ctx, make_sm):
    worst_gap = 0.0
    for family, rank, level in MATRIX:
        ctx, grid = case_grid(make_ctx, family, rank, level)
        sol = restricted_solution(ctx, grid=grid)
        sm = make_sm(family, rank, level)
        out = kns_report(ctx, sm, grid=grid, solution=sol, tol=1e-9)
        rep = out.report
        assert rep.ok, (family, rank, level, rep.counterexamples[:3])
        for (a, m), fv in out.f.items():
            assert 0.0 < fv < 1.0, (family, rank, level, a, m)
            worst_gap = max(worst_gap, abs((1.0 - fv) - out.x[(a, m)]))
        # strictness margins are enforced inside the report items; a
        # skipped monotone/positivity item would show up as a failure
        for wanted in ("positivity", "palindrome", "terminal", "monotone"):
            assert any(i["id"] == wanted for i in rep.items)
    assert worst_gap < 1e-9
    print(f"CRITERION 8 (KNS dimension laws, 21 cases): PASS, f-gap {worst_gap:.2e}")


CHAIN_TYPES = (
    [("A", r) for r in (1, 2, 3, 4, 5)]
    + [("B", r) for r in (2, 3, 4)]
    + [("C", r) for r in (2, 3, 4)]
    + [("D", r) for r in (4, 5, 6)]
    + [("E", 6), ("E", 7)]
)


def test_criterion_09_beta_chains(make_rs):
    start = time.perf_counter()
    total = 0
    for family, rank in CHAIN_TYPES:
        rs = make_rs(family, rank)
        assert rs.minuscule_vertices, (family, rank)
        for a in rs.minuscule_vertices:
            bc = verify_beta_chain(rs, a)
            assert len(bc.chain) == rs.dual_coxeter - 1
            omega = rs.fundamental_weight(a)
            for l, coords in enumerate(bc.chain, start=1):
                beta = tuple(
                    sum(c * comp for c, comp in zip(coords, col))
                    for col in zip(*rs.simple_roots)
                )
                assert rs.ip(omega, beta) == 1
                assert rs.ip(rs.rho, beta) == l
            total += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"chain sweep took {elapsed:.2f}s"
    # 15 vertices across A1..A5, 3 each for B and C, 9 for D, 2 + 1 for E
    assert total == 33
    print(f"CRITERION 9 (beta chains, {total} vertices): PASS in {elapsed:.2f}s")


def test_criterion_10_admissibility(make_ctx, make_sm):
    ctx, grid = case_grid(make_ctx, "D", 4, 2)
    sm = make_sm("D", 4, 2)
    unit = sm.index(ctx.unit_weight)
    sol = restricted_solution(ctx, grid=grid)
    units = np.eye(len(ctx.basis), dtype=np.int64)
    for a in (1, 2, 3, 4):
        top = ctx.rs.t[a - 1] * 2
        for m in range(top + 1):
            # Row i is R^(a)_m times basis[i].
            A = fusion_products(ctx, [(sol.get(a, m), e) for e in units])
            assert A.dtype == np.int64
            assert np.all(A >= 0), (a, m)
            pf = max(abs(np.linalg.eigvals(A.astype(np.float64))))
            qd = qdim_table(sm, [sol.get(a, m)])[0, unit]
            assert abs(pf - qd) < 1e-8, (a, m)
    # exceptional non-minuscule grids are out of scope, reported as such
    with pytest.raises(KRDataUnavailableError):
        kr_classical_components(build_root_system("E", 6), 2, 1)
    with pytest.raises(KRDataUnavailableError):
        kr_classical_components(build_root_system("F", 4), 1, 1)
    rep = check_conjecture(make_ctx("G", 2, 2))
    assert any(i["status"] == "unsupported" for i in rep.items)
    e6 = check_conjecture(make_ctx("E", 6, 2))
    assert any("conjectural" in n for n in e6.notes)
    print("CRITERION 10 (admissibility + out-of-scope reporting): PASS")
