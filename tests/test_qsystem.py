"""Kirillov-Reshetikhin elements and the Q-system checks built on them."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fusionq import (
    KRDataUnavailableError,
    WGrid,
    admissibility_matrix,
    apply_outer,
    boundary_check,
    build_smatrix,
    check_conjecture,
    check_unrestricted,
    conjugate,
    coupling_matrix,
    element_quantum_dimension,
    fusion_product,
    generalized_qdim,
    generate_w_grid,
    kns_report,
    kr_classical_components,
    kr_element,
    open_index_set,
    period_multiplier,
    restricted_solution,
    solve_f_system,
    supported_vertices,
    uniqueness_check,
    zero_string_lemmas,
)

# -- component multisets ------------------------------------------------------

COMPONENTS = {
    # (family, rank, a, m) -> finite highest weights, one per summand
    ("A", 3, 2, 3): ((0, 3, 0),),
    ("B", 2, 2, 2): ((0, 2), (0, 0)),
    ("B", 2, 2, 1): ((0, 1),),
    ("B", 3, 3, 2): ((0, 0, 2), (1, 0, 0)),
    ("B", 3, 2, 2): ((0, 2, 0), (0, 1, 0), (0, 0, 0)),
    ("C", 3, 2, 2): ((2, 0, 0), (0, 2, 0), (0, 0, 0)),
    ("C", 2, 1, 3): ((3, 0), (1, 0)),
    ("D", 4, 2, 1): ((0, 1, 0, 0), (0, 0, 0, 0)),
    ("D", 5, 1, 3): ((3, 0, 0, 0, 0),),
    ("D", 5, 3, 1): ((0, 0, 1, 0, 0), (1, 0, 0, 0, 0)),
    ("E", 6, 1, 2): ((2, 0, 0, 0, 0, 0),),
}


@pytest.mark.parametrize("key", sorted(COMPONENTS))
def test_kr_components(key, make_rs):
    family, rank, a, m = key
    got = kr_classical_components(make_rs(family, rank), a, m)
    assert sorted(got) == sorted(COMPONENTS[key])


def test_kr_components_m_zero(make_rs):
    for fam, r in [("A", 2), ("B", 3), ("C", 3), ("D", 4)]:
        rs = make_rs(fam, r)
        for a in range(1, r + 1):
            assert kr_classical_components(rs, a, 0) == ((0,) * r,)


def test_kr_components_total_weight(make_rs):
    """Every summand differs from m omega_a by something in the root cone."""
    for fam, r in [("B", 3), ("C", 3), ("D", 5)]:
        rs = make_rs(fam, r)
        for a in range(1, r + 1):
            for m in (1, 2, 3):
                top = tuple(m * c for c in rs.fundamental_weight(a))
                for w in kr_classical_components(rs, a, m):
                    diff = tuple(tc - wc for tc, wc in zip(top, w))
                    assert rs.in_root_lattice_cone(diff), (a, m, w)


def test_kr_components_bad_input(make_rs):
    rs = make_rs("B", 3)
    with pytest.raises(ValueError):
        kr_classical_components(rs, 0, 1)
    with pytest.raises(ValueError):
        kr_classical_components(rs, 4, 1)
    with pytest.raises(ValueError):
        kr_classical_components(rs, 1, -1)


def test_kr_components_unavailable(make_rs):
    with pytest.raises(KRDataUnavailableError):
        kr_classical_components(make_rs("G", 2), 1, 1)
    with pytest.raises(KRDataUnavailableError):
        kr_classical_components(make_rs("E", 6), 2, 1)
    with pytest.raises(KRDataUnavailableError):
        kr_classical_components(make_rs("F", 4), 1, 1)


def test_supported_vertices(make_rs):
    assert supported_vertices(make_rs("C", 3)) == (1, 2, 3)
    assert supported_vertices(make_rs("D", 5)) == (1, 2, 3, 4, 5)
    assert supported_vertices(make_rs("E", 6)) == (1, 5)
    assert supported_vertices(make_rs("E", 7)) == (6,)
    assert supported_vertices(make_rs("E", 8)) == ()
    assert supported_vertices(make_rs("G", 2)) == ()


# -- the element grid ---------------------------------------------------------


def test_kr_element_su2(make_ctx):
    ctx = make_ctx("A", 1, 2)
    assert kr_element(ctx, 1, 0) == ctx.unit()
    assert kr_element(ctx, 1, 1) == ctx.basis_element((1, 1))
    assert kr_element(ctx, 1, 2) == ctx.basis_element((0, 2))
    assert kr_element(ctx, 1, 3) == ctx.zero()
    # one full span later the current returns with a sign
    assert kr_element(ctx, 1, 4) == -ctx.basis_element((0, 2))
    assert kr_element(ctx, 1, 8) == ctx.unit()


def test_kr_element_collapse_d5(make_ctx):
    """At level 4 the D5 element W_4 at the second vertex folds to the unit."""
    ctx = make_ctx("D", 5, 4)
    assert kr_element(ctx, 2, 4) == ctx.unit()


def test_wgrid_basics(make_ctx):
    ctx = make_ctx("A", 2, 2)
    grid = WGrid(ctx)
    assert grid.get(1, -1) == ctx.zero()
    assert grid.get(1, 0) == ctx.unit()
    assert grid.get(2, 1) == ctx.basis_element((1, 0, 1))
    # memoized: same object back
    assert grid.get(2, 1) is grid.get(2, 1)
    assert grid.default_horizon(1) == period_multiplier(ctx.rs) * (2 + 3)


def test_wgrid_rejects_unsupported(make_ctx):
    with pytest.raises(KRDataUnavailableError):
        WGrid(make_ctx("G", 2, 2), vertices=(1,))


def test_generate_w_grid_matches_lazy(make_ctx):
    ctx = make_ctx("B", 2, 2)
    eager = generate_w_grid(ctx)
    lazy = WGrid(ctx)
    for a in (1, 2):
        for m in range(lazy.default_horizon(a)):
            assert eager.get(a, m) == lazy.get(a, m)


def test_period_multiplier(make_rs):
    assert period_multiplier(make_rs("A", 3)) == 4
    assert period_multiplier(make_rs("A", 2)) == 3
    assert period_multiplier(make_rs("B", 3)) == 2
    assert period_multiplier(make_rs("C", 3)) == 2
    assert period_multiplier(make_rs("D", 4)) == 2
    assert period_multiplier(make_rs("D", 5)) == 4
    assert period_multiplier(make_rs("E", 6)) == 3
    assert period_multiplier(make_rs("E", 7)) == 2
    assert period_multiplier(make_rs("G", 2)) == 1


# -- structure checks ---------------------------------------------------------


def test_conjecture_report_a2(make_ctx):
    ctx = make_ctx("A", 2, 2)
    rep = check_conjecture(ctx)
    assert rep.ok
    assert not rep.counterexamples
    ids = {i["id"] for i in rep.items}
    assert {"i", "ii", "iii", "iv", "v", "sign", "period"} <= ids
    assert all(i["status"] == "pass" for i in rep.items)


def test_conjecture_item_keys_unique(make_ctx):
    rep = check_conjecture(make_ctx("A", 2, 2))
    keys = [(i["id"], i["vertex"], i["m"]) for i in rep.items]
    assert len(keys) == len(set(keys))


def test_conjecture_horizon_clamp(make_ctx):
    ctx = make_ctx("A", 2, 2)
    rep = check_conjecture(ctx, horizon=3)
    assert rep.ok
    assert max(i["m"] for i in rep.items if i["m"] is not None) <= 3


def test_conjecture_partial_exceptional(make_ctx):
    rep = check_conjecture(make_ctx("E", 6, 2))
    assert rep.ok
    assert any("conjectural" in n for n in rep.notes)
    vertices = {i["vertex"] for i in rep.items}
    assert vertices <= {1, 5, None}


def test_conjecture_no_grid_family(make_ctx):
    rep = check_conjecture(make_ctx("G", 2, 2))
    assert rep.ok
    assert any(i["status"] == "unsupported" for i in rep.items)


def test_conjecture_to_obj_is_json(make_ctx):
    rep = check_conjecture(make_ctx("A", 1, 2))
    obj = rep.to_obj()
    text = json.dumps(obj)
    back = json.loads(text)
    assert list(back) == ["check", "family", "rank", "level", "items", "counterexamples"]
    assert back["check"] == "conjecture"
    assert back["family"] == "A" and back["rank"] == 1 and back["level"] == 2
    assert back["counterexamples"] == []


def test_unrestricted_relations(make_ctx):
    for key in [("A", 2, 3), ("B", 2, 2), ("C", 3, 2), ("D", 4, 2)]:
        rep = check_unrestricted(make_ctx(*key))
        assert rep.ok, key
        assert any(i["id"] == "relation" for i in rep.items)


def test_unrestricted_skips_exceptional(make_ctx):
    rep = check_unrestricted(make_ctx("E", 6, 2))
    assert rep.ok
    assert all(i["status"] == "skipped" for i in rep.items)


def test_boundary_all_families(make_ctx):
    for key in [
        ("A", 3, 2), ("B", 3, 2), ("C", 3, 2), ("D", 4, 2),
        ("E", 6, 2), ("E", 7, 2), ("E", 8, 2), ("F", 4, 2), ("G", 2, 2),
    ]:
        rep = boundary_check(make_ctx(*key))
        assert rep.ok, key
        ids = {i["id"] for i in rep.items}
        assert ids == {"ring", "lattice"}


def lattice_conditions(rs):
    """Named coroot-lattice members, written in fundamental-weight coordinates."""
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
        return [combo((2, 1), (-1, 5)), combo((2, 5), (-1, 1)), combo((1, 1), (1, 5))]
    if fam == "E" and r == 7:
        return [combo((2, 6))]
    return []


@pytest.mark.parametrize(
    "family,rank",
    [("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("D", 4), ("D", 5),
     ("D", 6), ("E", 6), ("E", 7)],
)
def test_named_lattice_members(family, rank, make_rs):
    rs = make_rs(family, rank)
    conds = lattice_conditions(rs)
    assert conds
    for vec in conds:
        assert rs.in_coroot_lattice(vec), (family, rank, vec)


# -- the restricted solution --------------------------------------------------


def test_restricted_b3(make_ctx):
    ctx = make_ctx("B", 3, 3)
    sol = restricted_solution(ctx)
    assert sol.report.ok
    parities = {i["id"] for i in sol.report.items}
    # t_a k is odd at the long vertices and even at the short one
    assert "glue-odd" in parities and "glue-even" in parities
    assert "overlap" in parities
    for a in (1, 2, 3):
        ta = ctx.rs.t[a - 1]
        assert sol.get(a, -1) == ctx.zero()
        assert sol.get(a, ta * 3 + 1) == ctx.zero()
        assert sol.get(a, 0) == ctx.unit()


def test_restricted_matches_grid_lower_half(make_ctx):
    ctx = make_ctx("C", 2, 2)
    grid = WGrid(ctx)
    sol = restricted_solution(ctx, grid=grid)
    assert sol.report.ok
    for a in (1, 2):
        ta = ctx.rs.t[a - 1]
        s = ta * 2 // 2
        for m in range(s + 1):
            assert sol.get(a, m) == grid.get(a, m)
        # upper half is the twisted mirror
        tau = ctx.rs.tau_table[a]
        for m in range(s + 1, ta * 2 + 1):
            expect = apply_outer(ctx, tau, conjugate(ctx, grid.get(a, ta * 2 - m)))
            assert sol.get(a, m) == expect


def test_restricted_unavailable_exceptional(make_ctx):
    with pytest.raises(KRDataUnavailableError):
        restricted_solution(make_ctx("E", 6, 2))


def test_admissibility_small(make_ctx):
    ctx = make_ctx("A", 2, 2)
    sol = restricted_solution(ctx)
    for a in (1, 2):
        for m in range(0, 3):
            A = admissibility_matrix(ctx, a, m, solution=sol)
            assert A.dtype == np.int64
            assert np.all(A >= 0)
    # m = 0 multiplies by the unit
    assert np.array_equal(
        admissibility_matrix(ctx, 1, 0, solution=sol), np.eye(6, dtype=np.int64)
    )
    # the top element is a simple current, so its matrix is a permutation
    top = admissibility_matrix(ctx, 1, 2, solution=sol)
    assert np.all(top.sum(axis=0) == 1) and np.all(top.sum(axis=1) == 1)


def test_admissibility_pf_eigenvalue(make_ctx):
    ctx = make_ctx("A", 2, 2)
    sol = restricted_solution(ctx)
    A = admissibility_matrix(ctx, 1, 1, solution=sol)
    pf = max(abs(np.linalg.eigvals(A.astype(float))))
    qd = element_quantum_dimension(ctx, sol.get(1, 1))
    assert abs(pf - qd) < 1e-8


# -- numeric tables: zero strings and uniqueness ------------------------------


def _qdim_table(ctx, sm, grid, ranges, mu):
    return {
        (a, m): generalized_qdim(sm, grid.get(a, m), mu)
        for a, top in ranges.items()
        for m in range(top + 1)
    }


def test_zero_string_lemmas_fire(make_ctx):
    """All four implications trigger on the C2 level-2 dimension table."""
    ctx = make_ctx("C", 2, 2)
    sm = build_smatrix(ctx)
    grid = WGrid(ctx)
    table = _qdim_table(ctx, sm, grid, {1: 10, 2: 5}, ctx.unit_weight)
    by_m = {}
    for m, want in [(2, "above-boundary"), (3, "on-boundary"),
                    (2, "boundary-forced"), (3, "extend-block")]:
        rep = by_m.get(m)
        if rep is None:
            rep = by_m[m] = zero_string_lemmas(ctx.rs, table, m)
        item = next(i for i in rep.items if i["id"] == want)
        assert item["status"] == "pass", (m, want, item)


def test_zero_string_lemmas_skip(make_ctx):
    # at block 0 nothing vanishes, so every hypothesis fails
    ctx = make_ctx("C", 2, 2)
    sm = build_smatrix(ctx)
    grid = WGrid(ctx)
    table = _qdim_table(ctx, sm, grid, {1: 10, 2: 5}, ctx.unit_weight)
    rep = zero_string_lemmas(ctx.rs, table, 0)
    assert all(i["status"] == "skipped" for i in rep.items)
    assert rep.ok


def test_uniqueness_on_dimension_tables(make_ctx):
    ctx = make_ctx("A", 2, 3)
    sm = build_smatrix(ctx)
    grid = WGrid(ctx)
    sol = restricted_solution(ctx, grid=grid)
    restricted = {
        (a, m): generalized_qdim(sm, sol.get(a, m), ctx.unit_weight)
        for a in (1, 2)
        for m in range(4)
    }
    unrestricted = _qdim_table(ctx, sm, grid, {1: 3, 2: 3}, ctx.unit_weight)
    rep = uniqueness_check(ctx.rs, 3, restricted, unrestricted)
    assert rep.ok
    assert all(i["status"] == "pass" for i in rep.items)
    assert {i["id"] for i in rep.items} == {"agree"}


def test_uniqueness_skips_on_zero(make_ctx):
    ctx = make_ctx("A", 2, 3)
    zero_table = {(a, m): 0.0 for a in (1, 2) for m in range(4)}
    rep = uniqueness_check(ctx.rs, 3, zero_table, zero_table)
    assert [i["status"] for i in rep.items] == ["skipped"]


# -- quantum dimension couplings ----------------------------------------------


def test_open_index_set(make_rs):
    assert open_index_set(make_rs("A", 1), 2) == ((1, 1),)
    assert open_index_set(make_rs("B", 2), 2) == (
        (1, 1), (2, 1), (2, 2), (2, 3)
    )
    # level 1 leaves no interior points on long vertices
    assert open_index_set(make_rs("A", 2), 1) == ()


def test_coupling_matrix_su2(make_rs):
    points, K = coupling_matrix(make_rs("A", 1), 2)
    assert points == ((1, 1),)
    assert K == [[Fraction(1)]]


def test_coupling_matrix_b2_row(make_rs):
    """First row against the definition, evaluated by hand.

    With (alpha_1|alpha_1) = 2 and (alpha_1|alpha_2) = -1, the entries
    at (1,1) against the four points are 2*(1 - 1/2), -(1 - 1/2),
    -(2 - 1), -(2 - 3/2).
    """
    points, K = coupling_matrix(make_rs("B", 2), 2)
    assert points == ((1, 1), (2, 1), (2, 2), (2, 3))
    assert K[0] == [
        Fraction(1), Fraction(-1, 2), Fraction(-1), Fraction(-1, 2)
    ]
    for i in range(4):
        for j in range(4):
            assert K[i][j] == K[j][i]
            assert isinstance(K[i][j], Fraction)


def test_solve_f_system_su2(make_rs):
    _, K = coupling_matrix(make_rs("A", 1), 2)
    f, converged, _ = solve_f_system(K)
    assert converged
    assert abs(f[0] - 0.5) < 1e-12


def test_solve_f_system_residual(make_rs):
    for key, level in [(("B", 2), 2), (("A", 3), 3), (("C", 3), 2)]:
        _, K = coupling_matrix(make_rs(*key), level)
        Kf = np.array([[float(v) for v in row] for row in K])
        f, converged, iters = solve_f_system(K)
        assert converged, key
        resid = np.max(np.abs(f - np.exp(Kf @ np.log(1.0 - f))))
        assert resid < 1e-9, key
        assert np.all((f > 0) & (f < 1))


def test_solve_f_system_iteration_cap(make_rs):
    _, K = coupling_matrix(make_rs("B", 2), 2)
    _, converged, iters = solve_f_system(K, max_iter=1)
    assert not converged
    assert iters == 1


def test_kns_su2(make_ctx):
    ctx = make_ctx("A", 1, 2)
    out = kns_report(ctx)
    assert out.report.ok
    D = out.dims[1]
    assert len(D) == 4
    assert abs(D[0] - 1) < 1e-12
    assert abs(D[1] - math.sqrt(2)) < 1e-12
    assert abs(D[2] - 1) < 1e-12
    assert abs(D[3]) < 1e-12
    assert out.points == ((1, 1),)
    assert abs(out.x[(1, 1)] - 0.5) < 1e-12
    assert abs(out.f[(1, 1)] - 0.5) < 1e-12


def test_kns_probe_items(make_ctx):
    ctx = make_ctx("A", 2, 2)
    out = kns_report(ctx)
    assert out.report.ok
    ids = {i["id"] for i in out.report.items}
    assert {"positivity", "palindrome", "terminal", "zero-string", "monotone",
            "coupling-posdef", "f-converged", "qdim-match", "qdim-sym",
            "qdim-boundary", "qdim-zero"} <= ids
    # every probe either passed all its identities or was skipped by the
    # lower-half hypothesis, never failed
    assert not out.report.counterexamples


def test_kns_b2(make_ctx):
    out = kns_report(make_ctx("B", 2, 2))
    assert out.report.ok
    for (a, m), fv in out.f.items():
        assert 0 < fv < 1
        assert abs((1 - fv) - out.x[(a, m)]) < 1e-9
