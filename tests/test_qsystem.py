"""Kirillov-Reshetikhin elements and the Q-system checks built on them."""

import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusionq import (
    KRDataUnavailableError,
    WGrid,
    apply_outer,
    boundary_check,
    check_conjecture,
    check_unrestricted,
    conjugate,
    coupling_matrix,
    fusion_product,
    fusion_products,
    kns_report,
    kr_classical_components,
    kr_element,
    open_index_set,
    period_multiplier,
    qdim_table,
    restricted_solution,
    solve_f_system,
    supported_vertices,
)
from fusionq import fusion, qsystem
from reference import in_root_lattice_cone

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


@pytest.mark.parametrize(
    "key", sorted(COMPONENTS), ids=lambda key: "{}{}-a{}-m{}".format(*key)
)
def test_kr_components(key, make_rs):
    family, rank, a, m = key
    got = kr_classical_components(make_rs(family, rank), a, m)
    assert sorted(map(tuple, got.tolist())) == sorted(COMPONENTS[key])


def test_kr_components_m_zero(make_rs):
    for fam, r in [("A", 2), ("B", 3), ("C", 3), ("D", 4)]:
        rs = make_rs(fam, r)
        for a in range(1, r + 1):
            got = kr_classical_components(rs, a, 0)
            assert tuple(map(tuple, got.tolist())) == ((0,) * r,)


def test_kr_components_total_weight(make_rs):
    """Every summand differs from m omega_a by something in the root cone."""
    for fam, r in [("B", 3), ("C", 3), ("D", 5)]:
        rs = make_rs(fam, r)
        for a in range(1, r + 1):
            for m in (1, 2, 3):
                top = tuple(m * c for c in rs.fundamental_weight(a))
                for w in map(tuple, kr_classical_components(rs, a, m).tolist()):
                    diff = tuple(tc - wc for tc, wc in zip(top, w))
                    assert in_root_lattice_cone(rs, diff), (a, m, w)


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


def _recursive_compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def _recursive_components(rs, a, m):
    """The B/C/D branches of kr_classical_components as tuples from a
    recursive generator, kept as the row-order reference."""
    fam, r = rs.type.family, rs.rank
    if m == 0 or (fam == "D" and a >= r - 1) or (fam == "C" and a == r):
        w = [0] * r
        w[a - 1] = m
        return (tuple(w),)
    out = []
    if fam in "BD":
        lower = list(range(a - 2, 0, -2))
        slots = len(lower) + (1 if a % 2 == 0 else 0)
        for total in range(m // rs.t[a - 1] + 1):
            for combo in _recursive_compositions(total, slots):
                w = [0] * r
                w[a - 1] = m - rs.t[a - 1] * total
                for j, c in zip(lower, combo):
                    w[j - 1] = c
                out.append(tuple(w))
    else:
        for ka in range(m, -1, -2):
            for combo in _recursive_compositions((m - ka) // 2, a):
                w = [0] * r
                w[a - 1] = ka
                for j, c in zip(range(a - 1, 0, -1), combo):
                    w[j - 1] = 2 * c
                out.append(tuple(w))
    return tuple(sorted(out, reverse=True))


@pytest.mark.parametrize(
    "family,rank",
    [("B", r) for r in range(2, 7)]
    + [("C", r) for r in range(2, 7)]
    + [("D", r) for r in range(4, 8)],
)
def test_kr_component_order_matches_recursive_reference(family, rank, make_ctx):
    """Row by row, order included: kr_element sums the rows in this order.
    Every vertex, m up to two default horizons at level 2; C6 stops at one
    (0.3M rows), because two would be 11.3M rows and about 40 s of the
    recursive reference."""
    ctx = make_ctx(family, rank, 2)
    grid = WGrid(ctx)
    periods = 1 if (family, rank) == ("C", 6) else 2
    for a in grid.vertices:
        for m in range(periods * grid.default_horizon(a) + 1):
            got = kr_classical_components(ctx.rs, a, m)
            assert got.dtype == np.int64
            expect = _recursive_components(ctx.rs, a, m)
            assert tuple(map(tuple, got.tolist())) == expect, (a, m)


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
    assert np.array_equal(kr_element(ctx, 1, 0), ctx.unit())
    assert np.array_equal(kr_element(ctx, 1, 1), ctx.basis_element((1, 1)))
    assert np.array_equal(kr_element(ctx, 1, 2), ctx.basis_element((0, 2)))
    assert np.array_equal(kr_element(ctx, 1, 3), ctx.zero())
    # one full span later the current returns with a sign
    assert np.array_equal(kr_element(ctx, 1, 4), -ctx.basis_element((0, 2)))
    assert np.array_equal(kr_element(ctx, 1, 8), ctx.unit())


def test_kr_element_collapse_d5(make_ctx):
    """At level 4 the D5 element W_4 at the second vertex folds to the unit."""
    ctx = make_ctx("D", 5, 4)
    assert np.array_equal(kr_element(ctx, 2, 4), ctx.unit())


def test_wgrid_basics(make_ctx):
    ctx = make_ctx("A", 2, 2)
    grid = WGrid(ctx)
    assert np.array_equal(grid.get(1, -1), ctx.zero())
    assert np.array_equal(grid.get(1, 0), ctx.unit())
    assert np.array_equal(grid.get(2, 1), ctx.basis_element((1, 0, 1)))
    # memoized: the same column back
    assert np.shares_memory(grid.get(2, 1), grid.get(2, 1))
    assert grid.default_horizon(1) == period_multiplier(ctx.rs) * (2 + 3)


def test_wgrid_rows_are_read_only(make_ctx):
    """No caller can alter the grid through a row or column it was given:
    writing through one raises, and the grid keeps its elements."""
    ctx = make_ctx("A", 2, 2)
    grid = WGrid(ctx)
    row = grid.get(1, 1)
    before = row.copy()
    with pytest.raises(ValueError, match="read-only"):
        row[0] = 5
    with pytest.raises(ValueError, match="read-only"):
        grid.fill(1, 3)[2] += 1
    with pytest.raises(ValueError, match="read-only"):
        restricted_solution(ctx, grid=grid).get(1, 1)[:] = 0
    assert np.array_equal(grid.get(1, 1), before)


def test_wgrid_rejects_unsupported(make_ctx):
    with pytest.raises(KRDataUnavailableError):
        WGrid(make_ctx("G", 2, 2), vertices=(1,))


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


@pytest.mark.parametrize("horizon", [0, 3])
def test_conjecture_horizon_bounds_the_grid(horizon, make_ctx):
    """With a horizon the grid builds no W_m above what the items read:
    m <= max(horizon, t_a k), item ii reading up to t_a k."""
    ctx = make_ctx("C", 3, 3)
    grid = WGrid(ctx)
    check_conjecture(ctx, horizon=horizon, grid=grid)
    for a in grid.vertices:
        built = len(grid._cols[a]) - 1
        assert built == max(horizon, ctx.rs.t[a - 1] * 3), a


def test_column_fill_peak_memory(make_ctx):
    """Filling C4 k4 vertex 3 up to m = 71 (164,502 component rows) in
    calls of a few thousand rows: the tracemalloc peak stays under 6 MB,
    where reducing the whole column in one call peaks near 42 MB."""
    grid = WGrid(make_ctx("C", 4, 4))
    tracemalloc.start()
    try:
        grid.fill(3, 71)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(grid._cols) == [3] and len(grid._cols[3]) == 72
    assert peak < 6 * 2**20


@pytest.mark.parametrize("rows", [1, 7, 50])
@pytest.mark.parametrize("family,rank,level", [("C", 3, 3), ("B", 3, 2), ("D", 5, 2)])
def test_fills_cut_through_modules(family, rank, level, rows, make_ctx, monkeypatch):
    """A few rows per reduction call cut modules across calls without
    changing any W_m, and some W_m has several terms."""
    ctx = make_ctx(family, rank, level)
    full = WGrid(ctx)
    tops = {a: full.default_horizon(a) for a in full.vertices}
    for a, top in tops.items():
        full.fill(a, top)
    reduce = qsystem._reduced_table
    found = []

    def record(*args):
        out = reduce(*args)
        found.extend(out)
        return out

    monkeypatch.setattr(fusion, "_REDUCE_ROWS", rows)
    monkeypatch.setattr(qsystem, "_reduced_table", record)
    chunked = WGrid(ctx)
    for a, top in tops.items():
        chunked.fill(a, top)
        for m in range(top + 1):
            got = chunked.get(a, m)
            assert np.array_equal(got, full.get(a, m)), (a, m)
            assert np.array_equal(got, kr_element(ctx, a, m)), (a, m)
    assert any(np.count_nonzero(row) > 1 for row in found)


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


def _relation_holds(ctx, getter, a, m):
    """The per-m Q-system relation, one fusion_product at a time: the
    reference for _relations_hold."""
    lhs = fusion_product(ctx, getter(a, m), getter(a, m))
    total = fusion_product(ctx, getter(a, m - 1), getter(a, m + 1))
    prod = ctx.unit()
    for b, n in qsystem._neighbors(ctx.rs, a):
        cba = ctx.rs.cartan[b - 1][a - 1]
        for j in range(n):
            prod = fusion_product(ctx, prod, getter(b, (j - cba * m) // n))
    return np.array_equal(lhs, total + prod)


@pytest.mark.parametrize(
    "key",
    [("A", 1, 3), ("A", 2, 3), ("B", 2, 2), ("C", 3, 2), ("D", 4, 2)],
    ids=lambda key: "{}{}-k{}".format(*key),
)
def test_relations_hold_matches_per_m(key, make_ctx):
    """On the KR grid, on the restricted solution and on a grid with
    one element shifted by the unit, so that some relations fail, the
    batched check agrees with the per-m reference at every m."""
    ctx = make_ctx(*key)
    k = ctx.level
    grid = WGrid(ctx)
    sol = restricted_solution(ctx, grid=grid)
    getters = [("grid", grid.get), ("restricted", sol.get)]
    bad = grid.vertices[0], 2

    def tampered(b, m):
        elem = grid.get(b, m)
        return elem + ctx.unit() if (b, m) == bad else elem

    getters.append(("tampered", tampered))
    failures = 0
    for name, getter in getters:
        for a in grid.vertices:
            top = ctx.rs.t[a - 1] * k
            got = qsystem._relations_hold(ctx, getter, a, range(top + 1))
            expect = [_relation_holds(ctx, getter, a, m) for m in range(top + 1)]
            assert got == expect, (name, a)
            failures += expect.count(False)
    assert failures > 0


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
        assert np.array_equal(sol.get(a, -1), ctx.zero())
        assert np.array_equal(sol.get(a, ta * 3 + 1), ctx.zero())
        assert np.array_equal(sol.get(a, 0), ctx.unit())


def test_restricted_matches_grid_lower_half(make_ctx):
    ctx = make_ctx("C", 2, 2)
    grid = WGrid(ctx)
    sol = restricted_solution(ctx, grid=grid)
    assert sol.report.ok
    for a in (1, 2):
        ta = ctx.rs.t[a - 1]
        s = ta * 2 // 2
        for m in range(s + 1):
            assert np.array_equal(sol.get(a, m), grid.get(a, m))
        # upper half is the twisted mirror
        tau = ctx.rs.tau_table[a]
        upper = range(s + 1, ta * 2 + 1)
        mirrored = [conjugate(ctx, grid.get(a, ta * 2 - m)) for m in upper]
        for m, expect in zip(upper, apply_outer(ctx, tau, mirrored)):
            assert np.array_equal(sol.get(a, m), expect)


def test_restricted_unavailable_exceptional(make_ctx):
    with pytest.raises(KRDataUnavailableError):
        restricted_solution(make_ctx("E", 6, 2))


def _admissibility(ctx, sol, a, m):
    """Multiplication matrix of R^(a)_m on the basis: row i is R^(a)_m
    times basis[i]."""
    units = np.eye(len(ctx.basis), dtype=np.int64)
    return fusion_products(ctx, [(sol.get(a, m), e) for e in units])


def test_admissibility_small(make_ctx):
    ctx = make_ctx("A", 2, 2)
    sol = restricted_solution(ctx)
    for a in (1, 2):
        for m in range(0, 3):
            A = _admissibility(ctx, sol, a, m)
            assert A.dtype == np.int64
            assert np.all(A >= 0)
    # m = 0 multiplies by the unit
    assert np.array_equal(_admissibility(ctx, sol, 1, 0), np.eye(6, dtype=np.int64))
    # the top element is a simple current, so its matrix is a permutation
    top = _admissibility(ctx, sol, 1, 2)
    assert np.all(top.sum(axis=0) == 1) and np.all(top.sum(axis=1) == 1)


def test_admissibility_pf_eigenvalue(make_sm):
    sm = make_sm("A", 2, 2)
    ctx = sm.ctx
    sol = restricted_solution(ctx)
    A = _admissibility(ctx, sol, 1, 1)
    pf = max(abs(np.linalg.eigvals(A.astype(float))))
    qd = qdim_table(sm, [sol.get(1, 1)])[0, sm.index(ctx.unit_weight)]
    assert abs(pf - qd) < 1e-8


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


def _fraction_minors_positive(K):
    """Leading principal minors by Gaussian elimination in Fractions: the
    reference for the integer elimination."""
    n = len(K)
    m = [[Fraction(x) for x in row] for row in K]
    for col in range(n):
        piv = m[col][col]
        if piv <= 0:
            return False
        for i in range(col + 1, n):
            f = m[i][col] / piv
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return True


def test_principal_minors_examples(make_rs):
    minors = qsystem._principal_minors_positive
    assert minors([])
    assert minors([[2, -1], [-1, 2]])
    assert not minors([[1, 1], [1, 1]])  # singular
    assert not minors([[1, 2], [2, 1]])  # indefinite
    assert not minors([[0, 0], [0, 1]])  # zero leading minor
    assert minors([[Fraction(1, 3), Fraction(1, 6)], [Fraction(1, 6), Fraction(1, 2)]])
    for key, level in [(("C", 4), 4), (("A", 5), 5), (("B", 3), 3), (("G", 2), 3)]:
        _, K = coupling_matrix(make_rs(*key), level)
        assert minors(K) and _fraction_minors_positive(K), key


_ENTRIES = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_principal_minors_match_fraction_elimination(data):
    """Any square matrix, a Gram matrix A A^T (positive semidefinite,
    singular when A has a repeated row), and a Gram matrix shifted by -c I
    (often indefinite): the integer elimination decides as the Fraction
    one does."""
    n = data.draw(st.integers(0, 6), label="n")
    rows = st.lists(_ENTRIES, min_size=n, max_size=n)
    A = data.draw(st.lists(rows, min_size=n, max_size=n), label="A")
    kind = data.draw(st.sampled_from(["any", "gram", "singular", "shifted"]))
    if kind == "singular" and n >= 2:
        A[-1] = list(A[0])
    if kind == "any":
        K = A
    else:
        K = [[sum(x * y for x, y in zip(r, s)) for s in A] for r in A]
        if kind == "shifted":
            c = data.draw(_ENTRIES, label="c")
            K = [[x - c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(K)]
    K = [[Fraction(x) for x in row] for row in K]
    assert qsystem._principal_minors_positive(K) == _fraction_minors_positive(K)


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


def test_kns_su2(make_ctx, make_sm):
    ctx = make_ctx("A", 1, 2)
    out = kns_report(ctx, make_sm("A", 1, 2))
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


def test_kns_probe_items(make_ctx, make_sm):
    ctx = make_ctx("A", 2, 2)
    out = kns_report(ctx, make_sm("A", 2, 2))
    assert out.report.ok
    ids = {i["id"] for i in out.report.items}
    assert {"positivity", "palindrome", "terminal", "zero-string", "monotone",
            "coupling-posdef", "f-converged", "qdim-match", "qdim-sym",
            "qdim-boundary", "qdim-zero"} <= ids
    # every probe either passed all its identities or was skipped by the
    # lower-half hypothesis, never failed
    assert not out.report.counterexamples


def _probe_items(ctx, sm, grid, solution, tol):
    """The probe-weight items of kns_report, one probe and one vertex at a
    time with a Fraction inner product per phase: the reference for the
    whole-array evaluation."""
    rs, k = ctx.rs, ctx.level
    rep = qsystem._new_report(ctx, "kns")
    kappa = k + rs.dual_coxeter
    qd, qd_R = {}, {}
    for a in range(1, rs.rank + 1):
        ta = rs.t[a - 1]
        qd[a] = qdim_table(sm, [grid.get(a, m) for m in range(ta * kappa)])
        qd_R[a] = qdim_table(sm, [solution.get(a, m) for m in range(ta * k + 1)])
    for mu_idx, mu in enumerate(ctx.basis):
        if any(
            np.any(np.abs(qd[a][: rs.t[a - 1] * k // 2 + 1, mu_idx]) <= tol)
            for a in range(1, rs.rank + 1)
        ):
            rep.skip("probe", None, mu_idx, f"mu={list(mu)}: zero in lower half")
            continue
        for a in range(1, rs.rank + 1):
            top = rs.t[a - 1] * k
            col, col_R = qd[a][:, mu_idx], qd_R[a][:, mu_idx]
            turns = rs.ip(rs.fundamental_weight(rs.tau_table[a][0]), mu[1:])
            angle = 2 * math.pi * turns
            phase = complex(math.cos(angle), -math.sin(angle))
            oks = {
                "qdim-match": np.all(np.abs(col[: top + 1] - col_R) <= tol),
                "qdim-sym": np.all(
                    np.abs(col[: top + 1] - col[top] * col[top::-1].conj()) <= tol
                ),
                "qdim-boundary": abs(col[top] - phase) <= tol,
                "qdim-zero": np.all(np.abs(col[top + 1 :]) <= tol),
            }
            for key, ok in oks.items():
                rep.add(key, a, mu_idx, ok, f"mu={list(mu)}")
    return rep.items


@pytest.mark.parametrize(
    "key",
    [("A", 1, 2), ("A", 3, 3), ("B", 3, 2), ("C", 3, 2), ("D", 5, 2)],
    ids=lambda key: "{}{}-k{}".format(*key),
)
def test_kns_probe_items_match_per_probe(key, make_ctx, make_sm):
    """Item by item, the probe-weight items equal the per-probe reference,
    and close the report: with the default tolerance (some probes skipped
    on B, C and D), with a tolerance near rounding, and with a negative
    tolerance that no item can meet, so every probe item fails."""
    ctx = make_ctx(*key)
    sm = make_sm(*key)
    grid = WGrid(ctx)
    sol = restricted_solution(ctx, grid=grid)
    probe_ids = {"probe", "qdim-match", "qdim-sym", "qdim-boundary", "qdim-zero"}
    for tol in (1e-9, 1e-15, -1.0):
        items = kns_report(ctx, sm, grid=grid, solution=sol, tol=tol).report.items
        expect = _probe_items(ctx, sm, grid, sol, tol)
        assert items[len(items) - len(expect) :] == expect
        assert not {i["id"] for i in items[: len(items) - len(expect)]} & probe_ids
        statuses = {i["status"] for i in expect}
        assert statuses == {"fail"} if tol < 0 else "pass" in statuses


def test_kns_b2(make_ctx, make_sm):
    out = kns_report(make_ctx("B", 2, 2), make_sm("B", 2, 2))
    assert out.report.ok
    for (a, m), fv in out.f.items():
        assert 0 < fv < 1
        assert abs((1 - fv) - out.x[(a, m)]) < 1e-9


def test_kns_f_matches_x_uses_tol(make_ctx, make_sm):
    tol = 1e-300
    out = kns_report(make_ctx("A", 2, 3), make_sm("A", 2, 3), tol=tol)
    items = [i for i in out.report.items if i["id"] == "f-matches-x"]
    assert len(items) == len(out.points) == 4
    for item in items:
        key = (item["vertex"], item["m"])
        ok = abs((1 - out.f[key]) - out.x[key]) <= tol
        assert item["status"] == ("pass" if ok else "fail"), item


# -- pinned report bytes --------------------------------------------------------


def _report(key, make_ctx, make_sm):
    """The one report a REPORT_DIGESTS entry pins."""
    name, args = key[0], key[1:]
    if name == "conjecture":
        family, rank, level, horizon = args
        return check_conjecture(make_ctx(family, rank, level), horizon=horizon)
    family, rank, level, up_to = args
    return check_unrestricted(make_ctx(family, rank, level), up_to=up_to)


REPORT_DIGESTS = {
    ("conjecture", "A", 2, 3, 0):
        "2043b368cd1da6c599a5b4ac784d815075848d724b5c2b0352fb7960fb1ccda8",
    ("conjecture", "A", 2, 3, 3):
        "ca88130050b582c020ef48da3f8b5d1155803898757699d1a2d213723da76367",
    ("conjecture", "A", 2, 3, 7):
        "2d2d41a6ef00c49193bcdffad6667028551ccb0aa1dc3c6be99c6303fa8b3016",
    ("conjecture", "B", 3, 2, 0):
        "6b6444f24f8a23db866d963c7f4833c940e4b96bce8c010e494fa39ec6e023fa",
    ("conjecture", "B", 3, 2, 3):
        "a19f9293f62991f8718857e419f2336dfcc25869c28fa8ba3e4518ab013acea0",
    ("conjecture", "B", 3, 2, 7):
        "7c5781eb6fede523b64c6461af5b1d378cba07314bbff668b3bf03a239e35f95",
    ("conjecture", "C", 2, 2, 0):
        "e617101f1858263b3350a6154611f577d82aacdfea1918c04dd11cf254748aa2",
    ("conjecture", "C", 2, 2, 3):
        "af9a48da60d64e9aa38e4a609dac4d0300a2f6535c5c8335de77edd0b523436c",
    ("conjecture", "C", 2, 2, 7):
        "673722b07e25ce896b36420102b0adb229bc183b5550b694f17e4af46c843e16",
    ("conjecture", "D", 4, 2, 0):
        "268800f556ae7d86e9e64e2601cea7556c6e4a3fbdc0446294a53c930f4925f6",
    ("conjecture", "D", 4, 2, 3):
        "d1bf6ef08ed10992c18861551b898984e8157c3df69332f7dccda2738aca3023",
    ("conjecture", "D", 4, 2, 7):
        "0f625cf2fe51cf0026e8a6f3cce91de8666c97ddc4a0254de892169748a6a5f7",
    ("conjecture", "E", 6, 2, 0):
        "b2ba5d23450fade920c4a32e9229b10a0e3f55f9f31cde8a1f935adaac57c99c",
    ("conjecture", "E", 6, 2, 3):
        "54b6fc45ccea35ffaa79583b651c25d053fee4a384602b963602400397791724",
    ("conjecture", "E", 6, 2, 7):
        "84963ee65c5efa8ca34301825732640be5044cae331e6f14870bcd2e284984e5",
    ("conjecture", "G", 2, 3, 0):
        "32f697f2a883f415cd26dffd578068ced36e9bb64b70d06faabdb1aea4b18644",
    ("conjecture", "G", 2, 3, 3):
        "32f697f2a883f415cd26dffd578068ced36e9bb64b70d06faabdb1aea4b18644",
    ("conjecture", "G", 2, 3, 7):
        "32f697f2a883f415cd26dffd578068ced36e9bb64b70d06faabdb1aea4b18644",
    ("unrestricted", "A", 2, 3, None):
        "5790f86b8d029338495d23518c77766a7f328bdbdbbfc4c99678076b194322e8",
    ("unrestricted", "B", 3, 2, None):
        "2e54ae23990f8e0aaace097e174fc3b10fa7de9530aaf599367d6b85940f741e",
    ("unrestricted", "C", 2, 2, None):
        "85557e203604956daac9cd2a56ce59207d30d2c4fa6ef6c0b599a7369371d2c7",
    ("unrestricted", "D", 4, 2, None):
        "4af25f86e72e923cc7d021284d465a9bb65a6aabb6e5999175c275e82bcbba3d",
    ("unrestricted", "E", 6, 2, None):
        "f2ab4c06e636b96816b3442586a94100daf75a01b5a0673535df94022a2351b0",
    ("unrestricted", "A", 2, 3, 3):
        "79f4a81d7b749b3ff9f27afc91e1b2007cd44619e856245b547e69e55c9bd490",
}


@pytest.mark.parametrize(
    "key", list(REPORT_DIGESTS), ids=lambda key: "-".join(map(str, key))
)
def test_report_digests(key, make_ctx, make_sm):
    """Pin the bytes of the check reports `verify` does not print: SHA-256
    of each report's compact JSON."""
    text = json.dumps(_report(key, make_ctx, make_sm).to_obj(), separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[key]
