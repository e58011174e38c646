"""Fusion ring construction: basis, alcove reduction, products."""

import itertools
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusionq import (
    FusionContext,
    ReductionLimitError,
    ReductionOverflowError,
    WGrid,
    affinize,
    alcove_reduce_many,
    apply_outer,
    build_root_system,
    check_conjecture,
    conjugate,
    enumerate_basis,
    fusion_product,
    fusion_products,
    kr_classical_components,
    kr_element,
    restricted_solution,
)
from fusionq import fusion
from fusionq.cli import main
from reference import ReducedWeight, alcove_reduce, derived_products

BASIS_SIZES = {
    ("A", 1, 2): 3,
    ("A", 2, 3): 10,
    ("A", 3, 3): 20,
    ("A", 3, 4): 35,
    ("B", 2, 2): 6,
    ("B", 3, 2): 7,
    ("B", 3, 3): 13,
    ("C", 2, 2): 6,
    ("C", 3, 3): 20,
    ("D", 4, 2): 11,
    ("D", 4, 3): 24,
    ("D", 5, 3): 28,
    ("E", 6, 2): 9,
    ("E", 7, 2): 6,
}


@pytest.mark.parametrize(
    "key", sorted(BASIS_SIZES), ids=lambda key: "-".join(map(str, key))
)
def test_basis_sizes(key, make_ctx):
    ctx = make_ctx(*key)
    assert len(ctx.basis) == BASIS_SIZES[key]


def test_basis_size_formula_type_a(make_rs):
    # level-k dominant affine weights of A_r count as C(k + r, r)
    for r in (1, 2, 3, 4):
        rs = make_rs("A", r)
        for k in (1, 2, 3):
            assert len(enumerate_basis(rs, k)) == math.comb(k + r, r)


def test_basis_contents(make_ctx):
    ctx = make_ctx("A", 1, 2)
    assert ctx.basis == ((2, 0), (1, 1), (0, 2))
    assert ctx.unit_weight == (2, 0)
    for w in ctx.basis:
        assert sum(c * m for c, m in zip(w, ctx.rs.comarks)) == 2


def test_level_validation(make_rs):
    with pytest.raises(ValueError):
        FusionContext(make_rs("A", 2), 0)


def test_affinize(make_ctx):
    ctx = make_ctx("B", 3, 3)
    # comarks of B3 are (1, 2, 1), so 2 omega_2 already fills the level
    assert affinize(ctx, (0, 1, 0)) == (1, 0, 1, 0)
    assert affinize(ctx, (1, 1, 1)) == (-1, 1, 1, 1)
    with pytest.raises(ValueError):
        affinize(ctx, (1, 0))


def test_alcove_reduce_dominant_fixed(make_ctx):
    ctx = make_ctx("A", 2, 3)
    for w in ctx.basis:
        assert alcove_reduce(ctx, w) == ReducedWeight(1, w)


def test_alcove_reduce_wall(make_ctx):
    """A shifted weight on an alcove wall is annihilated."""
    ctx = make_ctx("A", 2, 3)
    # first coordinate -1 puts lambda + rho on the affine wall
    assert alcove_reduce(ctx, (-1, 3, 1)).sign == 0
    assert alcove_reduce(ctx, (4, -1, 0)).sign == 0


def test_alcove_reduce_known_values(make_ctx):
    """Spot reductions for D5 at level 4, worked out by hand."""
    ctx = make_ctx("D", 5, 4)
    assert alcove_reduce(ctx, (-2, 0, 3, 0, 0, 0)) == ReducedWeight(
        -1, (0, 0, 2, 0, 0, 0)
    )
    assert alcove_reduce(ctx, (-4, 0, 4, 0, 0, 0)) == ReducedWeight(
        -1, (2, 0, 1, 0, 0, 0)
    )


@given(fin=st.tuples(st.integers(-3, 7), st.integers(-3, 7)))
def test_alcove_reduce_policy_independent_a2(fin):
    ctx = _ctx_a2k3()
    w = affinize(ctx, fin)
    first = alcove_reduce(ctx, w, policy="first")
    last = alcove_reduce(ctx, w, policy="last")
    assert first == last
    if first.sign:
        assert first.weight in ctx.basis_index


@given(fin=st.tuples(st.integers(-4, 6), st.integers(-4, 6)))
def test_alcove_reduce_policy_independent_b2(fin):
    ctx = _ctx_b2k2()
    first = alcove_reduce(ctx, affinize(ctx, fin), policy="first")
    last = alcove_reduce(ctx, affinize(ctx, fin), policy="last")
    assert first == last


# -- batched reduction against the scalar reference -------------------------

REDUCE_ALGEBRAS = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("D", 5),
    ("E", 6), ("E", 7), ("E", 8),
    ("F", 4), ("G", 2),
)  # fmt: skip


def _assert_matches_reference(ctx, weights):
    """alcove_reduce_many agrees with alcove_reduce on every row: the basis
    weight at each index is the reference's, and a row on a wall has
    index -1."""
    signs, idx = alcove_reduce_many(ctx, weights)
    assert signs.shape == idx.shape == (len(weights),)
    assert signs.dtype == idx.dtype == np.int64
    for w, sign, i in zip(weights, signs.tolist(), idx.tolist()):
        ref = alcove_reduce(ctx, tuple(w))
        assert sign == ref.sign, w
        assert i == (ctx.basis_index[ref.weight] if sign else -1), w
    return signs


# The first call of a numpy path can exceed hypothesis's default deadline.
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_alcove_reduce_many_matches_reference(data, make_ctx):
    family, rank = data.draw(st.sampled_from(REDUCE_ALGEBRAS))
    ctx = make_ctx(family, rank, data.draw(st.integers(1, 4)))
    # Coordinates this far out put the weight several kappa-boxes away, so
    # the translation stage moves it before the walk starts.
    finite = st.tuples(*[st.integers(-60, 60)] * rank)
    rows = data.draw(st.lists(finite, max_size=6))
    _assert_matches_reference(ctx, [affinize(ctx, f) for f in rows])


def test_alcove_reduce_many_wall_rows(make_ctx):
    ctx = make_ctx("A", 2, 3)
    rows = [
        (-1, 3, 1),  # on a wall before any move
        (4, -1, 0),
        (23, -12, -8),  # on a wall right after the translation
        (22, -12, -7),  # on a wall after one reflection
        (-18, 9, 12),  # off the walls: reduces to +V[3,0,0]
    ]
    assert _assert_matches_reference(ctx, rows).tolist() == [0, 0, 0, 0, 1]
    # Translated onto a wall: A1 at level 1 has kappa = 3.
    su2 = make_ctx("A", 1, 1)
    assert _assert_matches_reference(su2, [(-4, 5)]).tolist() == [0]


@pytest.mark.parametrize(
    "family,rank,level", [("A", 2, 3), ("C", 4, 4), ("A", 33, 3), ("C", 7, 2)]
)
def test_alcove_reduce_many_repeated_box_points(family, rank, level, make_ctx):
    """Rows the translation stage sends to one box point are walked once.
    Basis weights, the same weights shifted by kappa times a random coroot
    combination, and the weights again all reduce like the scalar
    reference; so do the weights plus the last simple coroot, whose box
    points differ from theirs only in the last coordinate.  At A33 k3 and
    C7 k2 the box coordinates need more than one int64 word."""
    ctx = make_ctx(family, rank, level)
    rs = ctx.rs
    kappa = level + rs.dual_coxeter
    words_needed = (kappa * rs.coroot_lattice_index) ** rank > 2**63
    assert words_needed == (rank > 6)
    rng = np.random.default_rng(rank)
    coroots = np.array(rs.coroot_rows)
    basis = np.array(ctx.basis)[:, 1:]
    base = basis[rng.choice(len(basis), size=min(len(basis), 20), replace=False)]
    shifts = kappa * (rng.integers(-1, 2, size=base.shape) @ coroots)
    finite = np.concatenate((base, base + shifts, base + coroots[-1], base[::-1]))
    _assert_matches_reference(ctx, [affinize(ctx, f) for f in finite.tolist()])


@pytest.mark.parametrize("n", [0, 1, 7])
def test_alcove_reduce_many_batch_shapes(n, make_ctx):
    ctx = make_ctx("B", 3, 3)
    rows = [affinize(ctx, (i - 3, 5 * i, -2 * i)) for i in range(n)]
    _assert_matches_reference(ctx, rows)
    signs, idx = alcove_reduce_many(ctx, np.array(rows, dtype=np.int64))
    assert signs.shape == idx.shape == (n,)


def test_alcove_reduce_many_validates_like_reference(make_ctx):
    ctx = make_ctx("A", 2, 3)
    for bad, batch in [
        ((1, 2), [(1, 2)] * 2),  # wrong length
        ((1, 1, 1, 0), [(1, 1, 1, 0)]),
        ((1, 1, 2), [ctx.basis[0], (1, 1, 2), (4, 0, 0)]),  # wrong level
    ]:
        with pytest.raises(ValueError) as ref:
            alcove_reduce(ctx, bad)
        with pytest.raises(ValueError) as many:
            alcove_reduce_many(ctx, batch)
        assert str(many.value) == str(ref.value)


def test_reduction_cap_on_both_paths(make_rs, monkeypatch):
    """_REDUCE_CAP counts loop passes; the pass that finds the weight
    dominant is one of them.  (-18, 9, 12) at A2 level 3 takes 6 scalar
    reflections, and 2 after the translation.  Each cap gets a fresh
    context, whose memo has not walked the weight yet."""
    w = (-18, 9, 12)
    expect = alcove_reduce(FusionContext(make_rs("A", 2), 3), w)
    for cap, scalar_ok, batched_ok in [(1, False, False), (2, False, False),
                                       (3, False, True), (6, False, True),
                                       (7, True, True)]:  # fmt: skip
        ctx = FusionContext(make_rs("A", 2), 3)
        monkeypatch.setattr(fusion, "_REDUCE_CAP", cap)
        if scalar_ok:
            assert alcove_reduce(ctx, w) == expect
        else:
            with pytest.raises(ReductionLimitError):
                alcove_reduce(ctx, w)
        if batched_ok:
            signs, idx = alcove_reduce_many(ctx, [w])
            assert (signs[0], ctx.basis[idx[0]]) == expect
        else:
            with pytest.raises(ReductionLimitError):
                alcove_reduce_many(ctx, [w])


def _memo_batch(ctx, rng):
    """Finite weights that exercise the memo: basis weights, the same
    weights shifted by kappa times a random coroot combination, rows on a
    wall (a label of -1) before and after such a shift, and random weights
    a few boxes out."""
    rs = ctx.rs
    kappa = ctx.level + rs.dual_coxeter
    coroots = np.array(rs.coroot_rows)
    basis = np.array(ctx.basis)[:, 1:]
    base = basis[rng.choice(len(basis), size=min(len(basis), 20), replace=False)]
    walls = base.copy()
    walls[:, rng.integers(rs.rank)] = -1
    shifts = kappa * (rng.integers(-1, 2, size=base.shape) @ coroots)
    far = rng.integers(-3 * kappa, 3 * kappa, size=(20, rs.rank))
    finite = np.concatenate((base, base + shifts, walls, walls + shifts, far))
    return np.array([affinize(ctx, f) for f in finite.tolist()])


@pytest.mark.parametrize(
    "family,rank,level", [("A", 2, 3), ("C", 4, 4), ("A", 33, 3), ("C", 7, 2)]
)
def test_memo_reduces_alike_in_any_call_order(family, rank, level, make_rs):
    """One batch reduced whole, as shuffled slices over many calls, again
    once the memo holds it, and after unrelated calls: every way gives the
    scalar reference's result.  A33 k3 and C7 k2 have multi-word keys."""
    rng = np.random.default_rng(rank)
    whole = FusionContext(make_rs(family, rank), level)
    weights = _memo_batch(whole, rng)
    signs = _assert_matches_reference(whole, weights)
    assert (signs == 0).any() and (signs != 0).any()
    assert whole._memo_keys.dtype.kind == ("V" if rank > 6 else "i")
    expect = alcove_reduce_many(whole, weights)

    def same(ctx, rows):
        got = alcove_reduce_many(ctx, weights[rows])
        assert (got[0] == expect[0][rows]).all()
        live = rows[got[0] != 0]
        assert (got[1][got[0] != 0] == expect[1][live]).all()

    sliced = FusionContext(make_rs(family, rank), level)
    order = rng.permutation(len(weights))
    for rows in np.array_split(order, 9):
        same(sliced, rows)
    same(whole, np.arange(len(weights)))
    other = FusionContext(make_rs(family, rank), level)
    for _ in range(3):
        alcove_reduce_many(other, _memo_batch(other, rng))
    same(other, np.arange(len(weights)))
    same(other, order)


def test_memo_walks_each_box_point_once(make_rs, monkeypatch):
    """A repeated batch walks no row; a cold C3 k3 check_conjecture walks
    one row per distinct box point of all the rows it reduces."""
    walk = fusion._walk
    walked = [0]

    def counting(ctx, mu):
        walked[0] += len(mu)
        return walk(ctx, mu)

    monkeypatch.setattr(fusion, "_walk", counting)
    ctx = FusionContext(make_rs("C", 4), 4)
    weights = _memo_batch(ctx, np.random.default_rng(0))
    alcove_reduce_many(ctx, weights)
    assert 0 < walked[0] <= len(weights)
    before = walked[0]
    alcove_reduce_many(ctx, weights)
    alcove_reduce_many(ctx, weights[::-1])
    assert walked[0] == before

    reduce = fusion.alcove_reduce_many
    points = set()

    def collecting(ctx, weights):
        w = np.asarray(weights, dtype=np.int64)
        box = (ctx.level + ctx.rs.dual_coxeter) * ctx.rs.coroot_lattice_index
        q = (w[:, 1:] + 1) @ ctx._coroot_adj % box
        points.update(map(tuple, q.tolist()))
        return reduce(ctx, weights)

    monkeypatch.setattr(fusion, "alcove_reduce_many", collecting)
    walked[0] = 0
    rep = check_conjecture(FusionContext(make_rs("C", 3), 3))
    assert rep.ok
    assert 0 < walked[0] == len(points)


@pytest.mark.parametrize("row", [(4, -1, 0), (3, 1, 0)])
def test_memo_keeps_no_walk_result_off_the_basis(row, make_rs, monkeypatch):
    """A walked row with a negative label, or off the level, raises before
    it enters the memo: once the walk is mended, the same call reduces like
    the scalar reference."""
    walk = fusion._walk

    def corrupt_first(ctx, mu):
        signs, mu = walk(ctx, mu)
        mu[np.flatnonzero(signs)[0]] = np.array(row) + 1
        return signs, mu

    ctx = FusionContext(make_rs("A", 2), 3)
    weights = _memo_batch(ctx, np.random.default_rng(1))
    monkeypatch.setattr(fusion, "_walk", corrupt_first)
    with pytest.raises(AssertionError, match="left the level-k basis"):
        alcove_reduce_many(ctx, weights)
    monkeypatch.setattr(fusion, "_walk", walk)
    _assert_matches_reference(ctx, weights)


def test_reduction_int64_bound(make_ctx):
    """Coordinates below weight_bound reduce exactly; at the bound and near
    2**62 the batched path raises instead of wrapping."""
    ctx = make_ctx("A", 1, 1)
    b = ctx.weight_bound
    # On A1 the translation by kappa alpha-vee adds 2 kappa = 6 to the
    # finite label, so the row reduces like the label mod 6.
    x = b - 1
    signs, idx = alcove_reduce_many(ctx, [(1 - x, x)])
    ref = alcove_reduce(ctx, (1 - x % 6, x % 6))
    assert signs[0] == ref.sign
    if ref.sign:
        assert ctx.basis[idx[0]] == ref.weight
    for row in [(1 - b, b), (1 + b, -b), (1 - 2**62, 2**62)]:
        with pytest.raises(ReductionOverflowError):
            alcove_reduce_many(ctx, [row])
    e8 = make_ctx("E", 8, 2)
    big = affinize(e8, (2**62 // 30,) + (0,) * 7)
    with pytest.raises(ReductionOverflowError):
        alcove_reduce_many(e8, [big])


def _scalar_terms(ctx, finite, mults):
    row = ctx.zero()
    for f, mult in zip(finite, mults):
        red = alcove_reduce(ctx, affinize(ctx, f))
        if red.sign:
            row[ctx.basis_index[red.weight]] += red.sign * mult
    return row


def _row(ctx, u):
    """u as a row over the basis: a basis weight tuple becomes its element."""
    return ctx.basis_element(u) if isinstance(u, tuple) else u


def _product(ctx, u, v):
    """fusion_product of two rows or basis weight tuples."""
    return fusion_product(ctx, _row(ctx, u), _row(ctx, v))


def _terms(ctx, row):
    """The terms dict of a row, in ascending affine order."""
    return dict(sorted((ctx.basis[j], int(row[j])) for j in np.flatnonzero(row)))


def _basis_products(ctx, pairs):
    """Terms dicts, each in ascending affine order, of the basis-pair
    products in pairs, in request order: a dict view of the product table
    built on basis_product_rows."""
    a = [ctx.basis_index[la] for la, _ in pairs]
    b = [ctx.basis_index[mu] for _, mu in pairs]
    at, starts, terms, coeffs = fusion.basis_product_rows(ctx, a, b)
    spans = [slice(starts[p], starts[p + 1]) for p in at.tolist()]
    return [
        dict(zip(map(ctx.basis.__getitem__, terms[r].tolist()), coeffs[r].tolist()))
        for r in spans
    ]


@pytest.mark.parametrize(
    "family,rank,level",
    [("A", 3, 3), ("B", 3, 3), ("C", 3, 3), ("D", 5, 3), ("E", 6, 2)],
)
def test_kr_element_matches_scalar_reference(family, rank, level, make_ctx):
    """Two full predicted periods of every supported vertex (the minuscule
    ones on E6): the grid's column fill, per-m kr_element and scalar
    reduction agree."""
    ctx = make_ctx(family, rank, level)
    grid = WGrid(ctx)
    for a in grid.vertices:
        top = 2 * grid.default_horizon(a)
        grid.fill(a, top)
        for m in range(top + 1):
            comps = kr_classical_components(ctx.rs, a, m)
            expect = _scalar_terms(ctx, comps, [1] * len(comps))
            got = grid.get(a, m)
            assert np.array_equal(got, kr_element(ctx, a, m)), (a, m)
            assert np.array_equal(got, expect), (a, m)


def _scalar_product(ctx, la, mu):
    ws = ctx.rs.weight_multiplicities(la[1:])
    return _scalar_terms(ctx, (ws.weights + mu[1:]).tolist(), ws.mults.tolist())


def _all_pairs(ctx):
    return [(la, mu) for la in ctx.basis for mu in ctx.basis]


def _stored(ctx):
    """The context's product table as {(la, mu): terms dict}, la <= mu, in
    the table's pair order, read straight from its arrays."""
    table = ctx._table
    out = {}
    for p, key in enumerate(table.keys.tolist()):
        la, mu = (ctx.basis[ctx._by_affine[r]] for r in divmod(key, table.n))
        rows = slice(table.starts[p], table.starts[p + 1])
        labels = [ctx.basis[j] for j in table.terms[rows].tolist()]
        out[la, mu] = dict(zip(labels, table.coeffs[rows].tolist()))
    return out


def _assert_same_table(found, expect):
    """Two _stored tables are equal, pairs and terms in the same order."""
    assert found == expect
    assert list(found) == list(expect)
    for key, terms in expect.items():
        assert list(found[key]) == list(terms)


@pytest.mark.parametrize(
    "family,rank,level",
    [
        ("A", 2, 3),
        ("B", 2, 2),
        ("G", 2, 2),
        ("A", 3, 3),
        ("C", 3, 2),
        ("D", 4, 2),
        ("E", 6, 2),
    ],
)
def test_basis_products_match_scalar_reference(
    family, rank, level, make_rs, monkeypatch
):
    """Every basis pair at once (one derivation from the fundamental
    matrices) and one pair at a time agree with scalar reduction; terms are
    stored in ascending order, and once every pair is known no product
    reduces anything."""
    batched = FusionContext(make_rs(family, rank), level)
    single = FusionContext(make_rs(family, rank), level)
    pairs = _all_pairs(batched)
    unit = batched.unit_weight
    # Every pair, then reversed and repeated pairs and unit pairs: the terms
    # come back in request order.
    asked = pairs + [(mu, la) for la, mu in pairs[::-1]] + pairs[:3] * 2
    asked += [(unit, unit), (pairs[-1][0], unit)]
    found = _basis_products(batched, asked)
    stored = _stored(batched)
    assert found == [stored[min(p), max(p)] for p in asked]
    assert len(stored) == len(batched.basis) * (len(batched.basis) + 1) // 2
    assert list(stored) == sorted(stored)
    for terms in stored.values():
        assert list(terms) == sorted(terms)
    for la, mu in _all_pairs(batched):
        expect = _scalar_product(batched, la, mu)
        assert np.array_equal(_product(single, la, mu), expect), (la, mu)
    monkeypatch.setattr(fusion, "alcove_reduce_many", None)
    for la, mu in _all_pairs(batched):
        assert np.array_equal(_product(batched, la, mu), _product(single, la, mu))


@pytest.mark.parametrize(
    "family,rank,level",
    [
        ("A", 2, 3),
        ("B", 3, 3),
        ("C", 3, 2),
        ("G", 2, 3),
        ("F", 4, 2),
        ("E", 8, 3),
        ("A", 33, 3),
    ],
)
def test_reduced_rows_find_their_basis_index(family, rank, level, make_ctx):
    """Every basis weight, reduced and indexed, lands on its own column,
    also at A33 k3 where radix-(k + 1) keys of the labels pass 2**64."""
    ctx = make_ctx(family, rank, level)
    finite = np.array(ctx.basis, dtype=np.int64)[:, 1:]
    tags = np.arange(1, len(finite) + 1)
    n = len(finite)
    (row,) = fusion._reduced_table(
        ctx, 1, n, lambda p: (np.zeros_like(p), finite[p], tags[p])
    )
    assert np.array_equal(row, tags)


def test_products_at_high_rank_match_scalar_reference(make_ctx):
    """A33 k3: 2 omega_1 and the unit would share a wrapped radix-4 key.  In
    fresh contexts, the derived pairs equal the Kac-Walton reference."""
    ctx = make_ctx("A", 33, 3)
    w1 = affinize(ctx, (1,) + (0,) * 32)
    w2 = affinize(ctx, (2,) + (0,) * 32)
    expect = ctx.element({w2: 1, affinize(ctx, (0, 1) + (0,) * 31): 1})
    assert np.array_equal(_scalar_product(ctx, w1, w1), expect)
    assert np.array_equal(_product(ctx, w1, w1), expect)
    assert np.array_equal(_product(ctx, w1, w2), _scalar_product(ctx, w1, w2))
    keys = [(w1, w1), (w1, w2)]
    ref = _kac_walton_products(FusionContext(ctx.rs, 3), keys)
    found = _basis_products(FusionContext(ctx.rs, 3), keys)
    assert [list(t.items()) for t in found] == [list(ref[k].items()) for k in keys]


@pytest.mark.parametrize("rows", [1, 3, 20])
@pytest.mark.parametrize("family,rank,level", [("A", 2, 3), ("B", 2, 2)])
def test_basis_products_in_small_chunks(
    family, rank, level, rows, make_rs, monkeypatch
):
    """A few rows per reduction call split every fundamental row fill into
    many reductions, some cutting through one row's weights, and as few
    numbers per partner chunk split the recursion into one-partner chunks,
    without changing any product."""
    full = FusionContext(make_rs(family, rank), level)
    _basis_products(full, _all_pairs(full))
    monkeypatch.setattr(fusion, "_REDUCE_ROWS", rows)
    monkeypatch.setattr(fusion, "_CHUNK_NUMBERS", rows)
    chunked = FusionContext(make_rs(family, rank), level)
    _basis_products(chunked, _all_pairs(chunked))
    _assert_same_table(_stored(chunked), _stored(full))


def test_product_table_merges_parts_in_key_order():
    """_ProductTable.add places the pairs of parts given in any key order
    among the pairs it holds, each with its own terms, and empties the list
    of parts it is given."""
    table = fusion._ProductTable(10)
    parts = [(np.array([7, 2]), np.array([1, 2]), np.array([5, 1, 3]), np.array([1, 2, 3]))]
    table.add(parts)
    assert parts == []
    parts = [
        (np.array([9]), np.array([3]), np.array([4, 6, 8]), np.array([1, 1, 2])),
        (np.array([0, 5]), np.array([1, 1]), np.array([0, 9]), np.array([4, 5])),
    ]
    table.add(parts)
    assert parts == []
    assert table.keys.tolist() == [0, 2, 5, 7, 9]
    assert table.starts.tolist() == [0, 1, 3, 4, 5, 8]
    assert table.terms.tolist() == [0, 1, 3, 9, 5, 4, 6, 8]
    assert table.coeffs.tolist() == [4, 2, 3, 5, 1, 1, 1, 2]


def _kac_walton_products(ctx, keys):
    """Terms of the basis pairs keys by the Kac-Walton reference, one table
    per smaller factor (by Weyl dimension), keyed like keys."""
    rs = ctx.rs
    groups = {}
    for la, mu in keys:
        if rs.weyl_dimension(la[1:]) > rs.weyl_dimension(mu[1:]):
            groups.setdefault(mu, []).append(((la, mu), la))
        else:
            groups.setdefault(la, []).append(((la, mu), mu))
    out = {}
    for small, members in groups.items():
        big = [b[1:] for _, b in members]
        table = fusion._kac_walton_table(ctx, small[1:], big)
        for (key, _), row in zip(members, table):
            out[key] = _terms(ctx, row)
    return out


def _kac_walton_rows(ctx, a, b):
    """What _derived_products returns for the basis-index pairs (a, b), by
    the Kac-Walton reference."""
    keys = [(ctx.basis[i], ctx.basis[j]) for i, j in zip(a.tolist(), b.tolist())]
    found = _kac_walton_products(ctx, keys)
    rows = [found[key] for key in keys]
    sizes = [len(row) for row in rows]
    terms = [ctx.basis_index[w] for row in rows for w in row]
    coeffs = [c for row in rows for c in row.values()]
    part = range(len(a)), sizes, terms, coeffs
    return [tuple(np.array(x, dtype=np.int64) for x in part)]


@pytest.mark.parametrize(
    "family,rank,level",
    [("A", 2, 3), ("B", 4, 3), ("C", 4, 4), ("G", 2, 5), ("F", 4, 3), ("E", 7, 3)],
)
def test_basis_products_match_kac_walton(family, rank, level, make_rs):
    """Every unordered pair, derived from the fundamental matrices in one
    call in a fresh context, equals the Kac-Walton reference, terms in the
    same ascending order."""
    rs = make_rs(family, rank)
    ctx = FusionContext(rs, level)
    keys = [(la, mu) for i, la in enumerate(ctx.basis) for mu in ctx.basis[i:]]
    found = _basis_products(ctx, keys)
    expect = _kac_walton_products(FusionContext(rs, level), keys)
    for key, terms in zip(keys, found):
        assert list(terms.items()) == list(expect[key].items()), key


@pytest.mark.parametrize("family,rank,level", [("A", 3, 3), ("C", 3, 2), ("G", 2, 3)])
def test_one_pair_per_call_matches_the_whole_table(family, rank, level, make_rs):
    """Asking for one pair per call, in shuffled order, fills the same table,
    terms in the same order, as one call over every pair."""
    rs = make_rs(family, rank)
    whole = FusionContext(rs, level)
    _basis_products(whole, _all_pairs(whole))
    single = FusionContext(rs, level)
    pairs = _all_pairs(single)
    for k in np.random.default_rng(3).permutation(len(pairs)):
        _basis_products(single, [pairs[k]])
    _assert_same_table(_stored(single), _stored(whole))


# Faults in fundamental rows of A2 k3: (row kappa, term added) of N_1 for
# the kinds that corrupt a row, and the message each raises.
FUNDAMENTAL_FAULTS = {
    "coefficient-2": ((0, 0), (1, 0), "has coefficient 2 in"),
    "term-after": ((0, 0), (3, 0), "comes after"),
    "unfilled-row": (None, None, "is not filled"),
    "lower-term": ((1, 0), (0, 0), "negative structure constant"),
    "lower-term-every-pair": ((1, 0), (0, 0), "differs between its two orders"),
}


@pytest.mark.parametrize("fault", list(FUNDAMENTAL_FAULTS))
def test_fundamental_row_faults_store_nothing(fault, make_rs, monkeypatch):
    """Each fault raises, and the call stores no product, not even its unit
    pair.  V[omega_1] V[0] with coefficient 2 or with a term after omega_1,
    or a gathered row that the fill skipped, fail on omega_1 * 3 omega_1.
    An extra V[0] in V[omega_1] V[omega_1] makes V[2 omega_1] V[3 omega_1]
    negative; over every pair, it makes 2 omega_1 * omega_1 differ from
    omega_1 * 2 omega_1 first."""
    ctx = FusionContext(make_rs("A", 2), 3)
    kappa, term, match = FUNDAMENTAL_FAULTS[fault]
    table, fill = fusion._kac_walton_table, fusion._fill_fundamental
    top = affinize(ctx, (3, 0))
    la = affinize(ctx, (2, 0) if fault.startswith("lower-term") else (1, 0))

    def corrupt(ctx, small, big):
        out = table(ctx, small, big)
        if tuple(small) == (1, 0):
            row = (np.asarray(big) == kappa).all(axis=1)
            out[row, ctx.basis_index[affinize(ctx, term)]] += 1
        return out

    def skipping(ctx, i, kappas):
        fill(ctx, i, kappas[kappas != ctx.basis_index[top]])

    if fault == "unfilled-row":
        monkeypatch.setattr(fusion, "_fill_fundamental", skipping)
    else:
        monkeypatch.setattr(fusion, "_kac_walton_table", corrupt)
    pairs = [(ctx.unit_weight, la), (la, top)]
    if fault == "lower-term-every-pair":
        pairs = _all_pairs(ctx)
    with pytest.raises(AssertionError, match=match):
        _basis_products(ctx, pairs)
    assert len(ctx._table.keys) == 0


def test_float_bound_is_checked_before_storing(make_rs, monkeypatch):
    """With the float64 exactness bound lowered below the A2 k3 partial
    sums, the derivation raises and stores nothing."""
    monkeypatch.setattr(fusion, "_FLOAT_EXACT", 8)
    ctx = FusionContext(make_rs("A", 2), 3)
    with pytest.raises(AssertionError, match="too large for exact float64"):
        _basis_products(ctx, _all_pairs(ctx))
    assert len(ctx._table.keys) == 0


# Every pair of each of these, derived by the per-weight reference in one
# call at the default budget: the stored arrays keys, starts, terms, coeffs.
_REFERENCE_TABLES = {}


def _reference_table(rs, level, monkeypatch):
    key = (rs.type, level)
    if key not in _REFERENCE_TABLES:
        with monkeypatch.context() as patch:
            patch.setattr(fusion, "_derived_products", derived_products)
            ctx = FusionContext(rs, level)
            n = len(ctx.basis)
            fusion.basis_product_rows(ctx, *np.divmod(np.arange(n * n), n))
        t = ctx._table
        _REFERENCE_TABLES[key] = t.keys, t.starts, t.terms, t.coeffs
    return _REFERENCE_TABLES[key]


@pytest.mark.parametrize("budget", [1, 7, None], ids=["budget1", "budget7", "default"])
@pytest.mark.parametrize("calls", ["one-call", "one-pair-calls"])
@pytest.mark.parametrize(
    "family,rank,level",
    [("A", 2, 3), ("A", 4, 4), ("B", 3, 3), ("C", 4, 4), ("D", 4, 3), ("G", 2, 3),
     ("F", 4, 2), ("E", 6, 2)],
    ids=lambda v: str(v),
)
def test_level_steps_store_what_the_per_weight_reference_stores(
    family, rank, level, calls, budget, make_rs, monkeypatch
):
    """The batched recursion, one step per (level, generator) group and
    partner chunk, stores the same keys, starts, terms and coeffs as the
    per-weight reference: every pair asked for in one call, or one pair per
    call in shuffled order and orientation, at budgets of 1 and 7 numbers
    per chunk (one partner per chunk, groups cut at the chunk edges) and the
    default."""
    rs = make_rs(family, rank)
    expect = _reference_table(rs, level, monkeypatch)
    if budget is not None:
        monkeypatch.setattr(fusion, "_CHUNK_NUMBERS", budget)
    ctx = FusionContext(rs, level)
    n = len(ctx.basis)
    if calls == "one-call":
        fusion.basis_product_rows(ctx, *np.divmod(np.arange(n * n), n))
    else:
        rng = np.random.default_rng(5)
        pairs = np.column_stack(np.triu_indices(n))
        for k in rng.permutation(len(pairs)):
            pair = pairs[k] if rng.integers(2) else pairs[k, ::-1]
            fusion.basis_product_rows(ctx, pair[:1], pair[1:])
    t = ctx._table
    for found, want in zip((t.keys, t.starts, t.terms, t.coeffs), expect):
        assert np.array_equal(found, want)


def test_full_table_gathers_once_per_group_and_chunk(make_rs, monkeypatch):
    """The whole A4 k5 table gathers fundamental rows once per closure round
    and generator and once per group step, not once per closure weight and
    chunk: 4,125 gathers when every weight was its own step, 646 at the
    default budget in level steps."""
    gathers = []
    rows = fusion._fundamental_rows

    def counted(ctx, i, kappas):
        gathers.append(i)
        return rows(ctx, i, kappas)

    monkeypatch.setattr(fusion, "_fundamental_rows", counted)
    ctx = FusionContext(make_rs("A", 4), 5)
    n = len(ctx.basis)
    fusion.basis_product_rows(ctx, *np.divmod(np.arange(n * n), n))
    assert len(ctx._table.keys) == n * (n + 1) // 2
    assert len(gathers) < 1000


def test_cache_bytes_match_the_kac_walton_reference(
    tmp_path, make_rs, monkeypatch, capsys
):
    """save_cache writes the same bytes after the derived products as after
    the Kac-Walton reference: for every pair of A3 k3, and for the pairs
    that a cold verify C3 k3 stores."""
    written = []
    for derive in (fusion._derived_products, _kac_walton_rows):
        monkeypatch.setattr(fusion, "_derived_products", derive)
        ring = FusionContext(make_rs("A", 3), 3, cache_dir=str(tmp_path / "ring"))
        _basis_products(ring, _all_pairs(ring))
        ring.save_cache()
        cache = tmp_path / f"verify-{len(written)}"
        monkeypatch.setenv("FUSIONQ_CACHE_DIR", str(cache))
        main(["verify", "--family", "C", "--rank", "3", "--level", "3"])
        report = capsys.readouterr().out
        files = [tmp_path / "ring" / "fusionq-A3-k3.bin", cache / "fusionq-C3-k3.bin"]
        written.append([report] + [path.read_bytes() for path in files])
        files[0].unlink()
    assert written[0] == written[1]


def test_product_of_sums_is_sum_of_basis_products(make_rs):
    ctx = FusionContext(make_rs("A", 2), 3)
    ref = FusionContext(make_rs("A", 2), 3)
    b = ctx.basis
    u = ctx.element({b[1]: 2, b[4]: -1, b[7]: 3})
    v = ctx.element({b[1]: 1, b[2]: 5, b[0]: -2, b[9]: 1})
    expect = ref.zero()
    for wa, ca in _terms(ctx, u).items():
        for wb, cb in _terms(ctx, v).items():
            expect = expect + (ca * cb) * _product(ref, wa, wb)
    assert np.array_equal(fusion_product(ctx, u, v), expect)
    assert np.array_equal(fusion_product(ctx, v, u), expect)


def test_negative_structure_constant_is_an_error(make_rs, monkeypatch):
    reduce = fusion.alcove_reduce_many

    def flip_first(ctx, weights):
        signs, idx = reduce(ctx, weights)
        signs[np.flatnonzero(signs)[0]] *= -1
        return signs, idx

    monkeypatch.setattr(fusion, "alcove_reduce_many", flip_first)
    ctx = FusionContext(make_rs("A", 1), 2)
    with pytest.raises(AssertionError, match="negative structure constant"):
        _product(ctx, (1, 1), (1, 1))


@pytest.mark.parametrize("row", [(4, -1, 0), (3, 1, 0)])
def test_reduced_row_off_the_basis_is_an_error(row, make_rs, monkeypatch):
    """A walked row with a negative label, or off the level, has no basis
    index: the product raises instead of counting it elsewhere, and the
    memo is left as it was."""
    walk = fusion._walk

    def corrupt_first(ctx, mu):
        signs, mu = walk(ctx, mu)
        mu[np.flatnonzero(signs)[0]] = np.array(row) + 1
        return signs, mu

    ctx = FusionContext(make_rs("A", 2), 3)
    alcove_reduce_many(ctx, [ctx.unit_weight])
    keys, codes = ctx._memo_keys, ctx._memo_codes
    monkeypatch.setattr(fusion, "_walk", corrupt_first)
    with pytest.raises(AssertionError, match="left the level-k basis"):
        _product(ctx, (2, 1, 0), (2, 0, 1))
    assert ctx._memo_keys is keys and ctx._memo_codes is codes


def test_basis_products_peak_memory_follows_the_row_budget(make_rs):
    """The whole A4 k5 table (15,876 ordered pairs, 8,001 stored): the
    tracemalloc peak, stored products included, stays below 4 MiB, where
    one partner block over all 126 partners would alone take 16 MB.  It
    measured 3.36 MiB; 4.84 MiB when the merge concatenated every part and
    then gathered the terms in key order."""
    ctx = FusionContext(make_rs("A", 4), 5)
    a, b = np.divmod(np.arange(len(ctx.basis) ** 2), len(ctx.basis))
    tracemalloc.start()
    try:
        fusion.basis_product_rows(ctx, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ctx._table.keys) == 126 * 127 // 2
    assert peak < 4 * 2**20


_A2K3 = None
_B2K2 = None


def _ctx_a2k3():
    global _A2K3
    if _A2K3 is None:
        _A2K3 = FusionContext(build_root_system("A", 2), 3)
    return _A2K3


def _ctx_b2k2():
    global _B2K2
    if _B2K2 is None:
        _B2K2 = FusionContext(build_root_system("B", 2), 2)
    return _B2K2


def test_su2_products(make_ctx):
    ctx = make_ctx("A", 1, 2)
    f = ctx.basis_element((1, 1))
    square = ctx.element({(2, 0): 1, (0, 2): 1})
    assert np.array_equal(fusion_product(ctx, f, f), square)
    top = ctx.basis_element((0, 2))
    assert np.array_equal(fusion_product(ctx, top, top), ctx.unit())
    assert np.array_equal(fusion_product(ctx, f, top), f)


def test_a2_level_one_is_z3(make_ctx):
    ctx = make_ctx("A", 2, 1)
    a = ctx.basis_element((0, 1, 0))
    b = ctx.basis_element((0, 0, 1))
    assert np.array_equal(fusion_product(ctx, a, a), b)
    assert np.array_equal(fusion_product(ctx, a, b), ctx.unit())
    assert np.array_equal(fusion_product(ctx, b, b), a)


def test_b2_vector_square(make_ctx):
    """B2 level 2: the vector rep squares to 1 + vector + adjoint + (0,2)."""
    ctx = make_ctx("B", 2, 2)
    v = ctx.basis_element(affinize(ctx, (1, 0)))
    sq = fusion_product(ctx, v, v)
    assert sq[ctx.basis_index[ctx.unit_weight]] == 1
    assert np.array_equal(sq, conjugate(ctx, sq))
    # total weight count stays bounded by the basis
    assert {ctx.basis[j] for j in np.flatnonzero(sq)} <= set(ctx.basis)


basis_a2k2 = st.sampled_from(enumerate_basis(build_root_system("A", 2), 2))


@given(u=basis_a2k2, v=basis_a2k2)
def test_product_commutes(u, v):
    ctx = _ctx_a2k2()
    assert np.array_equal(_product(ctx, u, v), _product(ctx, v, u))


@settings(max_examples=40, deadline=None)
@given(u=basis_a2k2, v=basis_a2k2, w=basis_a2k2)
def test_product_associates(u, v, w):
    ctx = _ctx_a2k2()
    left = _product(ctx, _product(ctx, u, v), w)
    right = _product(ctx, u, _product(ctx, v, w))
    assert np.array_equal(left, right)


@given(u=basis_a2k2, v=basis_a2k2, w=basis_a2k2, c=st.integers(-3, 3))
def test_product_distributes(u, v, w, c):
    ctx = _ctx_a2k2()
    lin = ctx.basis_element(v) + c * ctx.basis_element(w)
    left = fusion_product(ctx, ctx.basis_element(u), lin)
    right = (
        _product(ctx, u, v) + c * _product(ctx, u, w)
    )
    assert np.array_equal(left, right)


@given(u=basis_a2k2)
def test_unit_law(u):
    ctx = _ctx_a2k2()
    assert np.array_equal(_product(ctx, ctx.unit(), u), ctx.basis_element(u))


@given(u=basis_a2k2, v=basis_a2k2)
def test_conjugation_is_ring_map(u, v):
    ctx = _ctx_a2k2()
    u, v = ctx.basis_element(u), ctx.basis_element(v)
    lhs = conjugate(ctx, fusion_product(ctx, u, v))
    rhs = fusion_product(ctx, conjugate(ctx, u), conjugate(ctx, v))
    assert np.array_equal(lhs, rhs)
    assert np.array_equal(conjugate(ctx, conjugate(ctx, u)), u)


def test_conjugation_fixes_unit_coefficient(make_ctx):
    # N_{uv}^0 pairs u with its conjugate only
    ctx = make_ctx("A", 2, 2)
    for u in ctx.basis:
        for v in ctx.basis:
            prod = _product(ctx, u, v)
            star = conjugate(ctx, ctx.basis_element(u))
            expect = 1 if np.array_equal(star, ctx.basis_element(v)) else 0
            assert prod[ctx.basis_index[ctx.unit_weight]] == expect


_A2K2 = None


def _ctx_a2k2():
    global _A2K2
    if _A2K2 is None:
        _A2K2 = FusionContext(build_root_system("A", 2), 2)
    return _A2K2


def test_apply_outer_matches_simple_current(make_ctx):
    """Relabeling by tau_a equals multiplying by the current V_{k omega_a}.

    apply_outer checks this once per support weight of its whole list; the
    per-element product route, the check it replaced, is the reference
    here, on basis weights and on KR elements with several terms.
    """
    for key in [("A", 3, 2), ("D", 4, 2), ("E", 6, 2)]:
        ctx = make_ctx(*key)
        rs = ctx.rs
        elems = [ctx.basis_element(w) for w in ctx.basis]
        elems += [kr_element(ctx, a, 2) for a in rs.minuscule_vertices]
        elems.append(ctx.zero())
        for a, perm in rs.tau_table.items():
            if perm == tuple(range(rs.rank + 1)):
                continue
            current = [0] * (rs.rank + 1)
            current[perm[0]] = ctx.level
            cur = ctx.basis_element(current)
            expect = [fusion_product(ctx, cur, u) for u in elems]
            assert np.array_equal(apply_outer(ctx, perm, elems), expect)


def test_apply_outer_distributes_over_products(make_ctx):
    ctx = make_ctx("A", 3, 2)
    perm = ctx.rs.tau_table[1]
    for u in ctx.basis[:5]:
        for v in ctx.basis[:5]:
            (lhs,) = apply_outer(ctx, perm, [_product(ctx, u, v)])
            (image,) = apply_outer(ctx, perm, [ctx.basis_element(u)])
            assert np.array_equal(lhs, _product(ctx, image, v))


def test_apply_outer_rejects_non_automorphism(make_ctx):
    ctx = make_ctx("A", 2, 2)
    with pytest.raises(ValueError):
        apply_outer(ctx, (1, 0, 2), [ctx.unit()])


def test_apply_outer_names_a_disagreeing_weight(make_rs):
    """A tampered product with the simple current fails the check, and the
    message names the weight, the product found and the expected image."""
    ctx = FusionContext(make_rs("A", 2), 2)
    perm = ctx.rs.tau_table[1]
    current = (0, 2, 0)
    w = (1, 1, 0)
    (image,) = apply_outer(ctx, perm, [ctx.basis_element(w)])
    assert np.array_equal(image, ctx.basis_element((0, 1, 1)))
    table = ctx._table
    (at,), starts, _, _ = fusion.basis_product_rows(
        ctx, [ctx.basis_index[current]], [ctx.basis_index[w]]
    )
    assert starts[at + 1] - starts[at] == 1
    table.terms[starts[at]] = ctx.basis_index[(1, 0, 1)]
    elems = [ctx.basis_element((0, 0, 2)), ctx.basis_element(w) + ctx.unit()]
    with pytest.raises(AssertionError) as err:
        apply_outer(ctx, perm, elems)
    message = str(err.value)
    assert f"at {w}:" in message
    assert "product {(1, 0, 1): 1}" in message
    assert "expected {(0, 1, 1): 1}" in message


def test_fusion_products_match_one_pair_at_a_time(make_ctx):
    """fusion_products over a list equals fusion_product pair by pair, and
    an empty list gives no rows."""
    ctx = make_ctx("B", 2, 2)
    basis = ctx.basis_element(ctx.basis[3])
    elems = [ctx.unit(), kr_element(ctx, 2, 2), basis, ctx.zero()]
    pairs = list(itertools.product(elems, repeat=2))
    expect = [fusion_product(ctx, u, v) for u, v in pairs]
    assert np.array_equal(fusion_products(ctx, pairs), expect)
    assert fusion_products(ctx, []).shape == (0, len(ctx.basis))


def _accumulated_products(ctx, pairs):
    """Products of row pairs by pure-Python accumulation, one pair of
    nonzeros at a time, over the basis products of one basis_product_rows
    call: the reference for fusion_products."""
    n = len(ctx.basis)
    a, b = np.divmod(np.arange(n * n), n)
    at, starts, terms, coeffs = fusion.basis_product_rows(ctx, a, b)
    spans = [slice(starts[p], starts[p + 1]) for p in at.tolist()]
    table = [list(zip(terms[r].tolist(), coeffs[r].tolist())) for r in spans]
    out = []
    for u, v in pairs:
        acc = [0] * n
        for i, cu in enumerate(u.tolist()):
            for j, cv in enumerate(v.tolist()):
                if cu and cv:
                    for t, c in table[i * n + j]:
                        acc[t] += cu * cv * c
        out.append(acc)
    return out


def test_fusion_products_match_python_accumulation(make_ctx):
    """C3 k3 KR columns (every vertex, one period), restricted rows, and
    seeded integer combinations of them, which have wide supports with
    negative coefficients: fusion_products equals the pure-Python
    accumulation, in one call over all the pairs."""
    ctx = make_ctx("C", 3, 3)
    grid = WGrid(ctx)
    sol = restricted_solution(ctx, grid=grid)
    columns = [grid.fill(a, grid.default_horizon(a) - 1) for a in grid.vertices]
    elems = np.concatenate(columns + [sol.elements[a] for a in grid.vertices])
    mixed = np.random.default_rng(5).integers(-2, 3, (10, len(elems))) @ elems
    assert (np.count_nonzero(mixed, axis=1) >= 9).all()
    assert ((mixed < 0).any(axis=1) & (mixed > 0).any(axis=1)).all()
    pairs = [(u, v) for u in elems[::3] for v in elems[::5]]
    pairs += list(itertools.product(mixed, repeat=2)) + [(mixed[0], elems[2])]
    expect = _accumulated_products(ctx, pairs)
    assert np.array_equal(fusion_products(ctx, pairs), expect)


def test_fusion_products_refuse_int64_overflow(make_ctx):
    """A1 k2: (2^29 V[1,1])^2 = 2^58 (V[2,0] + V[0,2]) is exact; at 2^31 the
    partial sums could pass 2^62, and the product raises instead of
    wrapping."""
    ctx = make_ctx("A", 1, 2)
    f = ctx.basis_element((1, 1))
    square = ctx.element({(2, 0): 2**58, (0, 2): 2**58})
    assert np.array_equal(fusion_product(ctx, 2**29 * f, 2**29 * f), square)
    with pytest.raises(OverflowError):
        fusion_product(ctx, 2**31 * f, 2**31 * f)


def test_bare_weights_are_rejected(make_ctx):
    """Rows are the one element form: a bare basis weight tuple where a row
    is expected raises ValueError (A2 k2 has 6 basis weights of 3 labels),
    as does a float row."""
    ctx = make_ctx("A", 2, 2)
    w = ctx.basis[1]
    row = ctx.basis_element(w)
    perm = ctx.rs.tau_table[1]
    calls = [
        lambda: fusion_product(ctx, w, w),
        lambda: fusion_product(ctx, row, w),
        lambda: fusion_product(ctx, row.astype(float), row),
        lambda: fusion_products(ctx, [(row, row), (row, w)]),
        lambda: conjugate(ctx, w),
        lambda: apply_outer(ctx, perm, [w]),
        lambda: apply_outer(ctx, perm, ctx.basis),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize(
    "family,rank,level",
    [("A", 2, 2), ("A", 3, 2), ("B", 3, 2), ("D", 4, 2)],
)
def test_vanishing_string_at_minuscule_vertices(family, rank, level, make_ctx):
    """V at m omega_a dies for k < m < k + h-dual when omega_a is minuscule."""
    ctx = make_ctx(family, rank, level)
    rs = ctx.rs
    for a in rs.minuscule_vertices:
        omega = rs.fundamental_weight(a)
        for m in range(level + 1, level + rs.dual_coxeter):
            w = affinize(ctx, tuple(m * c for c in omega))
            assert alcove_reduce(ctx, w).sign == 0, (a, m)
        # just outside the string the class comes back nonzero
        revived = affinize(
            ctx, tuple((level + rs.dual_coxeter) * c for c in omega)
        )
        assert alcove_reduce(ctx, revived).sign != 0


def test_element_rejects_bad_terms(make_ctx):
    ctx = make_ctx("A", 2, 2)
    with pytest.raises(ValueError):
        ctx.element({(9, 9, 9): 1})
    with pytest.raises(ValueError):
        ctx.element({ctx.unit_weight: 1.5})


def test_product_cache_round_trip(tmp_path, make_rs):
    """The reloaded table equals the saved one, terms in the same order, for
    every basis pair and for one row of pairs (a verify run saves only some
    pairs).  A check that wrongly rejected a valid file would otherwise only
    show as products computed again."""
    for (family, rank, level), row in itertools.product(
        [("A", 2, 3), ("D", 5, 2), ("E", 6, 2)], [None, 1]
    ):
        rs = make_rs(family, rank)
        cache_dir = str(tmp_path / f"{family}{rank}-k{level}-{row}")
        first = FusionContext(rs, level, cache_dir=cache_dir)
        pairs = _all_pairs(first)
        if row is not None:
            pairs = [(first.basis[row], mu) for mu in first.basis]
        _basis_products(first, pairs)
        first.save_cache()
        assert len(os.listdir(cache_dir)) == 1, "cache file should be written"
        second = FusionContext(rs, level, cache_dir=cache_dir)
        expect = _stored(first)
        n = len(first.basis)
        assert len(expect) == (n * (n + 1) // 2 if row is None else n)
        _assert_same_table(_stored(second), expect)


def test_product_cache_in_the_old_layout_is_rebuilt(tmp_path, make_rs):
    """A file in the JSON layout of earlier versions (the four lists under
    their names) is never read: the products are computed again and saved
    to the binary file, and the JSON file is left as it was."""
    rs = make_rs("A", 2)
    probe = FusionContext(rs, 3, cache_dir=str(tmp_path))
    _basis_products(probe, _all_pairs(probe))
    probe.save_cache()
    (path,) = tmp_path.iterdir()
    old = tmp_path / "fusionq-A2-k3.json"
    old.write_text(json.dumps(decode_cache(path.read_bytes())))
    path.unlink()
    stamp = old.stat().st_ino, old.stat().st_mtime_ns, old.read_bytes()
    ctx = FusionContext(rs, 3, cache_dir=str(tmp_path))
    assert len(ctx._table.keys) == 0
    _basis_products(ctx, _all_pairs(ctx))
    ctx.save_cache()
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name, old.name]
    assert (old.stat().st_ino, old.stat().st_mtime_ns, old.read_bytes()) == stamp
    assert len(_stored(probe)) == 10 * 11 // 2
    reloaded = FusionContext(rs, 3, cache_dir=str(tmp_path))
    _assert_same_table(_stored(reloaded), _stored(probe))


def test_product_cache_load_peak_memory(tmp_path, make_rs):
    """A warm context over the whole A4 k4 ring cache (2,485 pairs, 11,910
    terms) peaks below 0.87 MB under tracemalloc, the table it keeps
    included: 0.82 MB measured, of which the checks of one slice of pairs
    take about 0.37 MB.  Checking every term at once peaked at 0.91 MB, and
    the loader that sorted and copied every array again at 2.28 MB."""
    rs = make_rs("A", 4)
    cold = FusionContext(rs, 4, cache_dir=str(tmp_path))
    n = len(cold.basis)
    fusion.basis_product_rows(cold, *np.divmod(np.arange(n * n), n))
    cold.save_cache()
    tracemalloc.start()
    try:
        warm = FusionContext(rs, 4, cache_dir=str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(warm._table.terms) == 11_910
    _assert_same_table(_stored(warm), _stored(cold))
    assert peak < 0.87e6


CACHE_LISTS = ("pairs", "sizes", "terms", "coeffs")


def decode_cache(data):
    """The four lists of a product cache file, from its bytes."""
    counts = np.frombuffer(data[:32], dtype="<i8")
    lists = np.split(np.frombuffer(data[32:], dtype="<i8"), np.cumsum(counts[:3]))
    return {name: a.tolist() for name, a in zip(CACHE_LISTS, lists)}


def encode_cache(raw):
    """The bytes of a product cache file holding the four lists of raw."""
    lists = [raw[name] for name in CACHE_LISTS]
    return np.array([len(a) for a in lists] + sum(lists, []), dtype="<i8").tobytes()


def _on_terms(edit, pair=None):
    """Corruption that applies edit(ctx, terms) to the [basis index, coeff]
    list of the product of pair (by default the product with the most
    terms) and returns the weights of that pair."""

    def corrupt(ctx, raw):
        sizes, pairs = raw["sizes"], raw["pairs"]
        if pair is None:
            k = sizes.index(max(sizes))
        else:
            want = tuple(ctx.basis_index[w] for w in pair)
            k = list(zip(pairs[::2], pairs[1::2])).index(want)
        start = sum(sizes[:k])
        end = start + sizes[k]
        terms = [list(t) for t in zip(raw["terms"][start:end], raw["coeffs"][start:end])]
        edit(ctx, terms)
        sizes[k] = len(terms)
        raw["terms"][start:end] = [t for t, _ in terms]
        raw["coeffs"][start:end] = [c for _, c in terms]
        return ctx.basis[pairs[2 * k]], ctx.basis[pairs[2 * k + 1]]

    return corrupt


def _repeat_first_pair(ctx, raw):
    size = raw["sizes"][0]
    raw["pairs"] += raw["pairs"][:2]
    raw["sizes"].append(size)
    raw["terms"] += raw["terms"][:size]
    raw["coeffs"] += raw["coeffs"][:size]
    return tuple(ctx.basis[i] for i in raw["pairs"][:2])


def _swap_first_pairs(ctx, raw):
    """Swap the first two pairs with their terms: every entry stays true,
    but the pairs are no longer in the table's key order."""
    first, second = raw["sizes"][:2]
    raw["pairs"][:4] = raw["pairs"][2:4] + raw["pairs"][:2]
    raw["sizes"][:2] = [second, first]
    for name in ("terms", "coeffs"):
        values = raw[name]
        values[: first + second] = values[first : first + second] + values[:first]
    return tuple(ctx.basis[i] for i in raw["pairs"][:2])


def _split_coefficient(ctx, terms):
    """Write c V[w] with c > 1 as (c - 1) V[w] + V[w]: dimensions still agree."""
    i = next(i for i, (_, c) in enumerate(terms) if c > 1)
    terms[i][1] -= 1
    terms.insert(i + 1, [terms[i][0], 1])


def _insert_term(ctx, terms, w):
    terms.append([ctx.basis_index[w], 1])
    terms.sort(key=lambda t: ctx.basis[t[0]])


CACHE_CORRUPTIONS = {
    "plus-5": _on_terms(lambda ctx, terms: terms[0].__setitem__(1, terms[0][1] + 5)),
    "dropped-term": _on_terms(lambda ctx, terms: terms.pop()),
    # The tampered entry is V[1,1,1]^2, which has no V[2,1,0] term.
    "extra-term": _on_terms(lambda ctx, terms: _insert_term(ctx, terms, (2, 1, 0))),
    "negative": _on_terms(lambda ctx, terms: terms[0].__setitem__(1, -terms[0][1])),
    # The float64 1.0 in int64 bits: a huge coefficient, caught by quantum
    # dimensions.
    "float-coeff": _on_terms(
        lambda ctx, terms: terms[0].__setitem__(1, int(np.float64(1).view(np.int64)))
    ),
    "index-minus-1": _on_terms(lambda ctx, terms: terms[0].__setitem__(0, -1)),
    "index-n": _on_terms(lambda ctx, terms: terms[0].__setitem__(0, len(ctx.basis))),
    "reversed-terms": _on_terms(lambda ctx, terms: terms.reverse()),
    "split-coefficient": _on_terms(_split_coefficient),
    "repeated-pair": _repeat_first_pair,
    # save_cache writes pairs in key order, and the loader requires it.
    "pairs-out-of-order": _swap_first_pairs,
    # V[0,0,3]^2 is V[0,3,0]; its conjugate V[0,0,3] has the same quantum
    # dimension, so only reciprocity across entries rejects the swap.
    "conjugate-swap": _on_terms(
        lambda ctx, terms: terms.__setitem__(0, [ctx.basis_index[(0, 0, 3)], 1]),
        ((0, 0, 3), (0, 0, 3)),
    ),
    # The same swap in V[2,0,1] V[3,0,0] = V[2,0,1], the fourth pair from the
    # end of the file, where conjugate-swap's is the first: with a small
    # slice budget it lies in one of the last slices.
    "late-conjugate-swap": _on_terms(
        lambda ctx, terms: terms.__setitem__(0, [ctx.basis_index[(2, 1, 0)], 1]),
        ((2, 0, 1), (3, 0, 0)),
    ),
}


# Whole-file edits of the bytes of a valid cache file.
BYTE_CORRUPTIONS = {
    "not-json": lambda data: b"not json {",
    "random-bytes": lambda data: np.random.default_rng(0).bytes(len(data)),
    "trailing-bytes": lambda data: data + bytes(8),
    "truncated": lambda data: data[:-8],
    "length-not-multiple-of-8": lambda data: data[:-3],
}


# Slice budgets of the loader's checks: the default, one pair per slice,
# and slices of a few pairs that cut the file at other places.
SLICE_BUDGETS = (fusion._REDUCE_ROWS, 1, 7)


@pytest.mark.parametrize("corruption", sorted(CACHE_CORRUPTIONS) + sorted(BYTE_CORRUPTIONS))
def test_product_cache_ignores_garbage(tmp_path, make_rs, corruption, monkeypatch):
    """A corrupt or tampered cache file is rejected as a whole, at every
    slice budget of the loader's checks.  Content is tampered with by
    decoding the file's lists, editing them and encoding them again, which
    without an edit gives the file's own bytes."""
    rs = make_rs("A", 2)
    probe = FusionContext(rs, 3, cache_dir=str(tmp_path))
    for u in probe.basis:
        for v in probe.basis:
            _product(probe, u, v)
    probe.save_cache()
    (path,) = tmp_path.iterdir()
    data = path.read_bytes()
    raw = decode_cache(data)
    assert encode_cache(raw) == data
    if corruption in BYTE_CORRUPTIONS:
        path.write_bytes(BYTE_CORRUPTIONS[corruption](data))
        la = mu = probe.basis[1]
    else:
        la, mu = CACHE_CORRUPTIONS[corruption](probe, raw)
        path.write_bytes(encode_cache(raw))
    for budget in SLICE_BUDGETS:
        monkeypatch.setattr(fusion, "_REDUCE_ROWS", budget)
        ctx = FusionContext(rs, 3, cache_dir=str(tmp_path))
        assert len(ctx._table.keys) == 0
    assert np.array_equal(_product(ctx, la, mu), _product(FusionContext(rs, 3), la, mu))


@pytest.mark.parametrize("budget", SLICE_BUDGETS)
def test_product_cache_loads_in_any_slices(tmp_path, make_rs, budget, monkeypatch):
    """The whole A4 k4 ring cache (2,485 pairs, 11,910 terms) loads to the
    table that was saved, whatever the slice budget of the checks."""
    rs = make_rs("A", 4)
    cold = FusionContext(rs, 4, cache_dir=str(tmp_path))
    n = len(cold.basis)
    fusion.basis_product_rows(cold, *np.divmod(np.arange(n * n), n))
    cold.save_cache()
    monkeypatch.setattr(fusion, "_REDUCE_ROWS", budget)
    warm = FusionContext(rs, 4, cache_dir=str(tmp_path))
    assert len(warm._table.terms) == 11_910
    _assert_same_table(_stored(warm), _stored(cold))


@pytest.mark.parametrize(
    "sizes,budget",
    [([], 3), ([5], 3), ([1, 1, 1, 1], 2), ([2, 0, 3, 4, 1, 1], 4), ([0, 0, 9, 0], 1)],
)
def test_slices_hold_whole_items(sizes, budget, monkeypatch):
    """_slices covers the items in order with ranges of whole items: each
    range as long as fits the budget, and one item alone when it does not
    fit."""
    monkeypatch.setattr(fusion, "_REDUCE_ROWS", budget)
    bounds = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    ranges = list(fusion._slices(bounds))
    assert [k for lo, hi in ranges for k in range(lo, hi)] == list(range(len(sizes)))
    for lo, hi in ranges:
        held = bounds[hi] - bounds[lo]
        assert hi > lo and (held <= budget or hi == lo + 1)
        # The next item would not fit as well.
        assert hi == len(sizes) or bounds[hi + 1] - bounds[lo] > budget


@pytest.mark.parametrize(
    "text",
    ["[]", "[1, 2]", '"pairs"', "3", "true", "null"],
    ids=["empty-list", "list", "string", "number", "bool", "null"],
)
def test_product_cache_that_is_not_an_object_is_rejected(tmp_path, make_rs, text):
    """A cache file holding JSON text, an object or not, is ignored, and
    the products are computed again."""
    rs = make_rs("A", 2)
    probe = FusionContext(rs, 3, cache_dir=str(tmp_path))
    with open(probe._cache_path(), "w") as fh:
        fh.write(text)
    ctx = FusionContext(rs, 3, cache_dir=str(tmp_path))
    assert len(ctx._table.keys) == 0
    la = ctx.basis_element(ctx.basis[1])
    assert np.array_equal(fusion.fusion_product(ctx, la, ctx.unit()), la)


def _with_counts(edit):
    """Corruption that applies edit to a copy of the header's four counts."""

    def corrupt(data):
        counts = np.frombuffer(data[:32], dtype="<i8").copy()
        edit(counts)
        return counts.tobytes() + data[32:]

    return corrupt


HEADER_CORRUPTIONS = {
    "empty-file": lambda data: b"",
    "7-bytes": lambda data: data[:7],
    "header-only": lambda data: data[:32],
    # The counts still sum to the file's length.
    "negative-count": _with_counts(
        lambda c: c.__setitem__(slice(2, 4), (c[2] + c[3] + 1, -1))
    ),
    "counts-past-the-end": _with_counts(lambda c: c.__setitem__(2, c[2] + 1)),
    "counts-short-of-the-end": _with_counts(lambda c: c.__setitem__(3, c[3] - 1)),
}


@pytest.mark.parametrize("corruption", sorted(HEADER_CORRUPTIONS))
def test_product_cache_header_must_fit_the_file(tmp_path, make_rs, corruption):
    """A file whose four counts are not all nonnegative, or do not add up
    to its length, is rejected before its lists are read."""
    rs = make_rs("A", 2)
    probe = FusionContext(rs, 3, cache_dir=str(tmp_path))
    _basis_products(probe, _all_pairs(probe))
    probe.save_cache()
    (path,) = tmp_path.iterdir()
    data = path.read_bytes()
    assert all(np.frombuffer(data[:32], dtype="<i8"))
    path.write_bytes(HEADER_CORRUPTIONS[corruption](data))
    ctx = FusionContext(rs, 3, cache_dir=str(tmp_path))
    assert len(ctx._table.keys) == 0
    la = ctx.basis_element(ctx.basis[1])
    assert np.array_equal(fusion.fusion_product(ctx, la, ctx.unit()), la)


def test_product_cache_header_is_checked_before_reading(tmp_path, make_rs):
    """A header that claims 2**40 terms is rejected without allocating
    anything from it, and without reading the lists: the load peaks below
    the size of the file (the whole A4 k4 ring cache, 250,232 bytes)."""
    rs = make_rs("A", 4)
    cold = FusionContext(rs, 4, cache_dir=str(tmp_path))
    n = len(cold.basis)
    fusion.basis_product_rows(cold, *np.divmod(np.arange(n * n), n))
    cold.save_cache()
    (path,) = tmp_path.iterdir()
    path.write_bytes(_with_counts(lambda c: c.__setitem__(2, 2**40))(path.read_bytes()))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        warm = FusionContext(rs, 4, cache_dir=str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(warm._table.keys) == 0
    assert peak < size
