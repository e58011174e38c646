"""Root-system data against hand-checked tables.

Every frozen tuple below was either copied from the standard tables
(Cartan matrices, marks, Coxeter numbers, small irrep dimensions) or
recomputed by hand from the normalization (theta | theta) = 2.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fusionq import DynkinType, build_root_system
from reference import BetaChainError, in_root_lattice_cone, verify_beta_chain

CARTAN = {
    ("A", 3): ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    ("B", 3): ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    ("C", 3): ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    ("D", 4): ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    ("G", 2): ((2, -1), (-3, 2)),
    ("F", 4): ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2)),
}

# family -> (marks, comarks), affine entry first.
MARKS = {
    ("A", 3): ((1, 1, 1, 1), (1, 1, 1, 1)),
    ("B", 3): ((1, 1, 2, 2), (1, 1, 2, 1)),
    ("C", 3): ((1, 2, 2, 1), (1, 1, 1, 1)),
    ("D", 4): ((1, 1, 2, 1, 1), (1, 1, 2, 1, 1)),
    ("G", 2): ((1, 2, 3), (1, 2, 1)),
    ("F", 4): ((1, 2, 3, 4, 2), (1, 2, 3, 2, 1)),
    ("E", 6): ((1, 1, 2, 3, 2, 1, 2), (1, 1, 2, 3, 2, 1, 2)),
    ("E", 7): ((1, 2, 3, 4, 3, 2, 1, 2), (1, 2, 3, 4, 3, 2, 1, 2)),
}

# (h, h-dual, number of positive roots, index of the coroot lattice in P)
NUMBERS = {
    ("A", 3): (4, 4, 6, 4),
    ("B", 3): (6, 5, 9, 4),
    ("C", 3): (6, 4, 9, 8),
    ("D", 4): (6, 6, 12, 4),
    ("D", 5): (8, 8, 20, 4),
    ("G", 2): (6, 4, 6, 3),
    ("F", 4): (12, 9, 24, 4),
    ("E", 6): (12, 12, 36, 3),
    ("E", 7): (18, 18, 63, 2),
    ("E", 8): (30, 30, 120, 1),
}


@pytest.mark.parametrize(
    "key", sorted(CARTAN), ids=lambda key: "-".join(map(str, key))
)
def test_cartan_matrix(key, make_rs):
    rs = make_rs(*key)
    assert rs.cartan == CARTAN[key]


@pytest.mark.parametrize(
    "key", sorted(MARKS), ids=lambda key: "-".join(map(str, key))
)
def test_marks_and_comarks(key, make_rs):
    rs = make_rs(*key)
    marks, comarks = MARKS[key]
    assert rs.marks == marks
    assert rs.comarks == comarks
    # theta = sum of marks over simple roots, and the affine entry is 1.
    assert rs.marks[0] == rs.comarks[0] == 1


@pytest.mark.parametrize(
    "key", sorted(NUMBERS), ids=lambda key: "-".join(map(str, key))
)
def test_coxeter_numbers(key, make_rs):
    rs = make_rs(*key)
    h, hv, npos, idx = NUMBERS[key]
    assert rs.coxeter == h
    assert rs.dual_coxeter == hv
    assert rs.num_positive_roots == npos
    assert rs.coroot_lattice_index == idx
    # The adjugate of the simple-coroot rows is idx times their inverse.
    rows, adj = np.array(rs.coroot_rows), np.array(rs.coroot_adjugate)
    assert np.array_equal(rows @ adj, idx * np.eye(rs.rank, dtype=int))
    # h = 1 + sum of marks, h-dual = 1 + sum of comarks.
    assert sum(rs.marks) == h
    assert sum(rs.comarks) == hv
    assert npos == rs.rank * h // 2


def test_dynkin_type_validation():
    with pytest.raises(ValueError):
        DynkinType("B", 1)
    with pytest.raises(ValueError):
        DynkinType("E", 9)
    with pytest.raises(ValueError):
        DynkinType("Z", 3)
    with pytest.raises(ValueError):
        DynkinType("A", 0)


def test_gram_matrix_b2(make_rs):
    """For B2 the fundamental weights pair as ((1, 1/2), (1/2, 1/2))."""
    rs = make_rs("B", 2)
    assert rs.gram == (
        (Fraction(1), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
    )


def test_root_lengths(make_rs):
    # (alpha|alpha) = 2/t with t = 1 on long roots.
    for fam, r in [("B", 3), ("C", 3), ("G", 2), ("F", 4)]:
        rs = make_rs(fam, r)
        for i in range(r):
            alpha = rs.simple_roots[i]
            assert rs.ip(alpha, alpha) == Fraction(2, rs.t[i])
    g2 = make_rs("G", 2)
    theta = g2.positive_roots[-1]
    assert g2.ip(theta, theta) == 2


def test_highest_root(make_rs):
    for fam, r in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]:
        rs = make_rs(fam, r)
        # highest root has root coordinates equal to the finite marks
        assert rs.highest_root_coords == rs.marks[1:]
        theta = rs.positive_roots[-1]
        assert rs.root_coordinates(theta) == rs.marks[1:]


@given(
    x=st.tuples(*[st.integers(-6, 6)] * 3),
    y=st.tuples(*[st.integers(-6, 6)] * 3),
)
def test_bilinear_form_symmetric_b3(x, y):
    rs = build_root_system("B", 3)
    assert rs.ip(x, y) == rs.ip(y, x)
    two_x = tuple(2 * c for c in x)
    assert rs.ip(two_x, y) == 2 * rs.ip(x, y)


@given(x=st.tuples(*[st.integers(-5, 5)] * 4))
def test_dominant_conjugate_fixes_dominant_d4(x):
    rs = build_root_system("D", 4)
    dom = rs.dominant_conjugate(x)
    assert all(c >= 0 for c in dom)
    assert rs.dominant_conjugate(dom) == dom
    # the orbit map preserves lengths
    assert rs.ip(x, x) == rs.ip(dom, dom)


def test_reflect_is_involution(make_rs):
    rs = make_rs("C", 3)
    x = (1, -2, 3)
    for i in range(3):
        assert rs.reflect(rs.reflect(x, i), i) == x


DIMS = {
    ("A", 2): {(1, 0): 3, (1, 1): 8, (3, 0): 10},
    ("A", 3): {(1, 0, 0): 4, (0, 1, 0): 6, (1, 0, 1): 15},
    ("B", 3): {(1, 0, 0): 7, (0, 1, 0): 21, (0, 0, 1): 8},
    ("C", 3): {(1, 0, 0): 6, (0, 1, 0): 14, (0, 0, 1): 14, (2, 0, 0): 21},
    ("D", 4): {(1, 0, 0, 0): 8, (0, 1, 0, 0): 28, (0, 0, 1, 0): 8, (0, 0, 0, 1): 8},
    ("G", 2): {(1, 0): 14, (0, 1): 7},
    ("F", 4): {(1, 0, 0, 0): 52, (0, 0, 0, 1): 26},
    ("E", 6): {
        (1, 0, 0, 0, 0, 0): 27,
        (0, 0, 0, 0, 1, 0): 27,
        (0, 0, 0, 0, 0, 1): 78,
        (0, 0, 1, 0, 0, 0): 2925,
    },
    ("E", 7): {
        (0, 0, 0, 0, 0, 1, 0): 56,
        (1, 0, 0, 0, 0, 0, 0): 133,
        (0, 0, 0, 0, 0, 0, 1): 912,
    },
    ("E", 8): {(0,) * 8: 1},
}


@pytest.mark.parametrize("key", sorted(DIMS), ids=lambda key: "{}{}".format(*key))
def test_weyl_dimensions(key, make_rs):
    rs = make_rs(*key)
    for lam, dim in DIMS[key].items():
        assert rs.weyl_dimension(lam) == dim


def test_e8_adjoint_dimension(make_rs):
    rs = make_rs("E", 8)
    theta = rs.positive_roots[-1]
    assert rs.weyl_dimension(theta) == 248


def _table(ws):
    """{weight tuple: multiplicity} of a weight system."""
    return dict(zip(map(tuple, ws.weights.tolist()), ws.mults.tolist()))


def test_weight_multiplicities_adjoint(make_rs):
    """The adjoint weight system: roots once, zero with multiplicity rank."""
    for fam, r, adjoint in [
        ("A", 2, (1, 1)),
        ("A", 3, (1, 0, 1)),
        ("B", 3, (0, 1, 0)),
        ("G", 2, (1, 0)),
        ("A", 28, (1,) + (0,) * 26 + (1,)),
    ]:
        rs = make_rs(fam, r)
        ws = rs.weight_multiplicities(adjoint)
        assert ws.mults.sum() == rs.weyl_dimension(adjoint)
        table = _table(ws)
        assert table[(0,) * r] == r
        for alpha in rs.positive_roots:
            assert table[alpha] == 1


def test_weight_multiplicities_vector_at_rank_40(make_rs):
    """Orbit rows are deduplicated without a bound on rank: base-3 keys of
    the A40 vector representation's labels would pass 2**63."""
    ws = make_rs("A", 40).weight_multiplicities((1,) + (0,) * 39)
    assert ws.mults.sum() == len(set(map(tuple, ws.weights.tolist()))) == 41


def test_weight_multiplicities_spinor(make_rs):
    # B3 spinor: 8 extreme weights, all multiplicity one
    ws = make_rs("B", 3).weight_multiplicities((0, 0, 1))
    assert ws.mults.sum() == 8
    assert set(ws.mults.tolist()) == {1}


def test_weight_system_dims_match_weyl(make_rs):
    rs = make_rs("C", 3)
    for lam in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 0, 1)]:
        assert rs.weight_multiplicities(lam).mults.sum() == rs.weyl_dimension(lam)


def _reference_weight_multiplicities(rs, lam):
    """{weight: multiplicity} by single simple-root steps, each mapped to its
    dominant conjugate one reflection at a time, and Freudenthal over
    Fractions: the reference for the integer orbit path."""
    lam = tuple(lam)
    weights = {lam}
    dom_ok = {lam: True}
    frontier = [lam]
    while frontier:
        nxt = []
        for x in frontier:
            for alpha in rs.simple_roots:
                y = tuple(xj - aj for xj, aj in zip(x, alpha))
                if y in weights:
                    continue
                d = rs.dominant_conjugate(y)
                ok = dom_ok.get(d)
                if ok is None:
                    diff = tuple(a - b for a, b in zip(lam, d))
                    ok = dom_ok[d] = in_root_lattice_cone(rs, diff)
                if ok:
                    weights.add(y)
                    nxt.append(y)
        frontier = nxt

    def depth(mu):
        return sum(rs.root_coordinates(tuple(a - b for a, b in zip(lam, mu))))

    dominant = sorted(
        (w for w in weights if all(c >= 0 for c in w)), key=lambda mu: (depth(mu), mu)
    )
    mult = {lam: 1}
    lam_rho = tuple(l + 1 for l in lam)
    top = rs.ip(lam_rho, lam_rho)
    for mu in dominant[1:]:
        total = Fraction(0)
        for alpha in rs.positive_roots:
            j = 1
            while True:
                nu = tuple(m + j * a for m, a in zip(mu, alpha))
                if nu not in weights:
                    break
                total += mult[rs.dominant_conjugate(nu)] * rs.ip(nu, alpha)
                j += 1
        mu_rho = tuple(m + 1 for m in mu)
        val = 2 * total / (top - rs.ip(mu_rho, mu_rho))
        assert val.denominator == 1 and val > 0, (mu, val)
        mult[mu] = int(val)
    return {w: mult[rs.dominant_conjugate(w)] for w in weights}


@pytest.mark.parametrize(
    "family,rank,level",
    [("A", 4, 4), ("B", 4, 4), ("C", 3, 4), ("D", 4, 3), ("F", 4, 3), ("G", 2, 5),
     ("E", 7, 2), ("E", 8, 2)],
)
def test_weight_systems_match_reference(family, rank, level, make_ctx):
    ctx = make_ctx(family, rank, level)
    for la in ctx.basis:
        lam = la[1:]
        ws = ctx.rs.weight_multiplicities(lam)
        expect = _reference_weight_multiplicities(ctx.rs, lam)
        assert _table(ws) == expect, lam


@pytest.mark.parametrize("family,rank,level", [("D", 6, 4), ("E", 6, 4)])
def test_weight_system_invariants(family, rank, level, make_ctx):
    """Every basis weight: dim is the Weyl dimension, the weights are distinct,
    the table is invariant under each simple reflection, and the highest
    weight has multiplicity 1."""
    ctx = make_ctx(family, rank, level)
    rs = ctx.rs
    simple = np.array(rs.simple_roots, dtype=np.int64)

    def sorted_rows(weights, mults):
        order = np.lexsort(weights.T)
        return weights[order], mults[order]

    for la in ctx.basis:
        lam = la[1:]
        ws = rs.weight_multiplicities(lam)
        assert ws.mults.sum() == rs.weyl_dimension(lam)
        assert ws.weights.shape == (len(ws.mults), rs.rank)
        assert ws.weights.dtype == ws.mults.dtype == np.int64
        weights, mults = sorted_rows(ws.weights, ws.mults)
        assert (np.diff(weights, axis=0) != 0).any(axis=1).all(), lam
        for i in range(rs.rank):
            reflected = ws.weights - ws.weights[:, i, None] * simple[i]
            got_w, got_m = sorted_rows(reflected, ws.mults)
            assert np.array_equal(got_w, weights), (lam, i)
            assert np.array_equal(got_m, mults), (lam, i)
        top = np.flatnonzero((ws.weights == lam).all(axis=1))
        assert top.size == 1 and ws.mults[top[0]] == 1


def test_weight_system_is_read_only(make_rs):
    rs = make_rs("A", 2)
    ws = rs.weight_multiplicities((1, 1))
    assert rs.weight_multiplicities((1, 1)) is ws
    with pytest.raises(ValueError):
        ws.weights[0, 0] = 7
    with pytest.raises(ValueError):
        ws.mults[0] = 7
    assert _table(ws)[(0, 0)] == 2


OUTER = {
    # conjugation permutation on vertices 0..r, then the tau_table entries
    ("A", 3): ((0, 3, 2, 1), {1: (1, 2, 3, 0), 2: (2, 3, 0, 1), 3: (3, 0, 1, 2)}),
    ("B", 3): ((0, 1, 2, 3), {1: (1, 0, 2, 3), 2: (0, 1, 2, 3), 3: (1, 0, 2, 3)}),
    ("C", 3): ((0, 1, 2, 3), {1: (0, 1, 2, 3), 2: (0, 1, 2, 3), 3: (3, 2, 1, 0)}),
    ("D", 4): (
        (0, 1, 2, 3, 4),
        {1: (1, 0, 2, 4, 3), 2: (0, 1, 2, 3, 4), 3: (3, 4, 2, 0, 1), 4: (4, 3, 2, 1, 0)},
    ),
    ("G", 2): ((0, 1, 2), {1: (0, 1, 2), 2: (0, 1, 2)}),
    ("E", 6): (
        (0, 5, 4, 3, 2, 1, 6),
        {
            1: (1, 5, 4, 3, 6, 0, 2),
            2: (5, 0, 6, 3, 2, 1, 4),
            3: (0, 1, 2, 3, 4, 5, 6),
            4: (1, 5, 4, 3, 6, 0, 2),
            5: (5, 0, 6, 3, 2, 1, 4),
            6: (0, 1, 2, 3, 4, 5, 6),
        },
    ),
}


@pytest.mark.parametrize("key", sorted(OUTER), ids=lambda key: "{}{}".format(*key))
def test_automorphism_tables(key, make_rs):
    rs = make_rs(*key)
    conj, tau = OUTER[key]
    assert rs.conj_perm == conj
    assert rs.tau_table == tau
    ident = tuple(range(rs.rank + 1))
    assert ident in rs.outer_group
    for a, perm in tau.items():
        assert perm in rs.outer_group
        # tau_a carries the affine vertex to its simple-current target
        assert perm[0] == rs.tau_table[a][0]
    # closure under composition
    for p in rs.outer_group:
        for q in rs.outer_group:
            assert tuple(p[i] for i in q) in rs.outer_group


def test_outer_group_sizes(make_rs):
    sizes = {
        ("A", 3): 4,
        ("A", 4): 5,
        ("B", 3): 2,
        ("C", 3): 2,
        ("D", 4): 4,
        ("D", 5): 4,
        ("E", 6): 3,
        ("E", 7): 2,
        ("E", 8): 1,
        ("F", 4): 1,
        ("G", 2): 1,
    }
    for key, n in sizes.items():
        assert len(make_rs(*key).outer_group) == n


def sigma_rule(family, r, a):
    """Sign of the basic automorphism on vertex a, stated case by case."""
    if family == "A":
        return -1 if (a % 2 == 1 and r % 2 == 1) else 1
    if family == "B":
        return -1 if a % 2 == 1 else 1
    if family == "C":
        return -1 if (r % 4 in (1, 2) and a == r) else 1
    if family == "D":
        return -1 if (r % 4 in (2, 3) and a in (r - 1, r)) else 1
    if family == "E" and r == 7:
        return -1 if a in (4, 6, 7) else 1
    return 1


@pytest.mark.parametrize(
    "family,r",
    [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 2),
     ("C", 3), ("C", 4), ("C", 5), ("D", 4), ("D", 5), ("D", 6), ("D", 7),
     ("E", 6), ("E", 7), ("F", 4), ("G", 2)],
)
def test_sigma_signs(family, r, make_rs):
    rs = make_rs(family, r)
    for a in range(1, r + 1):
        assert rs.sigma_table[a] == sigma_rule(family, r, a), (family, r, a)


def test_minuscule_vertices(make_rs):
    expect = {
        ("A", 4): (1, 2, 3, 4),
        ("B", 3): (1,),
        ("C", 3): (3,),
        ("D", 5): (1, 4, 5),
        ("E", 6): (1, 5),
        ("E", 7): (6,),
        ("E", 8): (),
        ("F", 4): (),
        ("G", 2): (),
    }
    for key, vs in expect.items():
        assert make_rs(*key).minuscule_vertices == vs


def test_in_coroot_lattice(make_rs):
    b3 = make_rs("B", 3)
    assert b3.in_coroot_lattice((0, 0, 0))
    assert b3.in_coroot_lattice((2, 0, 0))
    assert not b3.in_coroot_lattice((1, 0, 0))
    # alpha_3 is short in B3, so alpha_3 itself is not a coroot but
    # 2 alpha_3 is.
    alpha3 = b3.simple_roots[2]
    assert not b3.in_coroot_lattice(alpha3)
    assert b3.in_coroot_lattice(tuple(2 * c for c in alpha3))
    c3 = make_rs("C", 3)
    assert c3.in_coroot_lattice((0, 0, 2))
    assert not c3.in_coroot_lattice((0, 0, 1))
    a2 = make_rs("A", 2)
    # simply laced: coroot lattice = root lattice
    assert a2.in_coroot_lattice((1, 1))
    assert not a2.in_coroot_lattice((1, 0))


def test_in_root_lattice_cone(make_rs):
    a2 = make_rs("A", 2)
    assert in_root_lattice_cone(a2, (1, 1))
    assert in_root_lattice_cone(a2, (2, -1))  # alpha_1 itself
    assert not in_root_lattice_cone(a2, (-2, 1))
    assert not in_root_lattice_cone(a2, (1, 0))


BETA_CHAINS = {
    ("B", 3, 1): ((1, 0, 0), (1, 1, 0), (1, 1, 2), (1, 2, 2)),
    ("C", 3, 3): ((0, 0, 1), (0, 2, 1), (2, 2, 1)),
}


@pytest.mark.parametrize(
    "key", sorted(BETA_CHAINS), ids=lambda key: "{}{}-vertex{}".format(*key)
)
def test_beta_chain_values(key, make_rs):
    family, r, a = key
    bc = verify_beta_chain(make_rs(family, r), a)
    assert bc.vertex == a
    assert bc.chain == BETA_CHAINS[key]


@pytest.mark.parametrize(
    "family,r",
    [("A", 2), ("A", 3), ("B", 3), ("B", 4), ("C", 3), ("D", 4), ("D", 5),
     ("E", 6), ("E", 7)],
)
def test_beta_chain_conditions(family, r, make_rs):
    """Re-verify the defining pairings of each chain from scratch."""
    rs = make_rs(family, r)
    for a in rs.minuscule_vertices:
        bc = verify_beta_chain(rs, a)
        assert len(bc.chain) == rs.dual_coxeter - 1
        omega = rs.fundamental_weight(a)
        for l, coords in enumerate(bc.chain, start=1):
            beta = tuple(
                sum(c * w for c, w in zip(coords, col))
                for col in zip(*rs.simple_roots)
            )
            assert rs.ip(omega, beta) == 1
            assert rs.ip(rs.rho, beta) == l
        assert bc.chain[-1] == rs.highest_root_coords


def test_beta_chain_rejects_bad_vertex(make_rs):
    with pytest.raises(ValueError):
        verify_beta_chain(make_rs("B", 3), 2)
    with pytest.raises(ValueError):
        verify_beta_chain(make_rs("G", 2), 1)


def test_beta_chain_error_type():
    assert issubclass(BetaChainError, ValueError)
