"""Reference implementations that the tests compare the package against.

Each is a direct transcription of its definition, one weight or one entry
at a time.  No command runs them, so they live with the tests; tests import
them with ``from reference import ...``.  For each, the fast path it checks:

- alcove_reduce (and ReducedWeight) reduces one affine weight by walking
  reflections at a chosen negative coordinate.  It checks
  fusion.alcove_reduce_many, the batched, memoized reduction that every
  fusion product goes through.
- weyl_group enumerates the Weyl group as matrices, and smatrix_entry sums
  one S-matrix entry over it, for any finite weights.  They check
  smatrix.build_smatrix, which builds S from Weyl-denominator determinants
  over the cosets of a classical Levi subgroup.
- verlinde_matrix gives every fusion coefficient at once from the Verlinde
  sums.  It checks the exact products of fusion.fusion_products.
- derived_products runs the height recursion of the basis products one
  closure weight at a time, one partner chunk after another.  It checks
  fusion._derived_products, which steps through the closure one dependency
  level and generator at a time.
- verify_beta_chain (with BetaChain and BetaChainError) finds the chain of
  positive roots from alpha_a to the highest root at a minuscule vertex.
  It checks the root data of cartan.RootSystem: the positive roots, rho
  and the minuscule vertices.
- in_root_lattice_cone tests lam - mu >= 0 in the dominance order.  It
  checks the weight systems of RootSystem.weight_multiplicities and the
  classical KR components of qsystem.kr_classical_components.

The caches below are keyed by Dynkin type, so no package object carries
state that only a reference reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from fusionq import NumericDegradationError, ReductionLimitError
from fusionq import fusion

# -- alcove reduction -----------------------------------------------------------


class ReducedWeight(NamedTuple):
    """Outcome of one alcove reduction: sign 0 means annihilated on a wall."""

    sign: int
    weight: tuple | None


def alcove_reduce(ctx, w, policy="first"):
    """Reduce an affine weight to the fundamental alcove under the shifted
    affine Weyl action.

    Returns ReducedWeight(sign, weight): sign 0 when the shifted weight
    lands on a wall (the term vanishes), otherwise +/-1 tracking reflection
    parity with the dominant representative.  The walk takes at most
    fusion._REDUCE_CAP steps, the cap of the batched path, read at each
    call.

    policy picks which negative coordinate to reflect at ("first", "last",
    or a callable on the index list); the result is policy-independent.
    """
    rs = ctx.rs
    if len(w) != rs.rank + 1:
        raise ValueError("affine weight has wrong length")
    if sum(c * x for c, x in zip(rs.comarks, w)) != ctx.level:
        raise ValueError(f"weight {w} does not have level {ctx.level}")
    if policy == "first":
        pick = lambda idx: idx[0]
    elif policy == "last":
        pick = lambda idx: idx[-1]
    elif callable(policy):
        pick = policy
    else:
        raise ValueError(f"unknown policy {policy!r}")

    rows = rs.affine_reflection_rows
    mu = [x + 1 for x in w]
    sign = 1
    cap = fusion._REDUCE_CAP
    for _ in range(cap):
        if any(c == 0 for c in mu):
            return ReducedWeight(0, None)
        negs = [i for i, c in enumerate(mu) if c < 0]
        if not negs:
            return ReducedWeight(sign, tuple(c - 1 for c in mu))
        i = pick(negs)
        c = mu[i]
        row = rows[i]
        mu = [m - c * rv for m, rv in zip(mu, row)]
        sign = -sign
    raise ReductionLimitError(f"no convergence after {cap} reflections")


# -- the S-matrix as an explicit Weyl-group sum ---------------------------------

_WEYL_RANK_CAP = 6
_WEYL = {}


def weyl_group(rs):
    """All Weyl group elements as matrices on fundamental-weight coordinates.

    Returns (mats, signs): an (N, r, r) int array of matrices acting on
    column vectors and an (N,) array of determinant signs.  Refuses ranks
    above _WEYL_RANK_CAP before allocating anything.
    """
    cached = _WEYL.get(rs.type)
    if cached is not None:
        return cached
    r = rs.rank
    if r > _WEYL_RANK_CAP:
        raise ValueError(
            f"Weyl group enumeration is capped at rank {_WEYL_RANK_CAP}; "
            f"{rs.type} has rank {r}"
        )
    gens = []
    for i in range(r):
        m = np.eye(r, dtype=np.int64)
        # s_i subtracts x_i times alpha_i.
        m[:, i] -= np.array(rs.simple_roots[i], dtype=np.int64)
        gens.append(m)
    ident = np.eye(r, dtype=np.int64)
    seen = {ident.tobytes()}
    mats = [ident]
    signs = [1]
    frontier = [(ident, 1)]
    while frontier:
        nxt = []
        for m, s in frontier:
            for g in gens:
                gm = g @ m
                key = gm.tobytes()
                if key not in seen:
                    seen.add(key)
                    mats.append(gm)
                    signs.append(-s)
                    nxt.append((gm, -s))
        frontier = nxt
    result = _WEYL[rs.type] = (np.stack(mats), np.array(signs, dtype=np.int64))
    return result


def smatrix_entry(ctx, la, mu):
    """One S-matrix entry from the raw sum, for arbitrary finite weights.

    la and mu are finite weight tuples, not necessarily dominant; this is
    the direct evaluation used to probe the shifted-action symmetry.
    """
    rs = ctx.rs
    mats, signs = weyl_group(rs)
    kappa = ctx.level + rs.dual_coxeter
    la1 = np.array([x + 1 for x in la], dtype=np.int64)
    mu1 = np.array([[float(x) for x in row] for row in rs.gram]) @ np.array(
        [x + 1 for x in mu], dtype=np.float64
    )
    phases = (mats @ la1) @ mu1
    total = (signs * np.exp(-2j * np.pi * phases / kappa)).sum()
    pref = (1j) ** (rs.num_positive_roots % 4) / math.sqrt(
        rs.coroot_lattice_index * kappa**rs.rank
    )
    return pref * total


def verlinde_matrix(sm, resid_tol=1e-6):
    """All fusion coefficients N[i][j][l] from the Verlinde sums at once."""
    S = sm.matrix
    zero = sm.ctx.basis_index[sm.ctx.unit_weight]
    raw = np.einsum("iw,jw,lw->ijl", S, S, S.conj() / S[zero][None, :])
    out = np.rint(raw.real).astype(np.int64)
    resid = float(np.max(np.abs(raw - out)))
    if resid > resid_tol:
        raise NumericDegradationError(
            f"Verlinde tensor residual {resid:.3e} exceeds {resid_tol}"
        )
    return out, resid


def derived_products(ctx, a, b):
    """The products of the basis pairs (a[k], b[k]), none with the unit,
    from the fundamental matrices, as fusion._derived_products returns them:
    a list of parts (k, sizes, terms, coeffs), the pairs k in CSR form.

    The closure of the earlier factors is walked from the top down, one
    weight at a time, and each partner chunk of at most
    fusion._CHUNK_NUMBERS numbers steps through it one weight at a time:
    X[la] = X[la - omega_i] N_i - sum of c_nu X[nu].  It makes the same
    checks as the fast path, with the same messages.
    """
    if ctx._generators is None:
        ctx._generators = fusion._Generators(ctx)
    gen = ctx._generators
    n = len(ctx.basis)
    swap = gen.pos[a] > gen.pos[b]
    lam, part = np.where(swap, b, a), np.where(swap, a, b)

    top = gen.height[lam].max() + gen.height[part].max()
    in_d = [False] * n
    for la in lam.tolist():
        in_d[la] = True
    order = gen.order.tolist()
    filled, steps = set(), {}
    for p in range(int(gen.pos[lam].max()), 0, -1):
        la = order[p]
        if not in_d[la]:
            continue
        i, pre = gen.first[la], gen.prev[la]
        if i not in filled:
            filled.add(i)
            within = gen.height <= top - gen.height[gen.omega[i]]
            kappas = np.flatnonzero(within & (gen.slot[i] < 0))
            if kappas.size:
                fusion._fill_fundamental(ctx, i, kappas)
        row = fusion._fundamental_rows(ctx, i, [pre])[0]
        nu = np.flatnonzero(row)
        omega, prev = ctx.basis[gen.omega[i]], ctx.basis[pre]
        if row[la] != 1:
            raise AssertionError(
                f"{ctx.basis[la]} has coefficient {row[la]} in {omega} * {prev}"
            )
        nu = nu[nu != la]
        late = nu[gen.pos[nu] > p]
        if late.size:
            raise AssertionError(
                f"{ctx.basis[late[0]]} in {omega} * {prev} comes after {ctx.basis[la]}"
            )
        steps[la] = i, nu, row[nu].astype(np.float64)
        in_d[pre] = True
        for x in nu.tolist():
            in_d[x] = True
    reach = max(gen.reach[i] for i in filled)

    dl = np.array([la for la in order if in_d[la]])
    drow = np.full(n, -1)
    drow[dl] = np.arange(len(dl))
    partners, pslot = np.unique(part, return_inverse=True)
    by_partner = np.argsort(pslot, kind="stable")
    bounds = np.searchsorted(pslot[by_partner], np.arange(len(partners) + 1))
    chunk = max(1, fusion._CHUNK_NUMBERS // (len(dl) * n))
    parts = []
    for start in range(0, len(partners), chunk):
        us = partners[start : start + chunk]
        x = np.zeros((len(dl), len(us), n))
        x[0, np.arange(len(us)), us] = 1
        flat = x.reshape(len(dl), -1)
        for d, la in enumerate(dl[1:].tolist(), 1):
            i, nu, c = steps[la]
            left = x[drow[gen.prev[la]]]
            cols = np.flatnonzero(left.any(axis=0))
            rows = fusion._fundamental_rows(ctx, i, cols).astype(np.float64)
            step = left[:, cols] @ rows
            if nu.size:
                step -= (c @ flat[drow[nu]]).reshape(step.shape)
            x[d] = step
        if np.abs(x).max() * reach >= fusion._FLOAT_EXACT:
            raise AssertionError("fusion coefficients too large for exact float64")
        both = np.flatnonzero(drow[us] >= 0)
        twice = x[drow[us[both]]][:, both]
        if (twice != twice.transpose(1, 0, 2)).any():
            raise AssertionError("a product differs between its two orders")
        asked = by_partner[bounds[start] : bounds[start + len(us)]]
        table = x[drow[lam[asked]], pslot[asked] - start]
        fusion._check_nonnegative(ctx, table, lambda j: (a[asked[j]], b[asked[j]]))
        parts.append((asked, *fusion._table_rows(ctx, table)))
    return parts


# -- root data ------------------------------------------------------------------


class BetaChainError(ValueError):
    """No admissible root chain exists at some pairing level."""


@dataclass(frozen=True)
class BetaChain:
    """A chain of positive roots interpolating alpha_a to the highest root.

    chain[l-1] is the chosen root with (omega_a | beta) = 1 and
    (rho | beta) = l, stored in simple-root coordinates.
    """

    vertex: int
    chain: tuple


_CHAINS = {}


def verify_beta_chain(rs, a):
    """Find the admissible root chain attached to a minuscule vertex.

    For each level l = 1 .. dual Coxeter number - 1 there must be a positive
    root beta with (omega_a | beta) = 1 and (rho | beta) = l; the chain keeps
    the lexicographically smallest root coordinates at each level.  Raises
    BetaChainError naming the first level with no admissible root.
    """
    if a not in rs.minuscule_vertices:
        raise ValueError(f"vertex {a} is not minuscule for {rs.type}")
    cached = _CHAINS.get((rs.type, a))
    if cached is not None:
        return cached
    omega = rs.fundamental_weight(a)
    chain = []
    for l in range(1, rs.dual_coxeter):
        hits = []
        for x, rc in zip(rs.positive_roots, rs.positive_root_coords):
            if rs.ip(omega, x) == 1 and rs.ip(rs.rho, x) == l:
                hits.append(rc)
        if not hits:
            raise BetaChainError(
                f"{rs.type} vertex {a}: no admissible root at pairing level {l}"
            )
        chain.append(min(hits))
    first = tuple(int(i == a - 1) for i in range(rs.rank))
    if chain[0] != first:
        raise AssertionError("chain must start at alpha_a")
    if chain[-1] != rs.highest_root_coords:
        raise AssertionError("chain must end at the highest root")
    result = _CHAINS[(rs.type, a)] = BetaChain(vertex=a, chain=tuple(chain))
    return result


def in_root_lattice_cone(rs, x):
    """True when the weight tuple x has non-negative integer simple-root
    coordinates."""
    for c in rs.root_coordinates(x):
        if c.denominator != 1 or c < 0:
            return False
    return True
