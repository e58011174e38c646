"""Numeric modular data: S-matrix, Verlinde coefficients, quantum dimensions.

This is the floating-point cross-check layer for the exact fusion engine.
Every family takes one path.  The Weyl group is the union of cosets W_J u
of a classical Levi subgroup W_J (all of W for A-D), and each coset gives a
Weyl-denominator determinant of the Levi type in epsilon-coordinates
(Kac-Peterson) times one exact phase for the part orthogonal to J.  With
one coset the determinants are the shared minors of one small table per
column; the coset-moved rows of E, F and G take np.linalg.det.  S is one
n x n buffer: the one coset's determinants scaled in place, or the sum the
cosets are added into.  Work goes in blocks sized from _BLOCK_BYTES, the
unitarity residual too.  The explicit Weyl-group sum in tests/reference.py
(weyl_group, smatrix_entry) is the reference it is tested against.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .cartan import build_root_system
from .fusion import NumericDegradationError

# Working-set budget for one block of cosets, determinant rows, minor
# columns or residual rows.
_BLOCK_BYTES = 1 << 22
# Classical Levi: family, rank, parent vertices J (1-based) in the Levi's order.
_LEVI = {
    "E6": ("D", 5, (5, 4, 3, 2, 6)),
    "E7": ("D", 6, (6, 5, 4, 3, 2, 7)),
    "E8": ("D", 7, (1, 2, 3, 4, 5, 6, 8)),
    "F4": ("B", 3, (1, 2, 3)),
    "G2": ("A", 1, (1,)),
}


class SMatrix:
    """The modular S-matrix over one level's basis.  build_smatrix sets
    residual, the unitarity residual it checked."""

    def __init__(self, ctx, matrix):
        self.ctx = ctx
        self.basis = ctx.basis
        self.matrix = matrix

    def index(self, w):
        return self.ctx.basis_index[tuple(w)]

    def unitarity_residual(self):
        """max |S S-dagger - I| from row blocks of the upper block triangle:
        S S-dagger is Hermitian, and S[lo:hi].conj() @ S[lo:].T is the
        conjugate of its rows lo:hi from column lo on, so it has the same
        moduli and copies no more of S than its own rows.  A NaN in S gives
        NaN."""
        S = self.matrix
        n = len(S)
        # Per row: its conjugate, its products and their moduli.
        step = max(1, _BLOCK_BYTES // (40 * n))
        worst = []
        for lo in range(0, n, step):
            block = S[lo : lo + step].conj() @ S[lo:].T
            diag = np.arange(len(block))
            block[diag, diag] -= 1
            worst.append(np.abs(block).max())
        return float(np.max(worst))


def _epsilon_map(rs):
    """Epsilon-coordinates of the classical families, exactly.

    Returns (E, c): E is an m x r matrix of Fractions whose column a is
    omega_{a+1} in epsilon-coordinates (m = r+1 for A, r otherwise), and
    (x | y) = c * sum x_i y_i, so c * E^T E equals the Gram matrix.
    Cached on rs: every block of cosets reads it.
    """
    cached = getattr(rs, "_epsilon_cache", None)
    if cached is not None:
        return cached
    fam, r = rs.type.family, rs.rank
    m = r + 1 if fam == "A" else r
    half = Fraction(1, 2)
    cols = []
    for a in range(1, r + 1):
        col = [Fraction(int(i < a)) for i in range(m)]
        if fam == "A":
            # Project onto the hyperplane sum x_i = 0.
            col = [x - Fraction(a, m) for x in col]
        elif (fam == "B" and a == r) or (fam == "D" and a >= r - 1):
            col = [half] * m
            if fam == "D" and a == r - 1:
                col[-1] = -half
        cols.append(col)
    E = [[cols[a][i] for a in range(r)] for i in range(m)]
    c = half if fam == "C" else Fraction(1)
    gram = [[c * sum(E[i][a] * E[i][b] for i in range(m)) for b in range(r)]
            for a in range(r)]
    if gram != [list(row) for row in rs.gram]:
        raise AssertionError(f"epsilon map of {rs.type} does not give its Gram matrix")
    rs._epsilon_cache = E, c
    return E, c


def _levi_cosets(rs):
    """The classical Levi of rs, its vertices J (0-based), and signed
    representatives u of the cosets W_J u that make up W: a breadth-first
    search over the orbit of omega = sum of omega_i outside J, which W_J
    fixes, reflecting at positive coordinates, with u -> u s_i per step."""
    fam, rank, J = _LEVI.get(str(rs.type), (None, rs.rank, range(1, rs.rank + 1)))
    levi = build_root_system(fam, rank) if fam else rs
    J = [j - 1 for j in J]
    if [[rs.cartan[i][j] for j in J] for i in J] != [list(r) for r in levi.cartan]:
        raise AssertionError(f"{levi.type} is not the Levi of {rs.type} on {J}")
    eye = np.eye(rs.rank, dtype=np.int64)
    gens = eye - np.array(rs.simple_roots)[:, :, None] * eye[:, None, :]
    omega = tuple(int(i not in J) for i in range(rs.rank))
    seen, frontier, mats, signs = {omega}, [(omega, eye)], [eye], [1]
    while frontier:
        nxt = []
        for p, u in frontier:
            for i, g in enumerate(gens):
                q = tuple((g @ p).tolist())
                if p[i] > 0 and q not in seen:
                    seen.add(q)
                    nxt.append((q, u @ g))
        mats += [u for _, u in nxt]
        signs += [-signs[-1]] * len(nxt)
        frontier = nxt
    return levi, J, np.stack(mats), np.array(signs, dtype=np.int64)


def _distinct(keys):
    """The sorted distinct values of keys, and the place of one of each."""
    order = np.argsort(keys, kind="stable")
    first = np.r_[True, keys[order[1:]] != keys[order[:-1]]]
    return keys[order[first]], order[first]


def _shared_minors(X, values, Y, modulus, table):
    """det[table[X_ra Y_cb mod modulus]]_{a,b} for every row r and column c.

    Row r's matrix is the maximal minor of T_c[v, b] = table[v Y_cb mod
    modulus] at the rows of its values v (out of the sorted distinct
    values), times the sign of the permutation that sorts them; a repeated
    value gives 0.  The minors are built by Laplace expansion along the
    columns: level j holds the j-subsets that the rows' subsets reach by
    dropping values, each keyed by its bitmask over the values.
    """
    N, m = X.shape
    idx = np.searchsorted(values, X)
    srt = np.sort(idx, axis=1)
    good = (srt[:, 1:] != srt[:, :-1]).all(1)
    idx, srt = idx[good], srt[good]
    a, b = np.triu_indices(m, 1)
    sign = 1 - 2 * ((idx[:, a] > idx[:, b]).sum(1) % 2)
    keys = np.bitwise_or.reduce(np.int64(1) << srt, axis=1)
    level, first = _distinct(keys)
    at, members, levels = np.searchsorted(level, keys), srt[first], []
    for j in range(m, 1, -1):
        child = level[:, None] ^ (np.int64(1) << members)  # drop member i
        level, first = _distinct(child.ravel())
        levels.append((members, np.searchsorted(level, child)))
        drop = np.arange(j) != (first % j)[:, None]
        members = members[first // j][drop].reshape(-1, j - 1)
    out = np.zeros((N, len(Y)), dtype=table.dtype)
    # Per column: the table and its int64 indices, the gathered rows, one
    # level of minors and its gathered terms.
    widest = max([len(members)] + [len(mem) for mem, _ in levels])
    step = max(1, _BLOCK_BYTES // (24 * m * len(values) + 80 * widest + 32 * N))
    for lo in range(0, len(Y), step):
        T = table[(values[None, :, None] * Y.T[:, None, lo : lo + step]) % modulus]
        minors = T[0][members[:, 0]]
        for j, (mem, child) in enumerate(reversed(levels), 2):
            acc = np.zeros((len(mem), minors.shape[1]), dtype=table.dtype)
            for i in range(j):
                term = T[j - 1][mem[:, i]]
                term *= minors[child[:, i]]
                (np.add if (i + j) % 2 else np.subtract)(acc, term, out=acc)
            minors = acc
        out[good, lo : lo + step] = minors[at] * sign[:, None]
    return out


def _family_det(fam, m, roots, det):
    """The Weyl-denominator determinant of a classical family from det, the
    determinants of one table of values indexed by the phases."""
    if fam == "A":
        return det(roots)
    # exp(-i t) - exp(i t) = 2i Im(exp(-i t)) is the sine entry.
    block = (2j) ** m * det(roots.imag)
    if fam == "D":
        # Even sign changes only: half the sine plus the cosine
        # determinant, exp(-i t) + exp(i t) = 2 Re(exp(-i t)), in place.
        cosine = det(roots.real)
        cosine *= 2.0**m
        block += cosine
        np.multiply(0.5, block, out=block)
    return block


def _determinant_sum(rs, kappa, rows, cols, shared=False):
    """Weyl sums of all pairs of integer label rows and columns as
    Weyl-denominator determinants.

    x = E(row) and y = E(col) are scaled by the common denominator of E to
    integer vectors, so every phase c x_i y_j / kappa is an integer over one
    modulus and is read from one table of roots of unity.  With shared, the
    determinants are the shared minors of one small table per column
    (_shared_minors), else one np.linalg.det per pair.
    """
    E, c = _epsilon_map(rs)
    den = math.lcm(*(x.denominator for row in E for x in row))
    eps = np.array([[int(x * den) for x in row] for row in E], dtype=np.int64)
    X = rows @ eps.T  # (N, m) integer epsilon-coordinates
    Y = cols @ eps.T  # (n, m)
    n, m = Y.shape
    # c is 1 or 1/2, so c x_i y_j / kappa = X_i Y_j / modulus.
    modulus = int(den * den * kappa / c)
    roots = np.exp(-2j * np.pi * np.arange(modulus) / modulus)
    fam = rs.type.family
    if shared:
        if fam == "A":
            # Each column sums to 0 in A, so shifting a row by a constant
            # multiplies its determinant by exp(0): its values drop into
            # the kappa multiples 0, den, ..., (kappa - 1) den.
            X -= X.min(1, keepdims=True)
        values = _distinct(X.ravel())[0]
        if len(values) <= 64:  # the bitmask keys fit in an int64
            return _family_det(
                fam, m, roots, lambda t: _shared_minors(X, values, Y, modulus, t)
            )
    total = np.empty((len(X), n), dtype=np.complex128)
    # Per row: n int64 index matrices and one gathered complex stack
    # (24 bytes per matrix entry), with headroom for numpy temporaries.
    step = max(1, _BLOCK_BYTES // (n * m * m * 40))
    for lo in range(0, len(X), step):
        idx = X[lo : lo + step, None, :, None] * Y[None, :, None, :]
        idx %= modulus  # (step, n, m, m)
        total[lo : lo + step] = _family_det(
            fam, m, roots, lambda tab: np.linalg.det(tab[idx])
        )
    return total


def build_smatrix(ctx):
    """The S-matrix on all basis pairs.  For x = u(la+rho) and v in W_J,
    (v x | y) = (v x_J | y_J) + x^T (G - G_J) y: a Levi determinant, a phase."""
    rs = ctx.rs
    kappa = ctx.level + rs.dual_coxeter
    shifted = np.array([w[1:] for w in ctx.basis], dtype=np.int64) + 1
    levi, J, mats, signs = _levi_cosets(rs)
    den = math.lcm(rs._gram_den, levi._gram_den)
    orth = np.array(rs._gram_num) * (den // rs._gram_den)
    orth[np.ix_(J, J)] -= np.array(levi._gram_num) * (den // levi._gram_den)
    n, m = len(shifted), levi.rank + (levi.type.family == "A")
    # The sum over several cosets; one coset's determinants become S.
    total = np.zeros((n, n), dtype=np.complex128) if len(signs) > 1 else None
    # Per coset: n^2 determinants, integer phases and their exponentials,
    # and the m x m index stacks of its determinants (_determinant_sum).
    step = max(1, _BLOCK_BYTES // (n * n * (64 + 40 * m * m)))
    for lo in range(0, len(signs), step):
        moved = np.einsum("uij,nj->uni", mats[lo : lo + step], shifted)
        moved = moved.reshape(-1, rs.rank)
        block = _determinant_sum(
            levi, kappa, moved[:, J], shifted[:, J], shared=total is None
        )
        if total is None:  # one coset (A-D): orth is 0 and its sign 1
            total = block
            total += 0  # -0.0 becomes 0.0, as in a sum started at 0
        else:
            phases = (moved @ orth @ shifted.T) % (den * kappa)
            block *= np.exp(-2j * np.pi / (den * kappa) * phases)
            total += np.tensordot(signs[lo : lo + step], block.reshape(-1, n, n), 1)
    pref = (1j) ** (rs.num_positive_roots % 4) / math.sqrt(
        rs.coroot_lattice_index * kappa**rs.rank
    )
    np.multiply(pref, total, out=total)
    sm = SMatrix(ctx, total)
    sm.residual = sm.unitarity_residual()
    if not sm.residual <= 1e-6:  # also a NaN residual
        raise NumericDegradationError(f"S-matrix unitarity residual {sm.residual:.3e}")
    return sm


def verlinde_coefficient(sm, la, mu, nu, resid_tol=1e-6):
    """Fusion coefficient from the Verlinde sum, rounded to an integer.

    Raises NumericDegradationError when the sum strays from an integer by
    more than resid_tol.
    """
    S = sm.matrix
    i, j, l = sm.index(la), sm.index(mu), sm.index(nu)
    zero = sm.ctx.basis_index[sm.ctx.unit_weight]
    val = np.sum(S[i] * S[j] * S[l].conj() / S[zero])
    n = round(val.real)
    resid = abs(val - n)
    if resid > resid_tol:
        raise NumericDegradationError(
            f"Verlinde sum {val} is not within {resid_tol} of an integer"
        )
    return int(n)


def qdim_table(sm, elems):
    """Generalized quantum dimensions of every element at every probe:
    entry (i, j) is sum_la Z_la S[la, mu_j] / S[0, mu_j] for Z = elems[i],
    elems being (count, n) rows over the basis."""
    S = sm.matrix
    return sm.ctx._rows(elems, (-1,)) @ S / S[sm.index(sm.ctx.unit_weight)]

