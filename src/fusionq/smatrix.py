"""Numeric modular data: S-matrix, Verlinde coefficients, quantum dimensions.

This is the floating-point cross-check layer for the exact fusion engine.
Every family takes one path.  The Weyl group is the union of cosets W_J u
of a classical Levi subgroup W_J (all of W for A-D), and each coset gives a
Weyl-denominator determinant of the Levi type in epsilon-coordinates
(Kac-Peterson) times one exact phase for the part orthogonal to J.  Work
goes in blocks sized from _BLOCK_BYTES.  The explicit Weyl-group sum
(weyl_group, smatrix_entry) is the reference it is tested against.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .cartan import build_root_system
from .fusion import FusionElement, quantum_dimension

_WEYL_RANK_CAP = 6
# Working-set budget for one block of cosets or of determinant rows.
_BLOCK_BYTES = 1 << 25
# Classical Levi: family, rank, parent vertices J (1-based) in the Levi's order.
_LEVI = {
    "E6": ("D", 5, (5, 4, 3, 2, 6)),
    "E7": ("D", 6, (6, 5, 4, 3, 2, 7)),
    "E8": ("D", 7, (1, 2, 3, 4, 5, 6, 8)),
    "F4": ("B", 3, (1, 2, 3)),
    "G2": ("A", 1, (1,)),
}


class NumericDegradationError(ArithmeticError):
    """A floating-point quantity drifted past its admissible residual."""


def weyl_group(rs):
    """All Weyl group elements as matrices on fundamental-weight coordinates.

    Returns (mats, signs): an (N, r, r) int array of matrices acting on
    column vectors and an (N,) array of determinant signs.  Cached on rs.
    """
    cached = getattr(rs, "_weyl_cache", None)
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
    result = (np.stack(mats), np.array(signs, dtype=np.int64))
    rs._weyl_cache = result
    return result


class SMatrix:
    """The modular S-matrix over one level's basis."""

    def __init__(self, ctx, matrix):
        self.ctx = ctx
        self.basis = ctx.basis
        self.matrix = matrix

    def index(self, w):
        return self.ctx.basis_index[tuple(w)]

    def entry(self, la, mu):
        return self.matrix[self.index(la), self.index(mu)]

    def unitarity_residual(self):
        n = len(self.basis)
        return float(
            np.max(np.abs(self.matrix @ self.matrix.conj().T - np.eye(n)))
        )

    def symmetry_residual(self):
        return float(np.max(np.abs(self.matrix - self.matrix.T)))


def _epsilon_map(rs):
    """Epsilon-coordinates of the classical families, exactly.

    Returns (E, c): E is an m x r matrix of Fractions whose column a is
    omega_{a+1} in epsilon-coordinates (m = r+1 for A, r otherwise), and
    (x | y) = c * sum x_i y_i, so c * E^T E equals the Gram matrix.
    """
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


def _determinant_sum(rs, kappa, rows, cols):
    """Weyl sums of all pairs of integer label rows and columns as
    Weyl-denominator determinants.

    x = E(row) and y = E(col) are scaled by the common denominator of E to
    integer vectors, so every phase c x_i y_j / kappa is an integer over one
    modulus and is read from one table of roots of unity.
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
    total = np.empty((len(X), n), dtype=np.complex128)
    # Per row: n int64 index matrices and one gathered complex stack
    # (24 bytes per matrix entry), with headroom for numpy temporaries.
    step = max(1, _BLOCK_BYTES // (n * m * m * 40))
    for lo in range(0, len(X), step):
        idx = X[lo : lo + step, None, :, None] * Y[None, :, None, :]
        idx %= modulus  # (step, n, m, m)
        if fam == "A":
            block = np.linalg.det(roots[idx])
        else:
            # exp(-i t) - exp(i t) = 2i Im(exp(-i t)) is the sine entry.
            block = (2j) ** m * np.linalg.det(roots.imag[idx])
            if fam == "D":
                # Even sign changes only: half the sine plus the cosine
                # determinant, exp(-i t) + exp(i t) = 2 Re(exp(-i t)).
                block = 0.5 * (block + 2.0**m * np.linalg.det(roots.real[idx]))
        total[lo : lo + step] = block
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
    n, total = len(shifted), 0
    # Per coset: n^2 determinants, integer phases and their exponentials.
    step = max(1, _BLOCK_BYTES // (n * n * 64))
    for lo in range(0, len(signs), step):
        moved = np.einsum("uij,nj->uni", mats[lo : lo + step], shifted)
        moved = moved.reshape(-1, rs.rank)
        block = _determinant_sum(levi, kappa, moved[:, J], shifted[:, J])
        phases = (moved @ orth @ shifted.T) % (den * kappa)
        block *= np.exp(-2j * np.pi / (den * kappa) * phases)
        block = block.reshape(-1, n, n)
        total = total + np.tensordot(signs[lo : lo + step], block, 1)
    pref = (1j) ** (rs.num_positive_roots % 4) / math.sqrt(
        rs.coroot_lattice_index * kappa**rs.rank
    )
    sm = SMatrix(ctx, pref * total)
    resid = sm.unitarity_residual()
    if resid > 1e-6:
        raise NumericDegradationError(f"S-matrix unitarity residual {resid:.3e}")
    return sm


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


def element_quantum_dimension(ctx, u):
    """Quantum dimension extended linearly to ring elements."""
    if not isinstance(u, FusionElement):
        u = ctx.basis_element(u)
    return sum(c * quantum_dimension(ctx, w) for w, c in u.terms.items())


def qdim_table(sm, elems):
    """Generalized quantum dimensions of every element at every probe:
    entry (i, j) is sum_la Z_la S[la, mu_j] / S[0, mu_j] for Z = elems[i]."""
    S = sm.matrix
    return sm.ctx.coefficients(elems) @ S / S[sm.index(sm.ctx.unit_weight)]


def generalized_qdim(sm, u, mu):
    """qdim at a probe weight mu-hat: sum of Z_la * S[la, mu] / S[0, mu]."""
    if not isinstance(u, FusionElement):
        u = sm.ctx.basis_element(u)
    return complex(qdim_table(sm, [u])[0, sm.index(mu)])
