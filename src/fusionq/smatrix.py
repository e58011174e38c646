"""Numeric modular data: S-matrix, Verlinde coefficients, quantum dimensions.

This is the floating-point cross-check layer for the exact fusion engine.
For the classical families A-D each S-matrix entry is a Weyl-denominator
determinant in epsilon-coordinates (Kac-Peterson): an (r+1)-square
determinant of exponentials for A, an r-square sine determinant for B and
C, and half the sum of a cosine and a sine determinant for D.  Their phases
are exact integers reduced mod the order of one root-of-unity table.  E, F
and G use the defining Weyl-group sum, which enumerates the whole finite
Weyl group; that is capped at rank 6 (51840 elements for E6), so E7 and E8
have no oracle.  Both paths work in blocks sized from _BLOCK_BYTES.  The
Weyl sum (weyl_group, smatrix_entry) is the reference the determinants are
tested against.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .fusion import FusionElement, quantum_dimension

_WEYL_RANK_CAP = 6
# Working-set budget for one block of either S-matrix path.
_BLOCK_BYTES = 1 << 25


class OracleUnavailableError(ValueError):
    """The Weyl-sum oracle is not built above the supported rank."""


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
        raise OracleUnavailableError(
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


def _determinant_sum(rs, kappa, shifted):
    """Weyl sums over all basis pairs as Weyl-denominator determinants.

    x = E(la+rho) and y = E(mu+rho) are scaled by the common denominator of
    E to integer vectors, so every phase c x_i y_j / kappa is an integer
    over one modulus and is read from one table of roots of unity.
    """
    E, c = _epsilon_map(rs)
    den = math.lcm(*(x.denominator for row in E for x in row))
    eps = np.array([[int(x * den) for x in row] for row in E], dtype=np.int64)
    X = shifted @ eps.T  # (n, m) integer epsilon-coordinates
    n, m = X.shape
    # c is 1 or 1/2, so c x_i y_j / kappa = X_i Y_j / modulus.
    modulus = int(den * den * kappa / c)
    roots = np.exp(-2j * np.pi * np.arange(modulus) / modulus)
    fam = rs.type.family
    total = np.empty((n, n), dtype=np.complex128)
    # Per row of la: n int64 index matrices and one gathered complex stack
    # (24 bytes per matrix entry), with headroom for numpy temporaries.
    rows = max(1, _BLOCK_BYTES // (n * m * m * 40))
    for lo in range(0, n, rows):
        idx = X[lo : lo + rows, None, :, None] * X[None, :, None, :]
        idx %= modulus  # (rows, n, m, m)
        if fam == "A":
            block = np.linalg.det(roots[idx])
        else:
            # exp(-i t) - exp(i t) = 2i Im(exp(-i t)) is the sine entry.
            block = (2j) ** m * np.linalg.det(roots.imag[idx])
            if fam == "D":
                # Even sign changes only: half the sine plus the cosine
                # determinant, exp(-i t) + exp(i t) = 2 Re(exp(-i t)).
                block = 0.5 * (block + 2.0**m * np.linalg.det(roots.real[idx]))
        total[lo : lo + rows] = block
    return total


def _weyl_sum(rs, kappa, shifted):
    """Weyl sums over all basis pairs from the explicit Weyl group."""
    mats, signs = weyl_group(rs)
    gram = np.array([[float(x) for x in row] for row in rs.gram])
    n, r = shifted.shape
    total = np.zeros((n, n), dtype=np.complex128)
    right = gram @ shifted.T  # (r, n)
    # Per Weyl element: the moved weights, the real phases, and two complex
    # temporaries of the exponential.
    chunk = max(1, _BLOCK_BYTES // (n * (8 * r + 40 * n)))
    for start in range(0, len(signs), chunk):
        wm = mats[start : start + chunk]
        ws = signs[start : start + chunk]
        moved = np.einsum("wij,nj->wni", wm, shifted)  # (chunk, n, r)
        phases = np.einsum("wni,im->wnm", moved, right)  # (chunk, n, n)
        total += np.einsum(
            "w,wnm->nm", ws.astype(np.complex128), np.exp(-2j * np.pi * phases / kappa)
        )
    return total


def build_smatrix(ctx):
    """The S-matrix on all basis pairs of the context: Weyl-denominator
    determinants for A-D, the explicit Weyl sum otherwise."""
    rs = ctx.rs
    kappa = ctx.level + rs.dual_coxeter
    shifted = np.array([w[1:] for w in ctx.basis], dtype=np.int64) + 1
    weyl_sums = _determinant_sum if rs.type.family in "ABCD" else _weyl_sum
    total = weyl_sums(rs, kappa, shifted)
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
