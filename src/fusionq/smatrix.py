"""Numeric modular data: S-matrix, Verlinde coefficients, quantum dimensions.

This is the floating-point cross-check layer for the exact fusion engine.
The S-matrix is evaluated from its defining Weyl-group sum, so building it
requires enumerating the full finite Weyl group; that is intentionally
capped at rank 6 (51840 elements for E6) to keep the oracle honest about
where it is usable.
"""

from __future__ import annotations

import math

import numpy as np

from .fusion import FusionElement

_WEYL_RANK_CAP = 6
_CHUNK = 4096


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


def build_smatrix(ctx):
    """Evaluate the Weyl-sum S-matrix on all basis pairs of the context."""
    rs = ctx.rs
    mats, signs = weyl_group(rs)
    kappa = ctx.level + rs.dual_coxeter
    shifted = np.array([w[1:] for w in ctx.basis], dtype=np.int64) + 1
    gram = np.array([[float(x) for x in row] for row in rs.gram])
    n = len(ctx.basis)
    total = np.zeros((n, n), dtype=np.complex128)
    right = gram @ shifted.T  # (r, n)
    for start in range(0, len(signs), _CHUNK):
        wm = mats[start : start + _CHUNK]
        ws = signs[start : start + _CHUNK]
        moved = np.einsum("wij,nj->wni", wm, shifted)  # (chunk, n, r)
        phases = np.einsum("wni,im->wnm", moved, right)  # (chunk, n, n)
        total += np.einsum(
            "w,wnm->nm", ws.astype(np.complex128), np.exp(-2j * np.pi * phases / kappa)
        )
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


def quantum_dimension(ctx, w):
    """Sine-product quantum dimension of one basis weight (a float)."""
    rs = ctx.rs
    kappa = ctx.level + rs.dual_coxeter
    la = tuple(w)[1:] if len(w) == rs.rank + 1 else tuple(w)
    shifted = tuple(x + 1 for x in la)
    num = den = 1.0
    for alpha in rs.positive_roots:
        num *= math.sin(math.pi * float(rs.ip(shifted, alpha)) / kappa)
        den *= math.sin(math.pi * float(rs.ip(rs.rho, alpha)) / kappa)
    return num / den


def element_quantum_dimension(ctx, u):
    """Quantum dimension extended linearly to ring elements."""
    if not isinstance(u, FusionElement):
        u = ctx.basis_element(u)
    return sum(c * quantum_dimension(ctx, w) for w, c in u.terms.items())


def generalized_qdim(sm, u, mu):
    """qdim at a probe weight mu-hat: sum of Z_la * S[la, mu] / S[0, mu]."""
    ctx = sm.ctx
    if not isinstance(u, FusionElement):
        u = ctx.basis_element(u)
    col = sm.index(mu)
    zero = ctx.basis_index[ctx.unit_weight]
    s0 = sm.matrix[zero, col]
    return complex(
        sum(c * sm.matrix[sm.index(w), col] for w, c in u.terms.items()) / s0
    )
