"""Kirillov-Reshetikhin elements, Q-system grids, and verification reports.

The W-grid realizes classical KR characters inside the level-k fusion ring;
the checks below machine-verify, case by case, the sign/periodicity
structure of that grid, the boundary and restricted Q-systems it induces,
and the quantum-dimension consequences, reporting every comparison as a
pass/fail item.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fusion import (
    FusionContext,
    FusionElement,
    affinize,
    alcove_reduce,
    apply_outer,
    conjugate,
    fusion_product,
)
from .smatrix import (
    build_smatrix,
    element_quantum_dimension,
    generalized_qdim,
)


class KRDataUnavailableError(ValueError):
    """No closed-form classical decomposition is wired for this vertex."""


def _compositions(total, parts):
    """All tuples of `parts` non-negative integers summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def supported_vertices(rs):
    """Vertices with wired classical KR decompositions."""
    fam = rs.type.family
    if fam in "ABCD":
        return tuple(range(1, rs.rank + 1))
    return rs.minuscule_vertices


def kr_classical_components(rs, a, m):
    """Finite highest weights in the classical restriction of one KR module.

    The supported decompositions are multiplicity-free, so the result is a
    tuple of distinct dominant weights.  For the exceptional algebras only
    the minuscule vertices carry closed-form data (single component, and
    conjectural there); other vertices raise KRDataUnavailableError.
    """
    fam, r = rs.type.family, rs.rank
    if not 1 <= a <= r:
        raise ValueError(f"vertex {a} out of range for {rs.type}")
    if m < 0:
        raise ValueError(f"KR index must be non-negative, got {m}")
    zero = (0,) * r

    def single():
        w = [0] * r
        w[a - 1] = m
        return (tuple(w),)

    if m == 0:
        return (zero,)
    if fam == "A":
        return single()

    if fam == "B":
        ta = rs.t[a - 1]
        lower = list(range(a - 2, 0, -2))
        # Even vertices carry a trivial summand slot; odd ones do not.
        slots = len(lower) + (1 if a % 2 == 0 else 0)
        out = []
        for total in range(m // ta + 1):
            ka = m - ta * total
            for combo in _compositions(total, slots):
                w = [0] * r
                w[a - 1] = ka
                for j, c in zip(lower, combo):
                    w[j - 1] = c
                out.append(tuple(w))
        return tuple(sorted(out, reverse=True))

    if fam == "C":
        if a == r:
            return single()
        # k_a matches the parity of m; everything else is even.
        out = []
        for ka in range(m, -1, -2):
            half = (m - ka) // 2
            for combo in _compositions(half, a):
                w = [0] * r
                w[a - 1] = ka
                for j, c in zip(range(a - 1, 0, -1), combo):
                    w[j - 1] = 2 * c
                out.append(tuple(w))
        return tuple(sorted(out, reverse=True))

    if fam == "D":
        if a >= r - 1:
            return single()
        lower = list(range(a - 2, 0, -2))
        slots = len(lower) + (1 if a % 2 == 0 else 0)
        out = []
        for total in range(m + 1):
            ka = m - total
            for combo in _compositions(total, slots):
                w = [0] * r
                w[a - 1] = ka
                for j, c in zip(lower, combo):
                    w[j - 1] = c
                out.append(tuple(w))
        return tuple(sorted(out, reverse=True))

    if a in rs.minuscule_vertices:
        return single()
    raise KRDataUnavailableError(
        f"no classical KR decomposition available for {rs.type} vertex {a}"
    )


def kr_element(ctx, a, m):
    """Fusion-ring image of the classical character of one KR module."""
    acc = {}
    for w in kr_classical_components(ctx.rs, a, m):
        red = alcove_reduce(ctx, affinize(ctx, w))
        if red.sign:
            acc[red.weight] = acc.get(red.weight, 0) + red.sign
    return FusionElement(acc)


def period_multiplier(rs):
    """Smallest n with sigma_a^n = tau_a^n = identity for every vertex."""
    fam, r = rs.type.family, rs.rank
    if fam == "A":
        return r + 1
    if fam in ("B", "C"):
        return 2
    if fam == "D":
        return 2 if r % 2 == 0 else 4
    if fam == "E" and r == 6:
        return 3
    if fam == "E" and r == 7:
        return 2
    return 1


class WGrid:
    """Lazy table of KR elements indexed by (vertex, m); m = -1 is zero."""

    def __init__(self, ctx, vertices=None):
        self.ctx = ctx
        self.vertices = (
            tuple(vertices) if vertices is not None else supported_vertices(ctx.rs)
        )
        for a in self.vertices:
            # Fail fast on vertices with no data instead of mid-report.
            kr_classical_components(ctx.rs, a, 1)
        self._elems = {}

    def default_horizon(self, a):
        rs = self.ctx.rs
        return period_multiplier(rs) * rs.t[a - 1] * (self.ctx.level + rs.dual_coxeter)

    def get(self, a, m):
        if m == -1:
            return self.ctx.zero()
        key = (a, m)
        elem = self._elems.get(key)
        if elem is None:
            elem = self._elems[key] = kr_element(self.ctx, a, m)
        return elem


def generate_w_grid(ctx, vertices=None, horizon=None):
    """Build a WGrid and fill it up to the horizon (default: one full
    predicted period per vertex)."""
    grid = WGrid(ctx, vertices)
    for a in grid.vertices:
        top = grid.default_horizon(a) if horizon is None else horizon
        for m in range(top + 1):
            grid.get(a, m)
    return grid


# -- reports ------------------------------------------------------------------


@dataclass
class ConjectureReport:
    """Itemized outcome of one verification run."""

    check: str
    family: str
    rank: int
    level: int
    items: list = field(default_factory=list)
    counterexamples: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.counterexamples and all(
            it["status"] != "fail" for it in self.items
        )

    def add(self, id_, vertex, m, ok, detail=None):
        item = {"id": id_, "vertex": vertex, "m": m, "status": "pass" if ok else "fail"}
        if detail is not None:
            item["detail"] = detail
        self.items.append(item)
        if not ok:
            self.counterexamples.append(dict(item))
        return ok

    def skip(self, id_, vertex, m, detail=None):
        item = {"id": id_, "vertex": vertex, "m": m, "status": "skipped"}
        if detail is not None:
            item["detail"] = detail
        self.items.append(item)

    def to_obj(self):
        obj = {
            "check": self.check,
            "family": self.family,
            "rank": self.rank,
            "level": self.level,
            "items": self.items,
            "counterexamples": self.counterexamples,
        }
        if self.notes:
            obj["notes"] = self.notes
        return obj


def _new_report(ctx, check):
    return ConjectureReport(
        check=check,
        family=ctx.rs.type.family,
        rank=ctx.rs.rank,
        level=ctx.level,
    )


def unsupported_report(ctx, check, note):
    """A report whose one item marks the whole check as unsupported."""
    rep = _new_report(ctx, check)
    rep.items.append({"id": "grid", "vertex": None, "m": None, "status": "unsupported"})
    rep.notes.append(note)
    return rep


def _sign_definite(elem):
    signs = {1 if c > 0 else -1 for c in elem.terms.values()}
    return len(signs) <= 1


def _is_positive(elem):
    return bool(elem) and all(c > 0 for c in elem.terms.values())


def _perm_power(perm, n):
    out = tuple(range(len(perm)))
    for _ in range(n):
        out = tuple(perm[i] for i in out)
    return out


def check_conjecture(ctx, vertices=None, horizon=None, grid=None):
    """Verify the sign, symmetry, truncation and periodicity structure of
    the KR grid, item by item.

    For each vertex a with t = t_a, k the level and kappa = k + h-dual:
    positivity on [0, tk]; the centro-symmetry against the conjugate grid;
    the simple-current value at tk; the zero string on (tk, t*kappa); the
    twisted periodicity over n = 1..M; sign-definiteness and the full
    period M*t*kappa over a two-period window.  A horizon (int) truncates
    every m-loop for quick partial runs.
    """
    if grid is None:
        grid = WGrid(ctx, vertices)
    if not grid.vertices:
        return unsupported_report(
            ctx, "conjecture", "no vertex carries closed-form KR data; nothing to check"
        )
    rs = ctx.rs
    k = ctx.level
    rep = _new_report(ctx, "conjecture")
    if set(grid.vertices) != set(range(1, rs.rank + 1)):
        rep.notes.append(
            "exceptional KR data is conjectural and limited to minuscule vertices"
        )

    def clamp(m):
        return m if horizon is None else min(m, horizon)

    for a in grid.vertices:
        ta = rs.t[a - 1]
        kappa = k + rs.dual_coxeter
        period = ta * kappa
        M = period_multiplier(rs)
        tau = rs.tau_table[a]
        sigma = rs.sigma_table[a]

        for m in range(clamp(ta * k) + 1):
            rep.add("i", a, m, _is_positive(grid.get(a, m)))
        for m in range(clamp(ta * k) + 1):
            lhs = grid.get(a, ta * k - m)
            rhs = apply_outer(ctx, tau, conjugate(ctx, grid.get(a, m)))
            rep.add("ii", a, m, lhs == rhs)
        current = [0] * (rs.rank + 1)
        current[tau[0]] = k
        rep.add("iii", a, ta * k, grid.get(a, ta * k) == ctx.basis_element(current))
        for m in range(ta * k + 1, clamp(period - 1) + 1):
            rep.add("iv", a, m, not grid.get(a, m))
        for n in range(1, M + 1):
            perm = _perm_power(tau, n)
            sgn = sigma**n
            for m in range(clamp(period - 1) + 1):
                if horizon is not None and m + n * period > horizon:
                    continue
                lhs = grid.get(a, m + n * period)
                rhs = sgn * apply_outer(ctx, perm, grid.get(a, m))
                rep.add("v", a, m + n * period, lhs == rhs)
        full = M * period
        for m in range(clamp(full - 1) + 1):
            rep.add("sign", a, m, _sign_definite(grid.get(a, m)))
        for m in range(clamp(full - 1) + 1):
            if horizon is not None and m + full > horizon:
                continue
            rep.add("period", a, m, grid.get(a, m + full) == grid.get(a, m))
    return rep


def _qsystem_rhs(ctx, getter, a, m):
    """Right-hand side of the Q-system relation at (a, m) over any getter."""
    rs = ctx.rs
    C = rs.cartan
    total = fusion_product(ctx, getter(a, m - 1), getter(a, m + 1))
    prod = ctx.unit()
    for b in range(1, rs.rank + 1):
        cab = C[a - 1][b - 1]
        if b == a or cab >= 0:
            continue
        cba = C[b - 1][a - 1]
        for j in range(-cab):
            idx = (cba * m - j) // cab
            prod = fusion_product(ctx, prod, getter(b, idx))
    return total + prod


def check_unrestricted(ctx, grid=None, up_to=None):
    """Verify the unrestricted Q-system relation on the W-grid.

    up_to bounds the checked m per vertex (default: one period minus one).
    Vertices whose neighbors carry no KR data are reported as skipped.
    """
    if grid is None:
        grid = WGrid(ctx)
    rs = ctx.rs
    rep = _new_report(ctx, "unrestricted")
    supported = set(grid.vertices)
    for a in grid.vertices:
        neighbors = [
            b
            for b in range(1, rs.rank + 1)
            if b != a and rs.cartan[a - 1][b - 1] < 0
        ]
        top = up_to if up_to is not None else grid.default_horizon(a) - 1
        if any(b not in supported for b in neighbors):
            rep.skip("relation", a, None, "neighbor vertex lacks KR data")
            continue
        for m in range(top + 1):
            lhs = fusion_product(ctx, grid.get(a, m), grid.get(a, m))
            rhs = _qsystem_rhs(ctx, grid.get, a, m)
            rep.add("relation", a, m, lhs == rhs)
    return rep


def boundary_check(ctx):
    """Verify the boundary system of simple currents, twice over.

    The ring route squares each current and compares with the product of
    its neighbors' currents; the lattice route checks the exact integral
    condition that makes every generalized quantum dimension of both sides
    agree.
    """
    rs = ctx.rs
    k = ctx.level
    rep = _new_report(ctx, "boundary")
    currents = {}
    for a in range(1, rs.rank + 1):
        w = [0] * (rs.rank + 1)
        w[rs.tau_table[a][0]] = k
        currents[a] = ctx.basis_element(w)
    for a in range(1, rs.rank + 1):
        lhs = fusion_product(ctx, currents[a], currents[a])
        rhs = ctx.unit()
        for b in range(1, rs.rank + 1):
            cab = rs.cartan[a - 1][b - 1]
            if b == a or cab >= 0:
                continue
            for _ in range(-cab):
                rhs = fusion_product(ctx, rhs, currents[b])
        rep.add("ring", a, None, lhs == rhs)

        vec = [0] * rs.rank
        for b in range(1, rs.rank + 1):
            tgt = rs.tau_table[b][0]
            if tgt:
                vec[tgt - 1] += rs.cartan[a - 1][b - 1]
        rep.add("lattice", a, None, rs.in_coroot_lattice(tuple(vec)))
    return rep


@dataclass
class RestrictedSolution:
    """The glued nonzero solution of the level-truncated system."""

    ctx: FusionContext
    elements: dict
    report: ConjectureReport

    def get(self, a, m):
        ta = self.ctx.rs.t[a - 1]
        if m == -1 or m == ta * self.ctx.level + 1:
            return self.ctx.zero()
        return self.elements[(a, m)]


def restricted_solution(ctx, grid=None):
    """Build the glued solution R and verify it solves the truncated system.

    The lower half copies the KR grid; the upper half is the conjugated,
    current-twisted reflection.  Items cover the defining relations on
    [0, t_a k], positivity, the gluing identities at the seam (both
    parities), and, for even seams, the central self-consistency.
    """
    rs = ctx.rs
    if rs.type.family not in "ABCD":
        raise KRDataUnavailableError(
            f"restricted solution needs KR data at every vertex; {rs.type} lacks it"
        )
    if grid is None:
        grid = WGrid(ctx)
    k = ctx.level
    rep = _new_report(ctx, "restricted")
    elems = {}
    for a in range(1, rs.rank + 1):
        ta = rs.t[a - 1]
        s = ta * k // 2
        tau = rs.tau_table[a]
        for m in range(s + 1):
            elems[(a, m)] = grid.get(a, m)
        for m in range(s + 1, ta * k + 1):
            mirrored = conjugate(ctx, grid.get(a, ta * k - m))
            elems[(a, m)] = apply_outer(ctx, tau, mirrored)

    sol = RestrictedSolution(ctx=ctx, elements=elems, report=rep)
    for a in range(1, rs.rank + 1):
        ta = rs.t[a - 1]
        s = ta * k // 2
        tau = rs.tau_table[a]
        for m in range(ta * k + 1):
            lhs = fusion_product(ctx, sol.get(a, m), sol.get(a, m))
            rhs = _qsystem_rhs(ctx, sol.get, a, m)
            rep.add("relation", a, m, lhs == rhs)
        for m in range(ta * k + 1):
            rep.add("positivity", a, m, _is_positive(sol.get(a, m)))
        glued = apply_outer(
            ctx, tau, conjugate(ctx, grid.get(a, s - 1 if ta * k % 2 == 0 else s))
        )
        parity = "glue-even" if ta * k % 2 == 0 else "glue-odd"
        rep.add(parity, a, s + 1, grid.get(a, s + 1) == glued)
        if ta * k % 2 == 0:
            center = apply_outer(ctx, tau, conjugate(ctx, grid.get(a, s)))
            rep.add("overlap", a, s, center == grid.get(a, s))
    return sol


def admissibility_matrix(ctx, a, m, solution=None):
    """Multiplication matrix of R^(a)_m on the fusion basis, as integers."""
    if solution is None:
        solution = restricted_solution(ctx)
    R = solution.get(a, m)
    n = len(ctx.basis)
    out = np.zeros((n, n), dtype=np.int64)
    for i, la in enumerate(ctx.basis):
        prod = fusion_product(ctx, R, ctx.basis_element(la))
        for w, c in prod.terms.items():
            out[i, ctx.basis_index[w]] = c
    return out


# -- zero strings and uniqueness over numeric tables --------------------------


def _tzero(val, tol):
    return abs(val) <= tol


def zero_string_lemmas(rs, table, m, tol=1e-9):
    """Check the four zero-propagation implications on a numeric solution.

    table maps (a, mm) to complex values of a Q-system solution; m is the
    block index.  Each item records whether the hypothesis held and, when
    it did, whether the concluded string of zeros is present.  Items with
    false hypotheses are reported as skipped.
    """
    I = tuple(range(1, rs.rank + 1))
    t = {a: rs.t[a - 1] for a in I}
    rep = ConjectureReport(
        check="zero-strings", family=rs.type.family, rank=rs.rank, level=-1
    )

    def allz(pairs):
        return all(_tzero(table[p], tol) for p in pairs)

    # Zeros just above a block boundary propagate to the block end.
    hyp = all(_tzero(table[(a, t[a] * m + 1)], tol) for a in I)
    if hyp:
        rep.add(
            "above-boundary",
            None,
            m,
            allz([(a, mm) for a in I for mm in range(t[a] * m + 1, t[a] * (m + 1) + 1)]),
        )
    else:
        rep.skip("above-boundary", None, m, "hypothesis not satisfied")

    # Zeros on a block boundary propagate through the block interior.
    hyp = all(_tzero(table[(a, t[a] * m)], tol) for a in I)
    if hyp:
        rep.add(
            "on-boundary",
            None,
            m,
            allz([(a, mm) for a in I for mm in range(t[a] * m + 1, t[a] * (m + 1))]),
        )
    else:
        rep.skip("on-boundary", None, m, "hypothesis not satisfied")

    # A nonzero approach to a boundary solving the boundary system forces
    # a two-block string of zeros.
    if m >= 1:
        nz = all(not _tzero(table[(a, t[a] * m - 1)], tol) for a in I)
        bdry = True
        for a in I:
            lhs = table[(a, t[a] * m)] ** 2
            rhs = 1.0
            for b in I:
                cab = rs.cartan[a - 1][b - 1]
                if b != a and cab < 0:
                    rhs *= table[(b, t[b] * m)] ** (-cab)
            if abs(lhs - rhs) > tol:
                bdry = False
        if nz and bdry:
            rep.add(
                "boundary-forced",
                None,
                m,
                allz(
                    [
                        (a, mm)
                        for a in I
                        for mm in range(t[a] * m + 1, t[a] * (m + 2))
                    ]
                ),
            )
        else:
            rep.skip("boundary-forced", None, m, "hypothesis not satisfied")

    # A full zero block followed by one more zero at some vertex extends
    # the string one block further.
    hyp = all(
        _tzero(table[(a, mm)], tol)
        for a in I
        for mm in range(t[a] * m, t[a] * (m + 1))
    ) and any(_tzero(table[(b, t[b] * (m + 1))], tol) for b in I)
    if hyp:
        rep.add(
            "extend-block",
            None,
            m,
            allz(
                [
                    (a, mm)
                    for a in I
                    for mm in range(t[a] * (m + 1), t[a] * (m + 2))
                ]
            ),
        )
    else:
        rep.skip("extend-block", None, m, "hypothesis not satisfied")
    return rep


def uniqueness_check(rs, level, restricted_table, unrestricted_table, tol=1e-9):
    """Nowhere-zero truncated solutions agreeing at m <= 1 agree everywhere.

    Both tables map (a, m) to complex values, the first over the truncated
    index set, the second over at least the same range.
    """
    I = tuple(range(1, rs.rank + 1))
    rep = ConjectureReport(
        check="uniqueness", family=rs.type.family, rank=rs.rank, level=level
    )
    tops = {a: rs.t[a - 1] * level for a in I}
    nowhere_zero = all(
        not _tzero(restricted_table[(a, m)], tol)
        for a in I
        for m in range(tops[a] + 1)
    )
    agree_low = all(
        abs(restricted_table[(a, m)] - unrestricted_table[(a, m)]) <= tol
        for a in I
        for m in (0, 1)
    )
    if not (nowhere_zero and agree_low):
        rep.skip("agree", None, None, "hypothesis not satisfied")
        return rep
    for a in I:
        for m in range(tops[a] + 1):
            rep.add(
                "agree",
                a,
                m,
                abs(restricted_table[(a, m)] - unrestricted_table[(a, m)]) <= tol,
            )
    return rep


# -- quantum dimension tables and the damped product system -------------------


def open_index_set(rs, level):
    """Interior grid points (a, m) with 1 <= m <= t_a * level - 1."""
    return tuple(
        (a, m)
        for a in range(1, rs.rank + 1)
        for m in range(1, rs.t[a - 1] * level - 1 + 1)
    )


def coupling_matrix(rs, level):
    """The exact symmetric coupling matrix on the interior grid points."""
    points = open_index_set(rs, level)
    K = []
    for a, m in points:
        row = []
        for b, n in points:
            ip = rs.ip(rs.simple_roots[a - 1], rs.simple_roots[b - 1])
            tb, ta = rs.t[b - 1], rs.t[a - 1]
            row.append(ip * (min(tb * m, ta * n) - Fraction(m * n, level)))
        K.append(row)
    return points, K


def _principal_minors_positive(K):
    """Exact positive-definiteness via leading principal minors."""
    n = len(K)
    m = [[Fraction(x) for x in row] for row in K]
    # Fraction-free-ish Gaussian elimination tracking pivot products.
    minor = Fraction(1)
    for col in range(n):
        piv = m[col][col]
        minor *= piv
        if minor <= 0:
            return False
        if piv == 0:
            return False
        for i in range(col + 1, n):
            f = m[i][col] / piv
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return True


def solve_f_system(K, tol=1e-12, max_iter=100000):
    """Solve f = prod (1 - f)^K on (0, 1)^n, starting from f = 1/2.

    Works on g(L) = L - K log(1 - e^L) with L = log f, taking damped
    Newton steps with a halving line search on the residual.  The plain
    damped fixed-point update diverges here: at the solution its Jacobian
    is similar to -H K H with H = diag(sqrt(f/(1-f))), so its spectrum is
    negative with norm well past the stability bound for any fixed
    damping once the grid has more than a few points.  Returns
    (f, converged, iterations).
    """
    Kf = np.array([[float(x) for x in row] for row in K])
    n = len(K)
    L = np.full(n, math.log(0.5))

    def g(L):
        return L - Kf @ np.log1p(-np.exp(L))

    res = g(L)
    for it in range(1, max_iter + 1):
        nrm = np.max(np.abs(res))
        if nrm < tol:
            return np.exp(L), True, it
        f = np.exp(L)
        jac = np.eye(n) + Kf * (f / (1.0 - f))[None, :]
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            return np.exp(L), False, it
        alpha = 1.0
        while alpha > 2.0**-40:
            cand = np.minimum(L + alpha * step, -1e-15)
            cres = g(cand)
            if np.max(np.abs(cres)) < nrm:
                L, res = cand, cres
                break
            alpha *= 0.5
        else:
            return np.exp(L), False, it
    return np.exp(L), False, max_iter


@dataclass
class KNSReport:
    """Quantum-dimension tables, coupling data and the report over them."""

    report: ConjectureReport
    dims: dict
    points: tuple
    x: dict
    f: dict


def kns_report(ctx, grid=None, solution=None, tol=1e-9, margin=1e-10):
    """Verify the quantum-dimension consequences of the grid structure.

    Covers, per vertex: positivity and strict increase of the dimension
    sequence up to the midpoint, its palindrome symmetry, the unit value
    at t_a k, the zero string beyond; then the exact positive-definiteness
    of the coupling matrix, the damped product system against the
    dimension ratios, and the probe-weight identities (restricted route
    against the KR route, twisted symmetry, boundary phase, zero string).
    """
    rs = ctx.rs
    k = ctx.level
    if grid is None:
        grid = WGrid(ctx)
    if solution is None:
        solution = restricted_solution(ctx, grid=grid)
    sm = build_smatrix(ctx)
    rep = _new_report(ctx, "kns")
    kappa = k + rs.dual_coxeter

    dims = {}
    for a in range(1, rs.rank + 1):
        ta = rs.t[a - 1]
        dims[a] = [
            element_quantum_dimension(ctx, grid.get(a, m))
            for m in range(ta * kappa)
        ]

    for a in range(1, rs.rank + 1):
        ta = rs.t[a - 1]
        s = ta * k // 2
        D = dims[a]
        for m in range(ta * k + 1):
            rep.add("positivity", a, m, D[m] > margin)
        for m in range(ta * k + 1):
            rep.add("palindrome", a, m, abs(D[m] - D[ta * k - m]) <= tol)
        rep.add("terminal", a, ta * k, abs(D[ta * k] - 1.0) <= tol)
        for m in range(ta * k + 1, ta * kappa):
            rep.add("zero-string", a, m, abs(D[m]) <= tol)
        for m in range(1, s + 1):
            rep.add("monotone", a, m, D[m] - D[m - 1] > margin)

    points, K = coupling_matrix(rs, k)
    rep.add("coupling-posdef", None, None, _principal_minors_positive(K))
    x = {}
    f = {}
    if points:
        fvec, converged, iters = solve_f_system(K)
        rep.add("f-converged", None, None, converged, f"iterations={iters}")
        for idx, (a, m) in enumerate(points):
            D = dims[a]
            x[(a, m)] = D[m - 1] * D[m + 1] / D[m] ** 2
            f[(a, m)] = float(fvec[idx])
            rep.add("f-range", a, m, 0.0 < fvec[idx] < 1.0)
            rep.add("f-matches-x", a, m, abs((1.0 - fvec[idx]) - x[(a, m)]) <= 1e-9)

    # Probe-weight identities, at every probe where the lower-half
    # dimensions stay away from zero.  Items carry the probe's basis
    # index in the m slot.
    for mu_idx, mu in enumerate(ctx.basis):
        mu_fin = mu[1:]
        ok_probe = True
        qd = {}
        for a in range(1, rs.rank + 1):
            ta = rs.t[a - 1]
            qd[a] = [
                generalized_qdim(sm, grid.get(a, m), mu)
                for m in range(ta * kappa)
            ]
            if any(
                abs(qd[a][m]) <= tol for m in range(ta * k // 2 + 1)
            ):
                ok_probe = False
        if not ok_probe:
            rep.skip("probe", None, mu_idx, f"mu={list(mu)}: zero in lower half")
            continue
        for a in range(1, rs.rank + 1):
            ta = rs.t[a - 1]
            phase = cmath.exp(
                -2j
                * math.pi
                * float(rs.ip(rs.fundamental_weight(rs.tau_table[a][0]), mu_fin))
            )
            oks = {"qdim-match": True, "qdim-sym": True, "qdim-boundary": True, "qdim-zero": True}
            for m in range(ta * k + 1):
                via_R = generalized_qdim(sm, solution.get(a, m), mu)
                if abs(qd[a][m] - via_R) > tol:
                    oks["qdim-match"] = False
                if abs(qd[a][m] - qd[a][ta * k] * qd[a][ta * k - m].conjugate()) > tol:
                    oks["qdim-sym"] = False
            if abs(qd[a][ta * k] - phase) > tol:
                oks["qdim-boundary"] = False
            for m in range(ta * k + 1, ta * kappa):
                if abs(qd[a][m]) > tol:
                    oks["qdim-zero"] = False
            for key, ok in oks.items():
                rep.add(key, a, mu_idx, ok, f"mu={list(mu)}")
    return KNSReport(report=rep, dims=dims, points=points, x=x, f=f)
