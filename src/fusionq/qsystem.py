"""Kirillov-Reshetikhin elements, Q-system grids, and verification reports.

The W-grid realizes classical KR characters inside the level-k fusion ring;
the checks below machine-verify, case by case, the sign/periodicity
structure of that grid, the boundary and restricted Q-systems it induces,
and the quantum-dimension consequences, reporting every comparison as a
pass/fail item.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fusion import (
    FusionContext,
    _reduced_table,
    apply_outer,
    conjugate,
    fusion_product,
    fusion_products,
)
from .smatrix import qdim_table

# Strictness margin of the positivity and monotonicity items in kns_report.
_MARGIN = 1e-10


class KRDataUnavailableError(ValueError):
    """No closed-form classical decomposition is wired for this vertex."""


def _stars_and_bars(total, parts):
    """(N, parts) int64 array of every way to write total as a sum of parts
    >= 1 non-negative integers: the parts are the gaps between parts - 1
    bars placed among total + parts - 1 slots."""
    width = parts - 1
    slots = total + width
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), width)),
        dtype=np.int64,
    ).reshape(math.comb(slots, width), width)
    n = len(bars)
    edges = np.hstack((np.full((n, 1), -1), bars, np.full((n, 1), slots)))
    return np.diff(edges, axis=1) - 1


def supported_vertices(rs):
    """Vertices with wired classical KR decompositions."""
    fam = rs.type.family
    if fam in "ABCD":
        return tuple(range(1, rs.rank + 1))
    return rs.minuscule_vertices


def _kr_column(rs, a, m):
    """The classical components of W^(a)_n for every n <= m, as one draw.

    Returns (rows, totals, step): rows is an (N, rank) int64 array whose
    coordinate a is left 0, and totals, ascending, is how many steps of
    size step each row takes off that coordinate.  The components of W_n
    are the first searchsorted(totals, n // step, "right") rows, with
    coordinate a set to n - step * totals.
    """
    fam, r = rs.type.family, rs.rank
    if not 1 <= a <= r:
        raise ValueError(f"vertex {a} out of range for {rs.type}")
    single = np.zeros((1, r), dtype=np.int64), np.zeros(1, dtype=np.int64), 1
    if m == 0:
        return single
    if fam in "BD" and not (fam == "D" and a >= r - 1):
        # k_a = m - t_a * total, with total spread over the vertices below a
        # of the same parity; even vertices carry a trivial summand slot.
        lower = list(range(a - 2, 0, -2))
        slots = len(lower) + (1 if a % 2 == 0 else 0)
        step, scale = rs.t[a - 1], 1
    elif fam == "C" and a < r:
        # k_a matches the parity of m; everything else is even.
        lower = list(range(a - 1, 0, -1))
        slots = a
        step = scale = 2
    elif fam in "ABCD" or a in rs.minuscule_vertices:
        return single
    else:
        raise KRDataUnavailableError(
            f"no classical KR decomposition available for {rs.type} vertex {a}"
        )
    # Every total up to m // step at once: the last part is the slack.
    top = m // step
    parts = _stars_and_bars(top, slots + 1)
    totals = top - parts[:, -1]
    order = np.argsort(totals, kind="stable")
    rows = np.zeros((len(parts), r), dtype=np.int64)
    rows[:, np.array(lower, dtype=np.int64) - 1] = scale * parts[order, : len(lower)]
    return rows, totals[order], step


def kr_classical_components(rs, a, m):
    """Finite highest weights in the classical restriction of one KR module.

    The supported decompositions are multiplicity-free, so the result is an
    (N, rank) int64 array of distinct dominant weights, rows in descending
    lexicographic order.  For the exceptional algebras only the minuscule
    vertices carry closed-form data (single component, and conjectural
    there); other vertices raise KRDataUnavailableError.
    """
    if m < 0:
        raise ValueError(f"KR index must be non-negative, got {m}")
    rows, totals, step = _kr_column(rs, a, m)
    rows[:, a - 1] = m - step * totals
    return rows[np.lexsort((-rows).T[::-1])]


def kr_element(ctx, a, m):
    """Fusion-ring image of the classical character of one KR module, as a
    row over the basis."""
    comps = kr_classical_components(ctx.rs, a, m)
    (row,) = _reduced_table(
        ctx, 1, len(comps), lambda p: (np.zeros_like(p), comps[p], None)
    )
    return row


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
    """Lazy table of KR elements indexed by (vertex, m); m = -1 is zero.

    Each vertex has one read-only (m, n) column of rows, W_0, W_1, ...,
    grown by fill.  A miss builds the whole column below it, and callers
    that know the top m they will read ask for it first with fill, so that
    a column is reduced in a few batched calls rather than one call per m.
    kr_element is the per-m reference.
    """

    def __init__(self, ctx, vertices=None):
        self.ctx = ctx
        self.vertices = (
            tuple(vertices) if vertices is not None else supported_vertices(ctx.rs)
        )
        for a in self.vertices:
            # Fail fast on vertices with no data instead of mid-report.
            kr_classical_components(ctx.rs, a, 1)
        self._cols = {}

    def default_horizon(self, a):
        rs = self.ctx.rs
        return period_multiplier(rs) * rs.t[a - 1] * (self.ctx.level + rs.dual_coxeter)

    def get(self, a, m):
        if m == -1:
            return self.ctx.zero()
        if m < -1:
            raise IndexError(f"no KR element W_{m}")
        return self.fill(a, m)[m]

    def fill(self, a, top):
        """The column W_0, ..., W_top of vertex a, building every missing
        W_m from one draw of the column.  The modules' rows, in order of m,
        go through one _reduced_table call, which may cut a module across
        slices."""
        col = self._cols.get(a, np.zeros((0, len(self.ctx.basis)), dtype=np.int64))
        if len(col) <= top:
            rows, totals, step = _kr_column(self.ctx.rs, a, top)
            ms = np.arange(len(col), top + 1)
            counts = np.searchsorted(totals, ms // step, side="right")
            ends = np.cumsum(counts)
            starts = ends - counts

            def rows_at(p):
                # Position p is row p - starts[j] of module W_{ms[j]}.
                j = np.searchsorted(ends, p, side="right")
                idx = p - starts[j]
                fin = rows[idx]
                fin[:, a - 1] = ms[j] - step * totals[idx]
                return j, fin, None

            found = _reduced_table(self.ctx, len(ms), int(ends[-1]), rows_at)
            col = self._cols[a] = np.concatenate((col, found))
            col.flags.writeable = False
        return col[: top + 1]


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

    def record(self, id_, vertex, m, status, detail=None):
        """Append one item; a failed item is also a counterexample."""
        item = {"id": id_, "vertex": vertex, "m": m, "status": status}
        if detail is not None:
            item["detail"] = detail
        self.items.append(item)
        if status == "fail":
            self.counterexamples.append(dict(item))

    def add(self, id_, vertex, m, ok, detail=None):
        self.record(id_, vertex, m, "pass" if ok else "fail", detail)

    def skip(self, id_, vertex, m, detail=None):
        self.record(id_, vertex, m, "skipped", detail)

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
    return ConjectureReport(check, ctx.rs.type.family, ctx.rs.rank, ctx.level)


def unsupported_report(ctx, check, note):
    """A report whose one item marks the whole check as unsupported."""
    rep = _new_report(ctx, check)
    rep.record("grid", None, None, "unsupported")
    rep.notes.append(note)
    return rep


def _neighbors(rs, a):
    """(b, -C_ab) for every Dynkin neighbor b of vertex a."""
    row = rs.cartan[a - 1]
    return [(b, -row[b - 1]) for b in range(1, rs.rank + 1) if row[b - 1] < 0]


def _sign_definite(rows):
    """Per row of an (m, n) array: no two coefficients of opposite sign."""
    return ~((rows > 0).any(axis=1) & (rows < 0).any(axis=1))


def _is_positive(rows):
    """Per row of an (m, n) array: nonzero, with no negative coefficient."""
    return rows.any(axis=1) & (rows >= 0).all(axis=1)


def _add_all(rep, id_, vertex, ms, oks):
    """One item per m in ms, each with the matching entry of oks."""
    for m, ok in zip(np.asarray(ms).tolist(), np.asarray(oks).tolist()):
        rep.add(id_, vertex, m, ok)


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
    period M*t*kappa over a two-period window.  A horizon (int) clamps the
    m-loops of items i, ii, iv, v, sign and period, and items i, iv, v,
    sign and period then read no W_m with m above it.  Items ii and iii
    still read W_{tk-m} and W_{tk}, so the KR elements up to tk are built
    whatever the horizon.  Each column is filled up front to the top m
    read, max(clamp(2 M t kappa - 1), tk), and to nothing above it.  Items
    ii and v make one apply_outer call per distinct power of tau over all
    vertices.
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

    kappa = k + rs.dual_coxeter
    M = period_multiplier(rs)

    def powers(a):
        """(n, tau_a^n, shift, the m of item v) at vertex a, for n = 1..M."""
        period = rs.t[a - 1] * kappa
        for n in range(1, M + 1):
            shift = n * period
            ms = np.arange(clamp(period - 1 + shift) - shift + 1)
            yield n, _perm_power(rs.tau_table[a], n), shift, ms

    # Items ii and v act by powers of tau_a on KR elements of every vertex:
    # one apply_outer call per distinct permutation, before any item is
    # recorded; each vertex then takes its images in the order asked.
    cols, asked = {}, {}
    for a in grid.vertices:
        ta = rs.t[a - 1]
        col = cols[a] = grid.fill(a, max(clamp(2 * M * ta * kappa - 1), ta * k))
        low = np.arange(clamp(ta * k) + 1)
        asked.setdefault(rs.tau_table[a], []).append(conjugate(ctx, col[low]))
        for _, perm, _, ms in powers(a):
            asked.setdefault(perm, []).append(col[ms])
    images = {
        perm: apply_outer(ctx, perm, np.concatenate(got)) for perm, got in asked.items()
    }
    taken = dict.fromkeys(images, 0)

    def take(perm, count):
        taken[perm] += count
        return images[perm][taken[perm] - count : taken[perm]]

    for a in grid.vertices:
        ta = rs.t[a - 1]
        period = ta * kappa
        tau = rs.tau_table[a]
        sigma = rs.sigma_table[a]
        full = M * period
        col = cols[a]

        ms = np.arange(clamp(ta * k) + 1)
        _add_all(rep, "i", a, ms, _is_positive(col[ms]))
        mirror = (col[ta * k - ms] == take(tau, len(ms))).all(axis=1)
        _add_all(rep, "ii", a, ms, mirror)
        current = [0] * (rs.rank + 1)
        current[tau[0]] = k
        terminal = np.array_equal(col[ta * k], ctx.basis_element(current))
        rep.add("iii", a, ta * k, terminal)
        ms = np.arange(ta * k + 1, clamp(period - 1) + 1)
        _add_all(rep, "iv", a, ms, ~col[ms].any(axis=1))
        for n, perm, shift, ms in powers(a):
            image = sigma**n * take(perm, len(ms))
            _add_all(rep, "v", a, ms + shift, (col[ms + shift] == image).all(axis=1))
        ms = np.arange(clamp(full - 1) + 1)
        _add_all(rep, "sign", a, ms, _sign_definite(col[ms]))
        ms = np.arange(clamp(full - 1 + full) - full + 1)
        _add_all(rep, "period", a, ms, (col[ms + full] == col[ms]).all(axis=1))
    return rep


def _relations_hold(ctx, getter, a, ms):
    """Whether the Q-system relation holds at (a, m) over any getter of
    rows, for each m in ms, as a list of bools: one fusion_products call
    over every m for the products of both sides, then one per factor of the
    neighbor product."""
    rs = ctx.rs
    ms = list(ms)
    sides = fusion_products(
        ctx,
        [(getter(a, m), getter(a, m)) for m in ms]
        + [(getter(a, m - 1), getter(a, m + 1)) for m in ms],
    )
    prods = np.tile(ctx.unit(), (len(ms), 1))
    for b, n in _neighbors(rs, a):
        cba = rs.cartan[b - 1][a - 1]
        for j in range(n):
            prods = fusion_products(
                ctx, [(p, getter(b, (j - cba * m) // n)) for p, m in zip(prods, ms)]
            )
    squares, total = sides[: len(ms)], sides[len(ms) :]
    return (squares == total + prods).all(axis=1).tolist()


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
        top = up_to if up_to is not None else grid.default_horizon(a) - 1
        if any(b not in supported for b, _ in _neighbors(rs, a)):
            rep.skip("relation", a, None, "neighbor vertex lacks KR data")
            continue
        ms = range(top + 1)
        _add_all(rep, "relation", a, ms, _relations_hold(ctx, grid.get, a, ms))
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
        for b, n in _neighbors(rs, a):
            for _ in range(n):
                rhs = fusion_product(ctx, rhs, currents[b])
        rep.add("ring", a, None, np.array_equal(lhs, rhs))

        vec = [0] * rs.rank
        for b in range(1, rs.rank + 1):
            tgt = rs.tau_table[b][0]
            if tgt:
                vec[tgt - 1] += rs.cartan[a - 1][b - 1]
        rep.add("lattice", a, None, rs.in_coroot_lattice(tuple(vec)))
    return rep


@dataclass
class RestrictedSolution:
    """The glued nonzero solution of the level-truncated system: elements[a]
    is the read-only (t_a k + 1, n) array of the rows R_0, ..., R_{t_a k}."""

    ctx: FusionContext
    elements: dict
    report: ConjectureReport

    def get(self, a, m):
        ta = self.ctx.rs.t[a - 1]
        if m == -1 or m == ta * self.ctx.level + 1:
            return self.ctx.zero()
        if m < -1:
            raise IndexError(f"no restricted element R_{m}")
        return self.elements[a][m]


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
        col = grid.fill(a, s + 1)
        mirrored = conjugate(ctx, col[ta * k - np.arange(s + 1, ta * k + 1)])
        upper = apply_outer(ctx, rs.tau_table[a], mirrored)
        elems[a] = np.concatenate((col[: s + 1], upper))
        elems[a].flags.writeable = False

    sol = RestrictedSolution(ctx=ctx, elements=elems, report=rep)
    for a in range(1, rs.rank + 1):
        ta = rs.t[a - 1]
        s = ta * k // 2
        tau = rs.tau_table[a]
        ms = range(ta * k + 1)
        _add_all(rep, "relation", a, ms, _relations_hold(ctx, sol.get, a, ms))
        _add_all(rep, "positivity", a, ms, _is_positive(elems[a]))
        # The reflected half at s + 1 mirrors s - 1 (even seam) or s (odd).
        parity = "glue-even" if ta * k % 2 == 0 else "glue-odd"
        rep.add(parity, a, s + 1, np.array_equal(grid.get(a, s + 1), sol.get(a, s + 1)))
        if ta * k % 2 == 0:
            center = apply_outer(ctx, tau, conjugate(ctx, grid.get(a, s)))
            rep.add("overlap", a, s, np.array_equal(center, grid.get(a, s)))
    return sol


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
    """Exact positive-definiteness via leading principal minors, by
    fraction-free elimination (Bareiss 1968) of K times a common
    denominator: each step's exact division leaves, in the corner of the
    trailing block, the next leading principal minor of the scaled matrix,
    which has the sign of K's."""
    den = math.lcm(*(x.denominator for row in K for x in row))
    m = [[x.numerator * (den // x.denominator) for x in row] for row in K]
    prev = 1
    while m:
        head = m[0]
        piv = head[0]
        if piv <= 0:
            return False
        m = [
            [(x * piv - r[0] * y) // prev for x, y in zip(r[1:], head[1:])]
            for r in m[1:]
        ]
        prev = piv
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


def kns_report(ctx, sm, grid=None, solution=None, tol=1e-9):
    """Verify the quantum-dimension consequences of the grid structure.

    Covers, per vertex: positivity and strict increase of the dimension
    sequence up to the midpoint, its palindrome symmetry, the unit value
    at t_a k, the zero string beyond; then the exact positive-definiteness
    of the coupling matrix, the damped product system against the
    dimension ratios, and the probe-weight identities (restricted route
    against the KR route, twisted symmetry, boundary phase, zero string).
    Every dimension comes from the S-matrix sm over ctx's basis.
    """
    rs = ctx.rs
    k = ctx.level
    if grid is None:
        grid = WGrid(ctx)
    if solution is None:
        solution = restricted_solution(ctx, grid=grid)
    rep = _new_report(ctx, "kns")
    kappa = k + rs.dual_coxeter
    unit = ctx.basis_index[ctx.unit_weight]

    # Per vertex, generalized quantum dimensions at every probe (columns)
    # of the grid rows m < t_a kappa and of the restricted rows m <= t_a k.
    qd = {}
    qd_R = {}
    dims = {}
    for a in range(1, rs.rank + 1):
        ta = rs.t[a - 1]
        qd[a] = qdim_table(sm, grid.fill(a, ta * kappa - 1))
        qd_R[a] = qdim_table(sm, solution.elements[a])
        dims[a] = qd[a][:, unit].real.tolist()

    for a in range(1, rs.rank + 1):
        ta = rs.t[a - 1]
        s = ta * k // 2
        D = dims[a]
        for m in range(ta * k + 1):
            rep.add("positivity", a, m, D[m] > _MARGIN)
        for m in range(ta * k + 1):
            rep.add("palindrome", a, m, abs(D[m] - D[ta * k - m]) <= tol)
        rep.add("terminal", a, ta * k, abs(D[ta * k] - 1.0) <= tol)
        for m in range(ta * k + 1, ta * kappa):
            rep.add("zero-string", a, m, abs(D[m]) <= tol)
        for m in range(1, s + 1):
            rep.add("monotone", a, m, D[m] - D[m - 1] > _MARGIN)

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
            rep.add("f-matches-x", a, m, abs((1.0 - fvec[idx]) - x[(a, m)]) <= tol)

    # Probe-weight identities, each evaluated at all probes at once and
    # reported at every probe where the lower-half dimensions stay away
    # from zero.  The boundary phase is exp(-2 pi i (omega_j | mu)) with
    # j = tau_a(0).  Items carry the probe's basis index in the m slot.
    labels = ctx._basis_rows[:, 1:]
    skip = np.zeros(len(ctx.basis), dtype=bool)
    oks = {}
    for a in range(1, rs.rank + 1):
        top = rs.t[a - 1] * k
        col = qd[a]
        skip |= (np.abs(col[: top // 2 + 1]) <= tol).any(axis=0)
        j = rs.tau_table[a][0]
        turns = labels @ rs._gram_num[j - 1] / rs._gram_den if j else 0.0
        phase = np.exp(-2j * math.pi * turns)
        checks = {
            "qdim-match": (np.abs(col[: top + 1] - qd_R[a]) <= tol).all(axis=0),
            "qdim-sym": (
                np.abs(col[: top + 1] - col[top] * col[top::-1].conj()) <= tol
            ).all(axis=0),
            "qdim-boundary": np.abs(col[top] - phase) <= tol,
            "qdim-zero": (np.abs(col[top + 1 :]) <= tol).all(axis=0),
        }
        oks[a] = {key: ok.tolist() for key, ok in checks.items()}
    for mu_idx, (mu, skipped) in enumerate(zip(ctx.basis, skip.tolist())):
        detail = f"mu={list(mu)}"
        if skipped:
            rep.skip("probe", None, mu_idx, f"{detail}: zero in lower half")
            continue
        for a in range(1, rs.rank + 1):
            for key, ok in oks[a].items():
                rep.add(key, a, mu_idx, ok[mu_idx], detail)
    return KNSReport(report=rep, dims=dims, points=points, x=x, f=f)
