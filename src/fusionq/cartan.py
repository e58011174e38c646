"""Exact root-system data for the finite-dimensional simple Lie algebras.

Everything here is integer or Fraction arithmetic: Cartan matrices, the
invariant bilinear form normalized so long roots have squared length 2,
positive roots, weight systems with Freudenthal multiplicities, and the
diagram-automorphism tables used by the affine fusion machinery.

Weights are plain tuples of ints in the fundamental-weight basis, index 0
holding the coefficient of the first fundamental weight.  Vertex labels in
the public API are 1-based to match the usual Dynkin diagram numbering;
affine data (extended diagram, automorphism permutations) uses index 0 for
the affine vertex.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class BetaChainError(ValueError):
    """No admissible root chain exists at some pairing level."""


@dataclass(frozen=True)
class DynkinType:
    """A simple Lie algebra family letter and rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _RANK_BOUNDS:
            raise ValueError(f"unknown family {self.family!r}; expected one of A-G")
        lo, hi = _RANK_BOUNDS[self.family]
        if self.rank < lo:
            raise ValueError(f"{self.family}_r requires rank >= {lo}, got {self.rank}")
        if hi is not None and self.rank > hi:
            raise ValueError(f"{self.family}_r requires rank <= {hi}, got {self.rank}")

    def __str__(self):
        return f"{self.family}{self.rank}"


def _diagram(family, rank):
    """Edge list (1-based vertex pairs) and squared-length ratios t_a."""
    chain = [(i, i + 1) for i in range(1, rank)]
    if family == "A":
        return chain, [1] * rank
    if family == "B":
        # Final root is the short one.
        return chain, [1] * (rank - 1) + [2]
    if family == "C":
        # Final root is the long one.
        return chain, [2] * (rank - 1) + [1]
    if family == "D":
        edges = [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
        return edges, [1] * rank
    if family == "E":
        branch = {6: 3, 7: 3, 8: 5}[rank]
        edges = [(i, i + 1) for i in range(1, rank - 1)] + [(branch, rank)]
        return edges, [1] * rank
    if family == "F":
        return chain, [1, 1, 2, 2]
    if family == "G":
        return chain, [1, 3]
    raise AssertionError(family)


def _mat_inverse(rows):
    """Invert a square matrix of Fractions by Gauss-Jordan elimination."""
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _mat_det(rows):
    """Determinant over Fractions, fraction-free enough for rank <= 8."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            if m[i][col]:
                f = m[i][col] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def _compose(p, q):
    # (p o q)(i) = p(q(i))
    return tuple(p[i] for i in q)


def _close_group(gens, identity):
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                gh = _compose(h, g)
                if gh not in group:
                    group.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return sorted(group)


def _outer_generators(family, rank):
    """Generators of the extended-diagram automorphism group, as permutations
    of {0..rank} with index 0 the affine vertex."""
    r = rank
    if family == "A":
        # Rotation sending the affine vertex one step around the cycle.
        return [(r,) + tuple(range(r))]
    if family == "B":
        return [(1, 0) + tuple(range(2, r + 1))]
    if family == "C":
        return [tuple(r - i for i in range(r + 1))]
    if family == "D" and r % 2 == 0:
        swap = list(range(r + 1))
        swap[0], swap[1], swap[r - 1], swap[r] = 1, 0, r, r - 1
        rev = [r - i for i in range(r + 1)]
        return [tuple(swap), tuple(rev)]
    if family == "D":
        # Order-4 rotation of the extended diagram (both forks swapped with a twist).
        q = [r - 1, r] + [r - i for i in range(2, r)] + [0]
        return [tuple(q)]
    if family == "E" and r == 6:
        return [(1, 5, 4, 3, 6, 0, 2)]
    if family == "E" and r == 7:
        return [(6, 5, 4, 3, 2, 1, 0, 7)]
    # E8, F4, G2 have no extended-diagram symmetries.
    return []


def _conjugation_perm(family, rank):
    """Action of -w0 on vertices, extended by fixing the affine vertex."""
    r = rank
    perm = list(range(r + 1))
    if family == "A":
        for i in range(1, r + 1):
            perm[i] = r + 1 - i
    elif family == "D" and r % 2 == 1:
        perm[r - 1], perm[r] = r, r - 1
    elif family == "E" and r == 6:
        perm[1], perm[5] = 5, 1
        perm[2], perm[4] = 4, 2
    return tuple(perm)


def _simple_current_targets(family, rank):
    """Image of the affine vertex under the simple current attached to each
    finite vertex a (0 means the identity current)."""
    r = rank
    if family == "A":
        return {a: a for a in range(1, r + 1)}
    if family == "B":
        return {a: a % 2 for a in range(1, r + 1)}
    if family == "C":
        return {a: (r if a == r else 0) for a in range(1, r + 1)}
    if family == "D":
        t = {a: a % 2 for a in range(1, r - 1)}
        t[r - 1] = r - 1
        t[r] = r
        return t
    if family == "E" and r == 6:
        return {1: 1, 2: 5, 3: 0, 4: 1, 5: 5, 6: 0}
    if family == "E" and r == 7:
        return {1: 0, 2: 0, 3: 0, 4: 6, 5: 0, 6: 6, 7: 6}
    return {a: 0 for a in range(1, r + 1)}


def _minuscule_vertices(family, rank):
    r = rank
    if family == "A":
        return tuple(range(1, r + 1))
    if family == "B":
        return (1,)
    if family == "C":
        return (r,)
    if family == "D":
        return (1, r - 1, r)
    if family == "E" and r == 6:
        return (1, 5)
    if family == "E" and r == 7:
        return (6,)
    return ()


class RootSystem:
    """Precomputed exact data for one simple Lie algebra.

    Attributes of note
    ------------------
    cartan : tuple of tuple of int
        C[i][j] = (alpha_i-vee | alpha_j), 0-based over finite vertices.
    t : tuple of int
        t_a = 2 / |alpha_a|^2, so t_a = 1 on long roots.
    gram : tuple of tuple of Fraction
        Inner products of fundamental weights.
    positive_roots : tuple of tuple of int
        Fundamental-weight coordinates, sorted by height.
    positive_root_coords : tuple of tuple of int
        The same roots in simple-root coordinates, same order.
    marks, comarks : tuple of int
        Length rank+1 with the affine entry 1 in position 0.
    conj_perm, outer_group, tau_table, sigma_table :
        Diagram-automorphism data over extended vertices {0..rank}.
    """

    def __init__(self, dynkin):
        if not isinstance(dynkin, DynkinType):
            raise TypeError("RootSystem expects a DynkinType")
        self.type = dynkin
        r = self.rank = dynkin.rank
        fam = dynkin.family
        edges, t = _diagram(fam, r)
        self.t = tuple(t)

        # (alpha_i | alpha_j): 2/t_i on the diagonal, -1/min(t_i,t_j) on edges.
        ips = [[Fraction(0)] * r for _ in range(r)]
        for i in range(r):
            ips[i][i] = Fraction(2, t[i])
        for a, b in edges:
            i, j = a - 1, b - 1
            ips[i][j] = ips[j][i] = Fraction(-1, min(t[i], t[j]))

        cart = [[t[i] * ips[i][j] for j in range(r)] for i in range(r)]
        for row in cart:
            for x in row:
                if x.denominator != 1:
                    raise AssertionError("Cartan matrix must be integral")
        self.cartan = tuple(tuple(int(x) for x in row) for row in cart)

        # alpha_j in the fundamental-weight basis is column j of the Cartan matrix.
        self.simple_roots = tuple(
            tuple(self.cartan[i][j] for i in range(r)) for j in range(r)
        )

        cinv = _mat_inverse([[Fraction(x) for x in row] for row in self.cartan])
        self._cartan_inv = tuple(tuple(row) for row in cinv)
        gram = [[cinv[m][l] / t[m] for m in range(r)] for l in range(r)]
        for l in range(r):
            for m in range(r):
                if gram[l][m] != gram[m][l]:
                    raise AssertionError("Gram matrix must be symmetric")
        self.gram = tuple(tuple(row) for row in gram)
        # Integer Gram data for fast inner products.
        den = 1
        for row in gram:
            for x in row:
                den = math.lcm(den, x.denominator)
        self._gram_den = den
        self._gram_num = tuple(
            tuple(int(x * den) for x in row) for row in gram
        )

        self._build_roots()
        self._build_affine()
        self._build_automorphisms()
        self.minuscule_vertices = _minuscule_vertices(fam, r)

        self._mult_cache = {}
        self._dim_cache = {}
        self._chain_cache = {}

    # -- construction helpers -------------------------------------------------

    def _build_roots(self):
        r = self.rank
        seen = {}
        frontier = []
        for j in range(r):
            rc = tuple(int(i == j) for i in range(r))
            seen[self.simple_roots[j]] = rc
            frontier.append(self.simple_roots[j])
        while frontier:
            nxt = []
            for x in frontier:
                rc = seen[x]
                for i in range(r):
                    c = x[i]
                    if c == 0:
                        continue
                    y = tuple(
                        x[j] - c * self.simple_roots[i][j] for j in range(r)
                    )
                    if y not in seen:
                        rc2 = list(rc)
                        rc2[i] -= c
                        seen[y] = tuple(rc2)
                        nxt.append(y)
            frontier = nxt
        pos = [(sum(rc), x, rc) for x, rc in seen.items() if all(c >= 0 for c in rc)]
        if 2 * len(pos) != len(seen):
            raise AssertionError("root count mismatch")
        pos.sort()
        self.positive_roots = tuple(x for _, x, _ in pos)
        self.positive_root_coords = tuple(rc for _, _, rc in pos)
        self.num_positive_roots = len(pos)

        theta = self.positive_roots[-1]
        if len(pos) > 1 and sum(self.positive_root_coords[-1]) == sum(
            self.positive_root_coords[-2]
        ):
            raise AssertionError("highest root not unique")
        if self.ip(theta, theta) != 2:
            raise AssertionError("highest root must be long")
        self.highest_root = theta
        self.highest_root_coords = self.positive_root_coords[-1]

    def _build_affine(self):
        r = self.rank
        marks = self.highest_root_coords
        comarks = []
        for a, ta in zip(marks, self.t):
            if a % ta:
                raise AssertionError("comarks must be integral")
            comarks.append(a // ta)
        self.marks = (1,) + tuple(marks)
        self.comarks = (1,) + tuple(comarks)
        self.coxeter = sum(self.marks)
        self.dual_coxeter = sum(self.comarks)
        self.rho = (1,) * r
        det = _mat_det([[Fraction(x) for x in row] for row in self.cartan])
        prod_t = 1
        for ta in self.t:
            prod_t *= ta
        self.cartan_det = int(det)
        # Index of the coroot lattice inside the weight lattice.
        self.coroot_lattice_index = abs(self.cartan_det) * prod_t

        theta = self.highest_root
        rows = [None] * (r + 1)
        rows[0] = (2,) + tuple(-theta[j] for j in range(r))
        for i in range(r):
            pairing = self.ip(self.simple_roots[i], theta)
            if pairing.denominator != 1:
                raise AssertionError("(alpha_i | theta) must be integral")
            rows[i + 1] = (-int(pairing),) + tuple(
                self.cartan[j][i] for j in range(r)
            )
        # Each row pairs to zero against the comarks, so reflections fix the level.
        for row in rows:
            if sum(c * x for c, x in zip(self.comarks, row)) != 0:
                raise AssertionError("affine reflection row breaks the level")
        self.affine_reflection_rows = tuple(rows)

    def _build_automorphisms(self):
        fam, r = self.type.family, self.rank
        ext = self.affine_reflection_rows

        def preserves_pairings(p):
            return all(
                ext[p[i]][p[j]] == ext[i][j]
                for i in range(r + 1)
                for j in range(r + 1)
            )

        gens = _outer_generators(fam, r)
        for g in gens:
            if not preserves_pairings(g):
                raise AssertionError(f"bad diagram automorphism {g}")
        identity = tuple(range(r + 1))
        self.outer_group = tuple(_close_group(gens, identity))
        if len(self.outer_group) != abs(self.cartan_det):
            raise AssertionError("outer automorphism group has wrong order")

        conj = _conjugation_perm(fam, r)
        for i in range(1, r + 1):
            neg = tuple(-x for x in self.fundamental_weight(i))
            expect = self.fundamental_weight(conj[i])
            if self.dominant_conjugate(neg) != expect:
                raise AssertionError("conjugation permutation is wrong")
        self.conj_perm = conj

        targets = _simple_current_targets(fam, r)
        tau = {}
        for a, tgt in targets.items():
            hits = [p for p in self.outer_group if p[0] == tgt]
            if len(hits) != 1:
                raise AssertionError(
                    f"simple current at vertex {a} not pinned by its target"
                )
            tau[a] = hits[0]
        self.tau_table = tau

        sigma = {}
        for a, p in tau.items():
            tgt = p[0]
            if tgt == 0:
                q = Fraction(0)
            else:
                # (omega_tgt | rho) = row sum of the Gram matrix.
                q = sum(self.gram[tgt - 1], Fraction(0))
            if (2 * q).denominator != 1:
                raise AssertionError("simple-current exponent must be half-integral")
            sigma[a] = -1 if int(2 * q) % 2 else 1
        self.sigma_table = sigma

    # -- basic linear algebra -------------------------------------------------

    def fundamental_weight(self, a):
        """omega_a as a weight tuple; a = 0 gives the zero weight."""
        return tuple(int(i == a - 1) for i in range(self.rank))

    def ip(self, x, y):
        """Invariant bilinear form on weight tuples, exact."""
        g = self._gram_num
        total = 0
        for i, xi in enumerate(x):
            if xi:
                row = g[i]
                total += xi * sum(row[j] * yj for j, yj in enumerate(y) if yj)
        return Fraction(total, self._gram_den)

    def root_coordinates(self, x):
        """Simple-root coordinates of a weight tuple, as Fractions."""
        return tuple(
            sum(self._cartan_inv[j][i] * x[i] for i in range(self.rank))
            for j in range(self.rank)
        )

    def reflect(self, x, i):
        """Finite simple reflection s_{i+1} on a weight tuple (0-based i)."""
        c = x[i]
        if c == 0:
            return x
        alpha = self.simple_roots[i]
        return tuple(xj - c * aj for xj, aj in zip(x, alpha))

    def dominant_conjugate(self, x):
        """The dominant Weyl-orbit representative of x."""
        cur = x
        while True:
            for i, c in enumerate(cur):
                if c < 0:
                    cur = self.reflect(cur, i)
                    break
            else:
                return cur

    def in_coroot_lattice(self, x):
        """True when x is an integer combination of the simple coroots.

        The coroot alpha_i-dual has weight coordinates t_i * alpha_i, so
        membership means the simple-root coordinates of x land in t_i * Z.
        """
        for i, c in enumerate(self.root_coordinates(x)):
            q = c / self.t[i]
            if q.denominator != 1:
                return False
        return True

    def in_root_lattice_cone(self, x):
        """True when x has non-negative integer simple-root coordinates."""
        for c in self.root_coordinates(x):
            if c.denominator != 1 or c < 0:
                return False
        return True

    # -- representation theory ------------------------------------------------

    def weyl_dimension(self, lam):
        """Dimension of the irreducible with highest weight lam, exact."""
        lam = tuple(lam)
        dim = self._dim_cache.get(lam)
        if dim is None:
            num = den = 1
            shifted = tuple(l + 1 for l in lam)
            for alpha in self.positive_roots:
                num *= self.ip(shifted, alpha)
                den *= self.ip(self.rho, alpha)
            q = num / den
            if q.denominator != 1:
                raise AssertionError("Weyl dimension must be integral")
            dim = self._dim_cache[lam] = int(q)
        return dim

    def weight_multiplicities(self, lam):
        """Full weight system of the irreducible with highest weight lam.

        Returns a WeightSystem; multiplicities come from the Freudenthal
        recursion evaluated in exact arithmetic, walking dominant weights
        from the top down.
        """
        lam = tuple(lam)
        cached = self._mult_cache.get(lam)
        if cached is not None:
            return cached
        if any(c < 0 for c in lam):
            raise ValueError(f"highest weight must be dominant, got {lam}")
        r = self.rank

        # All weights: walk down by simple roots, keeping mu with
        # dominant(mu) <= lam in the root-lattice order.
        weights = {lam}
        dom_ok = {lam: True}
        frontier = [lam]
        while frontier:
            nxt = []
            for x in frontier:
                for i in range(r):
                    y = tuple(
                        xj - aj for xj, aj in zip(x, self.simple_roots[i])
                    )
                    if y in weights:
                        continue
                    d = self.dominant_conjugate(y)
                    ok = dom_ok.get(d)
                    if ok is None:
                        diff = tuple(a - b for a, b in zip(lam, d))
                        ok = dom_ok[d] = self.in_root_lattice_cone(diff)
                    if ok:
                        weights.add(y)
                        nxt.append(y)
            frontier = nxt

        dominant = [w for w in weights if all(c >= 0 for c in w)]
        # Depth = height of lam - mu; Freudenthal consumes shallower levels first.
        def depth(mu):
            rc = self.root_coordinates(tuple(a - b for a, b in zip(lam, mu)))
            return sum(rc)

        dominant.sort(key=lambda mu: (depth(mu), mu))
        mult = {lam: 1}
        lam_rho = tuple(l + 1 for l in lam)
        top = self.ip(lam_rho, lam_rho)
        for mu in dominant:
            if mu == lam:
                continue
            total = Fraction(0)
            for alpha in self.positive_roots:
                j = 1
                while True:
                    nu = tuple(m + j * a for m, a in zip(mu, alpha))
                    if nu not in weights:
                        break
                    total += mult[self.dominant_conjugate(nu)] * self.ip(nu, alpha)
                    j += 1
            mu_rho = tuple(m + 1 for m in mu)
            denom = top - self.ip(mu_rho, mu_rho)
            val = 2 * total / denom
            if val.denominator != 1 or val <= 0:
                raise AssertionError(f"bad multiplicity {val} at {mu}")
            mult[mu] = int(val)

        table = {w: mult[self.dominant_conjugate(w)] for w in weights}
        ws = WeightSystem(multiplicity=table)
        self._mult_cache[lam] = ws
        return ws


@dataclass(frozen=True)
class WeightSystem:
    """Weights of one irreducible, with multiplicities."""

    multiplicity: dict

    @property
    def dim(self):
        return sum(self.multiplicity.values())

    def items(self):
        return self.multiplicity.items()


@dataclass(frozen=True)
class BetaChain:
    """A chain of positive roots interpolating alpha_a to the highest root.

    chain[l-1] is the chosen root with (omega_a | beta) = 1 and
    (rho | beta) = l, stored in simple-root coordinates.
    """

    vertex: int
    chain: tuple


def build_root_system(family, rank=None):
    """Construct a RootSystem from a family letter and rank, or a DynkinType."""
    if isinstance(family, DynkinType):
        return RootSystem(family)
    return RootSystem(DynkinType(str(family).upper(), int(rank)))


def bilinear_form(rs, x, y):
    """Invariant bilinear form on weight tuples of rs, exact."""
    return rs.ip(x, y)


def weight_multiplicities(rs, lam):
    """Weight system of the rs-irreducible with highest weight lam."""
    return rs.weight_multiplicities(lam)


def verify_beta_chain(rs, a):
    """Find the admissible root chain attached to a minuscule vertex.

    For each level l = 1 .. dual Coxeter number - 1 there must be a positive
    root beta with (omega_a | beta) = 1 and (rho | beta) = l; the chain keeps
    the lexicographically smallest root coordinates at each level.  Raises
    BetaChainError naming the first level with no admissible root.
    """
    if a not in rs.minuscule_vertices:
        raise ValueError(f"vertex {a} is not minuscule for {rs.type}")
    cached = rs._chain_cache.get(a)
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
    result = BetaChain(vertex=a, chain=tuple(chain))
    rs._chain_cache[a] = result
    return result
