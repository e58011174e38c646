"""Level-k fusion rings via alcove reduction and the Kac-Walton rule.

A FusionContext fixes a root system and a level k.  A ring element is an
int64 row of length n over ctx.basis, the dominant affine weights of that
level: entry j is the coefficient of basis[j], and an array of shape
(..., n) holds several elements.  Products are evaluated exactly.  The
Kac-Walton rule gives the rows of the fundamental fusion matrices:
tensor-product weights are pushed back into the fundamental alcove by
shifted affine Weyl reflections, with signs, and the surviving terms
accumulate integer coefficients.  Every other basis product follows from
those rows by an exact recursion over the basis in height order.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

_REDUCE_CAP = 10**6
# Rows per alcove_reduce_many call of the reduction driver.  The context's
# memo walks each box point once whatever the call size, so this bounds
# only memory: filling C4 k4 vertex 3 in one call peaks near 41 MB under
# tracemalloc, against 1.6 MB at this size.  _slices cuts the cache checks
# and the ring writer to the same number of terms.
_REDUCE_ROWS = 2**12
# Float64 numbers of one partner chunk of basis_product_rows' recursion: the
# rows of the plan that the chunk's partners reach, plus the temporaries of
# its largest group step (more only when one partner alone needs more).
_CHUNK_NUMBERS = 2**16
# Every int64 intermediate of alcove_reduce_many stays below this.
_INT64_HEADROOM = 2**62
# Integers below this add exactly in float64.
_FLOAT_EXACT = 2**53
_CACHE_DIM_RTOL = 1e-9


class ReductionLimitError(RuntimeError):
    """Alcove reduction failed to terminate within the iteration cap."""


class ReductionOverflowError(ReductionLimitError):
    """A weight coordinate is too large for exact int64 batched reduction."""


class NumericDegradationError(ArithmeticError):
    """A floating-point quantity drifted past its admissible residual."""


def enumerate_basis(rs, level):
    """All dominant affine weights of the given level, lex-sorted on the
    finite coefficients; the identity weight comes first."""
    r = rs.rank
    cm = rs.comarks
    out = []

    def rec(pos, remaining, acc):
        if pos == r:
            out.append((remaining,) + tuple(acc))
            return
        step = cm[pos + 1]
        for v in range(remaining // step + 1):
            acc.append(v)
            rec(pos + 1, remaining - step * v, acc)
            acc.pop()

    rec(0, level, [])
    return tuple(out)


def _rank_offsets(comarks, level):
    """Table whose entry (i, rem, x) counts the basis weights, in the order
    of enumerate_basis, that agree with a weight before its label i and have
    a smaller label i, when that weight's label i is x and rem is the level
    minus the comark sum of its earlier labels.  Summing one entry per label
    gives a basis weight's index, exactly, at any rank and level."""
    r = len(comarks) - 1
    offsets = np.zeros((r, level + 1, level + 2), dtype=np.int64)
    # Number of ways to finish a weight after label i with rem left.
    count = np.ones(level + 1, dtype=np.int64)
    for i in range(r - 1, -1, -1):
        for rem in range(level + 1):
            ways = np.cumsum(count[rem :: -comarks[i + 1]])
            offsets[i, rem, 1 : len(ways) + 1] = ways
        rems = np.arange(level + 1)
        count = offsets[i, rems, rems // comarks[i + 1] + 1]
    return offsets


def _ranges(starts, sizes):
    """Positions starts[k], ..., starts[k] + sizes[k] - 1, for each k in
    turn, as one int64 array."""
    return np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())


def _slices(bounds):
    """Cut the items 0, ..., len(bounds) - 2, where item k holds the units
    bounds[k] to bounds[k + 1] (bounds non-decreasing), into consecutive
    ranges [lo, hi): each the most whole items that hold at most
    _REDUCE_ROWS units together, or one item that alone holds more."""
    lo, last = 0, len(bounds) - 1
    while lo < last:
        hi = int(np.searchsorted(bounds, bounds[lo] + _REDUCE_ROWS, side="right")) - 1
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def _find(known, keys):
    """Each key's position in the sorted array known, or -1 where it is
    absent."""
    at = np.searchsorted(known, keys)
    hit = at < len(known)
    hit[hit] = known[at[hit]] == keys[hit]
    return np.where(hit, at, -1)


class _ProductTable:
    """The basis products a context knows, in CSR arrays.

    keys is sorted and holds one key per unordered basis pair,
    lo * n + hi for lo <= hi the places of its two weights in ascending
    affine order, so the keys follow the order of the weight pairs.  The
    product of pair p has the basis indices terms[starts[p]:starts[p + 1]],
    ascending in affine order, with the coefficients coeffs over the same
    range.
    """

    def __init__(self, n):
        self.n = n
        self.keys = np.empty(0, dtype=np.int64)
        self.starts = np.zeros(1, dtype=np.int64)
        self.terms = np.empty(0, dtype=np.int64)
        self.coeffs = np.empty(0, dtype=np.int64)

    def add(self, parts):
        """Merge the products of new pairs, given as a list of parts (keys,
        sizes, terms, coeffs) in any order: pair i of a part has the key
        keys[i] and the next sizes[i] of its terms and coeffs.  The terms of
        each part are scattered straight to their places in the merged
        arrays, and the list drops each part once it is placed."""
        parts.insert(0, (self.keys, np.diff(self.starts), self.terms, self.coeffs))
        keys = np.concatenate([part[0] for part in parts])
        order = np.argsort(keys)
        sizes = np.concatenate([part[1] for part in parts])[order]
        starts = np.concatenate(([0], np.cumsum(sizes)))
        # The merged place of the first term of each pair, in the parts' order.
        dest = np.empty_like(order)
        dest[order] = starts[:-1]
        terms = np.empty(starts[-1], dtype=np.int64)
        coeffs = np.empty(starts[-1], dtype=np.int64)
        done = 0
        while parts:
            part = parts.pop(0)
            at = _ranges(dest[done : done + len(part[0])], part[1])
            terms[at], coeffs[at] = part[2], part[3]
            done += len(part[0])
        self.keys, self.starts, self.terms, self.coeffs = keys[order], starts, terms, coeffs


class FusionContext:
    """A fusion ring at fixed level.

    The level must be >= 1; the verification CLI additionally insists on
    level >= 2, where the conjectural grid structure is non-degenerate.
    """

    def __init__(self, rs, level, cache_dir=None):
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        self.rs = rs
        self.level = level
        self.basis = enumerate_basis(rs, level)
        self.basis_index = {w: i for i, w in enumerate(self.basis)}
        self.unit_weight = self.basis[0]
        self._cache_dir = cache_dir
        self._cache_dirty = False
        self._rank_offsets = _rank_offsets(rs.comarks, level)
        # The basis indices in ascending order of the affine tuples, and each
        # basis index's place in that order.
        self._by_affine = np.array(
            sorted(range(len(self.basis)), key=self.basis.__getitem__), dtype=np.int64
        )
        self._affine_rank = np.argsort(self._by_affine)
        self._table = _ProductTable(len(self.basis))
        # Integer data of alcove_reduce_many.  weight_bound keeps every int64
        # intermediate below _INT64_HEADROOM: the level pairing, the coroot
        # coordinates (at most adj_sum times a coordinate) and the translation
        # (kappa n) @ coroots (at most (adj_sum + kappa) * coroot_sum).
        kappa = level + rs.dual_coxeter
        self._comarks = np.array(rs.comarks, dtype=np.int64)
        self._walls = np.array(rs.affine_reflection_rows, dtype=np.int64)
        self._coroots = np.array(rs.coroot_rows, dtype=np.int64)
        self._coroot_adj = np.array(rs.coroot_adjugate, dtype=np.int64)
        adj_sum = int(np.abs(self._coroot_adj).sum(axis=0).max())
        coroot_sum = int(np.abs(self._coroots).sum(axis=0).max())
        self.weight_bound = _INT64_HEADROOM // (
            (adj_sum + kappa) * coroot_sum + rs.dual_coxeter
        )
        # The memo of alcove_reduce_many: the box points walked so far, as
        # sorted keys, with one code per key, sign * (basis index + 1), or 0
        # on a wall.  A key packs a point's coordinates, each in [0, box),
        # into as few exact int64 words as fit; several words are viewed as
        # one void key.
        box = kappa * rs.coroot_lattice_index
        per_word = 1
        while box ** (per_word + 1) <= 2**63:
            per_word += 1
        self._key_radix = box ** np.arange(per_word)
        words = -(-rs.rank // per_word)
        key = np.dtype(np.int64) if words == 1 else np.dtype((np.void, 8 * words))
        self._memo_keys = np.empty(0, dtype=key)
        self._memo_codes = np.empty(0, dtype=np.int64)
        self._basis_rows = np.array(self.basis, dtype=np.int64)
        # The fundamental generators, built by the first product computed.
        self._generators = None
        if cache_dir:
            self._load_cache()

    # -- element constructors -------------------------------------------------

    def element(self, terms):
        """The row of a terms dict {basis weight: int}, validating basis
        membership and integer coefficients."""
        row = self.zero()
        for w, c in terms.items():
            w = tuple(w)
            if w not in self.basis_index:
                raise ValueError(f"{w} is not a level-{self.level} basis weight")
            if not isinstance(c, int):
                raise ValueError(f"coefficient {c!r} is not an integer")
            row[self.basis_index[w]] = c
        return row

    def basis_element(self, w):
        return self.element({tuple(w): 1})

    def zero(self):
        return np.zeros(len(self.basis), dtype=np.int64)

    def unit(self):
        return self.basis_element(self.unit_weight)

    def _rows(self, u, lead=None):
        """u as int64 rows over the basis: an array of shape lead + (n,),
        where -1 in lead matches any length, or of any shape ending in n if
        lead is None.  Anything else raises ValueError, a bare weight tuple
        included."""
        n = len(self.basis)
        u = np.asarray(u)
        if u.size == 0 and lead is not None:
            u = np.zeros([max(d, 0) for d in lead] + [n], dtype=np.int64)
        want = u.shape[:-1] if lead is None else tuple(lead)
        if (
            u.shape[-1:] != (n,)
            or u.ndim != len(want) + 1
            or any(d not in (-1, s) for d, s in zip(want, u.shape))
            or u.dtype.kind != "i"
        ):
            raise ValueError(f"not int rows of length {n} over the basis: {u.shape}")
        return u.astype(np.int64, copy=False)

    # -- product cache persistence -------------------------------------------

    def _cache_path(self):
        name = f"fusionq-{self.rs.type}-k{self.level}.bin"
        return os.path.join(self._cache_dir, name)

    def _load_cache(self):
        """Load the product table: little-endian int64, a header of four
        lengths, then the flat lists pairs (basis-index pairs), sizes (terms
        per pair), terms (basis indices) and coeffs.  The file must hold
        exactly 4 + sum(header) numbers, checked before the lists are read.
        Any failed check rejects the whole file.  The checks: basis indices,
        pairs in key order, as save_cache writes them, each with its terms
        ascending, positive coefficients, d(la) d(mu) = sum c_nu d(nu) on
        quantum dimensions, and reciprocity N_{la mu}^nu = N_{la nubar}^{mubar}
        wherever the partner pair is in the file (a verify run saves only
        some pairs).  Beyond one int64 per term, the table's sorted keys,
        the checks hold only a slice of whole pairs at a time (see _slices),
        so each pair's dimension sum adds the same floats in the same order.
        The checked arrays become the table as they are."""
        n, rank = len(self.basis), self._affine_rank
        try:
            with open(self._cache_path(), "rb") as fh:
                head = fh.read(32)
                counts = np.frombuffer(head, dtype="<i8").tolist()
                size = os.fstat(fh.fileno()).st_size
                if len(counts) < 4 or min(counts) < 0 or size != 8 * (4 + sum(counts)):
                    raise ValueError("file length disagrees with its header")
                body = np.fromfile(fh, dtype="<i8")
            pairs, sizes, terms, coeffs = np.split(body, np.cumsum(counts[:3]))
            low, high = min(pairs.min(), terms.min()), max(pairs.max(), terms.max())
            if coeffs.min() <= 0 or not 0 <= low <= high < n:
                raise ValueError("index or coefficient out of range")
            pairs = pairs.reshape(-1, 2)
            # Each size at most len(terms) first, so the int64 sum is exact
            # for any file that np.fromfile could read.
            if (
                (len(sizes), len(coeffs)) != (len(pairs), len(terms))
                or sizes.min() < 0
                or sizes.max() > len(terms)
                or sizes.sum() != len(terms)
            ):
                raise ValueError("array lengths disagree")
            starts = np.concatenate(([0], np.cumsum(sizes)))
            keys = np.sort(rank[pairs], axis=1) @ np.array([n, 1])
            if (np.diff(keys) <= 0).any():
                raise ValueError("pairs repeated or out of order")
            dim = _quantum_dimensions(self, self.basis)
            # The table's key of each (pair, term), strictly ascending: each
            # term once and in affine order.  As the keys ascend, a slice of
            # whole pairs holds every place where this can fail.
            have = np.empty(len(terms), dtype=np.int64)
            for lo, hi in _slices(starts):
                span = slice(starts[lo], starts[hi])
                owner = np.repeat(np.arange(hi - lo), sizes[lo:hi])
                have[span] = keys[lo:hi][owner] * n + rank[terms[span]]
                if (np.diff(have[span]) <= 0).any():
                    raise ValueError("terms repeated or out of order")
                lhs = dim[pairs[lo:hi, 0]] * dim[pairs[lo:hi, 1]]
                rhs = np.bincount(owner, coeffs[span] * dim[terms[span]], minlength=hi - lo)
                if (np.abs(lhs - rhs) > _CACHE_DIM_RTOL * lhs).any():
                    raise ValueError("quantum dimensions disagree")
            # Term nu of (la, mu) against term mubar of the partner (la, nubar),
            # searched in sorted order, which also sorts the partner keys.
            rbar = rank[_relabeled(self, self.rs.conj_perm)]
            for lo, hi in _slices(starts):
                span = slice(starts[lo], starts[hi])
                owner = np.repeat(np.arange(lo, hi), sizes[lo:hi])
                la, nb = rank[pairs[owner, 0]], rbar[terms[span]]
                want = (np.minimum(la, nb) * n + np.maximum(la, nb)) * n
                want += rbar[pairs[owner, 1]]
                order = np.argsort(want)
                want, query = want[order], coeffs[span][order]
                at = np.searchsorted(have, want).clip(max=len(have) - 1)
                wrong = (have[at] != want) | (coeffs[at] != query)
                partner = want // n
                near = np.searchsorted(keys, partner).clip(max=len(keys) - 1)
                if (wrong & (keys[near] == partner)).any():
                    raise ValueError("reciprocity fails")
        except (OSError, ValueError):
            # Unreadable or mismatched cache: recompute from scratch.
            return
        t = self._table
        t.keys, t.starts, t.terms, t.coeffs = keys, starts, terms, coeffs

    def save_cache(self):
        """Persist the product table by basis index, atomically, pairs in
        the order of the table's keys, in the layout _load_cache reads."""
        if not self._cache_dir or not self._cache_dirty:
            return
        t = self._table
        pairs = self._by_affine[np.column_stack(np.divmod(t.keys, t.n))].ravel()
        lists = pairs, np.diff(t.starts), t.terms, t.coeffs
        os.makedirs(self._cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self._cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.array([len(a) for a in lists], dtype="<i8").tofile(fh)
                for values in lists:
                    values.astype("<i8", copy=False).tofile(fh)
            os.replace(tmp, self._cache_path())
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def affinize(ctx, finite):
    """Extend a finite weight tuple to level ctx.level by fixing the affine
    coefficient; the result need not be dominant."""
    if len(finite) != ctx.rs.rank:
        raise ValueError("finite weight has wrong length")
    body = sum(c * x for c, x in zip(ctx.rs.comarks[1:], finite))
    return (ctx.level - body,) + tuple(finite)


def alcove_reduce_many(ctx, weights):
    """Reduce a batch of level-k affine weights to the fundamental alcove.

    weights is an (N, rank+1) integer array.  Returns (signs, idx): N int64
    signs and N int64 basis indices, row by row what the scalar reference
    alcove_reduce in tests/reference.py returns (ctx.basis[idx] is the
    reduced weight; idx is -1 where the sign is 0).

    Works on the shifted weights mu = w + rho.  The shifted affine Weyl
    group is W extended by the translations kappa Q-vee (kappa = k + h-vee),
    which are even, so a row reduces like its point in one box of kappa
    Q-vee, and rows with equal box coordinates (coroot coordinates times the
    coroot-lattice index, mod kappa times that index) reduce alike.  Each
    box point is walked at most once per context: the points in the
    context's memo are looked up; the others are translated into the box
    (subtract kappa sum n_i alpha_i-vee, n the floor of mu's coroot
    coordinates over kappa), walked by _walk, checked to land on the basis
    and merged into the memo.
    """
    rs = ctx.rs
    w = np.asarray(weights, dtype=np.int64)
    if w.size == 0:
        w = w.reshape(0, rs.rank + 1)
    if w.ndim != 2 or w.shape[1] != rs.rank + 1:
        raise ValueError("affine weight has wrong length")
    if w.size and (w.max() >= ctx.weight_bound or w.min() <= -ctx.weight_bound):
        raise ReductionOverflowError(
            f"weight coordinates reach {ctx.weight_bound}, beyond exact int64"
        )
    off_level = np.flatnonzero(w @ ctx._comarks != ctx.level)
    if off_level.size:
        bad = tuple(w[off_level[0]].tolist())
        raise ValueError(f"weight {bad} does not have level {ctx.level}")

    kappa = ctx.level + rs.dual_coxeter
    box = kappa * rs.coroot_lattice_index
    fin = w[:, 1:] + 1
    q = fin @ ctx._coroot_adj
    y = q % box
    per_word = len(ctx._key_radix)
    words = np.column_stack(
        [
            y[:, j : j + per_word] @ ctx._key_radix[: rs.rank - j]
            for j in range(0, rs.rank, per_word)
        ]
    )
    known = ctx._memo_keys
    keys = words.view(known.dtype)[:, 0]
    at = _find(known, keys)
    hit = at >= 0
    codes = np.empty(len(keys), dtype=np.int64)
    codes[hit] = ctx._memo_codes[at[hit]]
    miss = np.flatnonzero(~hit)
    if miss.size:
        new, first, inverse = np.unique(
            keys[miss], return_index=True, return_inverse=True
        )
        rows = miss[first]
        fin = fin[rows] - kappa * ((q[rows] // box) @ ctx._coroots)
        mu = np.column_stack((kappa - fin @ ctx._comarks[1:], fin))
        signs, mu = _walk(ctx, mu)
        live = np.flatnonzero(signs)
        signs[live] *= _basis_indices(ctx, mu[live] - 1) + 1
        codes[miss] = signs[inverse]
        # The new keys are disjoint from the known ones.
        keys = np.concatenate((known, new))
        order = np.argsort(keys, kind="stable")
        ctx._memo_keys = keys[order]
        ctx._memo_codes = np.concatenate((ctx._memo_codes, signs))[order]
    return np.sign(codes), np.abs(codes) - 1


def _walk(ctx, mu):
    """Reflect each shifted affine row of mu still outside the alcove at its
    first negative coordinate until none is; a row with a zero coordinate
    lies on a wall and gets sign 0.  Returns the signs and the walked rows."""
    signs = np.ones(len(mu), dtype=np.int64)
    live = np.arange(len(mu))
    for _ in range(_REDUCE_CAP):
        cur = mu[live]
        on_wall = (cur == 0).any(axis=1)
        signs[live[on_wall]] = 0
        neg = cur < 0
        moving = neg.any(axis=1) & ~on_wall
        live, cur, neg = live[moving], cur[moving], neg[moving]
        if not live.size:
            return signs, mu
        i = neg.argmax(axis=1)
        c = cur[np.arange(live.size), i]
        mu[live] = cur - c[:, None] * ctx._walls[i]
        signs[live] *= -1
    raise ReductionLimitError(f"no convergence after {_REDUCE_CAP} reflections")


def _basis_indices(ctx, rows):
    """Basis indices of affine rows, which must be basis weights: the
    nonnegative rows of the context's level.  The level left before each
    finite label indexes the rank table."""
    spent = rows[:, 1:] * ctx._comarks[1:]
    left = ctx.level - np.cumsum(spent, axis=1) + spent
    if (rows < 0).any() or (left[:, -1] - spent[:, -1] != rows[:, 0]).any():
        raise AssertionError("alcove reduction left the level-k basis")
    return ctx._rank_offsets[np.arange(ctx.rs.rank), left, rows[:, 1:]].sum(axis=1)


def _reduced_table(ctx, count, total, rows_at):
    """The int64 (count, basis) table of count sums of signed alcove
    reductions, by basis index: the one way from weight rows to elements.

    The rows are known by position: rows_at(p), for an int64 array p of
    positions in [0, total), returns (owner, finite, mults), where row i adds
    mults[i] * sign_i * V[reduced_i] into sum owner[i], finite is an
    (len(p), rank) array of finite weights, each affinized to the context's
    level, and mults None stands for all 1.  The positions go through
    alcove_reduce_many in slices of at most _REDUCE_ROWS rows, so a caller's
    sum may be cut across calls: every row adds into its owner's row of the
    table.  A row with sign 0 adds 0 into the last column.
    """
    table = np.zeros((count, len(ctx.basis)), dtype=np.int64)
    for start in range(0, total, _REDUCE_ROWS):
        p = np.arange(start, min(start + _REDUCE_ROWS, total))
        owner, finite, mults = rows_at(p)
        fin = np.asarray(finite, dtype=np.int64)
        weights = np.column_stack((ctx.level - fin @ ctx._comarks[1:], fin))
        signs, idx = alcove_reduce_many(ctx, weights)
        if mults is not None:
            signs *= mults
        np.add.at(table, (owner, idx), signs)
    return table


def _table_rows(ctx, table):
    """The rows of a (count, basis) table of integers, int or float, in CSR
    form: (sizes, terms, coeffs), each row's nonzeros in affine order."""
    # A flat nonzero of a boolean mask is several times faster than a 2-d
    # nonzero of the floats.
    owner, col = np.divmod(np.flatnonzero((table != 0)[:, ctx._by_affine]), len(ctx.basis))
    col = ctx._by_affine[col]
    sizes = np.bincount(owner, minlength=len(table))
    return sizes, col, table[owner, col].astype(np.int64)


def _terms_text(ctx, cols, coeffs):
    """The {weight: coeff} text of the terms at basis indices cols, in the
    given order, for error messages."""
    return str({ctx.basis[j]: c for j, c in zip(cols.tolist(), coeffs.tolist())})


def _kac_walton_table(ctx, small, big):
    """Int64 (len(big), basis) table whose row j holds V[small] V[big[j]] by
    the Kac-Walton rule: the weight system of the finite weight small,
    shifted by the finite weight big[j], alcove-reduced with signs and
    multiplicities."""
    ws = ctx.rs.weight_multiplicities(small)
    big = np.asarray(big, dtype=np.int64)
    d = len(ws.mults)

    def rows_at(p):
        j, i = np.divmod(p, d)
        return j, big[j] + ws.weights[i], ws.mults[i]

    return _reduced_table(ctx, len(big), len(big) * d, rows_at)


class _Generators:
    """The presentation of a context's fusion ring by its fundamental
    generators, built by the first product the context computes.

    The basis is ordered by height, the sum of simple-root coordinates,
    scaled by the Cartan determinant to an integer.  A weight la other than
    0 has first[la], its first vertex i (0-based) with la_i > 0, and
    prev[la], the basis index of la - omega_i; then
    V[omega_i] V[prev] = V[la] + sum over lower nu of c_nu V[nu].  Row kappa
    of N_i, the matrix of multiplication by V[omega_i], holds the terms of
    V[omega_i] V[kappa]; rows are filled on demand, and slot[i, kappa] is
    the row's place in rows[i] (int8, or int16 once a coefficient needs it),
    or -1.
    """

    def __init__(self, ctx):
        rs = ctx.rs
        n, r = len(ctx.basis), rs.rank
        scale = [
            int(rs.cartan_det * sum(rs.root_coordinates(rs.fundamental_weight(a))))
            for a in range(1, r + 1)
        ]
        labels = ctx._basis_rows[:, 1:]
        self.height = labels @ np.array(scale, dtype=np.int64)
        self.order = np.argsort(self.height, kind="stable")
        self.pos = np.argsort(self.order)
        self.first = (labels > 0).argmax(axis=1)
        step = ctx._basis_rows[1:].copy()
        k, f = np.arange(n - 1), self.first[1:]
        step[k, f + 1] -= 1
        step[k, 0] += ctx._comarks[f + 1]
        self.prev = np.concatenate(([0], _basis_indices(ctx, step)))
        self.omega = [
            ctx.basis_index.get(affinize(ctx, rs.fundamental_weight(a)))
            for a in range(1, r + 1)
        ]
        self.slot = np.full((r, n), -1, dtype=np.int64)
        self.rows = [np.zeros((0, n), dtype=np.int8) for _ in range(r)]
        # Largest column sum plus largest row sum of each rows[i].
        self.reach = [0] * r


def _check_nonnegative(ctx, table, factors):
    """Raise unless every row of a product table is non-negative; factors(j)
    gives the basis indices of the two factors of row j."""
    bad = np.flatnonzero(table.min(axis=1) < 0)
    if bad.size:
        la, mu = (ctx.basis[f] for f in factors(bad[0]))
        result = _terms_text(ctx, *_table_rows(ctx, table[bad[:1]])[1:])
        raise AssertionError(f"negative structure constant in {la} * {mu}: {result}")


def _fill_fundamental(ctx, i, kappas):
    """Fill rows kappas (basis indices) of N_i by Kac-Walton: each row must
    be non-negative, and is stored exactly in int8 or int16."""
    gen = ctx._generators
    table = _kac_walton_table(
        ctx, ctx.rs.fundamental_weight(i + 1), ctx._basis_rows[kappas, 1:]
    )
    _check_nonnegative(ctx, table, lambda j: (gen.omega[i], kappas[j]))
    top = int(table.max(initial=0))
    if top >= 2**15:
        raise AssertionError(f"fusion coefficient {top} does not fit int16")
    dtype = np.promote_types(gen.rows[i].dtype, np.int8 if top < 2**7 else np.int16)
    gen.slot[i, kappas] = len(gen.rows[i]) + np.arange(len(kappas))
    gen.rows[i] = np.concatenate((gen.rows[i].astype(dtype), table.astype(dtype)))
    sums = [gen.rows[i].sum(axis=axis, dtype=np.int64).max() for axis in (0, 1)]
    gen.reach[i] = int(sum(sums))


def _fundamental_rows(ctx, i, kappas):
    """Rows kappas of N_i, each of which must have been filled."""
    gen = ctx._generators
    slots = gen.slot[i][kappas]
    if slots.min(initial=0) < 0:
        missing = ctx.basis[np.asarray(kappas)[slots < 0][0]]
        raise AssertionError(f"row {missing} of fundamental matrix {i + 1} is not filled")
    return gen.rows[i][slots]


def _closure(ctx, lam, top):
    """The closure of the earlier factors lam (basis indices other than the
    unit), walked from the top down a round at a time: each la in it brings
    prev[la] and the other terms nu of V[omega_i] V[prev[la]], i = first[la].
    Checks each leading coefficient and that the other terms come earlier.
    Returns (rows, edges, reach): the closure but the unit, ascending; the
    int64 arrays (la, nu) and the float64 coefficients c_nu of every lower
    term; and the bound on a step's partial sums."""
    gen = ctx._generators
    n, r = len(ctx.basis), ctx.rs.rank
    inside = np.zeros(n, dtype=bool)
    inside[0] = True
    front = np.zeros(n, dtype=bool)
    front[lam] = True
    front[0] = False
    used, edges = set(), []
    while front.any():
        inside |= front
        rows = np.flatnonzero(front)
        front = np.zeros(n, dtype=bool)
        firsts = gen.first[rows]
        for i in np.flatnonzero(np.bincount(firsts, minlength=r)).tolist():
            las = rows[firsts == i]
            pre = gen.prev[las]
            if i not in used:
                used.add(i)
                # Every row a step with this generator can gather: the terms
                # of V[pre] V[u] lie at most at height h(la) - h(omega_i) + h(u).
                within = gen.height <= top - gen.height[gen.omega[i]]
                kappas = np.flatnonzero(within & (gen.slot[i] < 0))
                if kappas.size:
                    _fill_fundamental(ctx, i, kappas)
            row = _fundamental_rows(ctx, i, pre)
            k = np.arange(len(las))
            lead = row[k, las]
            row[k, las] = 0
            k, nu = np.nonzero(row)
            late = np.flatnonzero(gen.pos[nu] > gen.pos[las[k]])
            bad = np.flatnonzero(lead != 1)
            if bad.size or late.size:
                j = bad[0] if bad.size else k[late[0]]
                omega, prev = ctx.basis[gen.omega[i]], ctx.basis[pre[j]]
                if bad.size:
                    raise AssertionError(
                        f"{ctx.basis[las[j]]} has coefficient {lead[j]} in {omega} * {prev}"
                    )
                raise AssertionError(
                    f"{ctx.basis[nu[late[0]]]} in {omega} * {prev} comes after "
                    f"{ctx.basis[las[j]]}"
                )
            edges.append((las[k], nu, row[k, nu].astype(np.float64)))
            front[pre] = True
            front[nu] = True
        front &= ~inside
    edges = [np.concatenate(e) for e in zip(*edges)]
    # Every partial sum of a step is at most max|X| times this.
    return np.flatnonzero(inside)[1:], edges, max(gen.reach[i] for i in used)


def _plan(ctx, lam, top):
    """The plan of the recursion over the closure of the earlier factors lam
    (see _closure).  A row's level is one more than the highest level among
    the rows it reads, prev and its nu; the unit's is 0.  The other rows, in
    order of (level, first vertex, height), fall into groups of one level
    and one generator, each computed in one step from rows of lower levels.

    Returns (seq, place, starts, steps, u_all, u_bounds, reach): the rows in
    that order, the unit first; each basis index's place in seq, or -1; the
    start of each group in seq, and one past the last; for each group (i, coef, start, u_start), its generator and its
    dense coefficient matrix over its rows nu, u_all[u_bounds[g]:u_bounds[g
    + 1]], ascending in height; and the bound on a step's partial sums."""
    gen = ctx._generators
    n = len(ctx.basis)
    rows, (e_la, e_nu, e_c), reach = _closure(ctx, lam, top)
    src = np.concatenate((rows, e_la))
    dst = np.concatenate((gen.prev[rows], e_nu))
    level = np.zeros(n, dtype=np.int64)
    while True:
        deeper = np.zeros(n, dtype=np.int64)
        np.maximum.at(deeper, src, level[dst] + 1)
        if (deeper == level).all():
            break
        level = deeper
    rows = rows[np.lexsort((gen.pos[rows], gen.first[rows], level[rows]))]
    seq = np.concatenate(([0], rows))
    place = np.full(n, -1)
    place[seq] = np.arange(len(seq))
    cut = np.flatnonzero((np.diff(level[rows]) != 0) | (np.diff(gen.first[rows]) != 0))
    starts = np.concatenate(([1], cut + 2, [len(seq)]))
    group = np.searchsorted(starts, place[e_la], side="right") - 1
    by = np.lexsort((gen.pos[e_nu], group))
    e_g, e_row, e_nu, e_c = group[by], place[e_la[by]], e_nu[by], e_c[by]
    new = (np.diff(e_g, prepend=-1) != 0) | (np.diff(e_nu, prepend=-1) != 0)
    u_all = e_nu[new]
    u_bounds = np.searchsorted(e_g[new], np.arange(len(starts)))
    # The coefficient matrices, one after another in one flat array.
    rows, cols = np.diff(starts), np.diff(u_bounds)
    at = np.concatenate(([0], np.cumsum(rows * cols)))
    flat = np.zeros(at[-1])
    u_col = np.cumsum(new) - 1 - u_bounds[e_g]
    flat[at[e_g] + (e_row - starts[e_g]) * cols[e_g] + u_col] = e_c
    steps = [
        (i, flat[o : o + r * u].reshape(r, u), lo, ulo)
        for i, o, r, u, lo, ulo in zip(
            gen.first[seq[starts[:-1]]].tolist(), at.tolist(), rows.tolist(),
            cols.tolist(), starts.tolist(), u_bounds.tolist(),
        )
    ]
    return seq, place, starts, steps, u_all, u_bounds, reach


def _derived_products(ctx, a, b):
    """The products of the basis pairs (a[k], b[k]), none with the unit,
    from the fundamental matrices, as a list of parts (k, sizes, terms,
    coeffs): the pairs k in CSR form; see basis_product_rows.  The Python
    steps grow with the depth of the closure of the earlier factors, one
    per group of _plan and partner chunk, not with its size;
    tests/reference.py keeps the one-weight-at-a-time loop."""
    if ctx._generators is None:
        ctx._generators = _Generators(ctx)
    gen = ctx._generators
    n = len(ctx.basis)
    swap = gen.pos[a] > gen.pos[b]
    lam, part = np.where(swap, b, a), np.where(swap, a, b)
    top = gen.height[lam].max() + gen.height[part].max()
    seq, place, starts, steps, u_all, u_bounds, reach = _plan(ctx, lam, top)
    prev_seq, u_seq = place[gen.prev[seq]], place[u_all]
    seq_pos, u_pos = gen.pos[seq], gen.pos[u_all]

    # Partners in order of the prefix of the plan they need: the rows up to
    # the height of the latest earlier factor they meet.  A chunk holds the
    # prefix rows for each of its partners, plus the temporaries of its
    # largest group step, within _CHUNK_NUMBERS numbers.
    partners, pslot = np.unique(part, return_inverse=True)
    limit = np.zeros(len(partners), dtype=np.int64)
    np.maximum.at(limit, pslot, gen.pos[lam])
    order = np.argsort(limit, kind="stable")
    limit = limit[order]
    need = np.searchsorted(np.sort(seq_pos), limit, side="right")
    # The rows of each group, and its rows nu, up to each partner's limit:
    # the plan and u_all are sorted by (group, height), so one search over
    # keys group * n + place in height order finds them all.
    g = np.arange(len(steps))[:, None]
    group_of = np.repeat(np.arange(len(steps)), np.diff(starts))
    c = np.searchsorted(group_of * n + seq_pos[1:], g * n + limit, side="right")
    c -= starts[:-1, None] - 1
    group_of = np.repeat(np.arange(len(steps)), np.diff(u_bounds))
    cu = np.searchsorted(group_of * n + u_pos, g * n + limit, side="right")
    cu -= u_bounds[:-1, None]
    # A step of c rows over cu rows nu holds at most c + max(c, cu) rows of
    # temporaries at once.
    cost = (need + (c + np.maximum(c, cu)).max(axis=0)) * n
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    pair_rank = rank[pslot]
    by_partner = np.argsort(pair_rank, kind="stable")
    bounds = np.searchsorted(pair_rank[by_partner], np.arange(len(partners) + 1))
    chunks = [0]
    while chunks[-1] < len(partners):
        start = chunks[-1]
        span = cost[start : start + max(1, _CHUNK_NUMBERS // cost[start])]
        fits = span * np.arange(1, len(span) + 1) <= _CHUNK_NUMBERS
        chunks.append(start + max(1, len(span) if fits.all() else int(fits.argmin())))
    # One buffer holds each chunk's rows in turn.
    buf = np.empty(int((np.diff(chunks) * need[np.array(chunks[1:]) - 1]).max()) * n)
    parts = []
    for start, end in zip(chunks[:-1], chunks[1:]):
        m = end - start
        us = partners[order[start:end]]
        top_pos = limit[start + m - 1]
        # The plan's rows up to top_pos, the kept prefix of each group, and
        # the place in x of each kept row.
        kept = np.concatenate(([0], np.cumsum(seq_pos <= top_pos)))
        xrow = kept[1:] - 1
        c_all = (kept[starts[1:]] - kept[starts[:-1]]).tolist()
        at_all = xrow[starts[:-1]].tolist()
        u_kept = np.concatenate(([0], np.cumsum(u_pos <= top_pos)))
        cu_all = (u_kept[u_bounds[1:]] - u_kept[u_bounds[:-1]]).tolist()
        px, ux = xrow[prev_seq], xrow[u_seq]
        x = buf[: kept[-1] * m * n].reshape(kept[-1], m, n)
        x[0] = 0
        x[0, np.arange(m), us] = 1
        for (i, coef, lo, ulo), c, cu, at in zip(steps, c_all, cu_all, at_all):
            if not c:
                continue
            out = x[at : at + c]
            # Each rebinding of left frees the array it held, so at most two
            # of these temporaries are live at once.
            left = x[px[lo : lo + c]].reshape(c * m, n)
            cols = np.logical_or.reduce(left).nonzero()[0]
            left = left[:, cols]
            rows = _fundamental_rows(ctx, i, cols).astype(np.float64)
            np.matmul(left, rows, out=out.reshape(c * m, n))
            if cu:
                left = x[ux[ulo : ulo + cu]].reshape(cu, m * n)
                out.reshape(c, m * n)[:] -= coef[:c, :cu] @ left
        if max(x.max(), -x.min()) * reach >= _FLOAT_EXACT:
            raise AssertionError("fusion coefficients too large for exact float64")
        # A pair whose factors are both partners of this chunk and both
        # among its rows was computed in both orders.
        xu = np.where((place[us] >= 0) & (gen.pos[us] <= top_pos), xrow[place[us]], -1)
        both = np.flatnonzero(xu >= 0)
        twice = x[xu[both]][:, both]
        if (twice != twice.transpose(1, 0, 2)).any():
            raise AssertionError("a product differs between its two orders")
        asked = by_partner[bounds[start] : bounds[start + m]]
        table = x[xrow[place[lam[asked]]], pair_rank[asked] - start]
        sizes, terms, coeffs = _table_rows(ctx, table)
        if coeffs.min(initial=0) < 0:
            _check_nonnegative(ctx, table, lambda j: (a[asked[j]], b[asked[j]]))
        parts.append((asked, sizes, terms, coeffs))
    return parts


def basis_product_rows(ctx, a, b):
    """The products of the pairs of basis indices (a[k], b[k]): returns
    (at, starts, terms, coeffs), where the product of pair k has the basis
    indices terms[starts[at[k]]:starts[at[k] + 1]], ascending in affine
    order, with the coefficients coeffs over the same range.

    This is the only way into the product table.
    Pairs not in it yet are computed first, each unordered pair once, from
    the fundamental matrices N_i of multiplication by V[omega_i], the
    presentation of the ring by its fundamental generators (Gepner 1991).
    Only rows of the N_i go through Kac-Walton reduction, each once per
    context, as a call needs them.  With the basis in height order, a pair's
    earlier factor la other than 0 has its first vertex i with la_i > 0, and
    V[la] = V[omega_i] V[la - omega_i] - sum of c_nu V[nu], every nu earlier
    than la.  So for all partners u at once,
    X[la] = X[la - omega_i] N_i - sum of c_nu X[nu], where X[la] holds the
    products V[la] V[u], over the closure of the earlier factors, in float64
    arithmetic checked to be exact.  The closure rows fall into groups of
    one dependency level and one generator, and each group is one step: a
    matrix product over the nonzero columns of its prev rows, less its
    small dense coefficient matrix times the rows nu it reads.  Partners go
    in chunks, ordered by the prefix of the closure (in height order) that
    their earlier factors reach; a chunk's rows of that prefix plus the
    temporaries of its largest step are at most _CHUNK_NUMBERS numbers.
    Every check raises AssertionError before anything is stored.  Only the
    requested pairs are stored.
    """
    table = ctx._table
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    ra, rb = ctx._affine_rank[a], ctx._affine_rank[b]
    keys = np.minimum(ra, rb) * table.n + np.maximum(ra, rb)
    # Freed before any product is derived.
    del ra, rb
    at = _find(table.keys, keys)
    # Sorted and deduplicated without np.unique, which imports numpy.ma
    # (16 ms, 0.6 MB) when asked for no indices.
    new = np.sort(keys[at < 0])
    new = new[np.diff(new, prepend=-1) > 0]
    if new.size:
        lo, hi = ctx._by_affine[new // table.n], ctx._by_affine[new % table.n]
        # The unit has basis index 0: V[0] V[mu] = V[mu].
        unit = (lo == 0) | (hi == 0)
        ones = np.ones(unit.sum(), dtype=np.int64)
        parts = [(new[unit], ones, lo[unit] + hi[unit], ones)]
        rest = np.flatnonzero(~unit)
        if rest.size:
            found = _derived_products(ctx, lo[rest], hi[rest])
            parts += [(new[rest[k]], *rows) for k, *rows in found]
            # Only parts holds them now, so the merge frees each as it goes.
            del found
        table.add(parts)
        ctx._cache_dirty = True
        at = _find(table.keys, keys)
    return at, table.starts, table.terms, table.coeffs


def fusion_products(ctx, pairs):
    """Ring products of a sequence of row pairs (u, v), as one int64
    (len(pairs), n) array: one basis_product_rows call over the cross
    product of each pair's nonzeros, then one np.add.at."""
    uv = ctx._rows(pairs, (-1, 2))
    pu, iu = np.nonzero(uv[:, 0])
    pv, iv = np.nonzero(uv[:, 1])
    # Nonzero e of a u meets each nonzero of its pair's v, a range of pv.
    counts = np.bincount(pv, minlength=len(uv))[pu]
    left = np.repeat(np.arange(len(pu)), counts)
    right = _ranges(np.searchsorted(pv, pu), counts)
    owner = pu[left]
    at, starts, terms, coeffs = basis_product_rows(ctx, iu[left], iv[right])
    # Every partial sum is at most sum |u| times sum |v| times a coefficient.
    reach = np.abs(uv).sum(axis=2, dtype=float).prod(axis=1).max(initial=0)
    if reach * coeffs.max(initial=0) >= _INT64_HEADROOM:
        raise OverflowError("fusion coefficients too large for exact int64")
    scale = uv[owner, 0, iu[left]] * uv[owner, 1, iv[right]]
    sizes = starts[at + 1] - starts[at]
    span = _ranges(starts[at], sizes)
    out = np.zeros((len(uv), len(ctx.basis)), dtype=np.int64)
    add = np.repeat(scale, sizes) * coeffs[span]
    np.add.at(out, (np.repeat(owner, sizes), terms[span]), add)
    return out


def fusion_product(ctx, u, v):
    """Ring product of two rows."""
    return fusion_products(ctx, [(u, v)])[0]


def _relabeled(ctx, perm):
    """The basis index of each basis weight with its vertices relabeled by
    perm, label i moving to vertex perm[i]."""
    moved = np.empty_like(ctx._basis_rows)
    moved[:, list(perm)] = ctx._basis_rows
    return _basis_indices(ctx, moved)


def conjugate(ctx, u):
    """Image of rows, of any shape (..., n), under the ring involution
    induced by the longest Weyl element: a permutation of the columns."""
    return ctx._rows(u)[..., np.argsort(_relabeled(ctx, ctx.rs.conj_perm))]


def apply_outer(ctx, perm, elems):
    """Act by an extended-diagram automorphism on rows elems, of any shape
    (..., n), returning the images in the same shape.

    The action relabels vertices, so it permutes the columns.  Each basis
    weight w in the union of the supports is checked first, through one
    basis_product_rows call: the product of V[w] with the automorphism's
    simple current must be exactly the relabeled V[w].
    """
    rs = ctx.rs
    perm = tuple(perm)
    if perm not in rs.outer_group:
        raise ValueError(f"{perm} is not an extended-diagram automorphism")
    elems = ctx._rows(elems)
    current = [0] * (rs.rank + 1)
    current[perm[0]] = ctx.level
    current = tuple(current)
    image = _relabeled(ctx, perm)
    support = np.flatnonzero(elems.reshape(-1, len(ctx.basis)).any(axis=0))
    at, starts, terms, coeffs = basis_product_rows(
        ctx, np.full_like(support, ctx.basis_index[current]), support
    )
    lo, hi = starts[at], starts[at + 1]
    ok = hi - lo == 1
    ok[ok] = (terms[lo[ok]] == image[support[ok]]) & (coeffs[lo[ok]] == 1)
    if not ok.all():
        k = np.flatnonzero(~ok)[0]
        prod = _terms_text(ctx, terms[lo[k] : hi[k]], coeffs[lo[k] : hi[k]])
        expect = _terms_text(ctx, image[support[k : k + 1]], np.ones(1, dtype=np.int64))
        raise AssertionError(
            f"outer automorphism {perm} disagrees with its simple current "
            f"{current} at {ctx.basis[support[k]]}: product {prod}, expected {expect}"
        )
    return elems[..., np.argsort(image)]


def _quantum_dimensions(ctx, weights):
    """Sine-product quantum dimensions of finite or affine weights, as an
    array: the product over positive roots alpha of
    sin(pi (la+rho|alpha) / kappa), divided by its value at la = 0."""
    rs = ctx.rs
    gram = np.array([[float(x) for x in row] for row in rs.gram])
    kappa = ctx.level + rs.dual_coxeter
    pairing = gram @ np.array(rs.positive_roots, dtype=float).T / kappa
    shifted = np.array([tuple(w)[-rs.rank :] for w in weights], dtype=float) + 1

    def sines(x):
        return np.prod(np.sin(np.pi * (x @ pairing)), axis=-1)

    return sines(shifted) / sines(np.ones(rs.rank))
