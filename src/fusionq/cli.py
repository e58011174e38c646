"""Command-line frontend: ring export, verification runs, S-matrix export.

Exit codes: 0 success, 1 a check failed, 2 usage error, 3 numeric
degradation.  File outputs are deterministic: re-running a command with
the same arguments produces byte-identical files.  Each command imports
the modules only it runs, so ring never loads qsystem or smatrix.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

import numpy as np

from .cartan import DynkinType, build_root_system
from .fusion import (
    FusionContext, NumericDegradationError, _ranges, _slices, basis_product_rows,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


# List entries per json.dumps call of the streamed verify report.
_REPORT_SLICE = 256


class UsageError(Exception):
    pass


def _context(args):
    if args.level < 2:
        raise UsageError(f"level must be >= 2, got {args.level}")
    try:
        rs = build_root_system(DynkinType(args.family, args.rank))
    except ValueError as e:
        raise UsageError(str(e))
    cache_dir = os.environ.get("FUSIONQ_CACHE_DIR") or None
    return FusionContext(rs, args.level, cache_dir=cache_dir)


def _output(path):
    """The file to write a command's output to: path, or stdout if None."""
    return open(path, "w", newline="") if path else nullcontext(sys.stdout)


def _weight_label(w):
    return ".".join(str(c) for c in w)


def cmd_ring(args):
    """Write the basis listing and the full pairwise fusion-product table.

    Every product is computed and the cache saved before the first byte is
    written, so a failed run leaves no partial output file.  The report has
    the bytes of one compact json.dumps of the whole object, written one row
    of products at a time: each write is a system call when stdout is
    unbuffered.  The text of each distinct (basis index, coefficient) term
    is built once, and each row is one join of such texts and the products'
    heads.  Rows are gathered in blocks, as many whole rows as hold at most
    a slice of terms (see fusion._slices), so beyond the product table the
    writer holds one block's terms at a time.  The products are asked for
    once, each unordered pair once, in the table's key order, so the product
    of (i, j) is pair p(x, y) of the table, x <= y the places of i and j in
    ascending affine order: beyond the table, nothing is held for all n**2
    ordered pairs, only one block's indices at a time.
    """
    ctx = _context(args)
    n = len(ctx.basis)
    rank = ctx._affine_rank
    lo, hi = np.triu_indices(n)
    _, starts, terms, coeffs = basis_product_rows(ctx, ctx._by_affine[lo], ctx._by_affine[hi])
    sizes = np.diff(starts)
    # Terms per row i of the report: every pair that has rank[i] as a factor,
    # a pair of equal factors once.
    off = lo != hi
    per_rank = np.bincount(lo, sizes, n) + np.bincount(hi[off], sizes[off], n)
    rows = np.concatenate(([0], np.cumsum(per_rank[rank].astype(np.int64))))
    del lo, hi, off, per_rank
    ctx.save_cache()
    head = json.dumps(
        {
            "family": ctx.rs.type.family,
            "rank": ctx.rs.rank,
            "level": ctx.level,
            "basis": [list(w) for w in ctx.basis],
        },
        separators=(",", ":"),
    )
    # The text of each term that occurs, by its code, coefficient * n +
    # basis index, found a slice of pairs at a time: text[code] as the first
    # term of a product, text[size + code] after a comma.
    size = (int(coeffs.max()) + 1) * n
    seen = np.zeros(size, dtype=bool)
    for lo, hi in _slices(starts):
        span = slice(starts[lo], starts[hi])
        seen[coeffs[span] * n + terms[span]] = True
    codes = np.flatnonzero(seen)
    del seen
    alone = [
        '{"w":[%s],"c":%d}' % (",".join(map(str, ctx.basis[w])), c)
        for c, w in zip(*np.divmod(codes, n))
    ]
    text = np.empty(2 * size, dtype=object)
    text[codes] = alone
    text[size + codes] = ["," + t for t in alone]
    del alone, codes
    label = np.array([',"j":%d,"terms":[' % j for j in range(n)], dtype=object)
    with _output(args.out) as fh:
        fh.write(head[:-1] + ',"products":[')
        for lo, hi in _slices(rows):
            # Rows lo..hi-1 as one list of strings.  Product k of the block,
            # (i, j), takes the items from place[k] on: an opening, which also
            # closes the product before it in its row, label[j], then its
            # terms.  One more item closes each row.
            x = np.minimum.outer(rank[lo:hi], rank).ravel()
            y = np.maximum.outer(rank[lo:hi], rank).ravel()
            at = x * (2 * n + 1 - x) // 2 + y - x
            count = sizes[at]
            span = _ranges(starts[at], count)
            first = np.cumsum(count) - count
            k = np.arange(len(count))
            place = first + 2 * k + k // n
            items = np.empty(len(span) + len(place) * 2 + hi - lo, dtype=object)
            items[place] = np.repeat(
                np.array([']},{"i":%d' % i for i in range(lo, hi)], dtype=object), n
            )
            items[place[::n]] = [("," if i else "") + '{"i":%d' % i for i in range(lo, hi)]
            items[place + 1] = np.tile(label, hi - lo)
            code = coeffs[span] * n + terms[span] + size
            code[first] -= size
            items[_ranges(place + 2, count)] = text[code]
            ends = np.append(place[n::n], len(items))
            items[ends - 1] = "]}"
            items = items.tolist()
            for s, e in zip([0, *ends[:-1].tolist()], ends.tolist()):
                fh.write("".join(items[s:e]))
        fh.write("]}\n")
    return EXIT_OK


def _write_reports(fh, reports):
    """Write the bytes of json.dumps([rep.to_obj() for rep in reports]),
    compact, and a newline: a report field at a time, and a list field in
    slices of _REPORT_SLICE entries, so the text of a whole report is never
    built."""
    sep = (",", ":")
    fh.write("[")
    for r, rep in enumerate(reports):
        fh.write(",{" if r else "{")
        for f, (key, value) in enumerate(rep.to_obj().items()):
            fh.write(("," if f else "") + json.dumps(key) + ":")
            if not isinstance(value, list):
                fh.write(json.dumps(value, separators=sep))
                continue
            fh.write("[")
            for lo in range(0, len(value), _REPORT_SLICE):
                text = json.dumps(value[lo : lo + _REPORT_SLICE], separators=sep)
                fh.write(("," if lo else "") + text[1:-1])
            fh.write("]")
        fh.write("}")
    fh.write("]\n")


def cmd_verify(args):
    """Run the full verification battery and write the combined report."""
    from .qsystem import (
        KRDataUnavailableError, WGrid, boundary_check, check_conjecture, kns_report,
        restricted_solution, unsupported_report,
    )
    from .smatrix import build_smatrix

    ctx = _context(args)
    grid = WGrid(ctx)
    reports = [check_conjecture(ctx, horizon=args.horizon, grid=grid)]
    reports.append(boundary_check(ctx))
    try:
        solution = restricted_solution(ctx, grid=grid)
    except KRDataUnavailableError as e:
        reports.append(unsupported_report(ctx, "restricted", str(e)))
        reports.append(
            unsupported_report(ctx, "kns", "no restricted solution available")
        )
    else:
        reports.append(solution.report)
        # Nothing below reads the fundamental generators, which would
        # otherwise still be live when S is built; a later product that
        # needs them rebuilds them.
        ctx._generators = None
        sm = build_smatrix(ctx)
        kns = kns_report(ctx, sm, grid=grid, solution=solution, tol=args.tol)
        reports.append(kns.report)
    ctx.save_cache()
    # The reports need none of these: freed here, they no longer add to the
    # peak while the report is written.
    grid = solution = sm = kns = None
    with _output(args.out) as fh:
        _write_reports(fh, reports)
    ok = all(rep.ok for rep in reports)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_smatrix(args):
    """Write the S-matrix as JSON or CSV and print the unitarity residual."""
    from .smatrix import build_smatrix

    ctx = _context(args)
    sm = build_smatrix(ctx)
    residual = sm.residual
    if args.format == "json":
        obj = {
            "family": ctx.rs.type.family,
            "rank": ctx.rs.rank,
            "level": ctx.level,
            "basis": [list(w) for w in ctx.basis],
            "matrix": [
                [[f"{z.real:.15g}", f"{z.imag:.15g}"] for z in row]
                for row in sm.matrix
            ],
            "unitarity_residual": f"{residual:.6g}",
        }
        text = json.dumps(obj, separators=(",", ":")) + "\n"
    else:
        import csv
        import io

        rows = [[_weight_label(w[1:]) for w in ctx.basis]]
        for row in sm.matrix:
            rows.append([f"{z.real:.15g},{z.imag:.15g}" for z in row])
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        text = buf.getvalue()
    with _output(args.out) as fh:
        fh.write(text)
    print(f"unitarity residual {residual:.3e}", file=sys.stderr)
    if residual > args.tol:
        return EXIT_NUMERIC
    return EXIT_OK


def _horizon(text):
    """Parse --horizon: an integer >= 0, or 'auto' (None) for one full period."""
    if text == "auto":
        return None
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0 or 'auto', got {text!r}"
        )
    return value


def _tol(text):
    """Parse --tol: a finite number >= 0.  A NaN bound would pass any
    residual, since every comparison with NaN is false."""
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fusionq",
        description="Exact WZW fusion rings and their Q-system verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--family", required=True, choices=list("ABCDEFG"))
        p.add_argument("--rank", required=True, type=int)
        p.add_argument("--level", required=True, type=int)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        return p

    subcommand("ring", "export basis and fusion-product table")
    verify = subcommand("verify", "run the verification battery")
    verify.add_argument("--horizon", default=None, type=_horizon,
                        help="grid horizon, an integer or 'auto'")
    smatrix = subcommand("smatrix", "export the modular S-matrix")
    smatrix.add_argument("--format", default="json", choices=["json", "csv"])
    for p in (verify, smatrix):
        p.add_argument("--tol", default=1e-9, type=_tol)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handler = {"ring": cmd_ring, "verify": cmd_verify, "smatrix": cmd_smatrix}[
        args.command
    ]
    try:
        return handler(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NumericDegradationError as e:
        print(f"numeric degradation: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
