"""Command-line frontend: ring export, verification runs, S-matrix export.

Exit codes: 0 success, 1 a check failed, 2 usage error, 3 numeric
degradation.  File outputs are deterministic: re-running a command with
the same arguments produces byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .cartan import DynkinType, build_root_system
from .fusion import FusionContext, fusion_product
from .qsystem import (
    KRDataUnavailableError,
    WGrid,
    check_conjecture,
    boundary_check,
    kns_report,
    restricted_solution,
    unsupported_report,
)
from .smatrix import NumericDegradationError, build_smatrix

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


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


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _weight_label(w):
    return ".".join(str(c) for c in w)


def cmd_ring(args):
    """Write the basis listing and the full pairwise fusion-product table."""
    ctx = _context(args)
    products = []
    for i, u in enumerate(ctx.basis):
        eu = ctx.basis_element(u)
        for j, v in enumerate(ctx.basis):
            prod = fusion_product(ctx, eu, ctx.basis_element(v))
            products.append(
                {
                    "i": i,
                    "j": j,
                    "terms": [
                        {"w": list(w), "c": c} for w, c in prod.terms.items()
                    ],
                }
            )
    obj = {
        "family": ctx.rs.type.family,
        "rank": ctx.rs.rank,
        "level": ctx.level,
        "basis": [list(w) for w in ctx.basis],
        "products": products,
    }
    ctx.save_cache()
    _emit(json.dumps(obj, separators=(",", ":")) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args):
    """Run the full verification battery and write the combined report."""
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
        sm = build_smatrix(ctx)
        kns = kns_report(ctx, sm, grid=grid, solution=solution, tol=args.tol)
        reports.append(kns.report)
    ctx.save_cache()
    obj = [rep.to_obj() for rep in reports]
    _emit(json.dumps(obj, separators=(",", ":")) + "\n", args.out)
    ok = all(rep.ok for rep in reports)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_smatrix(args):
    """Write the S-matrix as JSON or CSV and print the unitarity residual."""
    ctx = _context(args)
    sm = build_smatrix(ctx)
    residual = sm.unitarity_residual()
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
        rows = [[_weight_label(w[1:]) for w in ctx.basis]]
        for row in sm.matrix:
            rows.append([f"{z.real:.15g},{z.imag:.15g}" for z in row])
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        text = buf.getvalue()
    _emit(text, args.out)
    print(f"unitarity residual {residual:.3e}", file=sys.stderr)
    if residual > args.tol:
        return EXIT_NUMERIC
    return EXIT_OK


def _horizon(text):
    """Parse --horizon: an integer, or 'auto' (None) for one full period."""
    try:
        return None if text == "auto" else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer or 'auto', got {text!r}")


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
        p.add_argument("--tol", default=1e-9, type=float)
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
