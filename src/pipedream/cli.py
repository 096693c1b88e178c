"""Command-line front end.

Subcommands: enumerate, nu, coeff, poly, render, verify, maxima.
Output is deterministic for fixed inputs; the verify command's text form
deliberately omits timing so runs are byte-identical.  ``nu`` and
``poly`` walk their word's lower interval in the right weak order and
build no table; ``coeff`` reads the table of its word's size.  Nothing is
kept between runs.  Each command imports its layers when it runs:
``nu``, ``coeff`` and ``poly`` load no grid stream or checks,
``enumerate`` and ``render`` no checks or tables.
"""

from __future__ import annotations

import argparse
import sys

from .errors import CHECK_IDS, PipedreamError
from .store import DEFAULT_GUARD, size_guard


def _perm(text: str):
    from .perms import Permutation
    return Permutation.from_text(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipedream",
        description="Exact combinatorics of bumpless pipe dreams.")
    parser.add_argument("--guard", type=int, default=None,
                        help=f"largest permutation size allowed (default {DEFAULT_GUARD})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list the grids of a family")
    p.add_argument("--perm", required=True)
    p.add_argument("--kind", default="BPD",
                   choices=["BPD", "bpd", "BPD_K", "mBPD", "mbpd"])
    p.add_argument("--subword", default=None,
                   help="comma-separated 1-based indices; restricts BPD/bpd "
                        "to the matching removable-pipe stratum")
    p.add_argument("--format", default="ascii", choices=["ascii", "json"])

    p = sub.add_parser("nu", help="principal specialization of a permutation")
    p.add_argument("--perm", required=True)
    p.add_argument("--at", type=int, default=None, metavar="BETA")

    p = sub.add_parser("coeff", help="pattern coefficient of a permutation")
    p.add_argument("--perm", required=True)
    p.add_argument("--mode", default="recursive", choices=["recursive", "ie"])
    p.add_argument("--at", type=int, default=None, metavar="BETA")

    p = sub.add_parser("poly", help="full weight generating polynomial")
    p.add_argument("--perm", required=True)

    p = sub.add_parser("render", help="draw one grid of a permutation")
    p.add_argument("--perm", required=True)
    p.add_argument("--index", type=int, required=True,
                   help="0-based position in the enumeration order")
    p.add_argument("--format", default="ascii", choices=["ascii", "json", "svg"])

    p = sub.add_parser("verify", help="run a named machine check")
    p.add_argument("check_id", choices=sorted(CHECK_IDS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", default="text", choices=["text", "json"])

    p = sub.add_parser("maxima", help="extremes of the evaluated specializations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=int, default=1)

    return parser


def _cmd_enumerate(args) -> int:
    from .enumeration import SetQuery, query
    from .grid import render
    from .perms import SubwordSelection
    w = _perm(args.perm)
    kind = args.kind
    v = None
    if args.subword is not None:
        if kind not in ("BPD", "bpd"):
            print("--subword only applies to kinds BPD and bpd", file=sys.stderr)
            return 2
        try:
            indices = tuple(int(part) for part in args.subword.split(",")) \
                if args.subword else ()
            v = SubwordSelection(w, indices)
        except ValueError as exc:
            print(f"error: bad --subword {args.subword!r}: {exc}", file=sys.stderr)
            return 2
        kind = "BPD_v" if kind == "BPD" else "bpd_v"
    grids = query(SetQuery(kind, w, v))
    if args.format == "ascii":
        blocks = [render(g, "ascii") for g in grids]
        print("\n\n".join(blocks))
        print(f"# {len(grids)} grid(s)")
    else:
        for g in grids:
            print(render(g, "json"))
    return 0


def _cmd_nu(args) -> int:
    from .specialization import interval_nu
    value = interval_nu(_perm(args.perm))
    print(value(args.at) if args.at is not None else value)
    return 0


def _cmd_coeff(args) -> int:
    from .specialization import coefficient
    value = coefficient(_perm(args.perm), mode=args.mode)
    print(value(args.at) if args.at is not None else value)
    return 0


def _cmd_poly(args) -> int:
    from .specialization import grothendieck
    print(grothendieck(_perm(args.perm)))
    return 0


def _cmd_render(args) -> int:
    from .enumeration import SetQuery, query
    from .grid import render
    w = _perm(args.perm)
    grids = query(SetQuery("BPD", w))
    if not 0 <= args.index < len(grids):
        print(f"index {args.index} out of range; {w.text()} has {len(grids)} grids",
              file=sys.stderr)
        return 2
    print(render(grids[args.index], args.format))
    return 0


def _cmd_verify(args) -> int:
    from .checks import run_check
    report = run_check(args.check_id, args.n)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.text())
    return 0 if report.passed else 1


def _cmd_maxima(args) -> int:
    from .checks import maxima_table
    row = maxima_table(args.n, args.beta)
    # from size 10 on a word's own letters are separated by commas
    sep = ";" if row.n >= 10 else ","
    names_nu = sep.join(w.text() or "∅" for w in row.argmax_nu)
    names_c = sep.join(w.text() or "∅" for w in row.argmax_c)
    print(f"n={row.n} beta={row.beta_value} max_nu={row.max_nu} max_c={row.max_c} "
          f"argmax_nu={names_nu} argmax_c={names_c}")
    return 0


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "nu": _cmd_nu,
    "coeff": _cmd_coeff,
    "poly": _cmd_poly,
    "render": _cmd_render,
    "verify": _cmd_verify,
    "maxima": _cmd_maxima,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with size_guard(args.guard):
            return _COMMANDS[args.command](args)
    except PipedreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
