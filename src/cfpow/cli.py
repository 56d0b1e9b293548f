"""Command-line frontend: reproducible batch runs with JSON output.

Every command prints canonical JSON (sorted keys, no whitespace) so that
identical inputs give byte-identical output; `search` prints one JSON line
per solution.  Big integers and interval endpoints travel as decimal
strings.  Exit status: 0 success, 2 when a pipeline's hypotheses reject
the input, 3 for malformed input or any other failure, each with an
{"error", "detail"} object on stdout.

The quadratic argument is always explicit, ``--alpha P,Q,R,D`` meaning
(P + Q*sqrt(D))/R.  Decimal approximations are rejected by construction:
there is no way to spell one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .bounds import BoundReport, theorem_ham2_bound, theorem_ham_bound, theorem_y_bound
from .cfrac import binet_data, convergents, expand
from .errors import InapplicableError, InputError, ToolkitError
from .numeration import ostrowski_encode, radix_encode, zeckendorf_encode
from .quadfield import DEFAULT_PRECISION, _decimal_int, make_quadnum
from .search import SearchRange, Solution, enumerate_solutions, filter_by_weight, verify_bounds

__all__ = ["main", "build_parser"]

ENV_PRECISION = "CFPOW_PRECISION_BITS"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as InputError (exit 3)."""

    def error(self, message):
        raise InputError(message)


def _emit(doc, stream):
    stream.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _parse_alpha(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise InputError("--alpha must be four comma-separated integers P,Q,R,D")
    try:
        p, q, r, d = (int(part) for part in parts)
    except ValueError:
        raise InputError("--alpha components must be integers") from None
    if r == 0:
        raise InputError("--alpha denominator R must be nonzero")
    return make_quadnum(Fraction(p, r), Fraction(q, r), d)


def _require_alpha(args):
    if args.alpha is None:
        raise InputError("this command needs --alpha P,Q,R,D")
    return expand(_parse_alpha(args.alpha))


def _resolve_bits(args) -> int:
    bits = args.precision_bits
    if bits is None:
        raw = os.environ.get(ENV_PRECISION, "")
        try:
            bits = int(raw) if raw else DEFAULT_PRECISION
        except ValueError:
            raise InputError(f"{ENV_PRECISION} must be an integer") from None
    if bits < 32:
        raise InputError("precision must be at least 32 bits")
    return bits


def _parse_radix_filter(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError("--filter-radix expects L,B")
    try:
        ell, base = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError("--filter-radix expects integers L,B") from None
    return ell, base


def build_parser() -> _Parser:
    parser = _Parser(prog="cfpow", description=__doc__.splitlines()[0])
    parser.add_argument("--alpha", help="quadratic irrational as P,Q,R,D for (P+Q*sqrt(D))/R")
    parser.add_argument(
        "--precision-bits",
        type=int,
        default=None,
        help=f"working precision (default: ${ENV_PRECISION} or {DEFAULT_PRECISION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cf = sub.add_parser("cf", help="continued-fraction expansion and derived data")
    cf_sub = cf.add_subparsers(dest="subcommand", required=True)
    cf_sub.add_parser("expand", help="partial quotients: a0, preperiod, period")
    conv = cf_sub.add_parser("convergents", help="denominators q_0..q_n")
    conv.add_argument("--n", type=int, required=True)
    cf_sub.add_parser("binet", help="recurrence splitting and growth data")

    rep = sub.add_parser("rep", help="numeration-system encodings")
    rep_sub = rep.add_subparsers(dest="subcommand", required=True)
    ost = rep_sub.add_parser("ostrowski", help="digits over the convergent denominators")
    ost.add_argument("--value", type=int, required=True)
    zeck = rep_sub.add_parser("zeckendorf", help="Fibonacci summand indices")
    zeck.add_argument("--value", type=int, required=True)
    rad = rep_sub.add_parser("radix", help="nonzero base-b digits")
    rad.add_argument("--value", type=int, required=True)
    rad.add_argument("--b", type=int, required=True)

    bounds = sub.add_parser("bounds", help="effective bound pipelines")
    bounds_sub = bounds.add_subparsers(dest="subcommand", required=True)
    b_y = bounds_sub.add_parser("y", help="bounds for a known base y")
    b_y.add_argument("--K", type=int, required=True)
    b_y.add_argument("--y", type=int, required=True)
    b_ham = bounds_sub.add_parser("ham", help="bounds under a Fibonacci weight cap on y")
    b_ham.add_argument("--K", type=int, required=True)
    b_ham.add_argument("--l", type=int, required=True)
    b_ham2 = bounds_sub.add_parser("ham2", help="bounds under a base-b weight cap on y")
    b_ham2.add_argument("--K", type=int, required=True)
    b_ham2.add_argument("--l", type=int, required=True)
    b_ham2.add_argument("--b", type=int, required=True)

    srch = sub.add_parser("search", help="exhaustive solution enumeration (JSON lines)")
    srch.add_argument("--K", type=int, required=True)
    srch.add_argument("--N-max", type=int, required=True)
    srch.add_argument("--a-max", type=int, required=True)
    srch.add_argument("--threads", type=int, default=1, help="worker processes (default: 1, serial)")
    srch.add_argument("--budget", type=int, default=None, help="cap on K-tuples examined")
    group = srch.add_mutually_exclusive_group()
    group.add_argument("--filter-zeckendorf", type=int, metavar="L")
    group.add_argument("--filter-radix", metavar="L,B")

    ver = sub.add_parser("verify", help="check recorded solutions against a bound report")
    ver.add_argument("--solutions", required=True, help="JSON-lines file from `search`")
    ver.add_argument("--report", required=True, help="JSON file from `bounds`")
    return parser


def _load_solutions(path: str) -> list[Solution]:
    sols = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                doc = json.loads(line)
                y, a, value = (_decimal_int(doc[key]) for key in ("y", "a", "value"))
                sols.append(Solution(y, a, tuple(doc["N"]), value))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"malformed solutions file: {exc}") from None
    return sols


def _run(args, stream) -> int:
    bits = _resolve_bits(args)
    cmd = args.command
    if cmd == "cf":
        cf = _require_alpha(args)
        if args.subcommand == "expand":
            _emit(cf.to_json(), stream)
        elif args.subcommand == "convergents":
            if args.n < 0:
                raise InputError("--n must be >= 0")
            _emit(convergents(cf, args.n).to_json(), stream)
        else:
            _emit(binet_data(cf, bits).to_json(), stream)
    elif cmd == "rep":
        if args.subcommand == "ostrowski":
            cf = _require_alpha(args)
            _emit(ostrowski_encode(args.value, cf).to_json(), stream)
        elif args.subcommand == "zeckendorf":
            _emit(zeckendorf_encode(args.value).to_json(), stream)
        else:
            _emit(radix_encode(args.value, args.b).to_json(), stream)
    elif cmd == "bounds":
        bd = binet_data(_require_alpha(args), bits)
        if args.subcommand == "y":
            report = theorem_y_bound(bd, args.K, args.y)
        elif args.subcommand == "ham":
            report = theorem_ham_bound(bd, args.K, args.l)
        else:
            report = theorem_ham2_bound(bd, args.K, args.l, args.b)
        _emit(report.to_json(), stream)
    elif cmd == "search":
        cf = _require_alpha(args)
        rng = SearchRange(args.N_max, args.a_max, args.K)
        sols = enumerate_solutions(cf, rng, threads=args.threads, budget=args.budget)
        if args.filter_zeckendorf is not None:
            sols = filter_by_weight(sols, "zeckendorf", args.filter_zeckendorf)
        elif args.filter_radix is not None:
            ell, base = _parse_radix_filter(args.filter_radix)
            sols = filter_by_weight(sols, "radix", ell, b=base)
        for sol in sols:
            _emit(sol.to_json(), stream)
    else:
        bd = binet_data(_require_alpha(args), bits)
        sols = _load_solutions(args.solutions)
        try:
            with open(args.report, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InputError(f"malformed report file: {exc}") from None
        ok = verify_bounds(sols, BoundReport.from_json(doc), bd)
        _emit({"verified": ok, "checked": len(sols)}, stream)
    return 0


def main(argv=None) -> int:
    stream = sys.stdout
    try:
        args = build_parser().parse_args(argv)
        return _run(args, stream)
    except InapplicableError as exc:
        _emit({"error": exc.code, "detail": exc.detail}, stream)
        return 2
    except ToolkitError as exc:
        _emit({"error": exc.code, "detail": exc.detail}, stream)
        return 3
    except (ValueError, OverflowError, RecursionError) as exc:
        _emit({"error": "error", "detail": str(exc)}, stream)
        return 3


if __name__ == "__main__":
    sys.exit(main())
