"""Command-line front-end.

Exit codes: 0 success, 1 usage error, 2 domain error (bad weight, invalid
composition, weight not p-dominant, ...), 3 internal integrity error.
"""

import argparse
import re
import sys

import socular

from .partitions import format_partition

USAGE_ERROR, DOMAIN_ERROR, INTEGRITY_ERROR = 1, 2, 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # weight values like -9,-5,-6,-7,8 must parse as values, not options
        self._negative_number_matcher = re.compile(r"^-\d[\d,/-]*$")

    def error(self, message):
        raise _UsageError(message)


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(tok.strip()) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _weight(text: str):
    try:
        return socular.parse_weight(text)
    except socular.DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _cells(hollow_set) -> list[list[int]]:
    return [list(cell) for cell in sorted(hollow_set)]


def _emit(payload: dict) -> None:
    import json

    print(json.dumps(payload))


def _add_family(parser, required=True):
    parser.add_argument("--family", choices=["A", "B", "C", "D"], required=required)


def _setup_from_args(args):
    if getattr(args, "parabolic", None) is not None and getattr(args, "excluded", None) is not None:
        raise socular.DomainError("give either --parabolic or --excluded, not both")
    if getattr(args, "parabolic", None) is not None:
        setup = socular.parabolic_from_composition(args.family, tuple(args.parabolic))
        if setup.n != args.n:
            raise socular.DomainError(f"composition sums to {setup.n}, but --n is {args.n}")
        return setup
    if getattr(args, "excluded", None) is not None:
        return socular.parabolic_from_roots(args.family, args.n, set(args.excluded))
    raise socular.DomainError("one of --parabolic or --excluded is required")


def build_parser() -> _Parser:
    parser = _Parser(prog="socular")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tableau", help="Robinson-Schensted tableau of a weight")
    p.add_argument("--weight", type=_weight, required=True)
    p.add_argument("--double", choices=["back", "front"], default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gkdim", help="Gelfand-Kirillov dimension of L(lambda)")
    _add_family(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight", type=_weight, required=True)
    p.add_argument("--json", action="store_true")

    for name in ("socular", "dimu", "parabolic", "richardson"):
        p = sub.add_parser(name)
        _add_family(p)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--parabolic", type=_csv_ints, default=None)
        p.add_argument("--excluded", type=_csv_ints, default=None)
        p.add_argument("--json", action="store_true")
        if name == "socular":
            p.add_argument("--weight", type=_weight, required=True)

    p = sub.add_parser("zdiagram", help="Z-diagram of type (a0; b1,b2,...)")
    p.add_argument("--a0", type=int, required=True)
    p.add_argument("--b", type=_csv_ints, default=[])
    p.add_argument("--hollow", choices=["odd", "even"], default=None)
    p.add_argument("--json", action="store_true")

    for name in ("halg", "collapse", "expand"):
        p = sub.add_parser(name)
        p.add_argument("--partition", type=_csv_ints, required=True)
        _add_family(p)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("oracle", help="run brute-force cross-checks")
    p.add_argument("--check", choices=["collapse", "halg", "socular"], required=True)
    p.add_argument("--max-total", type=int, default=10)
    p.add_argument("--max-n", type=int, default=2)
    p.add_argument("--window", type=int, default=3)
    return parser


def _cmd_tableau(args) -> int:
    seq = args.weight if args.double is None else socular.double(args.weight, args.double)
    tab = socular.rs_tableau(seq)
    if args.json:
        _emit({"shape": list(socular.shape(tab)), "rows": [[str(v) for v in row] for row in tab]})
    else:
        print(socular.render_tableau(tab))
    return 0


def _cmd_gkdim(args) -> int:
    if len(args.weight) != args.n:
        raise socular.DomainError(f"weight has {len(args.weight)} entries, --n is {args.n}")
    if args.json:
        _emit(socular.gk_breakdown(args.weight, args.family))
    else:
        print(socular.gk_dimension(args.weight, args.family))
    return 0


def _cmd_socular(args) -> int:
    setup = _setup_from_args(args)
    cert = socular.is_socular(args.weight, setup)
    if args.json:
        payload = {
            "socular": cert.verdict,
            "gkdim": cert.gk,
            "dim_u": cert.dim_u,
            "reason": cert.reason,
        }
        if cert.candidate_hollow is not None:
            key = "odd_cells" if setup.family in ("B", "C") else "even_cells"
            payload[key] = _cells(cert.candidate_hollow)
            payload["target_" + key] = _cells(cert.target_hollow)
        _emit(payload)
    else:
        print(f"socular: {'true' if cert.verdict else 'false'}")
    return 0


def _cmd_dimu(args) -> int:
    setup = _setup_from_args(args)
    if args.json:
        _emit({"dim_u": socular.dim_nilradical(setup)})
    else:
        print(socular.dim_nilradical(setup))
    return 0


def _cmd_parabolic(args) -> int:
    setup = _setup_from_args(args)
    if args.json:
        _emit(
            {
                "composition": list(setup.composition),
                "normalized_composition": list(setup.normalized_composition),
                "excluded": sorted(setup.excluded),
                "dim_u": socular.dim_nilradical(setup),
            }
        )
    else:
        print(f"composition: {format_partition(setup.composition)}")
        print(f"normalized: {format_partition(setup.normalized_composition)}")
        print(f"dim_u: {socular.dim_nilradical(setup)}")
    return 0


def _cmd_richardson(args) -> int:
    setup = _setup_from_args(args)
    result = socular.richardson_partition(setup)
    if args.json:
        _emit(
            {
                "richardson": list(result.partition),
                "very_even": result.very_even,
                "numeral": result.numeral,
                "dim_orbit": socular.orbit_dimension(result.partition, setup.family),
            }
        )
    else:
        print(format_partition(result.partition))
    return 0


def _cmd_zdiagram(args) -> int:
    zd = socular.z_diagram(args.a0, tuple(args.b))
    if args.json:
        _emit(
            {
                "shape": list(zd.shape),
                "odd_cells": _cells(socular.hollow(zd.shape, "odd")),
                "even_cells": _cells(socular.hollow(zd.shape, "even")),
            }
        )
    else:
        print(format_partition(zd.shape))
        if args.hollow:
            print(socular.render_hollow(zd.shape, args.hollow))
        else:
            print(socular.render_diagram(zd.shape))
    return 0


def _cmd_partition_op(args) -> int:
    op = getattr(socular, "h_algorithm" if args.command == "halg" else args.command)
    result = op(args.partition, args.family)
    if args.json:
        _emit({"shape": list(result), "transpose": list(socular.transpose(result))})
    else:
        print(format_partition(result))
    return 0


def _cmd_oracle(args) -> int:
    from .oracles import EnumerationBudget, check_collapse, check_halg, check_socular

    budget = EnumerationBudget(
        max_total=args.max_total, entry_window=(-args.window, args.window), max_n=args.max_n
    )
    checks = {"collapse": check_collapse, "halg": check_halg, "socular": check_socular}
    failures = checks[args.check](budget)
    if failures:
        for line in failures:
            print(line, file=sys.stderr)
        print(f"{args.check}: {len(failures)} mismatches")
        return INTEGRITY_ERROR
    print(f"{args.check}: all comparisons passed")
    return 0


_COMMANDS = {
    "tableau": _cmd_tableau,
    "gkdim": _cmd_gkdim,
    "socular": _cmd_socular,
    "dimu": _cmd_dimu,
    "parabolic": _cmd_parabolic,
    "richardson": _cmd_richardson,
    "zdiagram": _cmd_zdiagram,
    "halg": _cmd_partition_op,
    "collapse": _cmd_partition_op,
    "expand": _cmd_partition_op,
    "oracle": _cmd_oracle,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except socular.DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except socular.IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return INTEGRITY_ERROR


def main() -> None:
    sys.exit(run())
