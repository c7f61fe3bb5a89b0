"""Command-line front-end.

Each subcommand is declared once, in :func:`build_parser`, with its options
and its handler.  A handler returns its result, a dict under ``--json`` and
text otherwise, and :func:`run` is the one place that prints it.

Exit codes: 0 success, 1 usage error, 2 domain error (bad weight, invalid
composition, weight not p-dominant, ...), 3 internal integrity error.
"""

import argparse
import re
import sys

import socular

from .hollow import FAMILY_PARITY, _cells as _hollow_cells
from .partitions import format_partition

USAGE_ERROR, DOMAIN_ERROR, INTEGRITY_ERROR = 1, 2, 3


class _UsageError(Exception):
    pass


class _Mismatches(Exception):
    """An oracle check found mismatches; the message is the summary line for stdout."""


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


def _setup_from_args(args):
    if args.parabolic is not None and args.excluded is not None:
        raise socular.DomainError("give either --parabolic or --excluded, not both")
    if args.parabolic is not None:
        setup = socular.parabolic_from_composition(args.family, tuple(args.parabolic))
        if setup.n != args.n:
            raise socular.DomainError(f"composition sums to {setup.n}, but --n is {args.n}")
        return setup
    if args.excluded is not None:
        return socular.parabolic_from_roots(args.family, args.n, set(args.excluded))
    raise socular.DomainError("one of --parabolic or --excluded is required")


def _cmd_tableau(args) -> dict | str:
    seq = args.weight if args.double is None else socular.double(args.weight, args.double)
    tab = socular.rs_tableau(seq)
    if args.json:
        return {"shape": list(socular.shape(tab)), "rows": [[str(v) for v in row] for row in tab]}
    return socular.render_tableau(tab)


def _cmd_gkdim(args) -> dict | str:
    if len(args.weight) != args.n:
        raise socular.DomainError(f"weight has {len(args.weight)} entries, --n is {args.n}")
    if args.json:
        return socular.gk_breakdown(args.weight, args.family)
    return str(socular.gk_dimension(args.weight, args.family))


def _cmd_socular(args) -> dict | str:
    setup = _setup_from_args(args)
    cert = socular.is_socular(args.weight, setup)
    if not args.json:
        return f"socular: {'true' if cert.verdict else 'false'}"
    payload = {"socular": cert.verdict, "gkdim": cert.gk, "dim_u": cert.dim_u, "reason": cert.reason}
    if cert.candidate_hollow is not None:
        parity = FAMILY_PARITY[setup.family]
        payload[parity + "_cells"] = _cells(_hollow_cells(cert.candidate_hollow, parity))
        payload[f"target_{parity}_cells"] = _cells(_hollow_cells(cert.target_hollow, parity))
    return payload


def _cmd_dimu(args) -> dict | str:
    dim_u = socular.dim_nilradical(_setup_from_args(args))
    return {"dim_u": dim_u} if args.json else str(dim_u)


def _cmd_parabolic(args) -> dict | str:
    setup = _setup_from_args(args)
    dim_u = socular.dim_nilradical(setup)
    if args.json:
        return {
            "composition": list(setup.composition),
            "normalized_composition": list(setup.normalized_composition),
            "excluded": sorted(setup.excluded),
            "dim_u": dim_u,
        }
    return (
        f"composition: {format_partition(setup.composition)}\n"
        f"normalized: {format_partition(setup.normalized_composition)}\n"
        f"dim_u: {dim_u}"
    )


def _cmd_richardson(args) -> dict | str:
    setup = _setup_from_args(args)
    result = socular.richardson_partition(setup)
    if args.json:
        return {
            "richardson": list(result.partition),
            "very_even": result.very_even,
            "numeral": result.numeral,
            "dim_orbit": socular.orbit_dimension(result.partition, setup.family),
        }
    return format_partition(result.partition)


def _cmd_zdiagram(args) -> dict | str:
    shape = socular.z_diagram(args.a0, tuple(args.b)).shape
    if args.json:
        return {
            "shape": list(shape),
            "odd_cells": _cells(socular.hollow(shape, "odd")),
            "even_cells": _cells(socular.hollow(shape, "even")),
        }
    picture = socular.render_hollow(shape, args.hollow) if args.hollow else socular.render_diagram(shape)
    return f"{format_partition(shape)}\n{picture}"


def _cmd_partition_op(args) -> dict | str:
    result = getattr(socular, args.op)(args.partition, args.family)
    if args.json:
        return {"shape": list(result), "transpose": list(socular.transpose(result))}
    return format_partition(result)


def _cmd_oracle(args) -> str:
    from .oracles import EnumerationBudget, check_collapse, check_halg, check_socular

    if args.window < 0:
        raise socular.DomainError(f"--window must be at least 0, got {args.window}")
    budget = EnumerationBudget(
        max_total=args.max_total, entry_window=(-args.window, args.window), max_n=args.max_n
    )
    checks = {"collapse": check_collapse, "halg": check_halg, "socular": check_socular}
    failures = checks[args.check](budget)
    if failures:
        for line in failures:
            print(line, file=sys.stderr)
        raise _Mismatches(f"{args.check}: {len(failures)} mismatches")
    return f"{args.check}: all comparisons passed"


def _options(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A parent parser: the options added to it go to every subcommand that lists it."""
    return argparse.ArgumentParser(add_help=False, parents=parents)


def build_parser() -> _Parser:
    """Every subcommand with its handler and its options, shared ones from parent parsers.

    A subparser lists its parents' options before its own, so an option that
    comes before ``--json`` in a subcommand's --help sits in a parent too.
    """
    family = _options()
    family.add_argument("--family", choices=["A", "B", "C", "D"], required=True)
    rank = _options()
    rank.add_argument("--n", type=int, required=True)
    setup = _options(rank)
    setup.add_argument("--parabolic", type=_csv_ints)
    setup.add_argument("--excluded", type=_csv_ints)
    weight = _options()
    weight.add_argument("--weight", type=_weight, required=True)
    partition = _options()
    partition.add_argument("--partition", type=_csv_ints, required=True)
    output = _options()
    output.add_argument("--json", action="store_true")

    parser = _Parser(prog="socular")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, *parents, **kwargs) -> _Parser:
        p = sub.add_parser(name, parents=parents, **kwargs)
        p.set_defaults(handler=handler)
        return p

    tableau = _options(weight)
    tableau.add_argument("--double", choices=["back", "front"])
    command("tableau", _cmd_tableau, tableau, output, help="Robinson-Schensted tableau of a weight")
    command("gkdim", _cmd_gkdim, family, rank, weight, output, help="Gelfand-Kirillov dimension of L(lambda)")
    command("socular", _cmd_socular, family, setup, output, weight)
    command("dimu", _cmd_dimu, family, setup, output)
    command("parabolic", _cmd_parabolic, family, setup, output)
    command("richardson", _cmd_richardson, family, setup, output)
    zdiagram = _options()
    zdiagram.add_argument("--a0", type=int, required=True)
    zdiagram.add_argument("--b", type=_csv_ints, default=[])
    zdiagram.add_argument("--hollow", choices=["odd", "even"])
    command("zdiagram", _cmd_zdiagram, zdiagram, output, help="Z-diagram of type (a0; b1,b2,...)")
    for name, op in (("halg", "h_algorithm"), ("collapse", "collapse"), ("expand", "expand")):
        command(name, _cmd_partition_op, partition, family, output).set_defaults(op=op)

    p = command("oracle", _cmd_oracle, help="run brute-force cross-checks")
    p.set_defaults(json=False)  # no output options: it prints text
    p.add_argument("--check", choices=["collapse", "halg", "socular"], required=True)
    p.add_argument("--max-total", type=int, default=10)
    p.add_argument("--max-n", type=int, default=2)
    p.add_argument("--window", type=int, default=3)
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        out = args.handler(args)
    except _Mismatches as exc:
        print(exc)
        return INTEGRITY_ERROR
    except socular.DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except socular.IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return INTEGRITY_ERROR
    if args.json:
        import json

        out = json.dumps(out)
    print(out)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
