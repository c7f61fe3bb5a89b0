"""Command-line front-end.

Each option is declared once, in :data:`OPTIONS`, and each subcommand once,
in :data:`COMMANDS`, with its flags and its handler.  A handler returns its
result, a dict under ``--json`` and text otherwise, and :func:`run` is the
one place that prints it.

Exit codes: 0 success, 1 usage error, 2 domain error (bad weight, invalid
composition, weight not p-dominant, ...), 3 internal integrity error.
"""

import argparse
import re
import sys
from functools import partial

import socular

from .errors import FAMILIES, DomainError, IntegrityError, _DigitLimit, read_int
from .partitions import format_partition

USAGE_ERROR, DOMAIN_ERROR, INTEGRITY_ERROR = 1, 2, 3

# the oracle checks the CLI runs, each by its ``oracles.check_<name>``
ORACLE_CHECKS = ("collapse", "halg", "socular")


class _UsageError(Exception):
    pass


class _RefusedValue(Exception):
    """A well-formed option value that the library refuses: a domain error, not a usage error.

    argparse reports any ``ValueError`` of a type function, :class:`DomainError`
    too, as a usage error, so the refusal leaves the parser as this instead.
    """


class _Mismatches(Exception):
    """An oracle check found mismatches; the message is the summary line for stdout."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values like -9,-5,-6,-7,8, -1_0 or -1,+2 must parse as values, not options: after the
        # leading -digit, every character read_int or parse_weight takes, blanks and _ among them
        self._negative_number_matcher = re.compile(r"^-\d[\d_,/+\s-]*$")

    def error(self, message):
        raise _UsageError(message)


def _option_type(parse, name: str):
    """``parse`` as an argparse type named ``name``: a value past the int conversion limit is
    refused (exit 2), any other :class:`DomainError` is a usage error with its message."""

    def read(text: str):
        try:
            return parse(text)
        except _DigitLimit as exc:
            raise _RefusedValue(exc) from None
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    read.__name__ = name
    return read


def _int_list(text: str) -> list[int]:
    try:
        return list(map(read_int, text.split(",")))
    except _DigitLimit:
        raise
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


_INT = _option_type(read_int, "int")
_INTS = _option_type(_int_list, "int list")


def _cells(hollow_set) -> list[list[int]]:
    return [list(cell) for cell in sorted(hollow_set)]


def _setup_from_args(args):
    if args.parabolic is not None and args.excluded is not None:
        raise DomainError("give either --parabolic or --excluded, not both")
    if args.parabolic is not None:
        setup = socular.parabolic_from_composition(args.family, tuple(args.parabolic))
        if setup.n != args.n:
            raise DomainError(f"composition sums to {setup.n}, but --n is {args.n}")
        return setup
    if args.excluded is not None:
        return socular.parabolic_from_roots(args.family, args.n, set(args.excluded))
    raise DomainError("one of --parabolic or --excluded is required")


def _cmd_tableau(args) -> dict | str:
    seq = args.weight if args.double is None else socular.double(args.weight, args.double)
    tab = socular.rs_tableau(seq)
    if args.json:
        return {"shape": list(socular.shape(tab)), "rows": [[str(v) for v in row] for row in tab]}
    return socular.render_tableau(tab)


def _cmd_gkdim(args) -> dict | str:
    if len(args.weight) != args.n:
        raise DomainError(f"weight has {len(args.weight)} entries, --n is {args.n}")
    if args.json:
        return socular.gk_breakdown(args.weight, args.family)
    return str(socular.gk_dimension(args.weight, args.family))


def _cmd_socular(args) -> dict | str:
    from .hollow import FAMILY_PARITY, _cells as _hollow_cells

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


def _cmd_partition_op(args, op: str) -> dict | str:
    result = getattr(socular, op)(args.partition, args.family)
    if args.json:
        return {"shape": list(result), "transpose": list(socular.transpose(result))}
    return format_partition(result)


def _cmd_oracle(args) -> str:
    from . import oracles

    defaults = oracles.EnumerationBudget()
    window = defaults.entry_window[1] if args.window is None else args.window
    if window < 0:
        raise DomainError(f"--window must be at least 0, got {window}")
    budget = oracles.EnumerationBudget(
        max_total=defaults.max_total if args.max_total is None else args.max_total,
        entry_window=(-window, window),
        max_n=defaults.max_n if args.max_n is None else args.max_n,
    )
    failures = getattr(oracles, f"check_{args.check}")(budget)
    if failures:
        for line in failures:
            print(line, file=sys.stderr)
        raise _Mismatches(f"{args.check}: {len(failures)} mismatches")
    return f"{args.check}: all comparisons passed"


# Every option, each declared once: its flag and its argparse keywords.
OPTIONS = {
    "--family": {"choices": FAMILIES, "required": True},
    "--n": {"type": _INT, "required": True},
    "--parabolic": {"type": _INTS},
    "--excluded": {"type": _INTS},
    # socular.parse_weight is looked up when a weight is read, so that the import loads no weights code
    "--weight": {"type": _option_type(lambda text: socular.parse_weight(text), "weight"), "required": True},
    "--partition": {"type": _INTS, "required": True},
    "--json": {"action": "store_true"},
    "--double": {"choices": ("back", "front")},
    "--a0": {"type": _INT, "required": True},
    "--b": {"type": _INTS, "default": ()},
    "--hollow": {"choices": ("odd", "even")},
    "--check": {"choices": ORACLE_CHECKS, "required": True},
    # the budget options default to EnumerationBudget's, filled in by _cmd_oracle
    "--max-total": {"type": _INT},
    "--max-n": {"type": _INT},
    "--window": {"type": _INT},
}

_SETUP = ("--family", "--n", "--parabolic", "--excluded")
_PARTITION_OP = ("--partition", "--family", "--json")

# Each subcommand: its handler, its flags in --help order, and its one-line
# help for the program's --help.
COMMANDS = {
    "tableau": (_cmd_tableau, ("--weight", "--double", "--json"), "Robinson-Schensted tableau of a weight"),
    "gkdim": (_cmd_gkdim, ("--family", "--n", "--weight", "--json"), "Gelfand-Kirillov dimension of L(lambda)"),
    "socular": (_cmd_socular, (*_SETUP, "--json", "--weight"), None),
    "dimu": (_cmd_dimu, (*_SETUP, "--json"), None),
    "parabolic": (_cmd_parabolic, (*_SETUP, "--json"), None),
    "richardson": (_cmd_richardson, (*_SETUP, "--json"), None),
    "zdiagram": (_cmd_zdiagram, ("--a0", "--b", "--hollow", "--json"), "Z-diagram of type (a0; b1,b2,...)"),
    "halg": (partial(_cmd_partition_op, op="h_algorithm"), _PARTITION_OP, None),
    "collapse": (partial(_cmd_partition_op, op="collapse"), _PARTITION_OP, None),
    "expand": (partial(_cmd_partition_op, op="expand"), _PARTITION_OP, None),
    "oracle": (_cmd_oracle, ("--check", "--max-total", "--max-n", "--window"), "run brute-force cross-checks"),
}


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every subcommand, or of ``command`` alone, each with its handler.

    A call names one subcommand, so :func:`run` builds only that one: argparse
    parses the same after it, and creating the others costs more than the
    call itself needs.
    """
    parser = _Parser(prog="socular")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags, help_line) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, **({} if help_line is None else {"help": help_line}))
            for flag in flags:
                p.add_argument(flag, **OPTIONS[flag])
            # oracle has no --json: it prints text
            p.set_defaults(handler=handler, json=False)
    return parser


def _parser_for(argv: list[str]) -> _Parser:
    """The parser of a call: the named subcommand's alone when ``argv`` starts with one, else all."""
    return build_parser(argv[0] if argv and argv[0] in COMMANDS else None)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser_for(argv).parse_args(argv)
        out = args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except _Mismatches as exc:
        print(exc)
        return INTEGRITY_ERROR
    except (DomainError, _RefusedValue) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except IntegrityError as exc:
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
