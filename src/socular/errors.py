"""Error types shared across the library, and the rules of every public boundary.

The int rule, the integer and sequence readers, the family-and-rank check and
the root count live here, so a module that needs only them, :mod:`socular.gkdim`
and :mod:`socular.cli` among them, loads no parabolic setup code.
"""

import re
import sys


class DomainError(ValueError):
    """A mathematical precondition was violated by the caller."""


class IntegrityError(RuntimeError):
    """An internal consistency check failed; this indicates a bug, not bad input."""


class _DigitLimit(DomainError):
    """A well-formed integer past the int conversion limit: the one ``ValueError`` of ``int()`` on well-formed text."""

    def __init__(self):
        super().__init__(f"an entry has more than {sys.get_int_max_str_digits()} digits, the int conversion limit")


def read_int(text: str) -> int:
    """``int(text)``; a well-formed integer past the int conversion limit raises :class:`_DigitLimit`."""
    try:
        return int(text)
    except ValueError:
        # int()'s base-10 grammar; \s and \d take the Unicode blanks and digits it takes
        if re.fullmatch(r"\s*[+-]?\d(?:_?\d)*\s*", text):
            raise _DigitLimit() from None
        raise


def is_int(v) -> bool:
    """Whether ``v`` is an int argument: an ``int``, an ``IntEnum`` member too, but not a ``bool``."""
    return isinstance(v, int) and not isinstance(v, bool)


def as_tuple(value, must: str) -> tuple:
    """``tuple(value)``; a ``value`` that is not iterable is a :class:`DomainError` saying ``must``."""
    try:
        return tuple(value)
    except TypeError:
        raise DomainError(f"{must}, got {value!r}") from None


FAMILIES = ("A", "B", "C", "D")


def check_family(family: str, n: int) -> None:
    if family not in FAMILIES:
        raise DomainError(f"family must be one of {FAMILIES}, got {family!r}")
    if not is_int(n):
        raise DomainError(f"rank must be an int, got {n!r}")
    if n < 1:
        raise DomainError("rank must be positive")
    if family in ("A", "D") and n < 2:
        raise DomainError(f"family {family} needs n >= 2, got n={n}")


def positive_roots(family: str, n: int) -> int:
    """The number of positive roots of sl(n), so(2n+1), sp(n) or so(2n), by family; unchecked."""
    if family == "A":
        return n * (n - 1) // 2
    return n * n - (n if family == "D" else 0)
