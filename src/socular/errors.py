"""Error types shared across the library, and the rules of every public boundary.

The int rule, the sequence reader and the family-and-rank check live here, so
a module that needs only them, :mod:`socular.gkdim` among them, loads no
parabolic setup code.
"""


class DomainError(ValueError):
    """A mathematical precondition was violated by the caller."""


class IntegrityError(RuntimeError):
    """An internal consistency check failed; this indicates a bug, not bad input."""


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
