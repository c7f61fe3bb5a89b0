"""Error types shared across the library, and the int rule and the sequence reader of every public boundary."""


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
