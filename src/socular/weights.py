"""Exact-rational weight sequences: the text readers, the entry reader and the integer core.

Weights are tuples of ints and ``fractions.Fraction``s, which mean the same
value either way; floats, strings and bools are domain errors.  The text
readers give an entry written as an integer as an ``int``, and one written
``a/b`` as its ``Fraction`` in lowest terms, so ``"4/2"`` gives ``Fraction(2)``.
The library reads a weight once, with :func:`integer_entries`, and splits and
rewrites it on ints; their ``Fraction`` references are in :mod:`socular.oracles`.
All operations are pure; no floating point is used anywhere because the
downstream criteria are exact equalities.
"""

import re
from fractions import Fraction

from .errors import DomainError, _DigitLimit, as_tuple, is_int

Weight = tuple[int | Fraction, ...]

_ENTRY = r"\s*-?\d+(?:/[1-9]\d*)?\s*"
_ENTRY_RE = re.compile(_ENTRY)
_WEIGHT_RE = re.compile(rf"{_ENTRY}(?:,{_ENTRY})*")


def _entry(text: str) -> int | Fraction:
    # text matches _ENTRY; int() ignores the surrounding whitespace
    if "/" not in text:
        return int(text)
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den))


def parse_rational(text: str) -> int | Fraction:
    """Parse one entry: ``a`` or ``-a`` to an int, ``a/b`` with b > 0 to its Fraction
    in lowest terms (``"4/2"`` gives ``Fraction(2)``).  No decimals."""
    if not isinstance(text, str):
        raise DomainError(f"a rational literal must be text, got {text!r}")
    if not _ENTRY_RE.fullmatch(text):
        raise DomainError(f"not a rational literal: {text.strip()!r}")
    try:
        return _entry(text)
    except ValueError:
        raise _DigitLimit() from None


def parse_weight(text: str) -> Weight:
    """Parse a comma-separated weight, e.g. ``-5,-6,-4,1/2``: each entry as
    :func:`parse_rational` reads it, an int unless it is written ``a/b``."""
    if not isinstance(text, str):
        raise DomainError(f"a weight must be text, got {text!r}")
    if not text.strip():
        raise DomainError("empty weight")
    toks = text.split(",")
    if not _WEIGHT_RE.fullmatch(text):
        for tok in toks:
            parse_rational(tok)  # raises on the first bad entry
    try:
        return tuple(map(_entry, toks))
    except ValueError:
        raise _DigitLimit() from None


_SEQUENCE_RULE = "a weight must be a sequence of entries"


def _doubled(w) -> tuple:
    """The back doubling of a list or tuple of entries already read: :func:`double` unchecked."""
    return (*w, *[-v for v in reversed(w)])


def double(weight, side: str = "back") -> tuple:
    """The doubling maps: back gives (x_1,...,x_n,-x_n,...,-x_1), front the reverse half first.
    Each entry is checked as :func:`integer_entries` checks it, and kept as it is."""
    w = as_tuple(weight, _SEQUENCE_RULE)
    for v in w:
        if type(v) is not int and type(v) is not Fraction:  # the common types skip the call
            _exact(v)
    if side == "back":
        return _doubled(w)
    if side == "front":
        return tuple([-v for v in reversed(w)]) + w
    raise DomainError(f"side must be 'back' or 'front', got {side!r}")


def _exact(v):
    """``v`` itself if it is an int (not a bool) or a Fraction; anything else is a domain error."""
    if not (is_int(v) or isinstance(v, Fraction)):
        raise DomainError(f"weight entries must be ints or Fractions, got {v!r}")
    return v


def integer_entries(weight) -> tuple[list[int], list[int]]:
    """The numerators and the denominators of a weight's entries, each checked to be an
    int (not a bool) or a Fraction: the one weight reader the other modules use.  An all-int
    weight is itself over 1; any other takes one ``as_integer_ratio()`` read per entry."""
    w = as_tuple(weight, _SEQUENCE_RULE)
    for v in w:
        if type(v) is not int:
            break
    else:  # an int is its own numerator over 1
        return list(w), [1] * len(w)
    nums, dens = [], []
    for v in w:
        if type(v) is not Fraction and type(v) is not int:  # the common types skip the call
            _exact(v)
        n, d = v.as_integer_ratio()
        nums.append(n)
        dens.append(d)
    return nums, dens


def class_buckets(nums: list[int], dens: list[int], fold: bool) -> dict[tuple[int, int], list[int]]:
    """0-based positions of each congruence class, keyed by the residue pair (n mod d, d).

    With ``fold`` (difference-or-sum congruence) the residues r and d-r merge
    under min(r, d-r).  Keys come in the order of each class's first position.
    """
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, (x, d) in enumerate(zip(nums, dens)):
        r = x % d
        if fold and 2 * r > d:
            r = d - r
        key = (r, d)
        if key in buckets:
            buckets[key].append(i)
        else:
            buckets[key] = [i]
    return buckets


def tilde_numerators(nums, d: int) -> tuple[int, ...]:
    """The tilde rewrite (``oracles.tilde``) on the numerators of a class whose entries share the denominator ``d``."""
    lead = nums[0] % d
    return tuple([x for x in nums if x % d == lead] + [-x for x in reversed(nums) if x % d != lead])


def is_integral(weight) -> bool:
    dens = integer_entries(weight)[1]
    return dens.count(1) == len(dens)
