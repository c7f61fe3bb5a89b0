"""Exact-rational weight sequences, doubling maps, and congruence decompositions.

Weights are tuples of ``fractions.Fraction`` (plain ints are accepted anywhere
and mean the same thing; floats, strings and bools are domain errors).  All
operations are pure; no floating point is used anywhere because the downstream
criteria are exact equalities.
"""

import re
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, _DigitLimit, as_tuple, is_int

Weight = tuple[Fraction, ...]

_ENTRY = r"\s*-?\d+(?:/[1-9]\d*)?\s*"
_ENTRY_RE = re.compile(_ENTRY)
_WEIGHT_RE = re.compile(rf"{_ENTRY}(?:,{_ENTRY})*")


def _entry(text: str) -> Fraction:
    # text matches _ENTRY; int() ignores the surrounding whitespace
    if "/" not in text:
        return Fraction(int(text))
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den))


def parse_rational(text: str) -> Fraction:
    """Parse one entry: ``a``, ``-a`` or ``a/b`` with b > 0.  No decimals."""
    if not isinstance(text, str):
        raise DomainError(f"a rational literal must be text, got {text!r}")
    if not _ENTRY_RE.fullmatch(text):
        raise DomainError(f"not a rational literal: {text.strip()!r}")
    try:
        return _entry(text)
    except ValueError:
        raise _DigitLimit() from None


def parse_weight(text: str) -> Weight:
    """Parse a comma-separated weight, e.g. ``-5,-6,-4,1/2``."""
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


def format_weight(weight) -> str:
    return ",".join(str(v) for v in weight)


_SEQUENCE_RULE = "a weight must be a sequence of entries"


def double(weight, side: str = "back") -> tuple:
    """The doubling maps: back gives (x_1,...,x_n,-x_n,...,-x_1), front the reverse half first."""
    w = as_tuple(weight, _SEQUENCE_RULE)
    if side == "back":
        return w + tuple([-v for v in reversed(w)])
    if side == "front":
        return tuple([-v for v in reversed(w)]) + w
    raise DomainError(f"side must be 'back' or 'front', got {side!r}")


def _exact(v):
    """``v`` itself if it is an int (not a bool) or a Fraction; anything else is a domain error."""
    if not (is_int(v) or isinstance(v, Fraction)):
        raise DomainError(f"weight entries must be ints or Fractions, got {v!r}")
    return v


def _as_fraction(v) -> Fraction:
    return v if type(v) is Fraction else Fraction(_exact(v))


def _residue(f: Fraction) -> tuple[int, int]:
    """The fractional part of ``f`` as the integer pair (numerator mod d, d)."""
    d = f.denominator
    return f.numerator % d, d


def integer_entries(weight) -> tuple[list[int], list[int]]:
    """The numerators and the denominators of a weight's entries, each checked to be an
    int (not a bool) or a Fraction: the one weight reader the other modules use."""
    w = as_tuple(weight, _SEQUENCE_RULE)
    ints = True
    for v in w:
        if type(v) is not int:
            ints = False
            if type(v) is not Fraction:  # the common types skip the call
                _exact(v)
    if ints:  # an int is its own numerator over 1
        return list(w), [1] * len(w)
    return [v.numerator for v in w], [v.denominator for v in w]


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


class CongruenceClass(NamedTuple):
    """A maximal congruent subsequence of a weight, with 1-based positions."""

    positions: tuple[int, ...]
    values: Weight


class CongruenceSplit(NamedTuple):
    grouping: str
    integral: CongruenceClass | None
    half_integral: CongruenceClass | None
    others: tuple[CongruenceClass, ...]

    def classes(self) -> tuple[CongruenceClass, ...]:
        """Every class, ordered by first position."""
        out = [c for c in (self.integral, self.half_integral) if c is not None]
        out.extend(self.others)
        out.sort(key=lambda c: c.positions[0])
        return tuple(out)


def congruence_decompose(weight, grouping: str) -> CongruenceSplit:
    """Split a weight into maximal congruent subsequences.

    ``grouping="typeA"`` merges entries whose difference is an integer;
    ``grouping="bcd"`` merges entries whose difference or sum is an integer.
    Classes keep the original entry order; ``others`` is sorted by the first
    position of each class.
    """
    if grouping not in ("typeA", "bcd"):
        raise DomainError(f"grouping must be 'typeA' or 'bcd', got {grouping!r}")
    w = tuple(map(_as_fraction, as_tuple(weight, _SEQUENCE_RULE)))
    buckets = class_buckets(*integer_entries(w), grouping == "bcd")
    classes = {
        key: CongruenceClass(
            positions=tuple(i + 1 for i in idxs),
            values=tuple(w[i] for i in idxs),
        )
        for key, idxs in buckets.items()
    }
    if grouping == "typeA":
        return CongruenceSplit(grouping, None, None, tuple(classes.values()))
    integral = classes.pop((0, 1), None)
    half = classes.pop((1, 2), None)
    return CongruenceSplit(grouping, integral, half, tuple(classes.values()))


def _tilde(vals, residue) -> tuple:
    lead = residue(vals[0])
    return tuple([v for v in vals if residue(v) == lead] + [-v for v in reversed(vals) if residue(v) != lead])


def tilde(values) -> tuple:
    """Rewrite one non-integral difference-or-sum class as an integral-difference sequence.

    The entries congruent to the first one (by integral difference) stay put;
    the remaining entries are negated and appended in reversed order.
    """
    vals = tuple(map(_as_fraction, as_tuple(values, _SEQUENCE_RULE)))
    return _tilde(vals, _residue) if vals else ()


def tilde_numerators(nums, d: int) -> tuple[int, ...]:
    """:func:`tilde` on the numerators of a class whose entries share the denominator ``d``."""
    return _tilde(nums, lambda x: x % d)


def is_integral(weight) -> bool:
    dens = integer_entries(weight)[1]
    return dens.count(1) == len(dens)
