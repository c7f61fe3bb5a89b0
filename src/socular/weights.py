"""Exact-rational weight sequences, doubling maps, and congruence decompositions.

Weights are tuples of ``fractions.Fraction`` (plain ints are accepted anywhere
and mean the same thing; floats, strings and bools are domain errors).  All
operations are pure; no floating point is used anywhere because the downstream
criteria are exact equalities.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

Weight = tuple[Fraction, ...]

_ENTRY_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse one entry: ``a``, ``-a`` or ``a/b`` with b > 0.  No decimals."""
    text = text.strip()
    if not _ENTRY_RE.match(text):
        raise DomainError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def parse_weight(text: str) -> Weight:
    """Parse a comma-separated weight, e.g. ``-5,-6,-4,1/2``."""
    toks = text.split(",")
    if not toks or not text.strip():
        raise DomainError("empty weight")
    return tuple(parse_rational(tok) for tok in toks)


def format_weight(weight) -> str:
    return ",".join(str(v) for v in weight)


def double(weight, side: str = "back") -> tuple:
    """The doubling maps: back gives (x_1,...,x_n,-x_n,...,-x_1), front the reverse half first."""
    w = tuple(weight)
    if side == "back":
        return w + tuple(-v for v in reversed(w))
    if side == "front":
        return tuple(-v for v in reversed(w)) + w
    raise DomainError(f"side must be 'back' or 'front', got {side!r}")


def _exact(v):
    """``v`` itself if it is an int (not a bool) or a Fraction; anything else is a domain error."""
    if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        raise DomainError(f"weight entries must be ints or Fractions, got {v!r}")
    return v


def exact_entries(weight) -> tuple:
    """``weight`` as a tuple, after checking that every entry is an int (not a bool) or a Fraction."""
    w = tuple(weight)
    for v in w:
        if type(v) is not int and type(v) is not Fraction:  # the common types skip the call
            _exact(v)
    return w


def _as_fraction(v) -> Fraction:
    return v if type(v) is Fraction else Fraction(_exact(v))


def _residue(f: Fraction) -> tuple[int, int]:
    """The fractional part of ``f`` as the integer pair (numerator mod d, d)."""
    d = f.denominator
    return f.numerator % d, d


@dataclass(frozen=True)
class CongruenceClass:
    """A maximal congruent subsequence of a weight, with 1-based positions."""

    positions: tuple[int, ...]
    values: Weight


@dataclass(frozen=True)
class CongruenceSplit:
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
    w = tuple(map(_as_fraction, weight))
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, v in enumerate(w):
        r, d = _residue(v)
        if grouping == "bcd":
            # difference-or-sum congruence: fractional parts r/d and (d-r)/d merge
            r = min(r, d - r)
        buckets.setdefault((r, d), []).append(i)
    classes = {
        key: CongruenceClass(
            positions=tuple(i + 1 for i in idxs),
            values=tuple(w[i] for i in idxs),
        )
        for key, idxs in buckets.items()
    }
    if grouping == "typeA":
        others = tuple(sorted(classes.values(), key=lambda c: c.positions[0]))
        return CongruenceSplit(grouping, None, None, others)
    integral = classes.pop((0, 1), None)
    half = classes.pop((1, 2), None)
    others = tuple(sorted(classes.values(), key=lambda c: c.positions[0]))
    return CongruenceSplit(grouping, integral, half, others)


def tilde(values) -> tuple:
    """Rewrite one non-integral difference-or-sum class as an integral-difference sequence.

    The entries congruent to the first one (by integral difference) stay put;
    the remaining entries are negated and appended in reversed order.
    """
    vals = tuple(map(_as_fraction, values))
    if not vals:
        return ()
    lead = _residue(vals[0])
    y, z = [], []
    for v in vals:
        (y if _residue(v) == lead else z).append(v)
    return tuple(y) + tuple(-v for v in reversed(z))


def is_integral(weight) -> bool:
    return all(_exact(v).denominator == 1 for v in weight)
