"""Integer partitions, dominance order, and the B/C/D orbit-partition calculus.

A partition is a tuple of weakly decreasing positive integers; trailing zeros
are never stored.  Partitions double as Young-diagram shapes and as labels of
nilpotent orbits in the classical Lie algebras.

The public functions validate their input once and then run an unchecked
kernel (``_transpose``, ``_dominates``, ``_is_orbit``, ``_is_special``,
``_collapse``).  The kernels take canonical tuples only, such as those from
:func:`partitions_of`.
"""

from collections.abc import Iterable, Iterator
from itertools import accumulate
from operator import ge

from .errors import DomainError, _DigitLimit, as_tuple, is_int, read_int

ORBIT_FAMILIES = ("B", "C", "D")

Partition = tuple[int, ...]


def as_partition(parts: Iterable[int]) -> Partition:
    """Validate an iterable of parts and return it as a canonical tuple of plain ints."""
    p = as_tuple(parts, "a partition must be a sequence of parts")
    # one pass checks every part and notes a rise, which is reported only once all parts are checked
    cast = rising = False
    last = p[0] if p else 0
    for v in p:
        if type(v) is not int or v < 1:
            if not is_int(v) or v < 1:
                raise DomainError(f"partition parts must be positive integers, got {v!r}")
            cast = True  # an int subclass, such as an IntEnum member
        if v > last:
            rising = True
        last = v
    if cast:
        p = tuple(map(int, p))
    if rising:
        raise DomainError(f"partition parts must be weakly decreasing: {p}")
    return p


def parse_partition(text: str) -> Partition:
    """Parse the text format: comma-separated positive integers, e.g. ``7,5,5,3,3``."""
    if not isinstance(text, str):
        raise DomainError(f"a partition must be text, got {text!r}")
    text = text.strip()
    if not text:
        return ()
    try:
        parts = list(map(read_int, text.split(",")))
    except _DigitLimit:
        raise
    except ValueError:
        raise DomainError(f"cannot parse partition from {text!r}") from None
    return as_partition(parts)


def format_partition(p: Iterable[int]) -> str:
    return ",".join(str(v) for v in p)


def _transpose(p: Partition) -> Partition:
    if not p:
        return ()
    out = []
    rows = len(p)
    for i in range(1, p[0] + 1):
        while p[rows - 1] < i:
            rows -= 1
        out.append(rows)
    return tuple(out)


def transpose(p: Iterable[int]) -> Partition:
    """Conjugate partition: entry i is the length of the i-th column of the diagram."""
    return _transpose(as_partition(p))


def _dominates(d: Partition, f: Partition) -> bool:
    # with equal totals, the prefix sums past the shorter partition cannot fail
    return all(map(ge, accumulate(d), accumulate(f)))


def dominates(d: Iterable[int], f: Iterable[int]) -> bool:
    """Whether every prefix sum of ``d`` weakly exceeds the one of ``f``.

    Both partitions must have the same total; comparing different totals is a
    domain error because the order is only defined within one size.
    """
    d, f = as_partition(d), as_partition(f)
    if sum(d) != sum(f):
        raise DomainError(f"dominance needs equal totals: {sum(d)} != {sum(f)}")
    return _dominates(d, f)


def _check_orbit_family(family: str) -> None:
    if family not in ORBIT_FAMILIES:
        raise DomainError(f"orbit family must be one of {ORBIT_FAMILIES}, got {family!r}")


def _is_orbit(p: Partition, family: str) -> bool:
    if sum(p) % 2 != (family == "B"):
        return False
    # the constrained parts, in decreasing order, pair up iff each has even multiplicity
    odd = family == "C"
    c = [v for v in p if v % 2 == odd]
    return c[0::2] == c[1::2]


def is_orbit_partition(p: Iterable[int], family: str) -> bool:
    """Membership in the orbit-partition set of so(2n+1) / sp(n) / so(2n).

    B: odd total, even parts with even multiplicity.
    C: even total, odd parts with even multiplicity.
    D: even total, even parts with even multiplicity.
    """
    p = as_partition(p)
    _check_orbit_family(family)
    return _is_orbit(p, family)


def _dual_family(family: str) -> str:
    return "B" if family == "B" else "C"


def _is_special(p: Partition, family: str) -> bool:
    return _is_orbit(_transpose(p), _dual_family(family))


def _orbit_input(p: Iterable[int], family: str) -> Partition:
    """Validate an orbit partition of an orbit family."""
    p = as_partition(p)
    _check_orbit_family(family)
    if not _is_orbit(p, family):
        raise DomainError(f"{p} is not an orbit partition of type {family}")
    return p


def is_special(p: Iterable[int], family: str) -> bool:
    """Specialness test: the transpose must itself be an orbit partition.

    For B the transpose must be of type B; for C and D it must be of type C.
    """
    return _is_special(_orbit_input(p, family), family)


def _collapse_input(p: Iterable[int], family: str) -> Partition:
    """Validate the input of a collapse: a partition, an orbit family and the family's total parity."""
    p = as_partition(p)
    _check_orbit_family(family)
    want = 1 if family == "B" else 0
    if sum(p) % 2 != want:
        raise DomainError(f"type {family} needs total parity {want}, got total {sum(p)}")
    return p


def _collapse(parts: list[int], family: str) -> Partition:
    """:func:`collapse` of a checked partition, as a list it rewrites: one walk over the blocks
    of equal parts.  A step on a bad block of q's raises only a later part, to at most q-1,
    so every bad block left lies to the right and the walk takes the rule's steps in order."""
    odd = family == "C"  # the parity of the parts that must pair up
    k = 0
    while k < len(parts):
        q, end = parts[k], k + 1
        while end < len(parts) and parts[end] == q:
            end += 1
        if q % 2 != odd or (end - k) % 2 == 0:
            k = end
            continue
        parts[end - 1] = q - 1
        # the next part strictly below q-1, or a new part 1 past the end
        k = end
        while k < len(parts) and parts[k] == q - 1:
            k += 1
        if k < len(parts):
            parts[k] += 1
        else:
            parts.append(1)
    return tuple(parts)


def collapse(p: Iterable[int], family: str) -> Partition:
    """Largest type-``family`` partition dominated by ``p`` (the X-collapse).

    Repeatedly: take the largest wrong-parity part q with odd multiplicity,
    turn its last occurrence into q-1, and bump the first later part that is
    strictly below q-1 (an absent part counts as 0, so a new part 1 may
    appear).
    """
    return _collapse(list(_collapse_input(p, family)), family)


def expand(p: Iterable[int], family: str) -> Partition:
    """Smallest special type-``family`` partition dominating ``p``.

    The dual of the collapse (Collingwood-McGovern, *Nilpotent Orbits in
    Semisimple Lie Algebras*, 6.3): transpose, collapse in the dual family (B
    for B, C for C and D), transpose back.
    """
    p = _orbit_input(p, family)
    q, dual = _transpose(p), _dual_family(family)
    if _is_orbit(q, dual):
        return p  # special: its own expansion
    return _transpose(_collapse(list(q), dual))


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of ``n`` with parts at most ``max_part``, in descending lexicographic order.

    The arguments are checked at the call, before the first partition is asked
    for; the parts are plain ints even where an argument is an int subclass.
    """
    if not is_int(n) or not (max_part is None or is_int(max_part)):
        raise DomainError(f"partitions_of takes integers, got n={n!r}, max_part={max_part!r}")
    if n < 0:
        raise DomainError("cannot partition a negative integer")
    top = n if max_part is None or max_part > n else max_part
    return _partitions_of(n if type(n) is int else int(n), top if type(top) is int else int(top))


def _partitions_of(n: int, max_part: int) -> Iterator[Partition]:
    """:func:`partitions_of` of a checked ``n >= 0`` and ``max_part <= n``."""
    if n == 0:
        yield ()
        return
    if max_part < 1:
        return
    q, r = divmod(n, max_part)
    parts = [max_part] * q + ([r] if r else [])
    while True:
        yield tuple(parts)
        # the successor lowers the last part above 1 by one and refills the
        # freed boxes greedily with parts no larger than the lowered one
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        top = parts.pop() - 1
        q, r = divmod(ones + 1, top)
        parts += [top] * (q + 1)
        if r:
            parts.append(r)
