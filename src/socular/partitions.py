"""Integer partitions, dominance order, and the B/C/D orbit-partition calculus.

A partition is a tuple of weakly decreasing positive integers; trailing zeros
are never stored.  Partitions double as Young-diagram shapes and as labels of
nilpotent orbits in the classical Lie algebras.

The public functions validate their input once and then run an unchecked
kernel (``_transpose``, ``_dominates``, ``_is_orbit``, ``_is_special``).  The
kernels take canonical tuples only, such as those from :func:`partitions_of`.
"""

from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import accumulate
from operator import ge

from .errors import DomainError

ORBIT_FAMILIES = ("B", "C", "D")

Partition = tuple[int, ...]


def as_partition(parts: Iterable[int]) -> Partition:
    """Validate an iterable of parts and return it as a canonical tuple."""
    p = tuple(parts)
    for v in p:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise DomainError(f"partition parts must be positive integers, got {v!r}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise DomainError(f"partition parts must be weakly decreasing: {p}")
    return p


def parse_partition(text: str) -> Partition:
    """Parse the text format: comma-separated positive integers, e.g. ``7,5,5,3,3``."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = [int(tok.strip()) for tok in text.split(",")]
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


def is_special(p: Iterable[int], family: str) -> bool:
    """Specialness test: the transpose must itself be an orbit partition.

    For B the transpose must be of type B; for C and D it must be of type C.
    """
    p = as_partition(p)
    _check_orbit_family(family)
    if not _is_orbit(p, family):
        raise DomainError(f"{p} is not an orbit partition of type {family}")
    return _is_special(p, family)


def _collapse_target(parts: list[int], family: str) -> int | None:
    """Largest part of the wrong parity occurring with odd multiplicity, if any."""
    bad_parity = 1 if family == "C" else 0
    counts = Counter(parts)
    bad = [v for v, c in counts.items() if v % 2 == bad_parity and c % 2 == 1]
    return max(bad) if bad else None


def collapse(p: Iterable[int], family: str) -> Partition:
    """Largest type-``family`` partition dominated by ``p`` (the X-collapse).

    Repeatedly: take the largest wrong-parity part q with odd multiplicity,
    turn its last occurrence into q-1, and bump the first later part that is
    strictly below q-1 (an absent part counts as 0, so a new part 1 may
    appear).
    """
    p = as_partition(p)
    _check_orbit_family(family)
    want = 1 if family == "B" else 0
    if sum(p) % 2 != want:
        raise DomainError(
            f"type {family} needs total parity {want}, got total {sum(p)}"
        )
    parts = list(p)
    while True:
        q = _collapse_target(parts, family)
        if q is None:
            return tuple(parts)
        i = max(j for j, v in enumerate(parts) if v == q)
        parts[i] = q - 1
        for j in range(i + 1, len(parts)):
            if parts[j] < q - 1:
                parts[j] += 1
                break
        else:
            parts.append(1)


def expand(p: Iterable[int], family: str) -> Partition:
    """Smallest special type-``family`` partition dominating ``p``.

    The dual of the collapse (Collingwood-McGovern, *Nilpotent Orbits in
    Semisimple Lie Algebras*, 6.3): transpose, collapse in the dual family (B
    for B, C for C and D), transpose back.
    """
    p = as_partition(p)
    _check_orbit_family(family)
    if not _is_orbit(p, family):
        raise DomainError(f"{p} is not an orbit partition of type {family}")
    q, dual = _transpose(p), _dual_family(family)
    if _is_orbit(q, dual):
        return p  # special: its own expansion
    return _transpose(collapse(q, dual))


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of ``n`` with parts at most ``max_part``, in descending lexicographic order."""
    if n < 0:
        raise DomainError("cannot partition a negative integer")
    if max_part is None or max_part > n:
        max_part = n
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
