"""Integer partitions, dominance order, and the B/C/D orbit-partition calculus.

A partition is a tuple of weakly decreasing positive integers; trailing zeros
are never stored.  Partitions double as Young-diagram shapes and as labels of
nilpotent orbits in the classical Lie algebras.
"""

from collections import Counter
from collections.abc import Iterable, Iterator

from .errors import DomainError, IntegrityError

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


def transpose(p: Iterable[int]) -> Partition:
    """Conjugate partition: entry i is the length of the i-th column of the diagram."""
    p = as_partition(p)
    if not p:
        return ()
    return tuple(sum(1 for part in p if part >= i) for i in range(1, p[0] + 1))


def dominates(d: Iterable[int], f: Iterable[int]) -> bool:
    """Whether every prefix sum of ``d`` weakly exceeds the one of ``f``.

    Both partitions must have the same total; comparing different totals is a
    domain error because the order is only defined within one size.
    """
    d, f = as_partition(d), as_partition(f)
    if sum(d) != sum(f):
        raise DomainError(f"dominance needs equal totals: {sum(d)} != {sum(f)}")
    ds = df = 0
    for i in range(max(len(d), len(f))):
        ds += d[i] if i < len(d) else 0
        df += f[i] if i < len(f) else 0
        if ds < df:
            return False
    return True


def _check_orbit_family(family: str) -> None:
    if family not in ORBIT_FAMILIES:
        raise DomainError(f"orbit family must be one of {ORBIT_FAMILIES}, got {family!r}")


def is_orbit_partition(p: Iterable[int], family: str) -> bool:
    """Membership in the orbit-partition set of so(2n+1) / sp(n) / so(2n).

    B: odd total, even parts with even multiplicity.
    C: even total, odd parts with even multiplicity.
    D: even total, even parts with even multiplicity.
    """
    p = as_partition(p)
    _check_orbit_family(family)
    counts = Counter(p)
    if family == "C":
        constrained = 1  # odd parts must pair up
    else:
        constrained = 0
    total_parity = 1 if family == "B" else 0
    if sum(p) % 2 != total_parity:
        return False
    return all(c % 2 == 0 for v, c in counts.items() if v % 2 == constrained)


def is_special(p: Iterable[int], family: str) -> bool:
    """Specialness test: the transpose must itself be an orbit partition.

    For B the transpose must be of type B; for C and D it must be of type C.
    """
    p = as_partition(p)
    _check_orbit_family(family)
    if not is_orbit_partition(p, family):
        raise DomainError(f"{p} is not an orbit partition of type {family}")
    dual_family = "B" if family == "B" else "C"
    return is_orbit_partition(transpose(p), dual_family)


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

    Found by direct search over all special partitions of the same total;
    small totals are the intended regime.
    """
    p = as_partition(p)
    _check_orbit_family(family)
    if not is_orbit_partition(p, family):
        raise DomainError(f"{p} is not an orbit partition of type {family}")
    if is_special(p, family):
        return p
    candidates = [
        q
        for q in partitions_of(sum(p))
        if is_orbit_partition(q, family) and is_special(q, family) and dominates(q, p)
    ]
    for q in candidates:
        if all(dominates(other, q) for other in candidates):
            return q
    raise IntegrityError(f"no unique smallest special partition above {p} in type {family}")


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
