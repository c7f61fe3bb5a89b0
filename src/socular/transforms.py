"""Domino-type detection and the H-algorithms of types B, C and D.

The H-algorithm turns a domino-type partition of 2n into a special partition
(of 2n+1 for B, of 2n for C and D) with exactly the same odd boxes (B, C) or
even boxes (D).  It works on the hollow diagram of the retained parity:

1. keep only the retained-parity boxes;
2. scan rows top to bottom, greedily pairing off consecutive rows whose last
   retained boxes form the one-step staircase (such a pair is left unlabeled
   and keeps its original row lengths); every other row gets the next label;
3. rows of the extending label parity (odd labels for B, even labels for C
   and D) get one terminal box appended after their last retained box;
4. each surviving row is rebuilt to its last box, and a final 1-row is added
   when one box is still missing from the target total (B and D only).
"""

from .errors import DomainError, IntegrityError
from .hollow import FAMILY_PARITY, _hollow_key
from .partitions import Partition, _check_orbit_family, as_partition


def two_core(p) -> Partition:
    """The 2-core: what remains after removing all removable dominoes."""
    p = as_partition(p)
    n = len(p)
    beta = [p[i] + (n - 1 - i) for i in range(n)]
    evens = sum(1 for b in beta if b % 2 == 0)
    odds = n - evens
    # slide the beads of each parity down to the lowest free positions
    packed = sorted(
        [2 * i for i in range(evens)] + [2 * i + 1 for i in range(odds)], reverse=True
    )
    core = [packed[i] - (n - 1 - i) for i in range(n)]
    return tuple(c for c in core if c > 0)


def is_domino_type(p) -> bool:
    """Whether the diagram of ``p`` is tileable by dominoes (empty 2-core)."""
    return two_core(p) == ()


def _last_parity_column(row: int, length: int, parity_bit: int) -> int:
    # largest l <= length with (row + l) % 2 == parity_bit; 0 when none exists
    if length == 0:
        return 0
    return length if (row + length) % 2 == parity_bit else length - 1


def _pair_blocked(p: Partition, last: list[int], i: int, family: str) -> bool:
    if last[i] >= 1 and last[i + 1] == last[i] + 1:
        return True
    if family == "C":
        # equal rows ending with an even box sitting on an odd box in p itself;
        # beyond the staircase this only adds pairs of 1-rows led by an even box
        return p[i] == p[i + 1] and (i + 1 + p[i]) % 2 == 0
    return False


def h_algorithm(p, family: str) -> Partition:
    """Special partition with the same odd (B, C) or even (D) boxes as ``p``."""
    p = as_partition(p)
    _check_orbit_family(family)
    if not is_domino_type(p):
        raise DomainError(f"{p} is not of domino type")
    doubled = sum(p)
    parity = FAMILY_PARITY[family]
    bit = 1 if parity == "odd" else 0
    n_rows = len(p)
    last = [_last_parity_column(i + 1, p[i], bit) for i in range(n_rows)]

    blocked = [False] * n_rows
    label: dict[int, int] = {}
    i, counter = 0, 1
    while i < n_rows:
        if i + 1 < n_rows and _pair_blocked(p, last, i, family):
            blocked[i] = blocked[i + 1] = True
            i += 2
        else:
            label[i] = counter
            counter += 1
            i += 1

    lengths = []
    for r in range(n_rows):
        if blocked[r]:
            lengths.append(p[r])
            continue
        extend = label[r] % 2 == (1 if family == "B" else 0)
        lengths.append(last[r] + 1 if extend else last[r])

    if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
        raise IntegrityError(f"H-algorithm rows not weakly decreasing: {lengths}")
    out = [v for v in lengths if v > 0]

    target = doubled + 1 if family == "B" else doubled
    short_by_one = doubled - 1 if family == "D" else doubled
    if family != "C" and sum(out) == short_by_one:
        out.append(1)
    if sum(out) != target:
        raise IntegrityError(
            f"H-algorithm total {sum(out)} != target {target} for {p} in type {family}"
        )
    result = tuple(out)
    if _hollow_key(result, parity) != _hollow_key(p, parity):
        raise IntegrityError(f"H-algorithm moved {parity} boxes on {p} in type {family}")
    return result
