"""Domino-type detection and the H-algorithms of types B, C and D.

Both read the rows from the hollow kernel's per-row parity counts
(:func:`socular.hollow._row_counts`); the parity rule for a box is written
only in :mod:`socular.hollow`.  A diagram is of domino type when half of its
boxes are even: each domino covers one box of each parity, and the 2-core is
a staircase (k, ..., 1), whose two parities differ unless k = 0.  As the two
parities add up to |p|, the H-algorithm reads one count, of its family's
parity, for its domino test, its rows and its final hollow self-check.

The H-algorithm turns a domino-type partition of 2n into a special partition
(of 2n+1 for B, of 2n for C and D) with exactly the same odd boxes (B, C) or
even boxes (D).  It works on the hollow diagram of the retained parity, whose
counts give each row's last retained column:

1. scan rows top to bottom, greedily pairing off consecutive rows whose last
   retained boxes form the one-step staircase (such a pair is left unlabeled
   and keeps its original row lengths); every other row gets the next label;
2. labeled rows end at their last retained box, one box later for labels of
   the extending parity (odd labels for B, even labels for C and D);
3. B and D add a final 1-row when the rows fall one box short of the target.
"""

from .errors import DomainError, IntegrityError
from .hollow import FAMILY_PARITY, _first_column, _hollow_key, _key_of, _row_counts
from .partitions import Partition, _check_orbit_family, as_partition


def is_domino_type(p) -> bool:
    """Whether the diagram of ``p`` is tileable by dominoes: as many even boxes as odd."""
    return _is_domino_type(as_partition(p))


def _is_domino_type(p: Partition) -> bool:
    """:func:`is_domino_type` of a canonical partition, unchecked."""
    return 2 * sum(_row_counts(p, "even")) == sum(p)


def _pair_blocked(p: Partition, last: list[int], i: int, family: str) -> bool:
    if last[i] >= 1 and last[i + 1] == last[i] + 1:
        return True
    if family == "C":
        # equal rows ending with an even box sitting on an odd box in p itself;
        # beyond the staircase this only adds pairs of 1-rows led by an even box
        return p[i] == p[i + 1] and last[i] < p[i]
    return False


def h_algorithm(p, family: str) -> Partition:
    """Special partition with the same odd (B, C) or even (D) boxes as ``p``."""
    p = as_partition(p)
    _check_orbit_family(family)
    parity = FAMILY_PARITY[family]
    counts = _row_counts(p, parity)
    if 2 * sum(counts) != sum(p):
        raise DomainError(f"{p} is not of domino type")
    last = [2 * c - 2 + _first_column(k, parity) for k, c in enumerate(counts, 1)]
    extending = 1 if family == "B" else 0

    lengths: list[int] = []
    i, label = 0, 1
    while i < len(p):
        if i + 1 < len(p) and _pair_blocked(p, last, i, family):
            lengths += p[i : i + 2]
            i += 2
        else:
            lengths.append(last[i] + 1 if label % 2 == extending else last[i])
            label += 1
            i += 1

    if sorted(lengths, reverse=True) != lengths:
        raise IntegrityError(f"H-algorithm rows not weakly decreasing: {lengths}")
    out = [v for v in lengths if v > 0]

    target = sum(p) + 1 if family == "B" else sum(p)
    if family != "C" and sum(out) == target - 1:
        out.append(1)
    if sum(out) != target:
        raise IntegrityError(f"H-algorithm total {sum(out)} != target {target} for {p} in type {family}")
    result = tuple(out)
    if _hollow_key(result, parity) != _key_of(counts):
        raise IntegrityError(f"H-algorithm moved {parity} boxes on {p} in type {family}")
    return result
