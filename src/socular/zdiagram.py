"""Z-diagrams: domino-built Young diagrams attached to parabolic types.

A Z-diagram of type (a0; b_1,...,b_{k-1}) stacks, for each b_i, a two-column
block of b_i horizontal dominoes, plus one column of a0 vertical dominoes;
the columns are then sorted by height.  Only the column-height multiset
matters, so the b_i may be given in any order.
"""

from typing import NamedTuple

from .errors import DomainError, as_tuple, is_int
from .partitions import Partition, _transpose


class ZDiagram(NamedTuple):
    a0: int
    bs: tuple[int, ...]
    column_heights: tuple[int, ...]
    shape: Partition


def _check_type(a0, bs) -> tuple[int, tuple[int, ...]]:
    if not is_int(a0) or a0 < 0:
        raise DomainError(f"a0 must be a non-negative integer, got {a0!r}")
    bs = as_tuple(bs, "the b_i must be a sequence of positive integers")
    for b in bs:
        if not is_int(b) or b < 1:
            raise DomainError(f"every b_i must be a positive integer, got {b!r}")
    if a0 == 0 and not bs:
        raise DomainError("empty Z-diagram type (0; )")
    return a0, bs


def z_diagram(a0: int, bs) -> ZDiagram:
    """Build the Z-diagram of type (a0; b_1,...,b_{k-1})."""
    a0, bs = _check_type(a0, bs)
    heights = []
    if a0 > 0:
        heights.append(2 * a0)
    for b in bs:
        heights.extend((b, b))
    heights.sort(reverse=True)
    return ZDiagram(a0=a0, bs=bs, column_heights=tuple(heights), shape=_transpose(tuple(heights)))


def z_closed_forms(a0: int, bs) -> tuple[int, int]:
    """Closed forms for (F_b, F_d) of the Z-diagram shape.

    F_b = a0^2 + sum b_i(b_i-1)/2 and F_d = F_b - a0.
    """
    a0, bs = _check_type(a0, bs)
    pairs = sum(b * (b - 1) // 2 for b in bs)
    return (a0 * a0 + pairs, a0 * a0 - a0 + pairs)
