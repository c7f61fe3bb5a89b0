"""Even/odd box statistics of Young diagrams and the F_a, F_b, F_d invariants.

The box in row k, column l (both 1-based) is even when k+l is even and odd
when k+l is odd.  A hollow shape keeps only the cells of one parity; the main
socularity criteria compare hollow shapes as plain sets of cells.
"""

from functools import lru_cache

from .errors import DomainError
from .partitions import Partition, _transpose, as_partition
from .tableaux import CACHE_SIZE, rs_shape

PARITIES = ("odd", "even")

HollowShape = frozenset[tuple[int, int]]


def _check_parity(parity: str) -> None:
    if parity not in PARITIES:
        raise DomainError(f"parity must be 'odd' or 'even', got {parity!r}")


def _row_count(length: int, row: int, parity: str) -> int:
    # closed form: row 1 starts with an even box, row 2 with an odd box, ...
    if (parity == "even") == (row % 2 == 1):
        return (length + 1) // 2
    return length // 2


def row_parity_counts(p, parity: str) -> tuple[int, ...]:
    """Per-row counts of boxes of the given parity (p^ev / p^odd)."""
    p = as_partition(p)
    _check_parity(parity)
    return tuple(_row_count(length, i, parity) for i, length in enumerate(p, 1))


def parity_profile(p) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Return (p^ev, p^odd, q^ev, q^odd): row-wise and column-wise parity counts.

    Transposing the diagram preserves box parity, so the column counts are the
    row counts of the transpose.
    """
    p = as_partition(p)
    q = _transpose(p)
    return (
        row_parity_counts(p, "even"),
        row_parity_counts(p, "odd"),
        row_parity_counts(q, "even"),
        row_parity_counts(q, "odd"),
    )


def hollow(p, parity: str) -> HollowShape:
    """The set of cells of the requested parity inside the diagram of ``p``."""
    _check_parity(parity)
    return _hollow(as_partition(p), parity)


@lru_cache(maxsize=CACHE_SIZE)
def _hollow(p: Partition, parity: str) -> HollowShape:
    bit = 1 if parity == "odd" else 0
    return frozenset(
        (k, l)
        for k, length in enumerate(p, 1)
        for l in range(1, length + 1)
        if (k + l) % 2 == bit
    )


def f_stat(shape, kind: str) -> int:
    """The invariants F_a, F_b, F_d of a shape (a partition), as selected by ``kind``.

    F_a = sum over columns of c(c-1)/2;
    F_b = sum over rows of (i-1) * p_i^odd;
    F_d = sum over rows of (i-1) * p_i^ev.
    """
    if kind not in ("a", "b", "d"):
        raise DomainError(f"kind must be 'a', 'b' or 'd', got {kind!r}")
    return _f_stat(as_partition(shape), kind)


def _f_stat(sh: Partition, kind: str) -> int:
    """:func:`f_stat` of a canonical partition and a valid kind, unchecked."""
    if kind == "a":
        return sum(c * (c - 1) // 2 for c in _transpose(sh))
    parity = "odd" if kind == "b" else "even"
    return sum((i - 1) * _row_count(length, i, parity) for i, length in enumerate(sh, 1))


def f_stat_sequence(seq, kind: str) -> int:
    """:func:`f_stat` of the Robinson-Schensted shape of a sequence of entries."""
    return f_stat(rs_shape(tuple(seq)), kind)


def f_stat_column_form(p, kind: str) -> int:
    """The dual expressions for F_b / F_d in terms of column parity counts.

    Used as a consistency cross-check against :func:`f_stat`.
    """
    q = _transpose(as_partition(p))
    if kind == "b":
        counts = row_parity_counts(q, "odd")
        return sum(c * c if i % 2 == 1 else c * (c - 1) for i, c in enumerate(counts, 1))
    if kind == "d":
        counts = row_parity_counts(q, "even")
        return sum(c * (c - 1) if i % 2 == 1 else c * c for i, c in enumerate(counts, 1))
    raise DomainError(f"column form exists for kinds 'b' and 'd' only, got {kind!r}")


def render_diagram(p) -> str:
    """Grid of E/O characters for the full diagram of ``p``."""
    p = as_partition(p)
    return "\n".join(
        "".join("E" if (k + l) % 2 == 0 else "O" for l in range(1, length + 1))
        for k, length in enumerate(p, 1)
    )


def render_hollow(p, parity: str) -> str:
    """Like :func:`render_diagram` but with the suppressed parity drawn as dots."""
    grid = render_diagram(p)
    _check_parity(parity)
    return grid.replace("E" if parity == "odd" else "O", ".")
