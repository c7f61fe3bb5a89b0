"""Even/odd box statistics of Young diagrams and the F_a, F_b, F_d invariants.

The box in row k, column l (both 1-based) is even when k+l is even and odd
when k+l is odd.  A hollow shape keeps only the cells of one parity; it is
fixed by its per-row counts (p^ev or p^odd), which is how the library compares
hollow shapes.  Only :func:`hollow` builds the cells.  Every count comes from
one kernel, :func:`_row_counts`: a plain loop, as most shapes have a few rows,
too few to pay for building an iterator chain.
"""

from .errors import DomainError
from .partitions import Partition, _transpose, as_partition

PARITIES = ("odd", "even")

FAMILY_PARITY = {"B": "odd", "C": "odd", "D": "even"}  # the boxes each orbit family reads

HollowShape = frozenset[tuple[int, int]]


def _check_parity(parity: str) -> None:
    if parity not in PARITIES:
        raise DomainError(f"parity must be 'odd' or 'even', got {parity!r}")


def _row_counts(p: Partition, parity: str) -> tuple[int, ...]:
    """Per-row counts of the boxes of ``parity`` in a canonical partition, unchecked.

    Row k starts with an even box when k is odd, so ceil(L/2) of its L boxes
    are even for odd k and floor(L/2) for even k."""
    lead = parity == "even"  # whether the row at hand starts with a box of ``parity``
    counts = []
    for length in p:
        counts.append((length + lead) // 2)
        lead = not lead
    return tuple(counts)


def _hollow_key(p: Partition, parity: str) -> tuple[int, ...]:
    """:func:`_row_counts` without the one trailing zero that 1-rows, alternating
    1 and 0, may leave: partitions of any totals share a hollow shape exactly
    when their keys are equal."""
    return _key_of(_row_counts(p, parity))


def _key_of(counts: tuple[int, ...]) -> tuple[int, ...]:
    """The :func:`_hollow_key` of the partition whose row counts are ``counts``."""
    return counts[:-1] if counts and not counts[-1] else counts


def _first_column(k: int, parity: str) -> int:
    """The column, 1 or 2, of the first box of ``parity`` in row k (1-based):
    row k starts with an even box when k is odd."""
    return 1 if k % 2 == (parity == "even") else 2


def _cells(counts, parity: str) -> HollowShape:
    """The hollow shape of ``parity`` with the given per-row counts: row k's
    cells start in its :func:`_first_column` and step by 2."""
    return frozenset(
        (k, l) for k, c in enumerate(counts, 1) for l in range(_first_column(k, parity), 2 * c + 1, 2)
    )


def parity_profile(p) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Return (p^ev, p^odd, q^ev, q^odd): row-wise and column-wise parity counts.

    Transposing the diagram preserves box parity, so the column counts are the
    row counts of the transpose.
    """
    p = as_partition(p)
    q = _transpose(p)
    return (_row_counts(p, "even"), _row_counts(p, "odd"), _row_counts(q, "even"), _row_counts(q, "odd"))


def hollow(p, parity: str) -> HollowShape:
    """The set of cells of the requested parity inside the diagram of ``p``."""
    _check_parity(parity)
    return _cells(_row_counts(as_partition(p), parity), parity)


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
    total = i = 0
    for c in _row_counts(sh, "odd" if kind == "b" else "even"):
        total += i * c
        i += 1
    return total


def f_stat_column_form(p, kind: str) -> int:
    """The dual expressions for F_b / F_d in terms of column parity counts.

    Used as a consistency cross-check against :func:`f_stat`.  Column i with c
    boxes of the kind's parity adds c^2 when i is odd for F_b or even for F_d,
    and c(c-1) otherwise.
    """
    if kind not in ("b", "d"):
        raise DomainError(f"column form exists for kinds 'b' and 'd' only, got {kind!r}")
    counts = _row_counts(_transpose(as_partition(p)), "odd" if kind == "b" else "even")
    return sum(c * c if i % 2 == (kind == "b") else c * (c - 1) for i, c in enumerate(counts, 1))


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
