"""Even/odd box statistics of Young diagrams and the F_a, F_b, F_d invariants.

The box in row k, column l (both 1-based) is even when k+l is even and odd
when k+l is odd.  A hollow shape keeps only the cells of one parity; it is
fixed by its per-row counts (p^ev or p^odd), which is how the library compares
hollow shapes.  Only :func:`_cells` builds the cells, for :func:`hollow` and
the CLI's certificate.  Every count comes from one kernel, :func:`_row_counts`:
a plain loop, as most shapes have a few rows, too few to pay for building an
iterator chain.  One more loop over those counts, :func:`_last_columns`, gives
each row's last box of the parity, which the cells and the H-algorithm read.
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


def _last_columns(counts: tuple[int, ...], parity: str) -> list[int]:
    """Each row's last column holding a box of ``parity``, 0 for a row with none,
    from the row's :func:`_row_counts` entry: a row that starts with a box of
    ``parity`` holds them in columns 1, 3, ..., 2c - 1, any other in 2, 4, ..., 2c."""
    lead = parity == "even"  # whether the row at hand starts with a box of ``parity``
    last = []
    for c in counts:
        last.append(2 * c - lead)
        lead = not lead
    return last


def _cells(counts, parity: str) -> HollowShape:
    """The hollow shape of ``parity`` with the given per-row counts: row k's
    c cells end in its :func:`_last_columns` entry, 2 columns apart."""
    return frozenset(
        (k, l)
        for k, (c, end) in enumerate(zip(counts, _last_columns(counts, parity)), 1)
        for l in range(end - 2 * c + 2, end + 1, 2)
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

    F_a = sum over columns of c(c-1)/2, computed as its row form, sum over rows of (i-1) * p_i;
    F_b = sum over rows of (i-1) * p_i^odd;
    F_d = sum over rows of (i-1) * p_i^ev.
    """
    if kind not in ("a", "b", "d"):
        raise DomainError(f"kind must be 'a', 'b' or 'd', got {kind!r}")
    return _f_stat(as_partition(shape), kind)


def _f_stat(sh: Partition, kind: str) -> int:
    """:func:`f_stat` of a canonical partition and a valid kind, unchecked.  Every kind is
    a row form, sum (i-1) * r_i; F_a reads r_i = p_i, not its column form sum c(c-1)/2."""
    total = i = 0
    for c in sh if kind == "a" else _row_counts(sh, "odd" if kind == "b" else "even"):
        total += i * c
        i += 1
    return total


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
