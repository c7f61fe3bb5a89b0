"""Robinson-Schensted insertion for sequences over any totally ordered entries.

Tableaux are tuples of tuples (rows, top first).  Rows are weakly increasing,
columns strictly increasing; an inserted value replaces the leftmost entry of
the first row that is strictly bigger, so equal entries append.
"""

from bisect import bisect_right
from functools import lru_cache

from .errors import DomainError
from .partitions import Partition

Tableau = tuple[tuple, ...]

EMPTY: Tableau = ()

# bound on the rs_shape and hollow caches: well above the distinct inputs of a
# batch of queries, small enough that a long-running process stays bounded
CACHE_SIZE = 1 << 14


def _insert_all(rows: list[list], seq) -> list[list]:
    """Row-insert every value of ``seq`` into ``rows`` in place, left to right."""
    for v in seq:
        for row in rows:
            i = bisect_right(row, v)
            if i == len(row):
                row.append(v)
                break
            row[i], v = v, row[i]
        else:
            rows.append([v])
    return rows


def rs_insert(tableau: Tableau, value) -> Tableau:
    """Insert one value by row bumping and return the new tableau."""
    rows = _insert_all([list(r) for r in tableau], (value,))
    return tuple(tuple(r) for r in rows)


def rs_tableau(seq) -> Tableau:
    """Left-to-right insertion of a whole sequence, starting from the empty tableau."""
    return tuple(tuple(r) for r in _insert_all([], seq))


def shape(tableau: Tableau) -> Partition:
    """Row lengths of a tableau, as a partition."""
    sh = tuple(len(row) for row in tableau)
    if any(sh[i] < sh[i + 1] for i in range(len(sh) - 1)):
        raise DomainError(f"rows do not form a partition shape: {sh}")
    return sh


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def rs_shape(seq: tuple, den: int = 1) -> Partition:
    """Shape of the insertion tableau of the values ``seq[i] / den``; cached, so ``seq`` must be a tuple.

    The shape depends only on the relative order of the entries, which one
    positive ``den`` keeps, so ``den`` only keys the cache: numerators over
    d > 1 pass d, and keys are equal exactly when the value sequences are.
    The entries are inserted as they are given, whatever their type.
    """
    if type(den) is not int or den < 1:
        raise DomainError(f"den must be a positive int, got {den!r}")
    return tuple(len(row) for row in _insert_all([], seq))


def render_tableau(tableau: Tableau) -> str:
    """One row per line, entries space-separated, top row first."""
    return "\n".join(" ".join(str(v) for v in row) for row in tableau)
