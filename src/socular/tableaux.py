"""Robinson-Schensted insertion for sequences over any totally ordered entries.

Tableaux are tuples of tuples (rows, top first).  Rows are weakly increasing,
columns strictly increasing; an inserted value replaces the leftmost entry of
the first row that is strictly bigger, so equal entries append.

Column-inserting w_N...w_1 gives the tableau of row-inserting w_1...w_N
(Knuth 1970; Fulton, *Young Tableaux*, A.2), walking columns instead of rows.
"""

from bisect import bisect_left, bisect_right
from functools import lru_cache

from .errors import DomainError, as_tuple, is_int
from .partitions import Partition, _transpose

Tableau = tuple[tuple, ...]

# bound on the rs_shape cache, in entries.  One pass of each benchmark workload
# over seeds 1-40 makes at most 581 distinct keys (socular-query; gk-unique 251,
# oracle-sweep 242), so no pass evicts.  An entry of a rank-256 B weight holds
# about 15 KB (tracemalloc), so a full cache of such keys retains about 16 MB.
CACHE_SIZE = 1 << 10


# up to this many lines an insertion never gives up: small shapes cost little
# either way
_MIN_LINES = 8


def _insert_all(lines: list[list], seq, search=bisect_right, ratio: int = 0) -> list[list] | None:
    """Insert ``seq`` into ``lines`` in place: rows by ``bisect_right``, strictly
    increasing columns by ``bisect_left``.  With a ``ratio``, returns None,
    unfinished, once the lines outnumber both ``_MIN_LINES`` and ``ratio`` times
    the first line's length."""
    for v in seq:
        for line in lines:
            i = search(line, v)
            if i < len(line):
                line[i], v = v, line[i]
                continue
            line.append(v)
            break
        else:
            lines.append([v])
            if ratio and len(lines) > _MIN_LINES and len(lines) > ratio * len(lines[0]):
                return None
    return lines


def _rows(tableau: Tableau) -> list[list]:
    """The rows of a tableau as lists; a tableau or a row that is not a sequence is a :class:`DomainError`."""
    rows = as_tuple(tableau, "a tableau must be a sequence of rows")
    return [list(as_tuple(row, "a tableau row must be a sequence of entries")) for row in rows]


def rs_insert(tableau: Tableau, value) -> Tableau:
    """Insert one value by row bumping and return the new tableau."""
    rows = _insert_all(_rows(tableau), (value,))
    return tuple(tuple(r) for r in rows)


def rs_tableau(seq) -> Tableau:
    """Left-to-right insertion of a whole sequence, starting from the empty tableau."""
    return tuple(tuple(r) for r in _insert_all([], as_tuple(seq, "a word must be a sequence of entries")))


def shape(tableau: Tableau) -> Partition:
    """Row lengths of a tableau, as a partition."""
    sh = tuple(map(len, _rows(tableau)))
    if any(sh[i] < sh[i + 1] for i in range(len(sh) - 1)):
        raise DomainError(f"rows do not form a partition shape: {sh}")
    return sh


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def rs_shape(seq: tuple, den: int = 1) -> Partition:
    """Shape of the insertion tableau of the values ``seq[i] / den``; cached, so ``seq`` must be a tuple.

    The shape depends only on the relative order of the entries, which one
    positive ``den`` keeps, so ``den`` only keys the cache: numerators over
    d > 1 pass d, and keys are equal exactly when the value sequences are.
    The entries are inserted as they are given, whatever their type.  A
    ``seq`` that is not a tuple is a :class:`DomainError`, except that an
    unhashable one, such as a list, raises ``TypeError`` from the cache before
    the body runs.
    A word whose rows come to outnumber twice its columns (p-dominant weights
    double to a few falling runs) is column-inserted in reverse instead, and
    row-inserted to the end if its columns then come to outnumber its rows.
    """
    if not isinstance(seq, tuple):
        raise DomainError(f"a word must be a tuple of entries, got {seq!r}")
    if not is_int(den) or den < 1:
        raise DomainError(f"den must be a positive int, got {den!r}")
    rows = _insert_all([], seq, bisect_right, 2)
    if rows is not None:
        return tuple(map(len, rows))
    cols = _insert_all([], reversed(seq), bisect_left, 1)
    if cols is not None:
        return _transpose(tuple(map(len, cols)))
    return tuple(map(len, _insert_all([], seq)))


def render_tableau(tableau: Tableau) -> str:
    """One row per line, entries space-separated, top row first."""
    return "\n".join(" ".join(str(v) for v in row) for row in tableau)
