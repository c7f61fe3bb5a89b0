"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately naive and self-contained so that it can serve
as ground truth for the library's fast paths.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations


def all_partitions(max_total):
    """All partitions with total between 0 and max_total, each as a tuple."""
    out = []
    for total in range(max_total + 1):
        out.extend(_partitions(total, total))
    return out


def _partitions(n, max_part):
    if n == 0:
        return [()]
    res = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            res.append((first,) + rest)
    return res


def collapse_by_steps(p, family: str) -> tuple:
    """The X-collapse by its step rule, rescanning every part on each step.

    While some part of the wrong parity (odd for C, even for B and D) has odd
    multiplicity: take the largest such q, lower its last occurrence to q-1
    and raise the first later part strictly below q-1, or add a part 1.
    """
    parts = list(p)
    bad_parity = 1 if family == "C" else 0
    while True:
        counts = Counter(parts)
        bad = [v for v, c in counts.items() if v % 2 == bad_parity and c % 2 == 1]
        if not bad:
            return tuple(parts)
        q = max(bad)
        i = max(j for j, v in enumerate(parts) if v == q)
        parts[i] = q - 1
        for j in range(i + 1, len(parts)):
            if parts[j] < q - 1:
                parts[j] += 1
                break
        else:
            parts.append(1)


@lru_cache(maxsize=None)
def tiling_domino_oracle(p) -> bool:
    """Exhaustive search for a domino tiling of the Young diagram of ``p``."""
    cells = frozenset((r, c) for r, length in enumerate(p, 1) for c in range(1, length + 1))
    return _tile(cells)


@lru_cache(maxsize=None)
def _tile(cells: frozenset) -> bool:
    if not cells:
        return True
    r, c = min(cells)
    right = (r, c + 1)
    down = (r + 1, c)
    if right in cells and _tile(cells - {(r, c), right}):
        return True
    if down in cells and _tile(cells - {(r, c), down}):
        return True
    return False


def longest_weakly_increasing(seq) -> int:
    best = 0
    n = len(seq)
    for size in range(n, 0, -1):
        for idxs in combinations(range(n), size):
            vals = [seq[i] for i in idxs]
            if all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1)):
                return size
    return best


def longest_strictly_decreasing(seq) -> int:
    n = len(seq)
    for size in range(n, 0, -1):
        for idxs in combinations(range(n), size):
            vals = [seq[i] for i in idxs]
            if all(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
                return size
    return 0


def positive_roots(family: str, n: int):
    """The positive roots of the classical families as coordinate vectors."""
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            e = [0] * n
            e[i], e[j] = 1, -1
            roots.append(tuple(e))
            if family != "A":
                e = [0] * n
                e[i], e[j] = 1, 1
                roots.append(tuple(e))
    if family == "B":
        for i in range(n):
            e = [0] * n
            e[i] = 1
            roots.append(tuple(e))
    elif family == "C":
        for i in range(n):
            e = [0] * n
            e[i] = 2
            roots.append(tuple(e))
    return roots


def simple_roots(family: str, n: int):
    simples = []
    for i in range(n - 1):
        e = [0] * n
        e[i], e[i + 1] = 1, -1
        simples.append(tuple(e))
    if family == "B":
        e = [0] * n
        e[n - 1] = 1
        simples.append(tuple(e))
    elif family == "C":
        e = [0] * n
        e[n - 1] = 2
        simples.append(tuple(e))
    elif family == "D":
        e = [0] * n
        e[n - 2], e[n - 1] = 1, 1
        simples.append(tuple(e))
    return simples


def _solve(matrix, rhs):
    """Solve a square exact linear system by Gaussian elimination, or None."""
    n = len(rhs)
    a = [[Fraction(matrix[r][c]) for c in range(n)] + [Fraction(rhs[r])] for r in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def levi_positive_root_count(family: str, n: int, excluded) -> int:
    """|Phi^+_I| computed from scratch: roots supported on the retained simples.

    For A the root e_i - e_j expands over alpha_i..alpha_{j-1}; for B/C/D the
    simple roots form a basis and the expansion is solved exactly.
    """
    excluded = set(excluded)
    if family == "A":
        count = 0
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                if all(t not in excluded for t in range(i, j)):
                    count += 1
        return count
    simples = simple_roots(family, n)
    columns = [[simples[c][r] for c in range(n)] for r in range(n)]
    count = 0
    for beta in positive_roots(family, n):
        coeffs = _solve(columns, beta)
        assert coeffs is not None
        support = {t + 1 for t, c in enumerate(coeffs) if c != 0}
        if support.isdisjoint(excluded):
            count += 1
    return count


def mask_members(table, mask: int) -> list:
    """The partitions of an oracle orbit table whose bits ``mask`` sets, in the table's order."""
    return [q for i, q in enumerate(table.parts) if mask >> i & 1]
