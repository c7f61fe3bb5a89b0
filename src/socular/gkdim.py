"""Gelfand-Kirillov dimension of simple highest weight modules L(lambda).

Families: A = sl(n), B = so(2n+1), C = sp(n), D = so(2n), where n is the
number of weight coordinates.  The general (not necessarily integral) formula
splits the weight into congruence classes; for a fully integral weight it
reduces to n^2 - F_b(lambda^-) (B, C) and n^2 - n - F_d(lambda^-) (D).

The computation runs on integers: every class is a sequence of numerators
over one denominator d, and ``rs_shape`` gets d only when d > 1, where it
only keys the cache.
"""

from .errors import FAMILIES, as_tuple, check_family  # FAMILIES: re-exported for importers of this module
from .hollow import _f_stat, f_stat
from .tableaux import rs_shape
from .weights import class_buckets, double, integer_entries, tilde_numerators

# which F statistic the integral and half-integral classes contribute
_CLASS_KINDS = {"B": ("b", "b"), "C": ("b", "d"), "D": ("d", "d")}


def _ambient(family: str, n: int) -> int:
    if family == "A":
        return n * (n - 1) // 2
    return n * n - (n if family == "D" else 0)


def _class_terms(nums: list[int], dens: list[int], family: str):
    """Each congruence class in formula order: its 0-based positions, denominator,
    statistic kind and the numerators of the sequence it inserts.

    An all-integral weight is one class and skips the bucketing.
    """
    n = len(nums)
    if dens.count(1) == n:
        if family == "A":
            yield range(n), 1, "a", tuple(nums)
        else:
            yield range(n), 1, _CLASS_KINDS[family][0], double(nums)
        return
    buckets = class_buckets(nums, dens, family != "A")
    if family != "A":
        kind0, kind_half = _CLASS_KINDS[family]
        for key, kind in (((0, 1), kind0), ((1, 2), kind_half)):
            idxs = buckets.pop(key, None)
            if idxs is not None:
                yield idxs, key[1], kind, double([nums[i] for i in idxs])
    for (_, d), idxs in buckets.items():
        vals = [nums[i] for i in idxs]
        yield idxs, d, "a", tuple(vals) if family == "A" else tilde_numerators(vals, d)


def _fmt(x: int, d: int) -> str:
    return str(x) if d == 1 else f"{x}/{d}"


def _gk(nums: list[int], dens: list[int], family: str, records: list | None = None) -> tuple[int, int]:
    """(GK dimension, ambient dimension) of the weight ``integer_entries`` read as ``nums, dens``;
    with ``records``, one record per class is appended.

    Each class's numerators go to :func:`rs_shape`, with its denominator d
    passed only when d > 1, so that it keys apart from an integral class.
    """
    n = len(nums)
    check_family(family, n)
    ambient = _ambient(family, n)
    penalty = 0
    for idxs, d, kind, seq in _class_terms(nums, dens, family):
        sh = rs_shape(seq) if d == 1 else rs_shape(seq, d)
        value = _f_stat(sh, kind)
        penalty += value
        if records is not None:
            records.append(
                {
                    "positions": [i + 1 for i in idxs],
                    "entries": [_fmt(nums[i], d) for i in idxs],
                    "sequence": [_fmt(x, d) for x in seq],
                    "shape": list(sh),
                    "kind": kind,
                    "f": value,
                }
            )
    return ambient - penalty, ambient


def f_stat_sequence(seq, kind: str) -> int:
    """:func:`~socular.hollow.f_stat` of the Robinson-Schensted shape of a sequence of entries."""
    return f_stat(rs_shape(as_tuple(seq, "a word must be a sequence of entries")), kind)


def gk_breakdown(weight, family: str) -> dict:
    """GK dimension plus the per-congruence-class contributions.

    Each class record carries its 1-based positions, entries, the sequence
    whose insertion tableau is used, that tableau's shape, the statistic kind,
    and the subtracted amount.
    """
    records: list[dict] = []
    gk, ambient = _gk(*integer_entries(weight), family, records)
    return {"gkdim": gk, "ambient": ambient, "classes": records}


def gk_dimension(weight, family: str) -> int:
    """GK dimension of L(lambda) for lambda = ``weight`` in the given family."""
    return _gk(*integer_entries(weight), family)[0]
