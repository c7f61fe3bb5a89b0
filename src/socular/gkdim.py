"""Gelfand-Kirillov dimension of simple highest weight modules L(lambda).

Families: A = sl(n), B = so(2n+1), C = sp(n), D = so(2n), where n is the
number of weight coordinates.  The general (not necessarily integral) formula
splits the weight into congruence classes; for a fully integral weight it
reduces to n^2 - F_b(lambda^-) (B, C) and n^2 - n - F_d(lambda^-) (D).

The computation runs on integers: every class is a sequence of numerators
over one denominator d, and ``rs_shape`` gets d only when d > 1, where it
only keys the cache.  One walk over the classes looks each shape up once,
and the GK sum, the breakdown and the socularity criterion all read it.
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


def _classes(nums: list[int], dens: list[int], family: str):
    """Each congruence class in formula order, as ``(positions, d, kind, seq, shape)``:
    its 0-based positions, denominator, statistic kind, the numerators it inserts
    and their shape, the class's one :func:`rs_shape` lookup, which gets d only
    when d > 1, so that the class keys apart from an integral one.

    An all-integral weight is one class and skips the bucketing.
    """
    n = len(nums)
    buckets = {(0, 1): range(n)} if dens.count(1) == n else class_buckets(nums, dens, family != "A")
    kinds = {} if family == "A" else dict(zip(((0, 1), (1, 2)), _CLASS_KINDS[family]))
    # B/C/D take the integral class first, then the half-integral one, then the rest
    for key in [k for k in kinds if k in buckets] + [k for k in buckets if k not in kinds]:
        idxs, d = buckets[key], key[1]
        vals = nums if len(idxs) == n else [nums[i] for i in idxs]
        if key in kinds:
            kind, seq = kinds[key], double(vals)
        else:
            kind, seq = "a", tuple(vals) if family == "A" else tilde_numerators(vals, d)
        yield idxs, d, kind, seq, rs_shape(seq) if d == 1 else rs_shape(seq, d)


def _fmt(x: int, d: int) -> str:
    return str(x) if d == 1 else f"{x}/{d}"


def _gk(nums: list[int], dens: list[int], family: str) -> tuple[int, int, list]:
    """(GK dimension, ambient dimension, classes) of the weight ``integer_entries``
    read as ``nums, dens``, with the classes as :func:`_classes` yields them."""
    n = len(nums)
    check_family(family, n)
    ambient = _ambient(family, n)
    classes = list(_classes(nums, dens, family))
    return ambient - sum(_f_stat(sh, kind) for _, _, kind, _, sh in classes), ambient, classes


def f_stat_sequence(seq, kind: str) -> int:
    """:func:`~socular.hollow.f_stat` of the Robinson-Schensted shape of a sequence of entries."""
    return f_stat(rs_shape(as_tuple(seq, "a word must be a sequence of entries")), kind)


def gk_breakdown(weight, family: str) -> dict:
    """GK dimension plus the per-congruence-class contributions.

    Each class record carries its 1-based positions, entries, the sequence
    whose insertion tableau is used, that tableau's shape, the statistic kind,
    and the subtracted amount.
    """
    nums, dens = integer_entries(weight)
    gk, ambient, classes = _gk(nums, dens, family)
    records = [
        {
            "positions": [i + 1 for i in idxs],
            "entries": [_fmt(nums[i], d) for i in idxs],
            "sequence": [_fmt(x, d) for x in seq],
            "shape": list(sh),
            "kind": kind,
            "f": _f_stat(sh, kind),
        }
        for idxs, d, kind, seq, sh in classes
    ]
    return {"gkdim": gk, "ambient": ambient, "classes": records}


def gk_dimension(weight, family: str) -> int:
    """GK dimension of L(lambda) for lambda = ``weight`` in the given family."""
    return _gk(*integer_entries(weight), family)[0]
