"""Gelfand-Kirillov dimension of simple highest weight modules L(lambda).

Families: A = sl(n), B = so(2n+1), C = sp(n), D = so(2n), where n is the
number of weight coordinates.  The general (not necessarily integral) formula
splits the weight into congruence classes; for a fully integral weight it
reduces to n^2 - F_b(lambda^-) (B, C) and n^2 - n - F_d(lambda^-) (D).

The computation runs on integers: every class is a sequence of numerators
over one denominator d, and ``rs_shape`` gets d only when d > 1, where it
only keys the cache.  One walk over the classes returns them as a list and
looks each shape up once; the GK sum, the breakdown and the socularity
criterion all read it.  The public entries check the family and the rank once,
after reading the weight; the walk (``_classes``, ``_gk``) is unchecked.
"""

from .errors import check_family, positive_roots
from .hollow import _f_stat
from .tableaux import rs_shape
from .weights import _doubled, class_buckets, integer_entries, tilde_numerators

# which F statistic the integral (0, 1) and half-integral (1, 2) classes
# contribute, keyed by their residue pairs; type A has no such class
_KINDS = {
    "A": {},
    "B": {(0, 1): "b", (1, 2): "b"},
    "C": {(0, 1): "b", (1, 2): "d"},
    "D": {(0, 1): "d", (1, 2): "d"},
}


def _classes(nums: list[int], dens: list[int], family: str) -> list:
    """Each congruence class in formula order, as ``(positions, d, kind, seq, shape)``:
    its 0-based positions, denominator, statistic kind, the numerators it inserts
    and their shape, the class's one :func:`rs_shape` lookup, which gets d only
    when d > 1, so that the class keys apart from an integral one.

    Returns the classes as a list, built in one loop.  An all-integral or
    all-half-integral weight is one class and skips the bucketing.
    """
    n = len(nums)
    d = dens[0]
    kinds = _KINDS[family]
    if d <= 2 and dens.count(d) == n:  # the one class (0, 1) or (1, 2)
        order = [((d - 1, d), range(n))]
    else:
        buckets = class_buckets(nums, dens, family != "A")
        # B/C/D take the integral class first, then the half-integral one, then the rest
        order = [(k, buckets[k]) for k in kinds if k in buckets]
        order += [(k, idxs) for k, idxs in buckets.items() if k not in kinds]
    classes = []
    for key, idxs in order:
        d = key[1]
        vals = nums if len(idxs) == n else [nums[i] for i in idxs]
        kind = kinds.get(key)
        if kind is None:
            kind, seq = "a", tuple(vals) if family == "A" else tilde_numerators(vals, d)
        else:
            seq = _doubled(vals)
        classes.append((idxs, d, kind, seq, rs_shape(seq) if d == 1 else rs_shape(seq, d)))
    return classes


def _fmt(x: int, d: int) -> str:
    return str(x) if d == 1 else f"{x}/{d}"


def _gk(nums: list[int], dens: list[int], family: str) -> tuple[int, int, list]:
    """(GK dimension, ambient dimension, classes) of the weight ``integer_entries``
    read as ``nums, dens``, with the classes as :func:`_classes` returns them;
    unchecked: the family and the rank ``len(nums)`` must have passed ``check_family``."""
    ambient = gk = positive_roots(family, len(nums))
    classes = _classes(nums, dens, family)
    for _, _, kind, _, sh in classes:
        gk -= _f_stat(sh, kind)
    return gk, ambient, classes


def gk_breakdown(weight, family: str) -> dict:
    """GK dimension plus the per-congruence-class contributions.

    Each class record carries its 1-based positions, entries, the sequence
    whose insertion tableau is used, that tableau's shape, the statistic kind,
    and the subtracted amount.
    """
    nums, dens = integer_entries(weight)
    check_family(family, len(nums))
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
    nums, dens = integer_entries(weight)
    check_family(family, len(nums))
    return _gk(nums, dens, family)[0]
