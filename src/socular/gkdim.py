"""Gelfand-Kirillov dimension of simple highest weight modules L(lambda).

Families: A = sl(n), B = so(2n+1), C = sp(n), D = so(2n), where n is the
number of weight coordinates.  The general (not necessarily integral) formula
splits the weight into congruence classes; for a fully integral weight it
reduces to n^2 - F_b(lambda^-) (B, C) and n^2 - n - F_d(lambda^-) (D).
"""

from .errors import DomainError
from .hollow import f_stat
from .tableaux import rs_shape
from .weights import congruence_decompose, double, tilde

FAMILIES = ("A", "B", "C", "D")

# which F statistic the integral and half-integral classes contribute
_CLASS_KINDS = {"B": ("b", "b"), "C": ("b", "d"), "D": ("d", "d")}


def check_family(family: str, n: int) -> None:
    if family not in FAMILIES:
        raise DomainError(f"family must be one of {FAMILIES}, got {family!r}")
    if n < 1:
        raise DomainError("rank must be positive")
    if family in ("A", "D") and n < 2:
        raise DomainError(f"family {family} needs n >= 2, got n={n}")


def _ambient(family: str, n: int) -> int:
    if family == "A":
        return n * (n - 1) // 2
    return n * n - (n if family == "D" else 0)


def _class_terms(weight, family: str):
    """Each congruence class with its statistic kind and the sequence it inserts, in formula order."""
    if family == "A":
        for cls in congruence_decompose(weight, "typeA").classes():
            yield cls, "a", cls.values
        return
    split = congruence_decompose(weight, "bcd")
    kind0, kind_half = _CLASS_KINDS[family]
    if split.integral is not None:
        yield split.integral, kind0, double(split.integral.values)
    if split.half_integral is not None:
        yield split.half_integral, kind_half, double(split.half_integral.values)
    for cls in split.others:
        yield cls, "a", tilde(cls.values)


def _gk(weight, family: str, records: list | None = None) -> tuple[int, int]:
    """(GK dimension, ambient dimension); with ``records``, one record per class is appended."""
    w = tuple(weight)
    n = len(w)
    check_family(family, n)
    ambient = _ambient(family, n)
    penalty = 0
    for cls, kind, seq in _class_terms(w, family):
        sh = rs_shape(seq)
        value = f_stat(sh, kind)
        penalty += value
        if records is not None:
            records.append(
                {
                    "positions": list(cls.positions),
                    "entries": [str(v) for v in cls.values],
                    "sequence": [str(v) for v in seq],
                    "shape": list(sh),
                    "kind": kind,
                    "f": value,
                }
            )
    return ambient - penalty, ambient


def gk_breakdown(weight, family: str) -> dict:
    """GK dimension plus the per-congruence-class contributions.

    Each class record carries its 1-based positions, entries, the sequence
    whose insertion tableau is used, that tableau's shape, the statistic kind,
    and the subtracted amount.
    """
    records: list[dict] = []
    gk, ambient = _gk(weight, family, records)
    return {"gkdim": gk, "ambient": ambient, "classes": records}


def gk_dimension(weight, family: str) -> int:
    """GK dimension of L(lambda) for lambda = ``weight`` in the given family."""
    return _gk(weight, family)[0]
