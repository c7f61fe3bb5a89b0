"""Brute-force reference implementations used to validate the fast paths.

These are deliberately naive: collapse and expansion by scanning the whole
dominance poset, the H-algorithm by enumerating all same-hollow orbit
partitions, socularity by enumerating integral weights, GK dimension on plain
``Fraction`` entries.  They exist to be obviously correct.

Each oracle validates its argument once; the partitions it enumerates come from
:func:`partitions_of`, which yields canonical tuples, so it tests them with the
unchecked kernels of :mod:`socular.partitions` and :mod:`socular.hollow`.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import DomainError, IntegrityError
from .gkdim import check_family, gk_dimension
from .hollow import _hollow, f_stat, hollow
from .parabolic import (
    ParabolicSetup,
    _integral_criterion,
    dim_nilradical,
    is_p_dominant,
    parabolic_from_roots,
)
from .partitions import (
    ORBIT_FAMILIES,
    Partition,
    _dominates,
    _is_orbit,
    _is_special,
    as_partition,
    is_orbit_partition,
    partitions_of,
)
from .tableaux import rs_tableau, shape
from .transforms import h_algorithm, is_domino_type


@dataclass(frozen=True)
class EnumerationBudget:
    max_total: int = 14
    entry_window: tuple[int, int] = (-3, 3)
    max_n: int = 3


def _unique_max(cands: list[Partition], context: str) -> Partition:
    for q in cands:
        if all(_dominates(q, other) for other in cands):
            return q
    raise IntegrityError(f"no unique dominance maximum among {len(cands)} candidates: {context}")


def _unique_min(cands: list[Partition], context: str) -> Partition:
    for q in cands:
        if all(_dominates(other, q) for other in cands):
            return q
    raise IntegrityError(f"no unique dominance minimum among {len(cands)} candidates: {context}")


def collapse_oracle(p, family: str) -> Partition:
    """Dominance-maximum type-``family`` partition below ``p``, by full enumeration."""
    p = as_partition(p)
    if family not in ORBIT_FAMILIES:
        raise DomainError(f"family must be one of {ORBIT_FAMILIES}, got {family!r}")
    want = 1 if family == "B" else 0
    if sum(p) % 2 != want:
        raise DomainError(f"type {family} needs total parity {want}, got total {sum(p)}")
    cands = [q for q in partitions_of(sum(p)) if _is_orbit(q, family) and _dominates(p, q)]
    return _unique_max(cands, f"collapse of {p} in type {family}")


def expand_oracle(p, family: str) -> Partition:
    """Dominance-minimum special type-``family`` partition above ``p``, by full enumeration."""
    p = as_partition(p)
    if not is_orbit_partition(p, family):
        raise DomainError(f"{p} is not an orbit partition of type {family}")
    cands = [
        q
        for q in partitions_of(sum(p))
        if _is_orbit(q, family) and _is_special(q, family) and _dominates(q, p)
    ]
    return _unique_min(cands, f"expansion of {p} in type {family}")


def restricted_transform_oracle(p, family: str) -> Partition:
    """The H-algorithm's output recovered as restricted collapse then expansion.

    Candidates are the orbit partitions of the target total whose retained
    hollow shape equals that of ``p``.  Within them: dominance maximum below
    ``p`` (below ``p`` with its first part raised by one for B, whose target
    total is one box larger), then dominance minimum among the special
    candidates above that.
    """
    p = as_partition(p)
    if family not in ORBIT_FAMILIES:
        raise DomainError(f"family must be one of {ORBIT_FAMILIES}, got {family!r}")
    if not is_domino_type(p):
        raise DomainError(f"{p} is not of domino type")
    parity = "odd" if family in ("B", "C") else "even"
    target = sum(p) + 1 if family == "B" else sum(p)
    ph = hollow(p, parity)
    cands = [
        q
        for q in partitions_of(target)
        if _is_orbit(q, family) and _hollow(q, parity) == ph
    ]
    if not cands:
        raise IntegrityError(f"no type-{family} partition of {target} shares the {parity} boxes of {p}")
    if family == "B":
        reference = (p[0] + 1,) + p[1:] if p else (1,)
    else:
        reference = p
    below = [q for q in cands if _dominates(reference, q)]
    context = f"restricted transform of {p} in type {family}"
    lower = _unique_max(below, context) if below else None
    specials = [
        q
        for q in cands
        if _is_special(q, family) and (lower is None or _dominates(q, lower))
    ]
    if not specials:
        raise IntegrityError(f"no special candidate above the restricted collapse: {context}")
    return _unique_min(specials, context)


def _frac(v) -> Fraction:
    f = Fraction(v)
    return f - (f.numerator // f.denominator)


def _class_key(v, grouping: str) -> Fraction:
    f = _frac(v)
    if grouping == "typeA":
        return f
    # difference-or-sum congruence: fractional parts f and 1-f merge
    g = (1 - f) % 1
    return min(f, g)


def gk_dimension_oracle(weight, family: str) -> int:
    """GK dimension by the paper's formula, on ``Fraction`` entries throughout.

    Classes are keyed by fractional part and every tableau is built in full,
    uncached: the reference for the integer keys and numerator insertion of
    :func:`gk_dimension`.
    """
    w = tuple(Fraction(v) for v in weight)
    n = len(w)
    check_family(family, n)
    grouping = "typeA" if family == "A" else "bcd"
    classes: dict[Fraction, list[Fraction]] = {}
    for v in w:
        classes.setdefault(_class_key(v, grouping), []).append(v)

    def penalty(seq, kind: str) -> int:
        return f_stat(shape(rs_tableau(seq)), kind)

    if family == "A":
        return n * (n - 1) // 2 - sum(penalty(vals, "a") for vals in classes.values())
    # integral classes give F_b for B and C, F_d for D; half-integral ones F_d for C and D
    kinds = {Fraction(0): "d" if family == "D" else "b", Fraction(1, 2): "b" if family == "B" else "d"}
    total = 0
    for key, vals in classes.items():
        if key in kinds:
            total += penalty(vals + [-v for v in reversed(vals)], kinds[key])
        else:
            lead = _frac(vals[0])
            same = [v for v in vals if _frac(v) == lead]
            rest = [-v for v in reversed(vals) if _frac(v) != lead]
            total += penalty(same + rest, "a")
    return n * n - (n if family == "D" else 0) - total


def integral_weights(n: int, window: tuple[int, int]):
    """All integer weights of length ``n`` with entries in the closed window."""
    lo, hi = window
    if lo > hi:
        raise DomainError(f"bad window {window}")
    return product(range(lo, hi + 1), repeat=n)


def _dominant_weights(setup: ParabolicSetup, budget: EnumerationBudget) -> list[tuple[int, ...]]:
    if setup.n > budget.max_n:
        raise DomainError(f"rank {setup.n} exceeds budget max_n={budget.max_n}")
    return [w for w in integral_weights(setup.n, budget.entry_window) if is_p_dominant(w, setup)]


def socular_enumeration(setup: ParabolicSetup, budget: EnumerationBudget):
    """Maximum GK dimension over windowed integral p-dominant weights, with witnesses."""
    weights = _dominant_weights(setup, budget)
    gks = [gk_dimension(w, setup.family) for w in weights]
    best = max(gks, default=-1)
    return best, [w for w, g in zip(weights, gks) if g == best]


def _all_setups(family: str, max_n: int):
    for n in range(1, max_n + 1):
        if family in ("A", "D") and n < 2:
            continue
        top = n - 1 if family == "A" else n
        for mask in range(1 << top):
            excluded = frozenset(i + 1 for i in range(top) if mask >> i & 1)
            yield parabolic_from_roots(family, n, excluded)


def check_collapse(budget: EnumerationBudget) -> list[str]:
    """Compare collapse against the oracle on all parity-compatible partitions."""
    from .partitions import collapse

    failures = []
    for total in range(budget.max_total + 1):
        for p in partitions_of(total):
            for family in ORBIT_FAMILIES:
                if total % 2 != (1 if family == "B" else 0):
                    continue
                fast, slow = collapse(p, family), collapse_oracle(p, family)
                if fast != slow:
                    failures.append(f"collapse {p} {family}: {fast} != oracle {slow}")
    return failures


def check_halg(budget: EnumerationBudget) -> list[str]:
    """Compare the H-algorithm against the oracle on all domino-type partitions."""
    failures = []
    for total in range(0, budget.max_total + 1, 2):
        for p in partitions_of(total):
            if not is_domino_type(p):
                continue
            for family in ORBIT_FAMILIES:
                fast, slow = h_algorithm(p, family), restricted_transform_oracle(p, family)
                if fast != slow:
                    failures.append(f"halg {p} {family}: {fast} != oracle {slow}")
    return failures


def check_socular(budget: EnumerationBudget, families=("A", "B", "C", "D")) -> list[str]:
    """For every setup: max GK equals dim(u) and the attaining weights are the socular ones.

    GK dimension is computed once per p-dominant weight; the verdict comes from
    the combinatorial criterion alone (every window weight is integral).  A
    setup whose window holds no p-dominant weight has nothing to compare and is
    skipped.
    """
    failures = []
    for family in families:
        for setup in _all_setups(family, budget.max_n):
            dominant = _dominant_weights(setup, budget)
            if not dominant:
                continue
            gks = [gk_dimension(w, family) for w in dominant]
            best = max(gks)
            du = dim_nilradical(setup)
            if best != du:
                failures.append(f"{setup}: max GK {best} != dim u {du}")
                continue
            for w, g in zip(dominant, gks):
                verdict = _integral_criterion(w, setup)[0]
                if verdict != (g == best):
                    failures.append(
                        f"{setup}, weight {w}: criterion says {verdict}, "
                        f"gk attainment says {g == best}"
                    )
    return failures
