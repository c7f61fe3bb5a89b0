"""Brute-force reference implementations used to validate the fast paths.

These are deliberately naive: collapse and expansion by scanning the whole
dominance poset, the H-algorithm by enumerating all same-hollow orbit
partitions, socularity by enumerating integral weights, GK dimension on plain
``Fraction`` entries.  They exist to be obviously correct.

Each oracle validates its argument once; the partitions it enumerates come from
:func:`partitions_of`, which yields canonical tuples, so it tests them with the
unchecked kernels of :mod:`socular.partitions` and :mod:`socular.hollow`.

A sweep enumerates each candidate set once: the orbit partitions of a total
are one cached table, built in one pass of bit ORs, that holds dominance as
a bit relation.  Bit i stands for the i-th orbit partition in
:func:`partitions_of` order, and for each prefix position j and value v the
table holds the mask of the partitions whose j-th prefix sum is at most v,
next to one mask of the special partitions and one per hollow key.  An
oracle gets its candidates by ANDing about ``len(p)`` masks, not by comparing
``p`` with every orbit partition; every orbit partition is still a candidate.
The p-dominant weights of a window are generated block by block instead of
filtered out of the whole window, with their own tail-root test, and
``check_socular`` reads GK dimension and the criterion's class shape from one
GK walk per weight of a rank, not one per setup.
The fast-against-oracle checks share one runner, :func:`_mismatches`, each
feeding it a generator of cases.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations, product
from operator import or_
from typing import NamedTuple

from .errors import FAMILIES, DomainError, IntegrityError, as_tuple, check_family, is_int
from .gkdim import _gk, gk_dimension
from .hollow import FAMILY_PARITY, _hollow_key, f_stat
from .parabolic import _integral_candidate, _integral_target
from .partitions import (
    ORBIT_FAMILIES,
    Partition,
    _check_orbit_family,
    _collapse_input,
    _is_orbit,
    _is_special,
    _orbit_input,
    as_partition,
    collapse,
    partitions_of,
)
from .richardson import richardson_partition
from .setups import ParabolicSetup, _as_setup, dim_nilradical, parabolic_from_roots, z_type
from .tableaux import rs_tableau, shape
from .transforms import _is_domino_type, h_algorithm

# three families times the totals one sweep reaches, with room to spare
ORBIT_TABLE_SIZE = 64
_RESTRICTED = "restricted transform"


class EnumerationBudget(NamedTuple):
    max_total: int = 14
    entry_window: tuple[int, int] = (-3, 3)
    max_n: int = 3


class _OrbitTable(NamedTuple):
    """The type-``family`` orbit partitions of one total, and their relations as bit masks.

    Bit i of every mask stands for ``parts[i]``, the i-th orbit partition in
    :func:`partitions_of` order.  ``le[j][v]`` holds the partitions whose
    (j+1)-th prefix sum is at most ``v``, a partition's prefix sums past its
    last part being the total; ``special`` holds the special partitions and
    ``by_hollow`` maps each hollow key in the family's parity to the
    partitions that have it.
    """

    parts: tuple[Partition, ...]
    everything: int
    le: tuple[tuple[int, ...], ...]
    special: int
    by_hollow: dict[tuple[int, ...], int]


def _dominated(table: _OrbitTable, q: Partition) -> int:
    """The table's partitions that ``q``, a partition of its total, dominates.

    For equal totals dominance is prefix sums alone, and past its last part
    every partition's sum is the total, so one mask per part of ``q`` decides.
    """
    mask, prefix = table.everything, 0
    for row, v in zip(table.le, q):
        prefix += v
        mask &= row[prefix]
    return mask


def _dominating(table: _OrbitTable, q: Partition) -> int:
    """The table's partitions that dominate ``q``, a partition of its total: none of their prefix sums is below."""
    below, prefix = 0, -1  # each prefix sum of q less one
    for row, v in zip(table.le, q):
        prefix += v
        below |= row[prefix]
    return table.everything ^ below


def _unique_extreme(cands: int, table: _OrbitTable, top: bool, search: str, p, family: str) -> Partition:
    """The candidate that dominates every other (``top``) or that every other dominates.

    ``cands`` is a mask of ``table``.  Its bits run in descending
    lexicographic order, which dominance refines, so only the lowest set bit
    can be a maximum and only the highest a minimum: that one is the extreme
    when the whole mask lies inside its own relation, as a lone candidate does.
    The error names the search as ``<search> of <p> in type <family>``, a
    text built only when it is raised.
    """
    if cands:
        end = table.parts[(cands & -cands if top else cands).bit_length() - 1]
        if not cands & (cands - 1):
            return end
        relation = (_dominated if top else _dominating)(table, end)
        if not cands & ~relation:
            return end
    extreme = "maximum" if top else "minimum"
    raise IntegrityError(
        f"no unique dominance {extreme} among {cands.bit_count()} candidates: {search} of {p} in type {family}"
    )


@lru_cache(maxsize=ORBIT_TABLE_SIZE)
def _orbit_table(total: int, family: str) -> _OrbitTable:
    """Every type-``family`` orbit partition of ``total`` and its relations, as an ``_OrbitTable``.

    One pass over the partitions ORs each one's bit into its buckets: a
    position's buckets split the partitions by their prefix sum there, and
    ``accumulate(..., or_)`` over the buckets gives that position's ``le``.
    A partition's last prefix sum is the total, which every one reaches, so
    ``le[j][total]`` is the whole table and needs no bucket.
    """
    parts = tuple(q for q in partitions_of(total) if _is_orbit(q, family))
    parity = FAMILY_PARITY[family]
    at = [[0] * total for _ in range(total)]
    special = 0
    by_hollow: dict[tuple[int, ...], int] = {}
    for i, q in enumerate(parts):
        bit = 1 << i
        for row, prefix in zip(at, accumulate(q[:-1])):
            row[prefix] |= bit
        if _is_special(q, family):
            special |= bit
        key = _hollow_key(q, parity)
        by_hollow[key] = by_hollow.get(key, 0) | bit
    everything = (1 << len(parts)) - 1
    le = tuple((*accumulate(row, or_), everything) for row in at)
    return _OrbitTable(parts, everything, le, special, by_hollow)


def collapse_oracle(p, family: str) -> Partition:
    """Dominance-maximum type-``family`` partition below ``p``, by full enumeration."""
    p = _collapse_input(p, family)
    table = _orbit_table(sum(p), family)
    return _unique_extreme(_dominated(table, p), table, True, "collapse", p, family)


def expand_oracle(p, family: str) -> Partition:
    """Dominance-minimum special type-``family`` partition above ``p``, by full enumeration."""
    p = _orbit_input(p, family)
    table = _orbit_table(sum(p), family)
    cands = table.special & _dominating(table, p)
    return _unique_extreme(cands, table, False, "expansion", p, family)


def restricted_transform_oracle(p, family: str) -> Partition:
    """The H-algorithm's output recovered as restricted collapse then expansion.

    Candidates are the orbit partitions of the target total whose retained
    hollow shape equals that of ``p``.  Within them: dominance maximum below
    ``p`` (below ``p`` with its first part raised by one for B, whose target
    total is one box larger), then dominance minimum among the special
    candidates above that.
    """
    p = as_partition(p)
    _check_orbit_family(family)
    parity = FAMILY_PARITY[family]
    key = _hollow_key(p, parity)
    if 2 * sum(key) != sum(p):  # one parity's count decides, as in h_algorithm
        raise DomainError(f"{p} is not of domino type")
    target = sum(p) + 1 if family == "B" else sum(p)
    table = _orbit_table(target, family)
    cands = table.by_hollow.get(key)
    if cands is None:
        raise IntegrityError(f"no type-{family} partition of {target} shares the {parity} boxes of {p}")
    if family == "B":
        reference = (p[0] + 1,) + p[1:] if p else (1,)
    else:
        reference = p
    specials = cands & table.special
    below = cands & _dominated(table, reference)
    if below:
        # the specials must dominate the restricted collapse
        specials &= _dominating(table, _unique_extreme(below, table, True, _RESTRICTED, p, family))
    if not specials:
        raise IntegrityError(
            f"no special candidate above the restricted collapse: {_RESTRICTED} of {p} in type {family}"
        )
    return _unique_extreme(specials, table, False, _RESTRICTED, p, family)


def richardson_oracle(setup: ParabolicSetup) -> Partition:
    """The Richardson partition of a B/C/D parabolic, by inducing the zero orbit of its Levi factor.

    Start from the zero orbit of the small factor, 1^(2n_k+1) for B and
    1^(2n_k) for C and D; for each ``gl(b)`` block add 2 to the first b parts,
    padding with zeros, and collapse with :func:`collapse_oracle`
    (Collingwood-McGovern, *Nilpotent Orbits in Semisimple Lie Algebras*, 7.1
    and 7.3).  A very even D partition names two orbits; this gives the
    partition only.
    """
    family = _as_setup(setup).family
    _check_orbit_family(family)
    tail, blocks = z_type(setup)
    p = (1,) * (2 * tail + (family == "B"))
    for b in blocks:
        padded = p + (0,) * (b - len(p))
        p = collapse_oracle(tuple(v + 2 for v in padded[:b]) + padded[b:], family)
    return p


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


def _check_budget(budget: EnumerationBudget) -> None:
    """Refuse a budget of the wrong types, or one under which a check would compare nothing and still pass."""
    for field in ("max_total", "max_n"):
        value = getattr(budget, field)
        if not is_int(value):
            raise DomainError(f"bad budget {field}={value!r}: must be an int")
    window = budget.entry_window
    if (
        not isinstance(window, tuple)
        or len(window) != 2
        or not all(map(is_int, window))
        or window[0] > window[1]
    ):
        raise DomainError(f"bad budget entry_window={window!r}: must be a pair of ints lo <= hi")
    if budget.max_total < 0:
        raise DomainError(f"bad budget max_total={budget.max_total}: must be at least 0")
    if budget.max_n < 1:
        raise DomainError(f"bad budget max_n={budget.max_n}: must be at least 1")


def integral_weights(n: int, window: tuple[int, int]):
    """All integer weights of length ``n`` with entries in the closed window."""
    lo, hi = window
    if lo > hi:
        raise DomainError(f"bad window {window}")
    return product(range(lo, hi + 1), repeat=n)


def _falling_chains(size: int, window: tuple[int, int]) -> list[tuple[int, ...]]:
    """Every strictly decreasing sequence of ``size`` entries in the window, in ascending order."""
    lo, hi = window
    # combinations of the falling range come in descending order
    return list(combinations(range(hi, lo - 1, -1), size))[::-1]


def _dominant_weights(setup: ParabolicSetup, budget: EnumerationBudget) -> list[tuple[int, ...]]:
    """The p-dominant weights of ``integral_weights(setup.n, budget.entry_window)``, in its order.

    An integral weight is p-dominant when it falls strictly inside each block
    of the original composition and passes the tail root's test, so the
    weights are the products of each block's falling chains, concatenated,
    that the tail test keeps.  Each factor is in ascending order, so the
    product is too.
    """
    if setup.n > budget.max_n:
        raise DomainError(f"rank {setup.n} exceeds budget max_n={budget.max_n}")
    chains = [_falling_chains(size, budget.entry_window) for size in setup.composition]
    weights = map(tuple, map(chain.from_iterable, product(*chains)))
    if setup.family == "A" or setup.n in setup.excluded:
        return list(weights)
    # a retained alpha_n pairs with an integral weight to a positive integer iff
    # 2 x_n > 0 (B, alpha_n = e_n), x_n > 0 (C, 2 e_n) or x_{n-1} + x_n > 0 (D)
    if setup.family == "B":
        return [w for w in weights if 2 * w[-1] > 0]
    if setup.family == "C":
        return [w for w in weights if w[-1] > 0]
    return [w for w in weights if w[-2] + w[-1] > 0]


def socular_enumeration(setup: ParabolicSetup, budget: EnumerationBudget):
    """Maximum GK dimension over windowed integral p-dominant weights, with witnesses."""
    _check_budget(budget)
    weights = _dominant_weights(_as_setup(setup), budget)
    gks = [gk_dimension(w, setup.family) for w in weights]
    best = max(gks, default=-1)
    return best, [w for w, g in zip(weights, gks) if g == best]


def parabolic_setups(family: str, n: int):
    """Every standard parabolic of the family and rank ``n``, one per set of excluded simple roots."""
    top = n - 1 if family == "A" else n
    for mask in range(1 << top):
        yield parabolic_from_roots(family, n, frozenset(i + 1 for i in range(top) if mask >> i & 1))


def _all_setups(family: str, max_n: int):
    for n in range(2 if family in ("A", "D") else 1, max_n + 1):
        yield from parabolic_setups(family, n)


def _mismatches(name: str, fast, oracle, cases) -> list[str]:
    """One line ``name args: fast != oracle slow`` for each case on which ``fast`` and ``oracle`` differ."""
    failures = []
    for args in cases:
        got, want = fast(*args), oracle(*args)
        if got != want:
            failures.append(f"{name} {' '.join(map(str, args))}: {got} != oracle {want}")
    return failures


def check_collapse(budget: EnumerationBudget) -> list[str]:
    """Compare collapse against the oracle on all parity-compatible partitions."""
    _check_budget(budget)
    cases = (
        (p, family)
        for total in range(budget.max_total + 1)
        for p in partitions_of(total)
        for family in ORBIT_FAMILIES
        if total % 2 == (family == "B")
    )
    return _mismatches("collapse", collapse, collapse_oracle, cases)


def check_richardson(budget: EnumerationBudget) -> list[str]:
    """Compare the Richardson partition against the induction oracle on every B/C/D setup up to ``max_n``."""
    _check_budget(budget)
    cases = ((setup,) for family in ORBIT_FAMILIES for setup in _all_setups(family, budget.max_n))
    return _mismatches("richardson", lambda setup: richardson_partition(setup).partition, richardson_oracle, cases)


def check_halg(budget: EnumerationBudget) -> list[str]:
    """Compare the H-algorithm against the oracle on all domino-type partitions."""
    _check_budget(budget)
    cases = (
        (p, family)
        for total in range(0, budget.max_total + 1, 2)
        for p in partitions_of(total)
        if _is_domino_type(p)
        for family in ORBIT_FAMILIES
    )
    return _mismatches("halg", h_algorithm, restricted_transform_oracle, cases)


def check_socular(budget: EnumerationBudget, families=FAMILIES) -> list[str]:
    """For every setup: max GK equals dim(u) and the attaining weights are the socular ones.

    Each distinct p-dominant weight of a family and rank gets one GK call,
    however many setups of that rank hold it, and its one class shape gives
    the criterion's candidate side; the verdict comes from the combinatorial
    criterion alone (every window weight is integral).  A setup whose window
    holds no p-dominant weight has nothing to compare and is skipped; a call in
    which no setup compares anything raises ``DomainError``.
    """
    _check_budget(budget)
    families = as_tuple(families, "families must be a sequence of family names")
    failures = []
    compared = 0
    for family in families:
        rank = None
        for setup in _all_setups(family, budget.max_n):
            if setup.n != rank:  # the memo holds one rank's weights at a time
                rank, facts, ones = setup.n, {}, [1] * setup.n
            dominant = _dominant_weights(setup, budget)
            if not dominant:
                continue
            compared += 1
            for w in dominant:
                if w not in facts:
                    gk, _, classes = _gk(list(w), ones, family)
                    facts[w] = gk, _integral_candidate(classes[0][4], family)
            best = max(facts[w][0] for w in dominant)
            du = dim_nilradical(setup)
            if best != du:
                failures.append(f"{setup}: max GK {best} != dim u {du}")
                continue
            target = _integral_target(setup)
            for w in dominant:
                g, candidate = facts[w]
                verdict = candidate == target
                if verdict != (g == best):
                    failures.append(
                        f"{setup}, weight {w}: criterion says {verdict}, "
                        f"gk attainment says {g == best}"
                    )
    if not compared:
        raise DomainError(
            f"nothing to compare: no setup of families {families} up to rank {budget.max_n} "
            f"has a p-dominant weight in the window {budget.entry_window}"
        )
    return failures
