"""Brute-force reference implementations used to validate the fast paths.

These are deliberately naive: collapse and expansion by scanning the whole
dominance poset, the H-algorithm by enumerating all same-hollow orbit
partitions, socularity by enumerating integral weights, GK dimension on the
``Fraction`` congruence split and tilde rewrite (:func:`congruence_decompose`,
:func:`tilde`), the references for the library's integer ones in
:mod:`socular.weights`.  They exist to be obviously correct.

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
filtered out of the whole window, with their own tail-root test.  Every
window weight is integral, so ``check_socular`` and ``socular_enumeration``
take GK dimension by the paper's integral formula on one RS shape, the
weight's for A and the doubled weight's for B/C/D: the positive-root count
less F_a (A), F_b (B, C) or F_d (D) of that shape, whose hollow key or
transpose is also the criterion's candidate side.  Both are functions of the
shape, so they are computed once per distinct shape of a call, family and
rank.  ``check_socular`` looks each weight of a rank up once, not once per
setup, and judges a setup once per distinct (GK, candidate) pair of its
weights, walking the weights only to name those of a pair that disagrees.
The fast-against-oracle checks (collapse, expand, H-algorithm, Richardson)
share one runner, :func:`_mismatches`, each feeding it a generator of cases.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations, product
from operator import or_
from typing import NamedTuple

from .errors import FAMILIES, DomainError, IntegrityError, as_tuple, check_family, is_int, positive_roots
from .hollow import FAMILY_PARITY, _f_stat, _hollow_key, f_stat
from .parabolic import _integral_candidate, _integral_target
from .partitions import (
    ORBIT_FAMILIES,
    Partition,
    _check_orbit_family,
    _collapse_input,
    _dual_family,
    _is_orbit,
    _orbit_input,
    _transpose,
    as_partition,
    collapse,
    expand,
    partitions_of,
)
from .richardson import richardson_partition
from .setups import ParabolicSetup, _as_setup, dim_nilradical, parabolic_from_roots, z_type
from .tableaux import rs_shape, rs_tableau, shape
from .transforms import _is_domino_type, h_algorithm
from .weights import _doubled, integer_entries

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
        if _is_orbit(_transpose(q), _dual_family(family)):  # the definition, not the library's run-length test
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


def _fractions(weight) -> list[Fraction]:
    """A weight's entries as Fractions, read by ``integer_entries``, whose errors they raise."""
    return [Fraction(x, d) for x, d in zip(*integer_entries(weight))]


class CongruenceClass(NamedTuple):
    """A maximal congruent subsequence of a weight, with 1-based positions."""

    positions: tuple[int, ...]
    values: tuple[Fraction, ...]


class CongruenceSplit(NamedTuple):
    grouping: str
    integral: CongruenceClass | None
    half_integral: CongruenceClass | None
    others: tuple[CongruenceClass, ...]

    def classes(self) -> tuple[CongruenceClass, ...]:
        """Every class, ordered by first position."""
        out = [c for c in (self.integral, self.half_integral) if c is not None]
        out.extend(self.others)
        out.sort(key=lambda c: c.positions[0])
        return tuple(out)


def congruence_decompose(weight, grouping: str) -> CongruenceSplit:
    """Split a weight into maximal congruent subsequences, keyed by fractional part.

    ``grouping="typeA"`` merges entries whose difference is an integer;
    ``grouping="bcd"`` merges entries whose difference or sum is an integer.
    Classes keep the original entry order; ``others`` is sorted by the first
    position of each class.  The reference for ``weights.class_buckets``.
    """
    if grouping not in ("typeA", "bcd"):
        raise DomainError(f"grouping must be 'typeA' or 'bcd', got {grouping!r}")
    w = _fractions(weight)
    groups: dict[Fraction, list[int]] = {}
    for i, v in enumerate(w, 1):
        groups.setdefault(_class_key(v, grouping), []).append(i)
    classes = {key: CongruenceClass(tuple(pos), tuple(w[i - 1] for i in pos)) for key, pos in groups.items()}
    if grouping == "typeA":
        return CongruenceSplit(grouping, None, None, tuple(classes.values()))
    integral = classes.pop(0, None)
    half = classes.pop(Fraction(1, 2), None)
    return CongruenceSplit(grouping, integral, half, tuple(classes.values()))


def tilde(values) -> tuple[Fraction, ...]:
    """Rewrite one non-integral difference-or-sum class as an integral-difference sequence.

    The entries congruent to the first one (by integral difference) stay put;
    the remaining entries are negated and appended in reversed order.  The
    reference for ``weights.tilde_numerators``.
    """
    vals = _fractions(values)
    if not vals:
        return ()
    lead = _frac(vals[0])
    return tuple([v for v in vals if _frac(v) == lead] + [-v for v in reversed(vals) if _frac(v) != lead])


def gk_dimension_oracle(weight, family: str) -> int:
    """GK dimension by the paper's formula, on ``Fraction`` entries throughout.

    The classes come from :func:`congruence_decompose`, the non-integral B/C/D
    ones are rewritten by :func:`tilde`, and every tableau is built in full,
    uncached: the reference for the integer keys and numerator insertion of
    :func:`gk_dimension`.
    """
    split = congruence_decompose(weight, "typeA" if family == "A" else "bcd")
    n = sum(len(c.positions) for c in split.classes())
    check_family(family, n)

    def penalty(seq, kind: str) -> int:
        return f_stat(shape(rs_tableau(seq)), kind)

    if family == "A":
        return n * (n - 1) // 2 - sum(penalty(c.values, "a") for c in split.others)
    # integral classes give F_b for B and C, F_d for D; half-integral ones F_d for C and D
    kinds = ((split.integral, "d" if family == "D" else "b"), (split.half_integral, "b" if family == "B" else "d"))
    total = sum(penalty(tilde(c.values), "a") for c in split.others)
    for cls, kind in kinds:
        if cls is not None:
            total += penalty(cls.values + tuple(-v for v in reversed(cls.values)), kind)
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


def _window_shape(w: tuple[int, ...], family: str) -> Partition:
    """The one RS shape an integral weight's GK dimension and candidate read:
    the weight's for A, the doubled weight's for B/C/D."""
    return rs_shape(w) if family == "A" else rs_shape(_doubled(w))


def _shape_facts(sh: Partition, family: str, ambient: int) -> tuple[int, tuple]:
    """(GK dimension, criterion candidate) of the integral weights whose :func:`_window_shape` is ``sh``.

    The paper's integral formula: ``ambient``, the positive-root count of the
    rank, less F_a, F_d for D or F_b for B and C, the statistics that
    :func:`gk_dimension_oracle` gives the integral class.  The same shape gives
    the candidate side of the socularity criterion.
    """
    kind = "a" if family == "A" else ("d" if family == "D" else "b")
    return ambient - _f_stat(sh, kind), _integral_candidate(sh, family)


def socular_enumeration(setup: ParabolicSetup, budget: EnumerationBudget):
    """Maximum GK dimension over windowed integral p-dominant weights, with witnesses.

    Each weight's shape is looked up once and each distinct shape's GK
    dimension is computed once.
    """
    _check_budget(budget)
    setup = _as_setup(setup)
    family = setup.family
    weights = _dominant_weights(setup, budget)
    shapes = [_window_shape(w, family) for w in weights]
    ambient = positive_roots(family, setup.n)
    gk_of = {sh: _shape_facts(sh, family, ambient)[0] for sh in dict.fromkeys(shapes)}
    gks = [gk_of[sh] for sh in shapes]
    best = max(gks, default=-1)
    return best, [w for w, g in zip(weights, gks) if g == best]


def _all_setups(family: str, max_n: int):
    """Every standard parabolic of the family up to rank ``max_n``, one per set of excluded simple roots."""
    for n in range(2 if family in ("A", "D") else 1, max_n + 1):
        top = n - 1 if family == "A" else n
        for mask in range(1 << top):
            yield parabolic_from_roots(family, n, frozenset(i + 1 for i in range(top) if mask >> i & 1))


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


def check_expand(budget: EnumerationBudget) -> list[str]:
    """Compare expand against the oracle on every B/C/D orbit partition up to ``max_total``.

    Library-only: ``socular oracle --check`` does not offer it.
    """
    _check_budget(budget)
    cases = (
        (p, family)
        for total in range(budget.max_total + 1)
        for p in partitions_of(total)
        for family in ORBIT_FAMILIES
        if _is_orbit(p, family)
    )
    return _mismatches("expand", expand, expand_oracle, cases)


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

    Each distinct p-dominant weight of a family and rank gets one
    :func:`_window_shape` lookup, however many setups of that rank hold it,
    and each distinct shape of the rank one :func:`_shape_facts` call: its
    GK dimension by the integral formula and the criterion's candidate side.
    The verdict comes from the combinatorial criterion alone (every window
    weight is integral), so a setup compares it once per distinct (GK,
    candidate) pair of its weights, and walks the weights, in order, only
    when some pair disagrees.  A setup whose window holds no p-dominant
    weight has nothing to compare and is skipped; a call in which no setup
    compares anything raises ``DomainError``.
    """
    _check_budget(budget)
    families = as_tuple(families, "families must be a sequence of family names")
    failures = []
    compared = 0
    for family in families:
        rank = None
        for setup in _all_setups(family, budget.max_n):
            if setup.n != rank:  # the memos hold one rank's weights and shapes at a time
                rank, facts, by_shape = setup.n, {}, {}
                ambient = positive_roots(family, setup.n)
            dominant = _dominant_weights(setup, budget)
            if not dominant:
                continue
            compared += 1
            for w in dominant:
                if w not in facts:
                    sh = _window_shape(w, family)
                    if sh not in by_shape:
                        by_shape[sh] = _shape_facts(sh, family, ambient)
                    facts[w] = by_shape[sh]
            pairs = set(map(facts.__getitem__, dominant))
            best = max(g for g, _ in pairs)
            du = dim_nilradical(setup)
            if best != du:
                failures.append(f"{setup}: max GK {best} != dim u {du}")
                continue
            target = _integral_target(setup)
            if all((candidate == target) == (g == best) for g, candidate in pairs):
                continue
            for w in dominant:  # some pair disagrees: name each of its weights, in order
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
