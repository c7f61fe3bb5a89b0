"""Families, ranks and standard parabolic subalgebras: compositions and dim(u).

A standard parabolic of family X and rank n is named by the set of excluded
simple roots (Delta minus I).  Cutting {1..n-1} at the excluded indices gives
the block sizes (n_1,...,n_k); excluding the last simple root alpha_n appends
a zero tail block.  For so(2n) a tail block of size 1 names the same parabolic
as merging it into the previous block with a zero tail, so that form is kept
as the normalized composition; dominance tests still use the original excluded
set, while dim(u), socularity targets and Richardson data use the normalized
composition.

A setup is consistent by construction.  The two constructors build it
through ``tuple.__new__`` from fields they derived themselves; a setup built
by hand, through the class, ``_make`` or ``_replace``, is rebuilt from its
family, rank and excluded set and refused as a :class:`DomainError` unless
every field equals the rebuild's.  So the kernels behind a setup, such as the
Z-diagram shape of its type, run on it unchecked.

This module needs no weight, tableau or hollow diagram, so the subcommands
that only build a parabolic (``dimu``, ``parabolic``, ``richardson``) load
none of those.
"""

from itertools import accumulate
from operator import sub
from typing import NamedTuple

from .errors import DomainError, as_tuple, check_family, is_int, positive_roots


class _SetupFields(NamedTuple):
    family: str
    n: int
    excluded: frozenset[int]
    composition: tuple[int, ...]
    normalized_composition: tuple[int, ...]


class ParabolicSetup(_SetupFields):
    """A standard parabolic; see the module docstring for the fields and their check."""

    __slots__ = ()

    def __new__(cls, family, n, excluded, composition, normalized_composition):
        built = parabolic_from_roots(family, n, excluded)
        if (composition, normalized_composition) != built[3:]:
            raise DomainError(
                f"inconsistent ParabolicSetup: {family}{n} excluding {sorted(built.excluded)} has "
                f"composition {built.composition} and normalized composition "
                f"{built.normalized_composition}, got {composition!r} and {normalized_composition!r}"
            )
        return built

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _as_setup(setup) -> ParabolicSetup:
    """``setup``, refused as a :class:`DomainError` unless it is a :class:`ParabolicSetup`."""
    if not isinstance(setup, ParabolicSetup):
        raise DomainError(f"expected a ParabolicSetup, got {setup!r}")
    return setup


def _setup(family: str, n: int, excluded: frozenset[int], composition: tuple[int, ...]) -> ParabolicSetup:
    """The setup of an already checked family, rank, excluded set and their composition."""
    normalized = composition
    if family == "D" and composition[-1] == 1 and len(composition) >= 2:
        normalized = composition[:-2] + (composition[-2] + 1, 0)
    return tuple.__new__(ParabolicSetup, (family, n, excluded, composition, normalized))


def parabolic_from_roots(family: str, n: int, excluded) -> ParabolicSetup:
    """Setup from the excluded simple-root indices (subset of {1..n})."""
    check_family(family, n)
    indices = as_tuple(excluded, "excluded roots must be a collection of root indices")
    top = n - 1 if family == "A" else n
    for i in indices:
        if not is_int(i) or i < 1 or i > top:
            raise DomainError(f"excluded root index {i!r} outside 1..{top} for {family}{n}")
    excluded = frozenset(indices)
    cuts = sorted(excluded)
    tail = ()
    if cuts and cuts[-1] == n:  # only B/C/D may exclude alpha_n: a zero tail block
        cuts.pop()
        tail = (0,)
    composition = (*map(sub, cuts, [0, *cuts]), n - (cuts[-1] if cuts else 0), *tail)
    return _setup(family, n, excluded, composition)


def parabolic_from_composition(family: str, composition) -> ParabolicSetup:
    """Setup from a composition (n_1,...,n_k); only the last part may be 0."""
    composition = as_tuple(composition, "a composition must be a sequence of parts")
    if not composition:
        raise DomainError("empty composition")
    for i, v in enumerate(composition):
        if (type(v) is not int and not is_int(v)) or v < 0:  # a plain int skips the call
            raise DomainError(f"composition parts must be non-negative integers: {composition}")
        if v == 0 and (family == "A" or i != len(composition) - 1):
            raise DomainError(f"only the last part of a B/C/D composition may be 0: {composition}")
    n = sum(composition)
    check_family(family, n)
    return _setup(family, n, frozenset(accumulate(composition[:-1])), composition)


def z_type(setup: ParabolicSetup) -> tuple[int, tuple[int, ...]]:
    """The Z-diagram type (n_k; n_1,...,n_{k-1}) of the normalized composition."""
    comp = _as_setup(setup).normalized_composition
    return comp[-1], comp[:-1]


def dim_nilradical(setup: ParabolicSetup) -> int:
    """dim(u) for the nilradical of the parabolic: the positive roots less the Levi's,
    which has one gl(b) factor per block and, for B/C/D, a small factor of the tail's rank."""
    family = _as_setup(setup).family
    comp = setup.normalized_composition
    levi = 0  # twice the Levi's positive roots, halved once
    if family != "A":
        levi, comp = 2 * positive_roots(family, comp[-1]), comp[:-1]
    for b in comp:
        levi += b * (b - 1)
    return positive_roots(family, setup.n) - levi // 2
