"""Standard parabolic subalgebras: compositions, dim(u), dominance, socularity.

A standard parabolic of family X and rank n is named by the set of excluded
simple roots (Delta minus I).  Cutting {1..n-1} at the excluded indices gives
the block sizes (n_1,...,n_k); excluding the last simple root alpha_n appends
a zero tail block.  For so(2n) a tail block of size 1 names the same parabolic
as merging it into the previous block with a zero tail, so that form is kept
as the normalized composition; dominance tests still use the original excluded
set, while dim(u), socularity targets and Richardson data use the normalized
composition.
"""

from dataclasses import dataclass

from .errors import DomainError, IntegrityError
from .gkdim import check_family, gk_dimension
from .hollow import HollowShape, hollow
from .partitions import transpose
from .tableaux import rs_shape
from .weights import double, exact_entries, is_integral
from .zdiagram import z_diagram


@dataclass(frozen=True)
class ParabolicSetup:
    family: str
    n: int
    excluded: frozenset[int]
    composition: tuple[int, ...]
    normalized_composition: tuple[int, ...]


@dataclass(frozen=True)
class SocularCertificate:
    verdict: bool
    gk: int
    dim_u: int
    reason: str  # "hollow-match", "gk-equality" or "typeA-shape"
    candidate_hollow: HollowShape | None = None
    target_hollow: HollowShape | None = None


def _normalize(family: str, composition: tuple[int, ...]) -> tuple[int, ...]:
    if family == "D" and composition[-1] == 1 and len(composition) >= 2:
        return composition[:-2] + (composition[-2] + 1, 0)
    return composition


def parabolic_from_roots(family: str, n: int, excluded) -> ParabolicSetup:
    """Setup from the excluded simple-root indices (subset of {1..n})."""
    check_family(family, n)
    excluded = frozenset(excluded)
    top = n - 1 if family == "A" else n
    for i in excluded:
        if not isinstance(i, int) or i < 1 or i > top:
            raise DomainError(f"excluded root index {i!r} outside 1..{top} for {family}{n}")
    cuts = sorted(i for i in excluded if i <= n - 1)
    blocks = tuple(b - a for a, b in zip([0] + cuts, cuts))
    rest = n - (cuts[-1] if cuts else 0)
    if family != "A" and n in excluded:
        composition = blocks + (rest, 0)
    else:
        composition = blocks + (rest,)
    return ParabolicSetup(
        family=family,
        n=n,
        excluded=excluded,
        composition=composition,
        normalized_composition=_normalize(family, composition),
    )


def parabolic_from_composition(family: str, composition) -> ParabolicSetup:
    """Setup from a composition (n_1,...,n_k); only the last part may be 0."""
    composition = tuple(composition)
    if not composition:
        raise DomainError("empty composition")
    for i, v in enumerate(composition):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise DomainError(f"composition parts must be non-negative integers: {composition}")
        if v == 0 and (family == "A" or i != len(composition) - 1):
            raise DomainError(f"only the last part of a B/C/D composition may be 0: {composition}")
    n = sum(composition)
    check_family(family, n)
    prefix = 0
    excluded = set()
    for v in composition[:-1]:
        prefix += v
        excluded.add(prefix)
    return ParabolicSetup(
        family=family,
        n=n,
        excluded=frozenset(excluded),
        composition=composition,
        normalized_composition=_normalize(family, composition),
    )


def z_type(setup: ParabolicSetup) -> tuple[int, tuple[int, ...]]:
    """The Z-diagram type (n_k; n_1,...,n_{k-1}) of the normalized composition."""
    comp = setup.normalized_composition
    return comp[-1], comp[:-1]


def dim_nilradical(setup: ParabolicSetup) -> int:
    """dim(u) for the nilradical of the parabolic, via the Levi root count."""
    n = setup.n
    comp = setup.normalized_composition
    if setup.family == "A":
        return (n * n - sum(v * v for v in comp)) // 2
    blocks, tail = comp[:-1], comp[-1]
    levi = sum(b * (b - 1) for b in blocks) // 2 + tail * tail
    if setup.family == "D":
        levi -= tail
        return n * n - n - levi
    return n * n - levi


def _positive_integer(v) -> bool:
    # v is an int or a Fraction; both carry a denominator
    return v > 0 and v.denominator == 1


def is_p_dominant(weight, setup: ParabolicSetup) -> bool:
    """Whether F(lambda) is a finite-dimensional module of the Levi factor.

    Checked on the original excluded set: every retained simple root must pair
    with the weight to a positive integer.
    """
    w = exact_entries(weight)
    n = setup.n
    if len(w) != n:
        raise DomainError(f"weight length {len(w)} != rank {n}")
    for i in range(1, n):
        if i not in setup.excluded and not _positive_integer(w[i - 1] - w[i]):
            return False
    if setup.family != "A" and n not in setup.excluded:
        if setup.family == "B":
            v = 2 * w[n - 1]
        elif setup.family == "C":
            v = w[n - 1]
        else:
            v = w[n - 2] + w[n - 1]
        if not _positive_integer(v):
            return False
    return True


def _integral_criterion(w: tuple, setup: ParabolicSetup):
    """The combinatorial socularity test of an integral weight.

    Returns (verdict, reason, candidate hollow, target hollow).  Type A
    compares the transposed tableau shape with the sorted composition; B/C/D
    match the hollow shape of the doubled weight against the Z-diagram.
    """
    if setup.family == "A":
        want = tuple(sorted(setup.normalized_composition, reverse=True))
        return transpose(rs_shape(w)) == want, "typeA-shape", None, None
    parity = "odd" if setup.family in ("B", "C") else "even"
    a0, bs = z_type(setup)
    candidate = hollow(rs_shape(double(w)), parity)
    target = hollow(z_diagram(a0, bs).shape, parity)
    return candidate == target, "hollow-match", candidate, target


def is_socular(weight, setup: ParabolicSetup) -> SocularCertificate:
    """Decide whether L(lambda) lies in the socle of a generalized Verma module.

    Integral weights use the combinatorial criteria (tableau transpose for A,
    hollow-shape match against the Z-diagram for B/C/D); non-integral weights
    are decided by GK dimension reaching dim(u).
    """
    w = tuple(weight)
    if not is_p_dominant(w, setup):
        raise DomainError("L(lambda) not in O^p: weight is not p-dominant")
    gk = gk_dimension(w, setup.family)
    du = dim_nilradical(setup)
    if is_integral(w):
        verdict, reason, candidate, target = _integral_criterion(w, setup)
    else:
        verdict, reason, candidate, target = gk == du, "gk-equality", None, None
    if verdict and gk != du:
        raise IntegrityError(
            f"socular verdict with GKdim {gk} != dim(u) {du} for {w} in {setup}"
        )
    return SocularCertificate(
        verdict=verdict,
        gk=gk,
        dim_u=du,
        reason=reason,
        candidate_hollow=candidate,
        target_hollow=target,
    )
