"""p-dominance and socularity of highest weights for standard parabolic subalgebras.

The parabolic itself (:class:`ParabolicSetup`, its two constructors,
:func:`z_type` and :func:`dim_nilradical`) is built in :mod:`socular.setups`,
which needs no weight; this module re-exports those names.  Dominance tests
use the original excluded set, socularity targets the normalized composition.
"""

from typing import NamedTuple

from .errors import DomainError, IntegrityError
from .gkdim import _gk
from .hollow import FAMILY_PARITY, _hollow_key
from .partitions import _transpose
from .setups import (  # the constructors are re-exported for importers of this module
    ParabolicSetup,
    _as_setup,
    dim_nilradical,
    parabolic_from_composition,
    parabolic_from_roots,
    z_type,
)
from .tableaux import rs_shape
from .weights import integer_entries
from .zdiagram import z_diagram


class SocularCertificate(NamedTuple):
    verdict: bool
    gk: int
    dim_u: int
    reason: str  # "hollow-match", "gk-equality" or "typeA-shape"
    # integral B/C/D: the hollow keys (per-row box counts) of the two shapes compared
    candidate_hollow: tuple[int, ...] | None = None
    target_hollow: tuple[int, ...] | None = None


def _positive_multiple(x: int, d: int) -> bool:
    """Whether x/d is a positive integer."""
    return x > 0 and x % d == 0


def _p_dominant(nums: list[int], dens: list[int], setup: ParabolicSetup) -> bool:
    """:func:`is_p_dominant` of the ``setup.n`` reduced entries ``nums[i] / dens[i]``, unchecked.

    a/d - b/e is a positive integer only when d == e and a - b is a positive
    multiple of d; sums alike.
    """
    for i in range(1, setup.n):
        if i not in setup.excluded:
            d = dens[i - 1]
            if dens[i] != d or not _positive_multiple(nums[i - 1] - nums[i], d):
                return False
    return _tail_dominant(nums, dens, setup)


def _tail_dominant(nums: list[int], dens: list[int], setup: ParabolicSetup) -> bool:
    """The tail root's part of :func:`_p_dominant`: alpha_n, when B/C/D retain it,
    pairs with the weight to a positive integer; unchecked."""
    n = setup.n
    if setup.family == "A" or n in setup.excluded:
        return True
    x, d = nums[n - 1], dens[n - 1]
    if setup.family == "B":
        return _positive_multiple(2 * x, d)
    if setup.family == "C":
        return _positive_multiple(x, d)
    return dens[n - 2] == d and _positive_multiple(nums[n - 2] + x, d)


def _read(weight, setup: ParabolicSetup) -> tuple[list[int], list[int]]:
    """:func:`integer_entries` of a weight whose length is checked against the rank of a checked setup."""
    nums, dens = integer_entries(weight)
    if len(nums) != _as_setup(setup).n:
        raise DomainError(f"weight length {len(nums)} != rank {setup.n}")
    return nums, dens


def is_p_dominant(weight, setup: ParabolicSetup) -> bool:
    """Whether F(lambda) is a finite-dimensional module of the Levi factor.

    Checked on the original excluded set: every retained simple root must pair
    with the weight to a positive integer.
    """
    return _p_dominant(*_read(weight, setup), setup)


def _integral_target(setup: ParabolicSetup):
    """The setup's side of the integral socularity test: the sorted composition
    for A, the hollow key of the Z-diagram for B/C/D."""
    if setup.family == "A":
        return tuple(sorted(setup.normalized_composition, reverse=True))
    a0, bs = z_type(setup)
    return _hollow_key(z_diagram(a0, bs).shape, FAMILY_PARITY[setup.family])


def _integral_candidate(shape, family: str):
    """The weight's side of the integral socularity test, from its one class's shape:
    the transposed shape for A, the hollow key of the doubled weight's for B/C/D."""
    if family == "A":
        return _transpose(shape)
    return _hollow_key(shape, FAMILY_PARITY[family])


def is_socular(weight, setup: ParabolicSetup) -> SocularCertificate:
    """Decide whether L(lambda) lies in the socle of a generalized Verma module.

    Integral weights use the combinatorial criteria on the shape of their one
    class in the GK call: type A compares the transposed shape with the sorted
    composition, B/C/D match the hollow key of the doubled weight's shape
    against the Z-diagram's and certify both keys.  Non-integral weights are
    decided by GK dimension reaching dim(u).  Either way the verdict must be
    GK dimension reaching dim(u), the paper's theorem, checked both ways.
    """
    nums, dens = _read(weight, setup)
    if not _p_dominant(nums, dens, setup):
        raise DomainError("L(lambda) not in O^p: weight is not p-dominant")
    gk, _, classes = _gk(nums, dens, setup.family)
    du = dim_nilradical(setup)
    candidate = target = None
    if dens.count(1) != len(dens):
        verdict, reason = gk == du, "gk-equality"
    else:
        # The shape is looked up again, a cache hit, instead of read from
        # classes[0][4]: the benchmark's traced twin of is_socular makes the same
        # second call, and tests/test_bench_trace.py requires its rs_shape hits
        # and misses to equal the library's.  The two calls go together.
        keys = _integral_candidate(rs_shape(classes[0][3]), setup.family), _integral_target(setup)
        verdict, reason = keys[0] == keys[1], "typeA-shape" if setup.family == "A" else "hollow-match"
        if setup.family != "A":  # the certificate carries the hollow keys of B/C/D
            candidate, target = keys
    if verdict != (gk == du):
        if verdict:
            raise IntegrityError(
                f"socular verdict with GKdim {gk} != dim(u) {du} for {weight} in {setup}"
            )
        raise IntegrityError(
            f"non-socular verdict with GKdim {gk} == dim(u) {du} for {weight} in {setup}"
        )
    return SocularCertificate(verdict, gk, du, reason, candidate, target)
