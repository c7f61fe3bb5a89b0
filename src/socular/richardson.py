"""Richardson-orbit partitions for standard parabolic subalgebras.

The Richardson orbit is the dense orbit in G.u; its partition comes from the
Z-diagram of the parabolic type: transpose of the sorted composition for A,
and for B, C and D the collapse of the Z-shape whose tail column holds the
zero orbit of the small Levi factor, 2*n_k + 1 boxes for B and 2*n_k for C and D.
"""

from typing import NamedTuple

from .errors import FAMILIES, DomainError
from .partitions import Partition, _collapse, _is_orbit, _transpose, as_partition
from .setups import ParabolicSetup, _as_setup
from .zdiagram import _z_shape


class RichardsonResult(NamedTuple):
    partition: Partition
    very_even: bool
    numeral: str | None  # "undetermined" exactly when very_even


def richardson_partition(setup: ParabolicSetup) -> RichardsonResult:
    family = _as_setup(setup).family
    comp = setup.normalized_composition
    if family == "A":
        part = _transpose(tuple(sorted(comp, reverse=True)))
        return RichardsonResult(part, very_even=False, numeral=None)
    part = _collapse(list(_z_shape(2 * comp[-1] + (family == "B"), comp[:-1])), family)
    very_even = family == "D" and all(v % 2 == 0 for v in part)
    return RichardsonResult(part, very_even=very_even, numeral="undetermined" if very_even else None)


def orbit_dimension(partition, family: str) -> int:
    """Dimension of the nilpotent orbit labeled by ``partition``.

    With q the transpose and m the total: A gives m^2 - sum q_i^2; the
    orthogonal families give m(m-1)/2 - (sum q_i^2 - #odd parts)/2; the
    symplectic family gives m(m+1)/2 - (sum q_i^2 + #odd parts)/2.  The sum
    of squared column heights is read off the rows as sum (2i-1) p_i.  A B/C/D
    partition must label an orbit of its family (:func:`is_orbit_partition`).
    """
    p = as_partition(partition)
    if family not in FAMILIES:
        raise DomainError(f"family must be one of {FAMILIES}, got {family!r}")
    if family != "A" and not _is_orbit(p, family):
        raise DomainError(f"{p} is not an orbit partition of type {family}")
    m = sum(p)
    sq = sum((2 * i + 1) * v for i, v in enumerate(p))
    odd = sum(1 for v in p if v % 2 == 1)
    # sq and odd always share the parity of m, so the halves below are exact
    if family == "A":
        return m * m - sq
    if family == "C":
        return m * (m + 1) // 2 - (sq + odd) // 2
    return m * (m - 1) // 2 - (sq - odd) // 2
