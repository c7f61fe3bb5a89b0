"""Richardson-orbit partitions for standard parabolic subalgebras.

The Richardson orbit is the dense orbit in G.u; its partition comes from the
Z-diagram of the parabolic type: transpose of the sorted composition for A,
the X-collapse of the Z-diagram shape for C and D, and for B the collapse of
that shape with one box added at row 2*n_k + 1.
"""

from typing import NamedTuple

from .errors import FAMILIES, DomainError, IntegrityError
from .partitions import Partition, _collapse, _transpose, as_partition
from .setups import ParabolicSetup, _as_setup, z_type
from .zdiagram import z_diagram


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
    tail, blocks = z_type(setup)
    shape = z_diagram(tail, blocks).shape
    if family == "B":
        parts = list(shape)
        idx = 2 * tail
        if idx < len(parts):
            parts[idx] += 1
        elif idx == len(parts):
            parts.append(1)
        else:
            raise IntegrityError(f"Z-diagram {shape} shorter than 2*n_k = {idx}")
        part = _collapse(parts, "B")
    else:
        part = _collapse(list(shape), family)
    very_even = family == "D" and all(v % 2 == 0 for v in part)
    return RichardsonResult(part, very_even=very_even, numeral="undetermined" if very_even else None)


def orbit_dimension(partition, family: str) -> int:
    """Dimension of the nilpotent orbit labeled by ``partition``.

    With q the transpose and m the total: A gives m^2 - sum q_i^2; the
    orthogonal families give m(m-1)/2 - (sum q_i^2 - #odd parts)/2; the
    symplectic family gives m(m+1)/2 - (sum q_i^2 + #odd parts)/2.
    """
    p = as_partition(partition)
    if family not in FAMILIES:
        raise DomainError(f"family must be one of {FAMILIES}, got {family!r}")
    m = sum(p)
    sq = sum(c * c for c in _transpose(p))
    odd = sum(1 for v in p if v % 2 == 1)
    # sq and odd always share the parity of m, so the halves below are exact
    if family == "A":
        return m * m - sq
    if family == "C":
        return m * (m + 1) // 2 - (sq + odd) // 2
    return m * (m - 1) // 2 - (sq - odd) // 2
