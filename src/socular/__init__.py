"""Socularity of highest weight modules and Richardson orbits, combinatorially.

From a highest weight and a standard parabolic subalgebra of classical type:
Gelfand-Kirillov dimension, the socularity decision, and the Richardson-orbit
partition, with all intermediate objects (tableaux, hollow diagrams,
Z-diagrams, collapses) exposed.
"""

from .errors import DomainError, IntegrityError
from .gkdim import FAMILIES, gk_breakdown, gk_dimension
from .hollow import f_stat, f_stat_sequence, hollow, parity_profile, render_diagram, render_hollow
from .parabolic import (
    ParabolicSetup,
    SocularCertificate,
    dim_nilradical,
    is_p_dominant,
    is_socular,
    parabolic_from_composition,
    parabolic_from_roots,
)
from .partitions import (
    collapse,
    dominates,
    expand,
    is_orbit_partition,
    is_special,
    parse_partition,
    partitions_of,
    transpose,
)
from .richardson import RichardsonResult, orbit_dimension, richardson_partition
from .tableaux import render_tableau, rs_insert, rs_shape, rs_tableau, shape
from .transforms import h_algorithm, is_domino_type, two_core
from .weights import (
    CongruenceClass,
    CongruenceSplit,
    congruence_decompose,
    double,
    is_integral,
    parse_weight,
    tilde,
)
from .zdiagram import ZDiagram, z_closed_forms, z_diagram

__all__ = [
    "DomainError",
    "IntegrityError",
    "FAMILIES",
    "gk_breakdown",
    "gk_dimension",
    "f_stat",
    "f_stat_sequence",
    "hollow",
    "parity_profile",
    "render_diagram",
    "render_hollow",
    "EnumerationBudget",
    "collapse_oracle",
    "expand_oracle",
    "restricted_transform_oracle",
    "socular_enumeration",
    "ParabolicSetup",
    "SocularCertificate",
    "dim_nilradical",
    "is_p_dominant",
    "is_socular",
    "parabolic_from_composition",
    "parabolic_from_roots",
    "collapse",
    "dominates",
    "expand",
    "is_orbit_partition",
    "is_special",
    "parse_partition",
    "partitions_of",
    "transpose",
    "RichardsonResult",
    "orbit_dimension",
    "richardson_partition",
    "render_tableau",
    "rs_insert",
    "rs_shape",
    "rs_tableau",
    "shape",
    "h_algorithm",
    "is_domino_type",
    "two_core",
    "CongruenceClass",
    "CongruenceSplit",
    "congruence_decompose",
    "double",
    "is_integral",
    "parse_weight",
    "tilde",
    "ZDiagram",
    "z_closed_forms",
    "z_diagram",
]

# The brute-force oracles load on first use (PEP 562), so ``import socular``
# does not pay for them.
_ORACLE_EXPORTS = {
    "EnumerationBudget",
    "collapse_oracle",
    "expand_oracle",
    "restricted_transform_oracle",
    "socular_enumeration",
}


def __getattr__(name: str):
    if name in _ORACLE_EXPORTS:
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
