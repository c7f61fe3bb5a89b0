"""Socularity of highest weight modules and Richardson orbits, combinatorially.

From a highest weight and a standard parabolic subalgebra of classical type:
Gelfand-Kirillov dimension, the socularity decision, and the Richardson-orbit
partition, with all intermediate objects (tableaux, hollow diagrams,
Z-diagrams, collapses) exposed.
"""

import sys
from importlib import import_module
from types import ModuleType

# Each module with the public names it exports.  A name resolves on first use
# (PEP 562): its module is imported and all of that module's names are bound
# here, after which they are plain module globals.
_EXPORTS = {
    "errors": ("DomainError", "FAMILIES", "IntegrityError"),
    "gkdim": ("gk_breakdown", "gk_dimension"),
    "hollow": ("f_stat", "hollow", "parity_profile", "render_diagram", "render_hollow"),
    "oracles": (
        "CongruenceClass",
        "CongruenceSplit",
        "EnumerationBudget",
        "collapse_oracle",
        "congruence_decompose",
        "expand_oracle",
        "restricted_transform_oracle",
        "richardson_oracle",
        "socular_enumeration",
        "tilde",
    ),
    "parabolic": ("SocularCertificate", "is_p_dominant", "is_socular"),
    "partitions": (
        "collapse",
        "dominates",
        "expand",
        "is_orbit_partition",
        "is_special",
        "partitions_of",
        "transpose",
    ),
    "richardson": ("RichardsonResult", "orbit_dimension", "richardson_partition"),
    "setups": (
        "ParabolicSetup",
        "dim_nilradical",
        "parabolic_from_composition",
        "parabolic_from_roots",
    ),
    "tableaux": ("render_tableau", "rs_shape", "rs_tableau", "shape"),
    "transforms": ("h_algorithm", "is_domino_type"),
    "weights": ("double", "is_integral", "parse_weight"),
    "zdiagram": ("ZDiagram", "z_closed_forms", "z_diagram"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    """Bind the names of the module that exports ``name``, or import the submodule ``name``, on first use."""
    if name in _MODULE_OF:
        source = _MODULE_OF[name]
        module = import_module(f"{__name__}.{source}")
        globals().update((export, getattr(module, export)) for export in _EXPORTS[source])
        return globals()[name]
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})


class _Package(ModuleType):
    """The package, whose exported names win over its submodules of the same name.

    Importing a submodule binds it on the package, and ``hollow`` names both a
    submodule and one of its functions: that binding is dropped, so the
    attribute resolves through ``__getattr__`` to the function in every
    import order.
    """

    def __setattr__(self, name, value):
        if name in _MODULE_OF and value is sys.modules.get(f"{__name__}.{name}"):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
