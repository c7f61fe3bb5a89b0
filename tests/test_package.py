"""The package surface: lazy exports and the immutable result records."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import socular
from socular import (
    CongruenceClass,
    EnumerationBudget,
    SocularCertificate,
    congruence_decompose,
    is_socular,
    parabolic_from_composition,
    richardson_partition,
    z_diagram,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
ORACLE_EXPORTS = (
    "EnumerationBudget",
    "collapse_oracle",
    "expand_oracle",
    "restricted_transform_oracle",
    "socular_enumeration",
)


def test_every_exported_name_resolves():
    from socular import oracles

    for name in socular.__all__:
        assert getattr(socular, name) is not None, name
    for name in ORACLE_EXPORTS:
        assert name in socular.__all__
        assert getattr(socular, name) is getattr(oracles, name)


def _fresh(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_star_import_binds_every_export():
    code = (
        "from socular import *; import socular; "
        "missing = [n for n in socular.__all__ if n not in globals()]; print(missing)"
    )
    assert _fresh(code) == "[]"


def test_bare_import_keeps_submodules_and_dir():
    code = (
        "import socular; "
        "print(hasattr(socular, 'gkdim'), hasattr(socular, 'tableaux'), set(socular.__all__) <= set(dir(socular)))"
    )
    assert _fresh(code) == "True True True"


def _bench_import() -> str:
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    return next(ast.unparse(n) for n in tree.body if isinstance(n, ast.ImportFrom) and n.module == "socular")


# ``socular.hollow`` is a submodule and a function of it; the function must win
IMPORT_ORDERS = {
    "submodule-first": "import socular.hollow",
    "parabolic-first": "import socular.parabolic",
    "richardson-first": "import socular.richardson",
    "setups-first": "import socular.setups",
    "bench-imports": _bench_import(),
}


@pytest.mark.parametrize("statement", IMPORT_ORDERS.values(), ids=IMPORT_ORDERS)
def test_hollow_is_the_function_in_every_import_order(statement):
    code = f"{statement}; import socular, sys; print(socular.hollow is sys.modules['socular.hollow'].hollow)"
    assert _fresh(code) == "True"


def test_bare_import_loads_no_submodule():
    code = "import socular, sys; print(sorted(m for m in sys.modules if m.startswith('socular.')))"
    assert _fresh(code) == "[]"


def test_names_kept_where_importers_reach_them():
    # the benchmark imports check_family from gkdim and names spans after
    # __module__; tests reach z_type through parabolic
    from socular import gkdim, parabolic, setups

    assert gkdim.check_family is setups.check_family and gkdim.FAMILIES is socular.FAMILIES
    for name in ("ParabolicSetup", "dim_nilradical", "parabolic_from_composition", "parabolic_from_roots", "z_type"):
        assert getattr(parabolic, name) is getattr(setups, name), name
    modules = {
        "collapse": "partitions",
        "expand": "partitions",
        "h_algorithm": "transforms",
        "collapse_oracle": "oracles",
        "restricted_transform_oracle": "oracles",
    }
    for name, module in modules.items():
        assert getattr(socular, name).__module__ == f"socular.{module}", name


def _function_imports(path: Path) -> list[str]:
    """``file:line`` of every import statement inside a function body of a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append(f"{path.name}:{inner.lineno}")
    return found


def test_library_modules_import_at_module_level_only():
    # An import statement in a function runs on every call: a prototype that
    # imported inside is_socular's path lost socular-query 7.5% of ops_per_s
    # (11,383-11,543 -> 10,531-10,676 over 2 benchmark pairs) and added 10% to
    # its p50_ms.  Only the CLI, which runs one call per process, imports late.
    paths = sorted((ROOT / "src" / "socular").glob("*.py"))
    assert len(paths) > 10
    found = [line for path in paths if path.name != "cli.py" for line in _function_imports(path)]
    assert found == []


def test_unknown_attribute_raises_the_usual_error():
    with pytest.raises(AttributeError, match=r"^module 'socular' has no attribute 'no_such_name'$"):
        socular.no_such_name
    assert not hasattr(socular, "check_socular")  # only the exported oracle names resolve lazily


def test_every_library_cache_is_bounded():
    # a long-running process must not grow without bound: every lru_cache of
    # the package has a finite maxsize, and hollow shapes are not cached at all
    sizes = {}
    for info in pkgutil.iter_modules(socular.__path__):
        module = importlib.import_module(f"socular.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                sizes[f"{info.name}.{name}"] = obj.cache_info().maxsize
    assert {"tableaux.rs_shape", "oracles._orbit_partitions", "oracles._orbit_partitions_by_hollow"} <= set(sizes)
    assert all(size is not None for size in sizes.values()), sizes
    assert not [name for name in sizes if name.startswith("hollow.")]


def _records():
    setup = parabolic_from_composition("B", (2, 1, 1))
    cls = CongruenceClass(positions=(1, 3), values=(Fraction(1, 2), Fraction(-3, 2)))
    return [
        (cls, ("positions", "values")),
        (
            congruence_decompose((Fraction(1, 2), 2, Fraction(-3, 2), Fraction(1, 3)), "bcd"),
            ("grouping", "integral", "half_integral", "others"),
        ),
        (setup, ("family", "n", "excluded", "composition", "normalized_composition")),
        (
            is_socular((-5, -6, -4, 2), setup),
            ("verdict", "gk", "dim_u", "reason", "candidate_hollow", "target_hollow"),
        ),
        (richardson_partition(parabolic_from_composition("D", (2, 2, 0))), ("partition", "very_even", "numeral")),
        (z_diagram(1, (2, 1)), ("a0", "bs", "column_heights", "shape")),
        (EnumerationBudget(), ("max_total", "entry_window", "max_n")),
    ]


RECORDS = _records()
IDS = [type(rec).__name__ for rec, _ in RECORDS]


@pytest.mark.parametrize("rec, fields", RECORDS, ids=IDS)
def test_record_fields_cannot_be_assigned(rec, fields):
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))


@pytest.mark.parametrize("rec, fields", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records(rec, fields):
    values = [getattr(rec, f) for f in fields]
    twin = type(rec)(**dict(zip(fields, values)))
    assert twin == rec and hash(twin) == hash(rec)
    # named tuples: they unpack, and equal a plain tuple of the same values
    assert list(rec) == values and rec == tuple(values)


@pytest.mark.parametrize("rec, fields", RECORDS, ids=IDS)
def test_record_repr_names_every_field(rec, fields):
    body = ", ".join(f"{f}={getattr(rec, f)!r}" for f in fields)
    assert repr(rec) == f"{type(rec).__name__}({body})"


# record reprs appear in oracle failure lines, so their format is kept exactly
REPR_GOLDEN = {
    "CongruenceClass": "CongruenceClass(positions=(1, 3), values=(Fraction(1, 2), Fraction(-3, 2)))",
    "CongruenceSplit": (
        "CongruenceSplit(grouping='bcd', integral=CongruenceClass(positions=(2,), values=(Fraction(2, 1),)), "
        "half_integral=CongruenceClass(positions=(1, 3), values=(Fraction(1, 2), Fraction(-3, 2))), "
        "others=(CongruenceClass(positions=(4,), values=(Fraction(1, 3),)),))"
    ),
    "ParabolicSetup": (
        "ParabolicSetup(family='B', n=4, excluded=frozenset({2, 3}), composition=(2, 1, 1), "
        "normalized_composition=(2, 1, 1))"
    ),
    "RichardsonResult": "RichardsonResult(partition=(4, 4), very_even=True, numeral='undetermined')",
    "ZDiagram": "ZDiagram(a0=1, bs=(2, 1), column_heights=(2, 2, 2, 1, 1), shape=(5, 3))",
    "EnumerationBudget": "EnumerationBudget(max_total=14, entry_window=(-3, 3), max_n=3)",
}


def test_record_repr_golden():
    reprs = {type(rec).__name__: repr(rec) for rec, _ in RECORDS}
    for name, line in REPR_GOLDEN.items():
        assert reprs[name] == line


def test_certificate_hollow_fields_default_to_none():
    cert = SocularCertificate(verdict=True, gk=7, dim_u=7, reason="gk-equality")
    assert cert.candidate_hollow is None and cert.target_hollow is None
