"""The package surface: lazy exports and the immutable result records."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest

import socular
from socular import (
    CongruenceClass,
    DomainError,
    EnumerationBudget,
    SocularCertificate,
    congruence_decompose,
    is_socular,
    parabolic_from_composition,
    parabolic_from_roots,
    partitions_of,
    richardson_partition,
    rs_shape,
    z_diagram,
)
from socular.errors import check_family, read_int
from socular.hollow import f_stat_column_form
from socular.oracles import check_collapse, check_socular
from socular.partitions import as_partition
from socular.setups import z_type
from socular.weights import parse_rational

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
ORACLE_EXPORTS = (
    "EnumerationBudget",
    "collapse_oracle",
    "expand_oracle",
    "restricted_transform_oracle",
    "richardson_oracle",
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
    # exactly these: a second table beside one of them is a forked cache
    assert set(sizes) == {"tableaux.rs_shape", "oracles._orbit_table"}
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


def _setup():
    return parabolic_from_composition("B", (2, 1, 1))


# every public entry point that reads a partition, weight, word, composition,
# root set or Z-diagram type, called with the non-sequence 5 in that place
NOT_A_SEQUENCE = {
    "transpose": lambda: socular.transpose(5),
    "dominates-first": lambda: socular.dominates(5, (1,)),
    "dominates-second": lambda: socular.dominates((1,), 5),
    "is_orbit_partition": lambda: socular.is_orbit_partition(5, "B"),
    "is_special": lambda: socular.is_special(5, "B"),
    "collapse": lambda: socular.collapse(5, "B"),
    "expand": lambda: socular.expand(5, "B"),
    "parse_partition": lambda: socular.parse_partition(5),
    "parity_profile": lambda: socular.parity_profile(5),
    "hollow": lambda: socular.hollow(5, "odd"),
    "f_stat": lambda: socular.f_stat(5, "a"),
    "f_stat_column_form": lambda: f_stat_column_form(5, "b"),
    "render_diagram": lambda: socular.render_diagram(5),
    "render_hollow": lambda: socular.render_hollow(5, "odd"),
    "is_domino_type": lambda: socular.is_domino_type(5),
    "h_algorithm": lambda: socular.h_algorithm(5, "B"),
    "orbit_dimension": lambda: socular.orbit_dimension(5, "A"),
    "collapse_oracle": lambda: socular.collapse_oracle(5, "B"),
    "expand_oracle": lambda: socular.expand_oracle(5, "B"),
    "restricted_transform_oracle": lambda: socular.restricted_transform_oracle(5, "B"),
    "z_diagram": lambda: socular.z_diagram(1, 5),
    "z_closed_forms": lambda: socular.z_closed_forms(1, 5),
    "rs_tableau": lambda: socular.rs_tableau(5),
    "rs_insert": lambda: socular.rs_insert(5, 1),
    "rs_insert-row": lambda: socular.rs_insert((5,), 1),
    "shape": lambda: socular.shape(5),
    "shape-row": lambda: socular.shape((5,)),
    "rs_shape": lambda: socular.rs_shape(5),
    "f_stat_sequence": lambda: socular.f_stat_sequence(5, "a"),
    "parse_weight": lambda: socular.parse_weight(5),
    "parse_rational": lambda: parse_rational(5),
    "double": lambda: socular.double(5),
    "tilde": lambda: socular.tilde(5),
    "congruence_decompose": lambda: socular.congruence_decompose(5, "bcd"),
    "is_integral": lambda: socular.is_integral(5),
    "gk_dimension": lambda: socular.gk_dimension(5, "B"),
    "gk_breakdown": lambda: socular.gk_breakdown(5, "B"),
    "is_p_dominant": lambda: socular.is_p_dominant(5, _setup()),
    "is_socular": lambda: socular.is_socular(5, _setup()),
    "parabolic_from_composition": lambda: socular.parabolic_from_composition("B", 5),
    "parabolic_from_roots": lambda: socular.parabolic_from_roots("B", 3, 5),
    "check_socular": lambda: check_socular(EnumerationBudget(), families=5),
}


@pytest.mark.parametrize("name", NOT_A_SEQUENCE)
def test_every_public_boundary_refuses_a_non_sequence_as_bad_input(name):
    with pytest.raises(DomainError):
        NOT_A_SEQUENCE[name]()


# every entry point that reads a parabolic setup, called with the non-setup 5 in that place
NOT_A_SETUP = {
    "richardson_partition": lambda: socular.richardson_partition(5),
    "dim_nilradical": lambda: socular.dim_nilradical(5),
    "z_type": lambda: z_type(5),
    "is_p_dominant": lambda: socular.is_p_dominant((2, 1, 1, 1), 5),
    "is_socular": lambda: socular.is_socular((2, 1, 1, 1), 5),
    "richardson_oracle": lambda: socular.richardson_oracle(5),
    "socular_enumeration": lambda: socular.socular_enumeration(5, EnumerationBudget()),
}


@pytest.mark.parametrize("name", NOT_A_SETUP)
def test_every_setup_boundary_refuses_a_non_setup_as_bad_input(name):
    with pytest.raises(DomainError, match=r"^expected a ParabolicSetup, got 5$"):
        NOT_A_SETUP[name]()


class _Two(IntEnum):
    TWO = 2


# every int argument read by errors.is_int, as a function of the value passed
INT_ARGUMENTS = {
    "as_partition": lambda v: as_partition((v,)),
    "partitions_of": lambda v: list(partitions_of(v)),
    "check_family": lambda v: check_family("B", v),
    "parabolic_from_roots": lambda v: parabolic_from_roots("B", 3, {v}),
    "z_diagram": lambda v: z_diagram(v, (v,)),
    "rs_shape": lambda v: rs_shape((1, 3, 2), v),
    "EnumerationBudget": lambda v: check_collapse(EnumerationBudget(max_total=v, entry_window=(0, v), max_n=v)),
}


@pytest.mark.parametrize("name", INT_ARGUMENTS)
def test_one_int_rule_refuses_a_bool_and_accepts_an_int_subclass(name):
    call = INT_ARGUMENTS[name]
    with pytest.raises(DomainError):
        call(True)
    assert call(_Two.TWO) == call(2)


# int()'s grammar, and malformed text long enough that int() names the digit limit
INT_TEXTS = ["4", "+4", "-4", "1_0", " 7\t", "\u0663", "0004", "x", "", "1__0", "_1", "4.0", "1 2", "9" * 5000 + "x"]


@pytest.mark.parametrize("text", INT_TEXTS, ids=repr)
def test_read_int_reads_what_int_reads(text):
    try:
        want = int(text)
    except ValueError:
        with pytest.raises(ValueError) as exc:
            read_int(text)
        assert not isinstance(exc.value, DomainError)
    else:
        assert read_int(text) == want


@pytest.mark.parametrize("text", ["9" * 5000, " -1_" + "2" * 5000])
def test_read_int_refuses_a_well_formed_integer_past_the_digit_limit(text):
    with pytest.raises(DomainError, match=f"^an entry has more than {sys.get_int_max_str_digits()} digits"):
        read_int(text)


def test_an_int_subclass_gives_plain_int_parts():
    # equal and hashing alike, but a member's repr would show in messages and records
    for parts in [*partitions_of(_Two.TWO), *partitions_of(4, _Two.TWO), as_partition((_Two.TWO, 1))]:
        assert [type(v) for v in parts] == [int] * len(parts), parts
    assert repr(socular.transpose((_Two.TWO, _Two.TWO))) == "(2, 2)"


# names a module imports only for its importers (pinned by test_names_kept_where_importers_reach_them)
RE_EXPORTS = {("gkdim", "FAMILIES"), ("parabolic", "parabolic_from_composition"), ("parabolic", "parabolic_from_roots")}


def _unused_imports(path: Path) -> list[str]:
    """``file:name`` of every name a module-level import binds that the module never reads."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{name}"
        for name in bound
        if name not in read and (path.stem, name) not in RE_EXPORTS
    ]


def test_library_modules_read_every_name_they_import():
    paths = sorted((ROOT / "src" / "socular").glob("*.py"))
    assert len(paths) > 10
    assert [name for path in paths for name in _unused_imports(path)] == []
