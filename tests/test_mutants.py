"""A mutant table: each rewritten kernel, broken one plausible way, must be caught.

A row names a kernel, one edit to its source text and what must catch the
edited kernel: a named test, which must then fail, or an oracle check at a
small budget, which must then report mismatch lines.  The edit is made to the
source that ``inspect`` reads, the function is rebuilt to read its own
module's names (a decorated one reads a copy of them), so that a killer's own
patches reach it, and every name in the library and test modules that is
bound to the original is pointed at the mutant for the duration of the row.
Before that, the killer must pass on the real kernel, so that a row proves a
catch and not a killer that always fails.
"""

import importlib
import inspect
import sys
import types

import pytest

import test_gkdim
import test_hollow
import test_oracles
import test_parabolic
import test_partitions
import test_transforms
import test_weights
from socular import gkdim, oracles, parabolic, partitions, tableaux, transforms, zdiagram
from socular.oracles import EnumerationBudget, check_collapse, check_expand, check_socular

# ``from socular import hollow`` binds the function, not the module
hollow = importlib.import_module("socular.hollow")
weights = importlib.import_module("socular.weights")

SMALL = EnumerationBudget(max_total=8, entry_window=(-2, 2), max_n=2)
# rank 5 doubles to words of 10 entries: rs_shape row-inserts words of at most 8
LONG_WORDS = EnumerationBudget(max_total=8, entry_window=(-1, 1), max_n=5)


def _every_integer_entries_row():
    for row in test_weights.INTEGER_ENTRIES:
        test_weights.test_integer_entries_reads_plain_ints(*row)


def _disagreeing_weights_in_order():
    with pytest.MonkeyPatch.context() as patch:
        test_oracles.test_check_socular_names_each_disagreeing_weight_in_order(patch)


# kernel, the text its source must hold once, the text that replaces it, the killer
MUTANTS = {
    "p-dominance-takes-a-zero-step": (
        parabolic._p_dominant,
        "x <= 0",
        "x < 0",
        test_parabolic.test_p_dominance_matches_the_fraction_definition,
    ),
    "z-shape-one-column-per-b": (
        zdiagram._z_shape,
        "(tail, *bs, *bs)",
        "(tail, *bs)",
        # not check_richardson: the odd C totals this gives stop the collapse kernel with an IntegrityError
        lambda: check_socular(SMALL),
    ),
    "rs-shape-columns-untransposed": (
        tableaux.rs_shape,
        "return _transpose(tuple(map(len, cols)))",
        "return tuple(map(len, cols))",
        lambda: check_socular(LONG_WORDS),
    ),
    "half-integral-class-keyed-0-2": (
        gkdim._classes,
        "[((d - 1, d), range(n))]",
        "[((0, d), range(n))]",
        test_gkdim.test_classes_over_different_denominators_keep_apart_in_the_cache,
    ),
    "window-facts-reads-d-integral-with-f-b": (
        oracles._shape_facts,
        '"d" if family == "D"',
        '"b" if family == "D"',
        # the oracle's own statistic: D's maxima miss dim u
        lambda: [f for f in check_socular(SMALL) if "max GK" in f],
    ),
    "check-socular-skips-the-per-weight-fallback": (
        oracles.check_socular,
        "if all((candidate == target) == (g == best) for g, candidate in pairs):",
        "if True:",
        # a wrong criterion target makes pairs disagree, and only the fallback names their weights
        _disagreeing_weights_in_order,
    ),
    "gk-dimension-skips-the-family-check": (
        gkdim.gk_dimension,
        "check_family(family, len(nums))",
        "None",
        test_gkdim.test_family_validation,
    ),
    "expand-collapses-in-its-own-family": (
        partitions.expand,
        "_collapse(list(q), dual)",
        "_collapse(list(q), family)",
        lambda: check_expand(SMALL),
    ),
    "tilde-leaves-the-other-residue-unnegated": (
        weights.tilde_numerators,
        "[-x for x in reversed(nums)",
        "[x for x in reversed(nums)",
        test_gkdim.test_breakdown_golden_record,
    ),
    "integer-entries-drops-the-denominator": (
        weights.integer_entries,
        "dens.append(d)",
        "dens.append(1)",
        test_gkdim.test_breakdown_golden_record,
    ),
    "integer-entries-tests-only-the-first-for-int": (
        weights.integer_entries,
        "for v in w:\n        if type(v) is not int:",
        "for v in w[:1]:\n        if type(v) is not int:",
        # parse_weight gives a mixed weight whose first entry is an int whenever its text starts with one
        _every_integer_entries_row,
    ),
    "f-stat-counts-rows-from-1": (
        hollow._f_stat,
        "total = i = 0",
        "total, i = 0, 1",
        test_hollow.test_f_stat_a_row_form,
    ),
    "class-buckets-never-fold": (
        weights.class_buckets,
        "2 * r > d",
        "r > d",
        test_gkdim.test_breakdown_golden_record,
    ),
    "row-counts-never-alternate": (
        hollow._row_counts,
        "lead = not lead",
        "lead = lead",
        # not check_halg: the H-algorithm's own self-check stops this mutant with an IntegrityError
        test_hollow.test_closed_forms_match_cell_enumeration,
    ),
    "collapse-lowers-the-first-of-the-block": (
        partitions._collapse,
        "parts[end - 1] = q - 1",
        "parts[k] = q - 1",
        lambda: check_collapse(SMALL),
    ),
    "collapse-restarts-from-the-first-block": (
        partitions._collapse,
        "            parts.append(1)\n    return tuple(parts)",
        "            parts.append(1)\n        k = 0\n    return tuple(parts)",
        # the restarted walk gives the same answer, only its cost grows faster
        test_partitions.test_collapse_cost_grows_linearly,
    ),
    "is-special-pairs-the-other-heights": (
        partitions._is_special,
        'range(dual == "B"',
        'range(dual != "B"',
        # the oracle table reads specialness off the transpose, not through this kernel
        lambda: check_expand(SMALL),
    ),
    "pair-blocked-on-a-full-row": (
        transforms._pair_blocked,
        "last[i] < p[i]",
        "last[i] <= p[i]",
        test_transforms.test_h_algorithm_matches_oracle_smoke,
    ),
    "tail-dominant-reads-b-as-c": (
        parabolic._tail_dominant,
        "return _positive_multiple(2 * x, d)",
        "return _positive_multiple(x, d)",
        test_parabolic.test_p_dominance_matches_the_fraction_definition,
    ),
}


def _mutant(kernel, old: str, new: str):
    """``kernel`` rebuilt from its source with ``old`` replaced by ``new``, decorators included."""
    source = inspect.getsource(kernel)
    assert source.count(old) == 1, f"{kernel.__qualname__} no longer holds {old!r} once"
    module = vars(sys.modules[kernel.__module__])
    namespace = dict(module)
    exec(compile(source.replace(old, new), f"<mutant of {kernel.__qualname__}>", "exec"), namespace)
    built = namespace[kernel.__name__]
    if not isinstance(built, types.FunctionType):  # a decorated kernel keeps the copy's names
        return built
    # a plain function reads the module's own names, so a killer's patches reach it
    mutant = types.FunctionType(built.__code__, module, built.__name__, built.__defaults__, built.__closure__)
    mutant.__kwdefaults__ = built.__kwdefaults__
    return mutant


def _failures(killer) -> list[str]:
    """The mismatch lines a check returns, or the failure of a named test."""
    try:
        return killer() or []
    except AssertionError as exc:
        return [f"AssertionError: {exc}"]


@pytest.mark.parametrize("row", MUTANTS)
def test_every_mutant_is_killed(row, monkeypatch):
    kernel, old, new, killer = MUTANTS[row]
    tableaux.rs_shape.cache_clear()
    assert _failures(killer) == []
    mutant = _mutant(kernel, old, new)
    bound = [
        (module, name)
        for module_name, module in list(sys.modules.items())
        if module_name.startswith(("socular", "test_"))
        for name, value in list(vars(module).items())
        if value is kernel
    ]
    assert bound, kernel
    for module, name in bound:
        monkeypatch.setattr(module, name, mutant)
    tableaux.rs_shape.cache_clear()
    assert _failures(killer), f"{row} survived"
