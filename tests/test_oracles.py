import sys
from collections import Counter
from itertools import accumulate
from operator import ge

import pytest

from socular import (
    DomainError,
    EnumerationBudget,
    IntegrityError,
    collapse_oracle,
    dim_nilradical,
    double,
    expand,
    expand_oracle,
    gk_dimension,
    is_domino_type,
    is_orbit_partition,
    is_p_dominant,
    parabolic_from_composition,
    restricted_transform_oracle,
    richardson_oracle,
    richardson_partition,
    rs_shape,
    socular_enumeration,
    z_diagram,
)
from socular import gkdim, oracles, partitions, richardson
from socular.errors import FAMILIES
from socular.hollow import FAMILY_PARITY, _hollow_key
from socular.oracles import check_collapse, check_expand, check_halg, check_richardson, check_socular, integral_weights
from socular.parabolic import _integral_candidate, _integral_target, _p_dominant
from socular.partitions import ORBIT_FAMILIES, _dominates, _is_orbit, _is_special, partitions_of
from socular.richardson import RichardsonResult
from socular.setups import z_type

from helpers import mask_members


def test_collapse_oracle_fixed_points():
    assert collapse_oracle((7, 5, 5, 3, 3), "B") == (7, 5, 5, 3, 3)


def test_collapse_oracle_examples():
    assert collapse_oracle((5, 3), "C") == (4, 4)
    assert collapse_oracle((4, 4, 2), "D") == (4, 4, 1, 1)


def test_collapse_oracle_parity():
    with pytest.raises(DomainError):
        collapse_oracle((2, 2), "B")


def test_expand_matches_expand_oracle():
    for total in range(15):
        for p in partitions_of(total):
            for family in ORBIT_FAMILIES:
                if is_orbit_partition(p, family):
                    assert expand(p, family) == expand_oracle(p, family), (p, family)


def test_expand_oracle_rejects_non_orbit():
    with pytest.raises(DomainError):
        expand_oracle((3, 1), "C")


def test_restricted_transform_oracle_examples():
    assert restricted_transform_oracle((6, 4, 4, 4, 2, 2, 1, 1), "B") == (7, 4, 4, 3, 3, 1, 1, 1, 1)
    assert restricted_transform_oracle((5, 3), "C") == (4, 4)
    assert restricted_transform_oracle((5, 3, 3, 3, 3, 3, 2), "D") == (5, 3, 3, 3, 3, 3, 1, 1)


def test_restricted_transform_oracle_rejects_non_domino():
    with pytest.raises(DomainError):
        restricted_transform_oracle((3, 2, 1), "C")


def test_socular_enumeration_b2():
    setup = parabolic_from_composition("B", (1, 1))
    budget = EnumerationBudget(entry_window=(-3, 3), max_n=2)
    best, attaining = socular_enumeration(setup, budget)
    assert best == dim_nilradical(setup) == 3
    assert attaining  # the maximum is attained inside the window


def test_socular_enumeration_upper_bound():
    budget = EnumerationBudget(entry_window=(-3, 3), max_n=3)
    for comp in [(3,), (1, 2), (2, 1), (1, 1, 1), (2, 1, 0)]:
        setup = parabolic_from_composition("C", comp)
        best, _ = socular_enumeration(setup, budget)
        assert best <= dim_nilradical(setup)


def test_socular_enumeration_contains_paper_weight():
    setup = parabolic_from_composition("B", (2, 1, 1))
    budget = EnumerationBudget(entry_window=(-6, 6), max_n=4)
    best, attaining = socular_enumeration(setup, budget)
    assert best == dim_nilradical(setup) == 14
    assert (-5, -6, -4, 2) in attaining


def test_budget_rank_guard():
    setup = parabolic_from_composition("B", (2, 1, 1))
    with pytest.raises(DomainError):
        socular_enumeration(setup, EnumerationBudget(max_n=3))


@pytest.mark.parametrize("check", [check_collapse, check_expand, check_halg, check_socular, check_richardson])
@pytest.mark.parametrize(
    "budget, field",
    [(EnumerationBudget(max_total=-3), "max_total"), (EnumerationBudget(max_n=0), "max_n")],
)
def test_checks_refuse_a_budget_that_compares_nothing(check, budget, field):
    with pytest.raises(DomainError, match=f"bad budget {field}="):
        check(budget)


def test_checks_accept_the_smallest_budget():
    smallest = EnumerationBudget(max_total=0, entry_window=(0, 0), max_n=1)
    assert check_collapse(smallest) == check_halg(smallest) == check_socular(smallest) == []
    assert check_richardson(smallest) == check_expand(smallest) == []


def test_check_expand_agrees_at_the_default_budget():
    assert check_expand(EnumerationBudget()) == []


@pytest.mark.parametrize("families", [("A", "D"), ()])
def test_check_socular_refuses_families_that_compare_nothing(families):
    # A and D setups start at rank 2, so at max_n 1 they have no setup to compare
    with pytest.raises(DomainError, match="^nothing to compare"):
        check_socular(EnumerationBudget(max_n=1), families=families)


def test_check_socular_skips_window_without_dominant_weight():
    # B3 with composition (3,) needs x1 > x2 > x3 > 0: nothing inside +-2
    setup = parabolic_from_composition("B", (3,))
    budget = EnumerationBudget(entry_window=(-2, 2), max_n=3)
    assert socular_enumeration(setup, budget) == (-1, [])
    assert check_socular(budget, ("B",)) == []
    assert check_socular(budget, ("C",)) == []


def test_check_socular_still_reports_a_wrong_maximum(monkeypatch):
    budget = EnumerationBudget(entry_window=(-2, 2), max_n=2)
    real_facts = oracles._shape_facts
    monkeypatch.setattr(oracles, "_shape_facts", lambda sh, family, ambient: (0, *real_facts(sh, family, ambient)[1:]))
    failures = check_socular(budget, ("B",))
    assert failures and all("max GK 0 != dim u" in f for f in failures)


def test_check_socular_computes_gk_once_per_dominant_weight(monkeypatch):
    # one rs_shape lookup per distinct (family, weight) and one _shape_facts call per
    # distinct (family, rank, shape), however many setups of its rank hold it, and
    # no GK walk of the library
    budget = EnumerationBudget(entry_window=(-3, 3), max_n=2)
    dominant = {
        (family, w)
        for family in "ABCD"
        for setup in oracles._all_setups(family, budget.max_n)
        for w in integral_weights(setup.n, budget.entry_window)
        if is_p_dominant(w, setup)
    }
    # a shape's size, n for A and 2n for B/C/D, gives the rank
    shapes = {(family, rs_shape(w if family == "A" else double(w))) for family, w in dominant}
    calls = []
    real_facts = oracles._shape_facts

    def counting_facts(sh, family, ambient):
        calls.append((family, sh))
        return real_facts(sh, family, ambient)

    def no_second_path(*args):
        raise AssertionError("check_socular computes GK only through _shape_facts")

    monkeypatch.setattr(oracles, "_shape_facts", counting_facts)
    library_gk = (gkdim._gk, gkdim.gk_dimension)
    for name, module in list(sys.modules.items()):
        if name.startswith("socular"):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in library_gk):
                    monkeypatch.setattr(module, attr, no_second_path)
    rs_shape.cache_clear()
    assert check_socular(budget) == []
    info = rs_shape.cache_info()
    assert (len(dominant), len(shapes)) == (210, 21)
    assert len(calls) == len(set(calls))
    assert set(calls) == shapes
    # 98 distinct sequences: families share some, and the rest are hits
    assert (info.hits + info.misses, info.misses) == (len(dominant), 98)


def _odd_d_target(setup):
    """The criterion's target with D's Z-diagram read in odd parity: a wrong rule."""
    if setup.family != "D":
        return _integral_target(setup)
    a0, bs = z_type(setup)
    return _hollow_key(z_diagram(a0, bs).shape, "odd")


def test_check_socular_reports_a_wrong_criterion_target(monkeypatch):
    # D's Z-diagram read in odd parity: the criterion disagrees with GK
    # attainment on some weights, while every maximum is still dim u
    monkeypatch.setattr(oracles, "_integral_target", _odd_d_target)
    failures = check_socular(EnumerationBudget())
    assert len(failures) == 42
    assert all("criterion says" in f and "gk attainment says" in f for f in failures)
    assert not [f for f in failures if "max GK" in f]


def _per_weight_failures(budget, target) -> list[str]:
    """The failure lines of ``check_socular``, from one plain loop over every setup and weight.

    GK comes from the library's ``gk_dimension`` and the candidate from each
    weight's own shape; ``target`` gives each setup's side of the criterion.
    """
    failures = []
    for family in FAMILIES:
        for setup in oracles._all_setups(family, budget.max_n):
            dominant = [w for w in integral_weights(setup.n, budget.entry_window) if is_p_dominant(w, setup)]
            if not dominant:
                continue
            gks = [gk_dimension(w, family) for w in dominant]
            best, du = max(gks), dim_nilradical(setup)
            if best != du:
                failures.append(f"{setup}: max GK {best} != dim u {du}")
                continue
            for w, g in zip(dominant, gks):
                verdict = _integral_candidate(rs_shape(w if family == "A" else double(w)), family) == target(setup)
                if verdict != (g == best):
                    failures.append(f"{setup}, weight {w}: criterion says {verdict}, gk attainment says {g == best}")
    return failures


def test_check_socular_names_each_disagreeing_weight_in_order(monkeypatch):
    # the per-pair shortcut must fall back to the weights: the same lines, in the
    # same order, as a loop that judges every weight of every setup by itself
    budget = EnumerationBudget()
    want = _per_weight_failures(budget, _odd_d_target)
    monkeypatch.setattr(oracles, "_integral_target", _odd_d_target)
    got = check_socular(budget)
    assert len(want) == 42
    assert got == want


def _enumerate_b1(budget):
    return socular_enumeration(parabolic_from_composition("B", (1,)), budget)


@pytest.mark.parametrize(
    "check", [check_collapse, check_expand, check_halg, check_socular, check_richardson, _enumerate_b1]
)
@pytest.mark.parametrize(
    "budget, field",
    [
        (EnumerationBudget(entry_window=(-2.5, 2), max_n=1), "entry_window"),
        (EnumerationBudget(entry_window=(True, 2), max_n=1), "entry_window"),
        (EnumerationBudget(entry_window=(-2,), max_n=1), "entry_window"),
        (EnumerationBudget(entry_window=[-2, 2], max_n=1), "entry_window"),
        (EnumerationBudget(entry_window=(2, -2), max_n=1), "entry_window"),
        (EnumerationBudget(max_n=2.5), "max_n"),
        (EnumerationBudget(max_n=True), "max_n"),
        (EnumerationBudget(max_total=2.5), "max_total"),
        (EnumerationBudget(max_total="3"), "max_total"),
    ],
)
def test_checks_refuse_a_budget_of_the_wrong_type(check, budget, field):
    with pytest.raises(DomainError, match=f"^bad budget {field}="):
        check(budget)


@pytest.mark.parametrize("window", [(-6, 6), (-2, 3), (0, 0), (1, 4), (1, 2)])
def test_dominant_weights_are_the_filtered_window_in_order(window):
    budget = EnumerationBudget(entry_window=window, max_n=4)
    window_weights = {n: list(integral_weights(n, window)) for n in range(1, 5)}
    sizes = []
    for family in "ABCD":
        for setup in oracles._all_setups(family, 4):
            ones = [1] * setup.n
            want = [w for w in window_weights[setup.n] if _p_dominant(w, ones, setup)]
            assert oracles._dominant_weights(setup, budget) == want, (setup, window)
            sizes.append(len(want))
    assert max(sizes) > 0
    if window == (1, 2):  # B3 with composition (3,) needs x1 > x2 > x3 > 0: none inside
        assert oracles._dominant_weights(parabolic_from_composition("B", (3,)), budget) == []


def _prefix_sum(q, j: int) -> int:
    """The (j+1)-th prefix sum of ``q``, the total past its last part."""
    return sum(q[: j + 1])


def test_orbit_partition_tables_are_the_filtered_partitions():
    for total in range(21):
        for family in ORBIT_FAMILIES:
            want = tuple(q for q in partitions_of(total) if _is_orbit(q, family))
            table = oracles._orbit_table(total, family)
            assert table.parts == want, (total, family)
            assert table.everything == (1 << len(want)) - 1
            assert mask_members(table, table.special) == [q for q in want if _is_special(q, family)], (total, family)
            parity = FAMILY_PARITY[family]
            for key, mask in table.by_hollow.items():
                assert mask_members(table, mask) == [q for q in want if _hollow_key(q, parity) == key], (key, family)
            assert sum(mask.bit_count() for mask in table.by_hollow.values()) == len(want)
            # le[j][v] holds the partitions whose (j+1)-th prefix sum is at most v
            assert [len(row) for row in table.le] == [total + 1] * total
            for j, row in enumerate(table.le):
                for v, mask in enumerate(row):
                    assert mask_members(table, mask) == [q for q in want if _prefix_sum(q, j) <= v], (j, v, family)
    assert oracles._orbit_table.cache_info().maxsize == oracles.ORBIT_TABLE_SIZE == 64


def test_bit_relations_are_dominance():
    pairs = 0
    for total in range(21):
        for family in ORBIT_FAMILIES:
            table = oracles._orbit_table(total, family)
            for q in table.parts:
                below, above = oracles._dominated(table, q), oracles._dominating(table, q)
                for i, r in enumerate(table.parts):
                    assert bool(below >> i & 1) == all(map(ge, accumulate(q), accumulate(r))), (q, r, family)
                    assert bool(above >> i & 1) == all(map(ge, accumulate(r), accumulate(q))), (q, r, family)
                pairs += len(table.parts)
    assert pairs == 168_190


def test_check_collapse_fills_each_fact_table_once():
    oracles._orbit_table.cache_clear()
    assert check_collapse(EnumerationBudget(max_total=14)) == []
    tables = oracles._orbit_table.cache_info()
    oracles._orbit_table.cache_clear()
    # odd totals in B, even totals in C and D
    pairs = sum(1 if total % 2 else 2 for total in range(15))
    assert pairs == 23
    assert tables.misses == pairs
    # one table read per collapse_oracle call
    calls = sum((1 if total % 2 else 2) * len(list(partitions_of(total))) for total in range(15))
    assert tables.hits + tables.misses == calls


def test_check_halg_enumerates_each_total_and_family_once(monkeypatch):
    calls = Counter()
    real_partitions_of = oracles.partitions_of

    def counting_partitions_of(n, *args):
        calls[n] += 1
        return real_partitions_of(n, *args)

    oracles._orbit_table.cache_clear()
    monkeypatch.setattr(oracles, "partitions_of", counting_partitions_of)
    assert check_halg(EnumerationBudget(max_total=16)) == []
    oracles._orbit_table.cache_clear()
    # the outer loop once per even total, then one table per (target total, family):
    # C and D at the total itself, B one box larger
    outer = Counter(range(0, 17, 2))
    tables = Counter(t for total in range(0, 17, 2) for t in (total, total, total + 1))
    assert calls == outer + tables


# each check with its fast function replaced by one that answers (99,), and the first line it gives
WRONG_FAST = {
    "collapse": ("collapse", lambda p, family: (99,), check_collapse, "collapse () C: (99,) != oracle ()"),
    "halg": ("h_algorithm", lambda p, family: (99,), check_halg, "halg () B: (99,) != oracle (1,)"),
    "expand": ("expand", lambda p, family: (99,), check_expand, "expand () C: (99,) != oracle ()"),
    "richardson": (
        "richardson_partition",
        lambda setup: RichardsonResult((99,), False, None),
        check_richardson,
        "richardson ParabolicSetup(family='B', n=1, excluded=frozenset(), composition=(1,), "
        "normalized_composition=(1,)): (99,) != oracle (1, 1, 1)",
    ),
}


@pytest.mark.parametrize("check", WRONG_FAST)
def test_a_wrong_fast_answer_gives_the_mismatch_line(monkeypatch, check):
    name, wrong, run_check, first = WRONG_FAST[check]
    monkeypatch.setattr(oracles, name, wrong)
    failures = run_check(EnumerationBudget(max_total=4, max_n=2))
    assert failures[0] == first
    assert len(failures) > 1 and all(line.startswith(f"{check} ") for line in failures)


def _unique_extreme_all_pairs(cands, top, context):
    """The extreme rule before the lexicographic-end one: try every candidate in turn, by its parts."""
    for q in cands:
        if all(_dominates(q, other) if top else _dominates(other, q) for other in cands):
            return q
    extreme = "maximum" if top else "minimum"
    raise IntegrityError(f"no unique dominance {extreme} among {len(cands)} candidates: {context}")


def _outcome(rule, *args):
    try:
        return rule(*args)
    except IntegrityError as exc:
        return f"IntegrityError: {exc}"


def test_lexicographic_end_rule_agrees_with_all_pairs(monkeypatch):
    seen = []
    real = oracles._unique_extreme

    def recording(cands, table, top, search, p, family):
        seen.append((cands, table, top, search, p, family))
        return real(cands, table, top, search, p, family)

    monkeypatch.setattr(oracles, "_unique_extreme", recording)
    for total in range(17):
        for p in partitions_of(total):
            for family in ORBIT_FAMILIES:
                if total % 2 == (family == "B"):
                    collapse_oracle(p, family)
                if _is_orbit(p, family):
                    expand_oracle(p, family)
                if is_domino_type(p):
                    restricted_transform_oracle(p, family)
    assert len(seen) > 3000
    assert sum(cands.bit_count() > 1 for cands, *_ in seen) > 1000
    for cands, table, top, search, p, family in seen:
        context = f"{search} of {p} in type {family}"
        want = _outcome(_unique_extreme_all_pairs, mask_members(table, cands), top, context)
        assert _outcome(real, cands, table, top, search, p, family) == want, (cands, top, context)


@pytest.mark.parametrize("top, extreme", [(True, "maximum"), (False, "minimum")])
def test_incomparable_candidates_have_no_extreme(top, extreme):
    table = oracles._orbit_table(6, "C")
    cands = [(4, 1, 1), (3, 3)]
    mask = sum(1 << table.parts.index(q) for q in cands)
    assert mask_members(table, mask) == cands
    message = f"^no unique dominance {extreme} among 2 candidates: a test of \\(6,\\) in type C$"
    with pytest.raises(IntegrityError, match=message):
        _unique_extreme_all_pairs(cands, top, "a test of (6,) in type C")
    with pytest.raises(IntegrityError, match=message):
        oracles._unique_extreme(mask, table, top, "a test", (6,), "C")


def test_richardson_oracle_matches_richardson_partition_to_rank_8():
    # every B/C/D setup of rank <= 8; very even D partitions are compared as partitions
    setups = [setup for family in ORBIT_FAMILIES for setup in oracles._all_setups(family, 8)]
    assert len(setups) == 1528
    assert sum(richardson_partition(setup).very_even for setup in setups) > 0
    assert check_richardson(EnumerationBudget(max_n=8)) == []


def test_richardson_oracle_never_runs_the_library_collapse(monkeypatch):
    def refuse(*args):
        raise AssertionError("the library collapse ran")

    examples = {
        ("B", (1, 3, 5, 2)): (7, 5, 5, 3, 3),
        ("D", (1, 7, 3)): (5, 3, 3, 3, 3, 3, 1, 1),
        ("C", (2, 1, 1)): (4, 4),
        ("D", (2, 2, 0)): (4, 4),
    }
    want = {key: richardson_partition(parabolic_from_composition(*key)).partition for key in examples}
    assert want == examples
    monkeypatch.setattr(partitions, "_collapse", refuse)
    monkeypatch.setattr(richardson, "_collapse", refuse)
    for key, part in examples.items():
        assert richardson_oracle(parabolic_from_composition(*key)) == part, key


def test_richardson_oracle_refuses_type_a():
    with pytest.raises(DomainError):
        richardson_oracle(parabolic_from_composition("A", (2, 1)))
