import pytest

from socular import (
    DomainError,
    EnumerationBudget,
    collapse_oracle,
    dim_nilradical,
    expand,
    expand_oracle,
    is_orbit_partition,
    parabolic_from_composition,
    restricted_transform_oracle,
    socular_enumeration,
)
from socular import gkdim, oracles
from socular.oracles import check_socular, integral_weights
from socular.partitions import ORBIT_FAMILIES, partitions_of


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


def test_check_socular_skips_window_without_dominant_weight():
    # B3 with composition (3,) needs x1 > x2 > x3 > 0: nothing inside +-2
    setup = parabolic_from_composition("B", (3,))
    budget = EnumerationBudget(entry_window=(-2, 2), max_n=3)
    assert socular_enumeration(setup, budget) == (-1, [])
    assert check_socular(budget, ("B",)) == []
    assert check_socular(budget, ("C",)) == []


def test_check_socular_still_reports_a_wrong_maximum(monkeypatch):
    budget = EnumerationBudget(entry_window=(-2, 2), max_n=2)
    monkeypatch.setattr(oracles, "gk_dimension", lambda w, family: 0)
    failures = check_socular(budget, ("B",))
    assert failures and all("max GK 0 != dim u" in f for f in failures)


def test_check_socular_computes_gk_once_per_dominant_weight(monkeypatch):
    budget = EnumerationBudget(entry_window=(-3, 3), max_n=2)
    dominant = sum(
        1
        for family in "ABCD"
        for setup in oracles._all_setups(family, budget.max_n)
        for w in integral_weights(setup.n, budget.entry_window)
        if oracles.is_p_dominant(w, setup)
    )
    calls = {"oracles": 0, "core": 0}
    real_gk_dimension, real_gk = oracles.gk_dimension, gkdim._gk

    def counting_gk_dimension(w, family):
        calls["oracles"] += 1
        return real_gk_dimension(w, family)

    def counting_gk(*args):
        calls["core"] += 1
        return real_gk(*args)

    monkeypatch.setattr(oracles, "gk_dimension", counting_gk_dimension)
    monkeypatch.setattr(gkdim, "_gk", counting_gk)
    assert check_socular(budget) == []
    assert dominant == 378
    assert calls == {"oracles": dominant, "core": dominant}
