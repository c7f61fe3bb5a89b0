"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  All comparisons are exact.
"""

from itertools import product

from socular import (
    EnumerationBudget,
    dim_nilradical,
    double,
    f_stat,
    gk_dimension,
    h_algorithm,
    hollow,
    is_orbit_partition,
    is_socular,
    is_special,
    orbit_dimension,
    parabolic_from_composition,
    parity_profile,
    richardson_partition,
    rs_shape,
    rs_tableau,
    shape,
    z_closed_forms,
    z_diagram,
)
from socular.hollow import f_stat_column_form
from socular.oracles import _all_setups, check_collapse, check_halg, check_socular
from socular.parabolic import z_type

from helpers import all_partitions

WINDOW = (-6, 6)
MAX_N = 4


def _report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def _ranks(family):
    return range(2 if family in ("A", "D") else 1, MAX_N + 1)


def test_criterion_1_golden_examples():
    assert parity_profile((5, 5, 4, 3, 3))[:2] == ((3, 2, 2, 1, 2), (2, 3, 2, 2, 1))

    tab = rs_tableau((-5, -6, -4, 2, -2, 4, 6, 5))
    assert tab == ((-6, -4, -2, 4, 5), (-5, 2, 6)) and shape(tab) == (5, 3)
    tab = rs_tableau((-6, -4, -5, -2, -3, 3, 2, 5, 4, 6))
    assert tab == ((-6, -5, -3, 2, 4, 6), (-4, -2, 3, 5)) and shape(tab) == (6, 4)
    tab = rs_tableau((-9, -5, -6, -7, 8, -8, 7, 6, 5, 9))
    assert tab == ((-9, -8, 5, 9), (-7, 6), (-6, 7), (-5, 8)) and shape(tab) == (4, 2, 2, 2)

    assert h_algorithm((6, 4, 4, 4, 2, 2, 1, 1), "B") == (7, 4, 4, 3, 3, 1, 1, 1, 1)

    golden_z = {
        (4, (1, 3)): (5, 3, 3, 1, 1, 1, 1, 1),
        (0, (2, 7)): (4, 4, 2, 2, 2, 2, 2),
        (2, (1, 3, 5)): (7, 5, 5, 3, 2),
        (1, (2, 1)): (5, 3),
        (0, (1, 2, 2)): (6, 4),
        (0, (1, 4)): (4, 2, 2, 2),
        (3, (1, 7)): (5, 3, 3, 3, 3, 3, 2),
    }
    for (a0, bs), expected in golden_z.items():
        assert z_diagram(a0, bs).shape == expected

    assert richardson_partition(
        parabolic_from_composition("B", (1, 3, 5, 2))
    ).partition == (7, 5, 5, 3, 3)
    assert richardson_partition(
        parabolic_from_composition("D", (1, 7, 3))
    ).partition == (5, 3, 3, 3, 3, 3, 1, 1)

    cases = [
        ("B", (2, 1, 1), (-5, -6, -4, 2), 14),
        ("D", (1, 2, 2, 0), (-6, -4, -5, -2, -3), 18),
        ("D", (1, 3, 1), (-9, -5, -6, -7, 8), 14),
    ]
    for family, comp, weight, expected_gk in cases:
        setup = parabolic_from_composition(family, comp)
        cert = is_socular(weight, setup)
        assert cert.verdict
        assert gk_dimension(weight, family) == expected_gk
        assert dim_nilradical(setup) == expected_gk

    _report("criterion 1 (golden examples)")


def test_criterion_2a_collapse_oracle_equivalence():
    failures = check_collapse(EnumerationBudget(max_total=14))
    assert failures == []
    _report("criterion 2a (collapse == oracle, totals <= 14)")


def test_criterion_2b_halg_oracle_equivalence():
    failures = check_halg(EnumerationBudget(max_total=16))
    assert failures == []
    _report("criterion 2b (H-algorithm == oracle, totals <= 16)")


def test_criterion_2c_socular_enumeration():
    budget = EnumerationBudget(entry_window=WINDOW, max_n=MAX_N)
    failures = check_socular(budget)
    assert failures == []
    _report("criterion 2c (max GK = dim u and socular set = attaining set)")


def test_criterion_3_formula_consistency():
    for p in all_partitions(16):
        assert f_stat(p, "b") == f_stat_column_form(p, "b")
        assert f_stat(p, "d") == f_stat_column_form(p, "d")

    import random

    rng = random.Random(99)
    produced = 0
    while produced < 1000:
        a0 = rng.randint(0, 9)
        k = rng.randint(0 if a0 else 1, 4)
        bs = tuple(rng.randint(1, 8) for _ in range(k))
        if 2 * (a0 + sum(bs)) > 40:
            continue
        produced += 1
        fb, fd = z_closed_forms(a0, bs)
        sh = z_diagram(a0, bs).shape
        assert fb == f_stat(sh, "b") and fd == f_stat(sh, "d")

    # the general formula reduces to the integral one on the criterion-2 window
    for family in ("B", "C", "D"):
        for n in _ranks(family):
            kind = "b" if family in ("B", "C") else "d"
            base = n * n - (n if family == "D" else 0)
            for w in product(range(WINDOW[0], WINDOW[1] + 1), repeat=n):
                integral_value = base - f_stat(rs_shape(double(w)), kind)
                assert gk_dimension(w, family) == integral_value

    _report("criterion 3 (F-form identities, Z closed forms, integral reduction)")


def test_criterion_4_richardson_specialness_and_hollow():
    for family in ("B", "C", "D"):
        parity = "odd" if family in ("B", "C") else "even"
        for setup in _all_setups(family, 6):
            part = richardson_partition(setup).partition
            assert sum(part) == (2 * setup.n + 1 if family == "B" else 2 * setup.n)
            assert is_orbit_partition(part, family)
            assert is_special(part, family)
            tail, blocks = z_type(setup)
            zshape = z_diagram(tail, blocks).shape
            assert hollow(part, parity) == hollow(zshape, parity)
    _report("criterion 4 (Richardson specialness, totals, hollow preservation, n <= 6)")


def test_criterion_5_orbit_dimension_cross_check():
    assert orbit_dimension((2, 2), "C") == 6 == 2 * dim_nilradical(
        parabolic_from_composition("C", (1, 1))
    )
    for family in ("A", "B", "C", "D"):
        for setup in _all_setups(family, 6):
            part = richardson_partition(setup).partition
            assert orbit_dimension(part, family) == 2 * dim_nilradical(setup)
    _report("criterion 5 (orbit dimension = 2 dim u, n <= 6)")
