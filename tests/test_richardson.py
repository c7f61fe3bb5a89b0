import pytest

from socular import (
    DomainError,
    collapse,
    dim_nilradical,
    hollow,
    is_orbit_partition,
    is_special,
    orbit_dimension,
    parabolic_from_composition,
    richardson_partition,
    z_diagram,
)
from socular.oracles import _all_setups
from socular.parabolic import z_type


def test_so23_example():
    result = richardson_partition(parabolic_from_composition("B", (1, 3, 5, 2)))
    assert result.partition == (7, 5, 5, 3, 3)
    assert not result.very_even and result.numeral is None


def test_so22_example():
    result = richardson_partition(parabolic_from_composition("D", (1, 7, 3)))
    assert result.partition == (5, 3, 3, 3, 3, 3, 1, 1)


def test_sp_example():
    assert richardson_partition(parabolic_from_composition("C", (1, 1))).partition == (2, 2)


def test_type_a_example():
    assert richardson_partition(parabolic_from_composition("A", (2, 1, 1))).partition == (3, 1)


def test_b_rule_with_zero_tail_bumps_first_part():
    # n_k = 0: the added box lands on the first row before collapsing
    setup = parabolic_from_composition("B", (2, 2, 0))
    shape = z_diagram(0, (2, 2)).shape
    expected = collapse((shape[0] + 1,) + shape[1:], "B")
    assert richardson_partition(setup).partition == expected == (5, 3, 1)


def test_b_rule_appends_when_z_has_exactly_2nk_rows():
    setup = parabolic_from_composition("B", (1, 3, 4))
    z = z_diagram(4, (1, 3)).shape
    assert len(z) == 8
    result = richardson_partition(setup).partition
    assert result == collapse(z + (1,), "B")


def test_very_even_detection():
    result = richardson_partition(parabolic_from_composition("D", (2, 2, 0)))
    assert result.partition == (4, 4)
    assert result.very_even and result.numeral == "undetermined"


def test_result_is_special_with_correct_total():
    totals = {"B": lambda n: 2 * n + 1, "C": lambda n: 2 * n, "D": lambda n: 2 * n}
    for family in ("B", "C", "D"):
        for setup in _all_setups(family, 4):
            part = richardson_partition(setup).partition
            assert sum(part) == totals[family](setup.n)
            assert is_orbit_partition(part, family)
            assert is_special(part, family)


def test_hollow_preservation_smoke():
    for family in ("B", "C", "D"):
        parity = "odd" if family in ("B", "C") else "even"
        for setup in _all_setups(family, 4):
            tail, blocks = z_type(setup)
            zshape = z_diagram(tail, blocks).shape
            part = richardson_partition(setup).partition
            assert hollow(part, parity) == hollow(zshape, parity)


def test_orbit_dimension_seed():
    assert orbit_dimension((2, 2), "C") == 6
    assert dim_nilradical(parabolic_from_composition("C", (1, 1))) == 3


def test_orbit_dimension_examples():
    assert orbit_dimension((7, 5, 5, 3, 3), "B") == 208
    assert orbit_dimension((5, 3, 3, 3, 3, 3, 1, 1), "D") == 166
    assert orbit_dimension((3, 1), "A") == 10


def test_orbit_dimension_validation():
    with pytest.raises(DomainError):
        orbit_dimension((2, 2), "E")


def test_richardson_agrees_with_h_algorithm_on_z_shape():
    # the collapse-based rules and the hollow-diagram algorithm coincide on
    # Z-diagram shapes, for B included (there H supplies the extra box itself)
    from socular import h_algorithm

    setups = 0
    for family in ("B", "C", "D"):
        for setup in _all_setups(family, 8):
            zshape = z_diagram(*z_type(setup)).shape
            assert h_algorithm(zshape, family) == richardson_partition(setup).partition, setup
            setups += 1
    assert setups == 1528


def test_richardson_dim_is_twice_dim_u_smoke():
    for family in ("A", "B", "C", "D"):
        for setup in _all_setups(family, 4):
            part = richardson_partition(setup).partition
            assert orbit_dimension(part, family) == 2 * dim_nilradical(setup)
