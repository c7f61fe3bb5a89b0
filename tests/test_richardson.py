import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from socular import (
    DomainError,
    collapse,
    dim_nilradical,
    hollow,
    is_orbit_partition,
    is_special,
    orbit_dimension,
    parabolic_from_composition,
    parabolic_from_roots,
    richardson_partition,
    z_diagram,
)
from socular.oracles import _all_setups
from socular.setups import z_type


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


@pytest.mark.parametrize("partition, family", [((3,), "D"), ((2,), "B"), ((1,), "C")])
def test_orbit_dimension_refuses_a_partition_that_labels_no_orbit(partition, family):
    # the error is the one is_special and expand give
    with pytest.raises(DomainError) as got:
        orbit_dimension(partition, family)
    with pytest.raises(DomainError) as special:
        is_special(partition, family)
    assert str(got.value) == str(special.value) == f"{partition} is not an orbit partition of type {family}"
    with pytest.raises(DomainError, match="^family must be one of"):  # the unknown family is refused first
        orbit_dimension(partition, "E")


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


@st.composite
def _setups_at_rank(draw):
    """A parabolic of rank 64-200, with up to 24 excluded roots anywhere, the tail root included."""
    family = draw(st.sampled_from("ABCD"))
    n = draw(st.integers(64, 200))
    top = n - 1 if family == "A" else n
    return parabolic_from_roots(family, n, draw(st.sets(st.integers(1, top), max_size=24)))


@seed(2202)
@settings(max_examples=120, deadline=None, database=None)
@given(setup=_setups_at_rank())
def test_richardson_identities_at_rank(setup):
    family, n = setup.family, setup.n
    part = richardson_partition(setup).partition
    assert sum(part) == {"A": n, "B": 2 * n + 1}.get(family, 2 * n)
    assert orbit_dimension(part, family) == 2 * dim_nilradical(setup)
    if family != "A":
        assert is_orbit_partition(part, family) and is_special(part, family)


@st.composite
def _bcd_setups_at_rank(draw):
    """A B/C/D parabolic of rank 64-200 with up to 24 excluded roots below the tail root,
    which about half of them exclude too, for a zero tail."""
    family = draw(st.sampled_from("BCD"))
    n = draw(st.integers(64, 200))
    excluded = draw(st.sets(st.integers(1, n - 1), max_size=24))
    return parabolic_from_roots(family, n, excluded | ({n} if draw(st.booleans()) else set()))


@seed(2203)
@settings(max_examples=150, deadline=None, database=None)
@given(setup=_bcd_setups_at_rank())
def test_richardson_is_the_induced_zero_orbit_at_rank(setup):
    # richardson_oracle's induction, with the library collapse in place of the oracle's
    family = setup.family
    tail, blocks = z_type(setup)
    p = (1,) * (2 * tail + (family == "B"))
    for b in blocks:
        padded = p + (0,) * (b - len(p))
        p = collapse(tuple(v + 2 for v in padded[:b]) + padded[b:], family)
    assert richardson_partition(setup).partition == p
