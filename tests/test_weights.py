import sys
from fractions import Fraction as F
from itertools import product

import pytest

from socular import (
    DomainError,
    congruence_decompose,
    double,
    gk_dimension,
    is_p_dominant,
    is_socular,
    parabolic_from_composition,
    parse_weight,
    tilde,
)
from socular.weights import format_weight, is_integral, parse_rational


def test_double_single_entry():
    assert double((1,), "back") == (1, -1)


def test_double_paper_sequences():
    assert double((-5, -6, -4, 2), "back") == (-5, -6, -4, 2, -2, 4, 6, 5)
    assert double((-6, -4, -5, -2, -3), "back") == (-6, -4, -5, -2, -3, 3, 2, 5, 4, 6)


def test_double_front():
    assert double((1, 2), "front") == (-2, -1, 1, 2)
    with pytest.raises(DomainError):
        double((1,), "sideways")


def test_front_back_relation():
    # doubling the reversed, negated weight from the back gives the front doubling,
    # and both doublings are antisymmetric sequences
    values = [-2, -1, 0, 1, F(1, 2)]
    for n in (1, 2, 3):
        for w in product(values, repeat=n):
            back = double(w, "back")
            front = double(w, "front")
            flipped = tuple(-v for v in reversed(w))
            assert double(flipped, "back") == front
            assert tuple(-v for v in reversed(back)) == back
            assert tuple(-v for v in reversed(front)) == front


def test_congruence_all_integers():
    split = congruence_decompose((2, 0, -3), "bcd")
    assert split.integral.values == (2, 0, -3)
    assert split.half_integral is None
    assert split.others == ()


def test_congruence_mixed_bcd():
    split = congruence_decompose((F(1, 2), 1, F(1, 4), F(3, 4)), "bcd")
    assert split.integral.values == (1,)
    assert split.half_integral.values == (F(1, 2),)
    assert [c.values for c in split.others] == [(F(1, 4), F(3, 4))]
    assert split.others[0].positions == (3, 4)


def test_congruence_type_a():
    split = congruence_decompose((1, F(1, 2), 0, F(3, 2)), "typeA")
    assert split.integral is None and split.half_integral is None
    assert [c.values for c in split.others] == [(1, 0), (F(1, 2), F(3, 2))]


def test_congruence_classes_partition_positions():
    values = [0, 1, F(1, 2), F(1, 3), F(2, 3), F(-1, 4)]
    for n in (1, 2, 3, 4):
        for w in product(values, repeat=n):
            for grouping in ("typeA", "bcd"):
                split = congruence_decompose(w, grouping)
                seen = [p for c in split.classes() for p in c.positions]
                assert sorted(seen) == list(range(1, n + 1))
                for cls in split.classes():
                    for x in cls.values:
                        for y in cls.values:
                            if grouping == "typeA":
                                assert (x - y).denominator == 1
                            else:
                                assert (x - y).denominator == 1 or (x + y).denominator == 1


def test_congruence_classes_are_maximal():
    # entries in distinct bcd classes can have neither integral difference nor sum
    values = [0, F(1, 2), F(1, 3), F(-2, 3), F(1, 4), 2]
    for w in product(values, repeat=3):
        split = congruence_decompose(w, "bcd")
        classes = split.classes()
        for a in range(len(classes)):
            for b in range(a + 1, len(classes)):
                for x in classes[a].values:
                    for y in classes[b].values:
                        assert (x - y).denominator != 1
                        assert (x + y).denominator != 1


def test_tilde_examples():
    assert tilde((F(1, 4), F(-3, 4))) == (F(1, 4), F(-3, 4))
    assert tilde((F(1, 4), F(3, 4))) == (F(1, 4), F(-3, 4))
    assert tilde((F(1, 3), F(4, 3), F(2, 3))) == (F(1, 3), F(4, 3), F(-2, 3))


def test_tilde_gives_integral_differences():
    values = [F(1, 3), F(-2, 3), F(4, 3), F(5, 3), F(1, 4), F(3, 4)]
    for w in product(values, repeat=4):
        split = congruence_decompose(w, "bcd")
        for cls in split.others:
            out = tilde(cls.values)
            assert len(out) == len(cls.values)
            assert all((a - b).denominator == 1 for a in out for b in out)


def test_parse_weight():
    assert parse_weight("-5,-6,-4,1/2") == (-5, -6, -4, F(1, 2))
    assert parse_weight("0") == (0,)
    assert format_weight((F(1, 2), -3)) == "1/2,-3"


@pytest.mark.parametrize("bad", ["1.5", "", "1/0", "a", "1,,2", "1/-2"])
def test_parse_weight_rejects(bad):
    with pytest.raises(DomainError):
        parse_weight(bad)


# well-formed entries with an integer past the interpreter's int conversion limit
TOO_MANY_DIGITS = ["1" * 5000, "1/" + "3" * 5000, "-" + "9" * 4301]


@pytest.mark.parametrize("entry", TOO_MANY_DIGITS, ids=len)
def test_an_entry_past_the_digit_limit_is_bad_input(entry):
    message = f"^an entry has more than {sys.get_int_max_str_digits()} digits, the int conversion limit$"
    with pytest.raises(DomainError, match=message):
        parse_rational(entry)
    with pytest.raises(DomainError, match=message):
        parse_weight(f"1,{entry},2")


def test_parse_rational_lowest_terms():
    q = parse_rational("6/4")
    assert (q.numerator, q.denominator) == (3, 2)


def test_is_integral():
    assert is_integral((-5, 0, 3))
    assert not is_integral((1, F(1, 2)))


@pytest.mark.parametrize("weight", [(0.5, 1.0), (True, 2), ("1", 2)])
def test_gk_dimension_rejects_inexact_entries(weight):
    with pytest.raises(DomainError):
        gk_dimension(weight, "B")


def test_socularity_rejects_float_entries():
    setup = parabolic_from_composition("B", (2,))
    with pytest.raises(DomainError):
        is_socular((2.0, 1.0), setup)
    with pytest.raises(DomainError):
        is_p_dominant((2, 1.0), setup)
    with pytest.raises(DomainError):
        is_integral((1, 2.0))
    with pytest.raises(DomainError):
        is_integral((F(1, 2), 1.0))  # also after an entry that is not integral
    with pytest.raises(DomainError):
        congruence_decompose((F(1, 2), False), "bcd")


def test_double_rejects_a_weight_that_is_not_a_sequence():
    with pytest.raises(DomainError, match="^a weight must be a sequence of entries, got 5$"):
        double(5)


def test_tilde_rejects_a_weight_that_is_not_a_sequence():
    with pytest.raises(DomainError, match="^a weight must be a sequence of entries, got 5$"):
        tilde(5)


def test_congruence_decompose_rejects_a_weight_that_is_not_a_sequence():
    with pytest.raises(DomainError, match="^a weight must be a sequence of entries, got 5$"):
        congruence_decompose(5, "bcd")
