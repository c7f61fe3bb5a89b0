import random
import sys
from enum import IntEnum
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import test_gkdim
import test_parabolic
from socular import (
    DomainError,
    congruence_decompose,
    double,
    gk_breakdown,
    gk_dimension,
    is_p_dominant,
    is_socular,
    parabolic_from_composition,
    parse_weight,
    tilde,
)
from socular.oracles import gk_dimension_oracle
from socular.weights import class_buckets, integer_entries, is_integral, parse_rational, tilde_numerators


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


def _check_integer_core_against_the_reference(w):
    """``class_buckets`` and ``tilde_numerators`` give the classes and rewrites of the oracles'
    ``congruence_decompose`` and ``tilde``: the same positions and entries, in first-position
    order, the same integral and half-integral classes, and the numerators of each tilde."""
    nums, dens = integer_entries(w)
    for grouping in ("typeA", "bcd"):
        split = congruence_decompose(w, grouping)
        buckets = class_buckets(nums, dens, grouping == "bcd")
        got = [(tuple(i + 1 for i in idxs), tuple(w[i] for i in idxs)) for idxs in buckets.values()]
        assert got == [tuple(c) for c in split.classes()], (w, grouping)
        if grouping == "typeA":
            continue
        for key, cls in (((0, 1), split.integral), ((1, 2), split.half_integral)):
            assert (key in buckets) == (cls is not None), (w, key)
            if cls is not None:
                assert tuple(i + 1 for i in buckets[key]) == cls.positions, (w, key)
        for cls in split.others:
            d = cls.values[0].denominator
            seq = tilde_numerators([nums[i - 1] for i in cls.positions], d)
            assert tuple(F(x, d) for x in seq) == tilde(cls.values), (w, cls)


# the entries and the largest rank of the product-set tests above
PRODUCT_SETS = [
    ([0, 1, F(1, 2), F(1, 3), F(2, 3), F(-1, 4)], 4),
    ([0, F(1, 2), F(1, 3), F(-2, 3), F(1, 4), 2], 3),
    ([F(1, 3), F(-2, 3), F(4, 3), F(5, 3), F(1, 4), F(3, 4)], 4),
]


@pytest.mark.parametrize("values, rank", PRODUCT_SETS)
def test_integer_split_matches_the_fraction_reference_on_product_sets(values, rank):
    for n in range(1, rank + 1):
        for w in product(values, repeat=n):
            _check_integer_core_against_the_reference(w)


_MIXED_ENTRY = st.one_of(st.integers(-50, 50), st.builds(F, st.integers(-50, 50), st.integers(1, 8)))


@seed(2801)
@settings(max_examples=40, deadline=None, database=None)
@given(weight=st.lists(_MIXED_ENTRY, min_size=64, max_size=64))
def test_integer_split_matches_the_fraction_reference_at_rank_64(weight):
    _check_integer_core_against_the_reference(tuple(weight))


# text, the parsed entries and their exact types: an integer is an int, a/b a Fraction
PARSED = [
    ("-5,-6,-4,1/2", (-5, -6, -4, F(1, 2)), (int, int, int, F)),
    ("0", (0,), (int,)),
    ("4/2,3", (F(2), 3), (F, int)),
    (" 3 ,-1/2", (3, F(-1, 2)), (int, F)),
]


def test_parse_weight():
    for text, values, types in PARSED:
        got = parse_weight(text)
        assert got == values, text
        assert tuple(map(type, got)) == types, text


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
    with pytest.raises(DomainError):  # the reference reads its entries the same way
        gk_dimension_oracle(weight, "B")


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


class _Small(IntEnum):
    TWO = 2


class _Ratio(F):
    """A Fraction subclass: its entries read as plain ints all the same."""


# weight, numerators, denominators
INTEGER_ENTRIES = [
    ((), [], []),
    ((3, -1, 0), [3, -1, 0], [1, 1, 1]),
    ((_Small.TWO, 1), [2, 1], [1, 1]),
    ((F(3, 4), 2), [3, 2], [4, 1]),
    ((_Ratio(-6, 4),), [-3], [2]),
    ((1, F(-5, 3), _Small.TWO, _Ratio(7, 2), F(4, 2)), [1, -5, 2, 7, 2], [1, 3, 1, 2, 1]),
    # the shape parse_weight gives a mixed weight: an int first, then a Fraction
    (parse_weight("3,1/2"), [3, 1], [1, 2]),
]


@pytest.mark.parametrize("weight, nums, dens", INTEGER_ENTRIES)
def test_integer_entries_reads_plain_ints(weight, nums, dens):
    got_nums, got_dens = integer_entries(weight)
    assert (got_nums, got_dens) == (nums, dens)
    assert all(type(x) is int for x in got_nums + got_dens)


# weight, the exact message: the first bad entry wins
BAD_ENTRIES = [
    ((True,), "weight entries must be ints or Fractions, got True"),
    ((1, 2.5), "weight entries must be ints or Fractions, got 2.5"),
    ((F(1, 2), "1"), "weight entries must be ints or Fractions, got '1'"),
    (5, "a weight must be a sequence of entries, got 5"),
    ((1, 2.0, True), "weight entries must be ints or Fractions, got 2.0"),
    ((F(1, 3), True, 2.0), "weight entries must be ints or Fractions, got True"),
]


@pytest.mark.parametrize("weight, message", BAD_ENTRIES)
def test_integer_entries_refuses_inexact_entries(weight, message):
    with pytest.raises(DomainError) as exc:
        integer_entries(weight)
    assert str(exc.value) == message


@pytest.mark.parametrize("side", ["back", "front"])
@pytest.mark.parametrize("weight, message", BAD_ENTRIES)
def test_double_refuses_inexact_entries_as_integer_entries_does(weight, message, side):
    with pytest.raises(DomainError) as exc:
        double(weight, side)
    assert str(exc.value) == message


def test_double_keeps_each_entry_as_it_is():
    assert list(map(type, double((3, F(1, 2)), "back"))) == [int, F, F, int]
    assert list(map(type, double((3, F(1, 2)), "front"))) == [F, int, int, F]


_RANK_ENTRY = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 60)),
)


@seed(2401)
@settings(max_examples=40, deadline=None, database=None)
@given(weight=st.integers(64, 200).flatmap(lambda n: st.lists(_RANK_ENTRY, min_size=n, max_size=n)))
def test_format_and_parse_round_trip_at_rank(weight):
    tokens = list(map(str, weight))
    back = parse_weight(",".join(tokens))
    assert back == tuple(weight)
    # an entry written a/b parses to a Fraction, any other to an int
    assert [type(v) for v in back] == [F if "/" in tok else int for tok in tokens]


def _as_text(weight) -> str:
    return ",".join(map(str, weight))


def test_parsed_ints_answer_as_their_fractions_at_rank():
    # the parsed form (ints, with a Fraction only for a/b) against the same values all as Fractions
    rng = random.Random(2701)
    for family in "ABCD":
        for n in (64, 128, 256):
            kinds = ("integral", "half", "generic")
            integral, half, generic = (test_gkdim._oracle_weight(rng, family, n, kind) for kind in kinds)
            for weight in (integral, half, generic, integral[::2] + generic[1::2]):
                w = parse_weight(_as_text(weight))
                assert gk_breakdown(w, family) == gk_breakdown(tuple(map(F, w)), family), (family, weight)
    setups = []
    for family in "BCD":
        for n in (64, 128, 256):
            for kind in ("stacked", "raised", "random"):
                setup = parabolic_from_composition(family, test_parabolic._random_composition(n, rng))
                setups.append((test_parabolic._dominant_weight(setup, rng, kind), setup))
            for kind in ("half", "generic"):
                setups.append(test_gkdim._p_dominant_weight(rng, family, n, kind))
    for weight, setup in setups:
        w = parse_weight(_as_text(weight))
        assert is_socular(w, setup) == is_socular(tuple(map(F, w)), setup), setup
