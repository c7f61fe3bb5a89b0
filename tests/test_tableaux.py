import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socular import DomainError, double, render_tableau, rs_shape, rs_tableau, shape
from socular.partitions import _transpose
from socular.tableaux import _insert_all

from helpers import longest_strictly_decreasing, longest_weakly_increasing


def test_insert_into_empty():
    assert rs_tableau((3,)) == ((3,),)


def test_insert_appends_when_nothing_bigger():
    assert rs_tableau((-6, -5, -4)) == ((-6, -5, -4),)


def test_insert_bumps_leftmost_strictly_bigger():
    assert rs_tableau((-6, -5, -7)) == ((-7, -5), (-6,))


def test_equal_entries_append():
    assert rs_tableau((0, 0, 0)) == ((0, 0, 0),)


def test_paper_sequence_b4():
    tab = rs_tableau((-5, -6, -4, 2, -2, 4, 6, 5))
    assert tab == ((-6, -4, -2, 4, 5), (-5, 2, 6))
    assert shape(tab) == (5, 3)


def test_paper_sequence_d5_first():
    tab = rs_tableau((-6, -4, -5, -2, -3, 3, 2, 5, 4, 6))
    assert tab == ((-6, -5, -3, 2, 4, 6), (-4, -2, 3, 5))
    assert shape(tab) == (6, 4)


def test_paper_sequence_d5_second():
    tab = rs_tableau((-9, -5, -6, -7, 8, -8, 7, 6, 5, 9))
    assert tab == ((-9, -8, 5, 9), (-7, 6), (-6, 7), (-5, 8))
    assert shape(tab) == (4, 2, 2, 2)


def test_shape_single_row():
    assert shape(((1, 2, 3, 4),)) == (4,)


@pytest.mark.parametrize("tableau", [((1,), (1, 2)), ((1, 2), ()), ((),), ((), ()), ((1,), (), (2,))])
def test_shape_refuses_rows_that_form_no_partition(tableau):
    # a partition stores no zero part, so an empty row is refused like a longer lower one
    with pytest.raises(DomainError, match="rows do not form a partition shape"):
        shape(tableau)


def test_shape_of_the_empty_tableau_is_the_empty_partition():
    assert shape(()) == ()


def test_total_cells():
    rng = random.Random(7)
    for _ in range(50):
        seq = tuple(rng.randint(-5, 5) for _ in range(rng.randint(0, 12)))
        assert sum(shape(rs_tableau(seq))) == len(seq)


def _is_valid_tableau(tab):
    for row in tab:
        if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
            return False
    for r in range(len(tab) - 1):
        if len(tab[r]) < len(tab[r + 1]):
            return False
        for c in range(len(tab[r + 1])):
            if tab[r][c] >= tab[r + 1][c]:
                return False
    return True


def test_invariants_after_every_insertion():
    rng = random.Random(11)
    for _ in range(30):
        seq = [F(rng.randint(-6, 6), rng.choice([1, 1, 2])) for _ in range(10)]
        for k in range(1, len(seq) + 1):
            assert _is_valid_tableau(rs_tableau(seq[:k]))


def test_greene_first_order():
    rng = random.Random(3)
    cases = [
        (-5, -6, -4, 2, -2, 4, 6, 5),
        (1, 1, 1),
        (3, 2, 1),
        (),
    ]
    for _ in range(25):
        cases.append(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 10))))
    for seq in cases:
        sh = shape(rs_tableau(seq))
        if not seq:
            assert sh == ()
            continue
        assert sh[0] == longest_weakly_increasing(seq)
        assert len(sh) == longest_strictly_decreasing(seq)


def test_rs_shape_cached_equals_direct():
    w = (-9, -5, -6, -7, 8)
    assert rs_shape(double(w)) == shape(rs_tableau(double(w)))


def test_rs_shape_fallback_matches_tableau_shape():
    rng = random.Random(29)
    cases = [
        (F(1, 2), F(1, 3), F(-2, 3), 1, F(5, 6)),  # mixed denominators
        (F(3, 2), 1, F(-1, 2), 0),  # ints next to halves
        (-3, -7, -1, -7, -2),  # negative ints
        (F(-5, 3), F(-4, 3), F(-7, 3), F(2, 3)),  # one shared denominator
        (True, False, True),  # bools fall back to plain comparison
        ("b", "a", "c", "a"),  # non-numeric entries
        ((1, 2), (0, 5), (1, 1)),
        (),
    ]
    for _ in range(40):
        dens = rng.choice([[1], [3], [2, 3], [1, 4, 7]])
        cases.append(tuple(F(rng.randint(-9, 9), rng.choice(dens)) for _ in range(rng.randint(1, 14))))
    for seq in cases:
        assert rs_shape(seq) == shape(rs_tableau(seq)), seq


def test_rs_shape_den_reads_numerators_over_one_denominator():
    rng = random.Random(31)
    for _ in range(300):
        d = rng.randint(1, 12)
        nums = tuple(rng.randint(-30, 30) for _ in range(rng.randint(0, 20)))
        assert rs_shape(nums, d) == rs_shape(tuple(F(x, d) for x in nums)), (nums, d)


@pytest.mark.parametrize("den", [0, -3, True, False, 2.0, F(2), "2", None])
def test_rs_shape_rejects_a_bad_den(den):
    rs_shape.cache_clear()
    with pytest.raises(DomainError):
        rs_shape((1, 3, 2), den)


def test_rs_shape_cache_is_bounded():
    bound = rs_shape.cache_info().maxsize
    assert bound is not None
    rs_shape.cache_clear()
    try:
        for i in range(bound + 10):
            rs_shape((i, -i))
        assert rs_shape.cache_info().currsize == bound
    finally:
        rs_shape.cache_clear()


def _row_shape(seq):
    return tuple(map(len, _insert_all([], seq)))


def _column_shape(seq):
    """The shape by column insertion of the reversed word, with no bail-out."""
    return _transpose(tuple(map(len, _insert_all([], reversed(seq), bisect_left))))


def _sawtooth(n, block, rise):
    """Blocks of ``block`` entries falling by one inside, each block ``rise`` above the last."""
    return tuple((i // block) * rise + block - i % block for i in range(n))


_RUN = st.tuples(st.integers(-60, 60), st.integers(1, 300), st.integers(0, 3), st.sampled_from((-1, 1)))


@st.composite
def _words(draw):
    """Words up to length 2048: small alphabets (ties), falling runs, rising sawtooths, mixed runs."""
    kind = draw(st.sampled_from(("ties", "falling", "sawtooth", "mixed")), label="kind")
    if kind == "ties":
        return tuple(draw(st.lists(st.integers(-3, 3), max_size=300)))
    if kind == "sawtooth":
        block = draw(st.integers(2, 16), label="block")
        rise = draw(st.integers(1, 2 * block), label="rise")
        return _sawtooth(draw(st.integers(0, 2048), label="length"), block, rise)
    runs = draw(st.lists(_RUN, min_size=1, max_size=12), label="runs")
    word = []
    for start, length, step, sign in runs:
        if kind == "falling":
            sign = -1
        word += [start + sign * step * j for j in range(length)]
    return tuple(word[:2048])


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(seq=_words())
def test_both_insertion_directions_give_the_tableau_shape(seq):
    # whichever insertions rs_shape runs for seq, both directions must agree with the reference
    want = shape(rs_tableau(seq))
    assert _row_shape(seq) == want
    assert _column_shape(seq) == want
    rs_shape.cache_clear()
    assert rs_shape(seq) == want


def _falling_sawtooth(n, block, fall):
    """Blocks of ``block`` entries rising by one inside, each block ``fall`` below the last."""
    return tuple(i % block - (i // block) * fall for i in range(n))


def test_a_short_rising_sawtooth_stays_on_the_columns():
    # blocks of 12 falling inside and rising from block to block: 12 rows of
    # 21 or 22, so 22 columns never outnumber twice the 12 rows
    saw = _sawtooth(256, 12, 13)
    assert _insert_all([], reversed(saw), bisect_left, 2) is not None
    rs_shape.cache_clear()
    assert rs_shape(saw) == shape(rs_tableau(saw)) == (22,) * 4 + (21,) * 8


def test_both_tries_stop_on_a_long_rising_sawtooth_and_rows_finish():
    # at 2048 entries the 171 columns outnumber twice the 12 rows, and the row
    # try stops within the first falling block; the column try read more of
    # the word, so the rows, which are few, run to the end
    saw = _sawtooth(2048, 12, 13)
    cols, rows = [], []
    assert _insert_all(cols, reversed(saw), bisect_left, 2) is None
    assert _insert_all(rows, saw, bisect_right, 1) is None
    assert sum(map(len, cols)) > sum(map(len, rows))
    rs_shape.cache_clear()
    assert rs_shape(saw) == _row_shape(saw) == (171,) * 8 + (170,) * 4


def test_short_sawtooth_blocks_leave_the_columns_for_the_rows():
    saw = _sawtooth(256, 4, 5)
    assert _insert_all([], reversed(saw), bisect_left, 2) is None
    assert _insert_all([], saw, bisect_right, 1) is not None
    assert rs_shape(saw) == (64, 64, 64, 64)


def test_a_doubled_dominant_weight_never_leaves_the_columns():
    # four falling blocks of 64 double to eight falling runs: at most 8 columns
    seq = double(tuple(start - j for start in (0, 300, 100, 400) for j in range(64)))
    cols = _insert_all([], reversed(seq), bisect_left, 2)
    assert cols is not None and len(cols) <= 8 and len(cols[0]) >= 64
    rs_shape.cache_clear()
    assert rs_shape(seq) == _transpose(tuple(map(len, cols))) == shape(rs_tableau(seq))


def test_random_words_stay_on_the_rows():
    rng = random.Random(41)
    words = [tuple(rng.randint(-500, 500) for _ in range(n)) for n in (32, 128, 512) for _ in range(10)]
    assert all(_insert_all([], seq, ratio=2) is not None for seq in words)


def test_random_words_stay_on_the_columns():
    rng = random.Random(43)
    words = [tuple(rng.randint(-500, 500) for _ in range(n)) for n in (32, 128, 512) for _ in range(10)]
    assert all(_insert_all([], reversed(seq), bisect_left, 2) is not None for seq in words)


class _Counted:
    """An entry that counts the comparisons made on it; bisect compares by ``<`` only."""

    calls = 0
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        _Counted.calls += 1
        return self.v < other.v


_N = 2048
# words whose shape has one side of at most 12 lines; the falling sawtooth is
# the mirror of the rising one, so each direction meets one of them second
NO_CLIFF = {
    "rising": tuple(range(_N)),
    "falling": tuple(range(_N, 0, -1)),
    "rising-sawtooth": _sawtooth(_N, 12, 13),
    "falling-sawtooth": _falling_sawtooth(_N, 12, 13),
    "doubled-dominant": double(tuple(s - j for s in (0, 3000, 1000, 4000) for j in range(_N // 8))),
}


@pytest.mark.parametrize("name", NO_CLIFF)
def test_rs_shape_has_no_cliff(name):
    # an insertion in the wrong direction walks hundreds of lines a value, about
    # 30 N log2 N comparisons on the sawtooths; every word here takes under 5
    seq = NO_CLIFF[name]
    _Counted.calls = 0
    rs_shape.cache_clear()
    got = rs_shape(tuple(map(_Counted, seq)))
    assert _Counted.calls <= 8 * _N * math.log2(_N), _Counted.calls
    assert got == _row_shape(seq)


def test_render():
    tab = rs_tableau((-6, -5, 2))
    assert render_tableau(tab) == "-6 -5 2"
    assert render_tableau(((1, 2), (3,))) == "1 2\n3"
