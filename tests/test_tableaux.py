import random
from fractions import Fraction as F

from socular import double, render_tableau, rs_insert, rs_shape, rs_tableau, shape

from helpers import longest_strictly_decreasing, longest_weakly_increasing


def test_insert_into_empty():
    assert rs_insert((), 3) == ((3,),)


def test_insert_appends_when_nothing_bigger():
    assert rs_insert(((-6, -5),), -4) == ((-6, -5, -4),)


def test_insert_bumps_leftmost_strictly_bigger():
    assert rs_insert(((-6, -5),), -7) == ((-7, -5), (-6,))


def test_equal_entries_append():
    assert rs_insert(((0, 0),), 0) == ((0, 0, 0),)


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
        tab = ()
        for v in seq:
            tab = rs_insert(tab, v)
            assert _is_valid_tableau(tab)


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


def test_render():
    tab = rs_tableau((-6, -5, 2))
    assert render_tableau(tab) == "-6 -5 2"
    assert render_tableau(((1, 2), (3,))) == "1 2\n3"
