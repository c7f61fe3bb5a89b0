import random
from itertools import permutations, product

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from socular import DomainError, f_stat, is_domino_type, z_closed_forms, z_diagram
from socular.zdiagram import _z_shape


GOLDEN_SHAPES = {
    (4, (1, 3)): (5, 3, 3, 1, 1, 1, 1, 1),
    (0, (2, 7)): (4, 4, 2, 2, 2, 2, 2),
    (2, (1, 3, 5)): (7, 5, 5, 3, 2),
    (1, (2, 1)): (5, 3),
    (0, (1, 2, 2)): (6, 4),
    (0, (1, 4)): (4, 2, 2, 2),
    (3, (1, 7)): (5, 3, 3, 3, 3, 3, 2),
}


@pytest.mark.parametrize("ztype,shape", sorted(GOLDEN_SHAPES.items()))
def test_golden_shapes(ztype, shape):
    a0, bs = ztype
    zd = z_diagram(a0, bs)
    assert zd.shape == shape
    assert sum(zd.shape) == 2 * (a0 + sum(bs))


def test_column_heights():
    zd = z_diagram(4, (1, 3))
    assert zd.column_heights == (8, 3, 3, 1, 1)


def _shape_by_column_count(a0, bs):
    """Row i of a Z-diagram holds one box per column taller than i: 2*a0 once, each b twice."""
    heights = [2 * a0] + [h for b in bs for h in (b, b)]
    return tuple(sum(h > i for h in heights) for i in range(max(heights)))


def test_z_shape_is_the_column_count_of_every_small_type():
    types = 0
    for a0, k in product(range(6), range(4)):
        for bs in product(range(1, 6), repeat=k):
            if a0 == 0 and not bs:
                continue
            want = _shape_by_column_count(a0, bs)
            zd = z_diagram(a0, bs)
            assert _z_shape(2 * a0, bs) == zd.shape == want, (a0, bs)
            assert zd.column_heights == tuple(sorted([2 * a0] * (a0 > 0) + [*bs, *bs], reverse=True))
            types += 1
    assert types == 6 * (1 + 5 + 25 + 125) - 1


@seed(2201)
@settings(max_examples=80, deadline=None, database=None)
@given(a0=st.integers(0, 200), bs=st.lists(st.integers(1, 200), max_size=12))
def test_closed_forms_match_f_stat_at_rank(a0, bs):
    # the rank of a parabolic with this Z-diagram type is a0 + sum(bs), here up to 2,600
    if a0 == 0 and not bs:
        return
    shape = _z_shape(2 * a0, bs)
    assert shape == _shape_by_column_count(a0, bs)
    assert z_closed_forms(a0, bs) == (f_stat(shape, "b"), f_stat(shape, "d"))


def test_closed_forms_examples():
    assert z_closed_forms(1, (2, 1))[0] == 2
    assert z_closed_forms(2, (1, 3, 5))[0] == 17
    assert z_closed_forms(0, (1, 2, 2))[1] == 2


def test_closed_forms_match_f_stat_random():
    rng = random.Random(2024)
    for _ in range(300):
        a0 = rng.randint(0, 8)
        k = rng.randint(0 if a0 else 1, 4)
        bs = tuple(rng.randint(1, 7) for _ in range(k))
        if 2 * (a0 + sum(bs)) > 40:
            continue
        fb, fd = z_closed_forms(a0, bs)
        shape = z_diagram(a0, bs).shape
        assert fb == f_stat(shape, "b")
        assert fd == f_stat(shape, "d")


def test_permutation_invariance():
    for bs in permutations((1, 3, 5)):
        assert z_diagram(2, bs).shape == (7, 5, 5, 3, 2)


def test_shape_is_domino_type():
    rng = random.Random(5)
    for _ in range(100):
        a0 = rng.randint(0, 5)
        k = rng.randint(0 if a0 else 1, 3)
        bs = tuple(rng.randint(1, 6) for _ in range(k))
        assert is_domino_type(z_diagram(a0, bs).shape)


def test_rejects_empty_and_bad_types():
    with pytest.raises(DomainError):
        z_diagram(0, ())
    with pytest.raises(DomainError):
        z_diagram(-1, (2,))
    with pytest.raises(DomainError):
        z_diagram(1, (0,))
