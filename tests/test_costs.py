"""Cost guards: the library's line events grow with its input as each entry promises.

A count of the lines the library executes does not depend on the host's
speed.  Each guard bounds the ratio of two counts a doubling apart, not a
count, so that it pins no interpreter's way of counting lines.  The
``rs_shape`` cache is cleared before each count, so that a hit hides no work.
"""

import random

import pytest

import test_parabolic
from helpers import library_line_events
from socular import (
    expand,
    gk_dimension,
    h_algorithm,
    is_socular,
    is_special,
    orbit_dimension,
    parabolic_from_composition,
    parse_weight,
    richardson_partition,
    rs_shape,
    z_diagram,
)
from socular.setups import z_type


def _weight_text(n: int) -> tuple:
    rng = random.Random(n)
    return (",".join(str(rng.randint(-3 * n, 3 * n)) for _ in range(n)),)


def _stacked_c(n: int) -> tuple:
    setup = parabolic_from_composition("C", (n // 4,) * 4 + (0,))
    return test_parabolic._dominant_weight(setup, random.Random(n), "stacked"), setup


def _z_shape_d(n: int) -> tuple:
    setup = parabolic_from_composition("D", (n // 4,) * 4 + (0,))
    return z_diagram(*z_type(setup)).shape, "D"


def _random_b(n: int) -> tuple:
    rng = random.Random(n)
    return tuple(rng.randint(-3 * n, 3 * n) for _ in range(n)), "B"


# entry, its arguments at a size, the smaller size, the bound on the count ratio at twice that size
GROWTH = {
    "parse_weight": (parse_weight, _weight_text, 256, 2.2),
    "is_socular-C-stacked": (is_socular, _stacked_c, 256, 2.2),
    "richardson_partition-B": (
        richardson_partition,
        lambda n: (parabolic_from_composition("B", (n // 4,) * 4 + (0,)),),
        1000,
        2.2,
    ),
    # the Z-shape of (1, 2, ..., m, 0) has many wrong-parity columns: many collapse steps
    "richardson_partition-B-staircase": (
        richardson_partition,
        lambda m: (parabolic_from_composition("B", (*range(1, m + 1), 0)),),
        30,
        2.2,
    ),
    "expand-C-m11": (expand, lambda m: ((m, 1, 1), "C"), 1000, 2.2),
    "h_algorithm-D-z-shape": (h_algorithm, _z_shape_d, 100, 2.2),
    # RS insertion of a random word is superlinear: its rows grow with the word
    "gk_dimension-B-random": (gk_dimension, _random_b, 64, 3.2),
}


def _count(fn, args) -> int:
    rs_shape.cache_clear()
    return library_line_events(fn, *args)


@pytest.mark.parametrize("row", GROWTH)
def test_cost_grows_within_its_bound_per_doubling(row):
    fn, make, size, bound = GROWTH[row]
    small, large = _count(fn, make(size)), _count(fn, make(2 * size))
    assert large <= bound * small, (small, large)


@pytest.mark.parametrize("fn", [is_special, expand, orbit_dimension], ids=lambda fn: fn.__name__)
def test_cost_does_not_grow_with_the_size_of_the_parts(fn):
    # each reads the parts, never a box or a column
    assert _count(fn, ((10**6, 10**6), "D")) == _count(fn, ((10**12, 10**12), "D"))
