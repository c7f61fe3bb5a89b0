import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F
from math import gcd
from itertools import product

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from socular import (
    double,
    f_stat,
    gk_breakdown,
    gk_dimension,
    is_p_dominant,
    is_socular,
    parabolic_from_composition,
    rs_shape,
)
from socular.oracles import gk_dimension_oracle
import socular.tableaux


def test_paper_derived_examples():
    assert gk_dimension((-5, -6, -4, 2), "B") == 14
    assert gk_dimension((-6, -4, -5, -2, -3), "D") == 18
    assert gk_dimension((-9, -5, -6, -7, 8), "D") == 14


def test_finite_dimensional_module():
    # dominant regular integral weight: GK dimension 0
    assert gk_dimension((2, 1), "B") == 0


def test_type_a_example():
    assert gk_dimension((2, 1, 3), "A") == 2


# a bad weight or family, and the DomainError message both GK entries give for it;
# the entries are read before the family and rank are checked, so an entry error wins
BAD_GK_INPUTS = [
    ((1, 2), "E", "family must be one of ('A', 'B', 'C', 'D'), got 'E'"),
    ((1,), "A", "family A needs n >= 2, got n=1"),
    ((1,), "D", "family D needs n >= 2, got n=1"),
    ((), "B", "rank must be positive"),
    ((1.5, 2), "E", "weight entries must be ints or Fractions, got 1.5"),
    (5, "E", "a weight must be a sequence of entries, got 5"),
]


def _refusal(entry, weight, family):
    """(exception type name, message) of ``entry(weight, family)``, or None if it returns."""
    try:
        entry(weight, family)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None


def test_family_validation():
    for weight, family, message in BAD_GK_INPUTS:
        for entry in (gk_dimension, gk_breakdown):
            assert _refusal(entry, weight, family) == ("DomainError", message), (entry, weight, family)


def _integral_formula(weight, family):
    # the integral-case statement, composed directly
    n = len(weight)
    kind = "b" if family in ("B", "C") else "d"
    value = f_stat(rs_shape(double(weight)), kind)
    return n * n - value if family in ("B", "C") else n * n - n - value


def test_general_formula_reduces_to_integral():
    for family in ("B", "C", "D"):
        for n in range(1, 4):
            if family == "D" and n < 2:
                continue
            for w in product(range(-4, 5), repeat=n):
                assert gk_dimension(w, family) == _integral_formula(w, family)


def _random_weights(rng, n, count):
    denoms = [1, 1, 2, 3]
    for _ in range(count):
        yield tuple(F(rng.randint(-5, 5), rng.choice(denoms)) for _ in range(n))


def test_value_depends_only_on_class_shapes():
    rng = random.Random(17)
    for family in ("A", "B", "C", "D"):
        for n in (2, 3, 4):
            for w in _random_weights(rng, n, 40):
                info = gk_breakdown(w, family)
                kinds = [(tuple(rec["shape"]), rec["kind"]) for rec in info["classes"]]
                recomputed = info["ambient"] - sum(f_stat(sh, k) for sh, k in kinds)
                assert recomputed == info["gkdim"] == gk_dimension(w, family)


def test_bounds():
    rng = random.Random(23)
    caps = {"A": lambda n: n * (n - 1) // 2, "B": lambda n: n * n, "C": lambda n: n * n, "D": lambda n: n * n - n}
    for family in ("A", "B", "C", "D"):
        for n in (2, 3, 4):
            for w in _random_weights(rng, n, 40):
                g = gk_dimension(w, family)
                assert 0 <= g <= caps[family](n)


def test_breakdown_class_bookkeeping():
    info = gk_breakdown((F(1, 2), 1, F(1, 4), F(3, 4)), "C")
    by_kind = {rec["kind"] for rec in info["classes"]}
    assert by_kind == {"b", "d", "a"}
    positions = sorted(p for rec in info["classes"] for p in rec["positions"])
    assert positions == [1, 2, 3, 4]


def _oracle_weight(rng, family, n, kind):
    """Integral, half-integral, or generic: 2-4 classes with denominators 3-7."""
    lim = 3 * n
    if kind == "integral":
        return tuple(rng.randint(-lim, lim) for _ in range(n))
    if kind == "half":
        return tuple(F(2 * rng.randint(-lim, lim) + 1, 2) for _ in range(n))
    residues = [F(rng.randrange(1, b), b) for b in (rng.randint(3, 7) for _ in range(rng.randint(2, 4)))]
    out = []
    for _ in range(n):
        v = rng.randint(-lim, lim) + rng.choice(residues)
        out.append(-v if family != "A" and rng.random() < 0.5 else v)
    return tuple(out)


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_fast_path_matches_fraction_oracle(family):
    rng = random.Random(2305 + ord(family))
    for n in (2, 3, 4, 7, 16, 33, 64, 128, 256):
        for kind in ("integral", "half", "generic"):
            for _ in range(2 if n >= 128 else 6):
                w = _oracle_weight(rng, family, n, kind)
                want = gk_dimension_oracle(w, family)
                assert gk_dimension(w, family) == want, (family, w)
                assert gk_dimension(tuple(F(v) for v in w), family) == want
                assert gk_breakdown(w, family)["gkdim"] == want


def test_classes_over_different_denominators_keep_apart_in_the_cache():
    # (1/2, 3/2) doubles to the numerators (1, 3, -3, -1) over 2, which an
    # integral class (1, 3) doubles to over 1: equal numerators, different values
    rs_shape.cache_clear()
    assert gk_dimension((F(1, 2), F(3, 2)), "B") == gk_dimension_oracle((F(1, 2), F(3, 2)), "B")
    assert gk_dimension((1, 3), "B") == gk_dimension_oracle((1, 3), "B")
    info = rs_shape.cache_info()
    assert (info.hits, info.misses) == (0, 2)


@pytest.mark.parametrize(
    "family, composition, weight",
    [
        ("A", (2, 1), (3, 1, 2)),
        ("B", (2, 1, 1), (-5, -6, -4, 2)),
        ("C", (2, 0), (F(4), F(-1))),
        ("D", (1, 3, 1), (-9, -5, -6, -7, 8)),
    ],
)
def test_is_socular_reuses_the_shape_of_its_gk_call(family, composition, weight):
    setup = parabolic_from_composition(family, composition)
    rs_shape.cache_clear()
    is_socular(weight, setup)
    info = rs_shape.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def _p_dominant_weight(rng, family, n, kind):
    """A weight falling by 1-3 inside each of 1-6 blocks, with the setup it is p-dominant for.

    Each block gets its own offset: 0 (integral), 1/2 (half) or a generic a/b,
    b in 3..7.  An integral weight may also end in a positive block that meets
    the last simple root; every other weight has a zero tail.
    """
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, 5)))
    blocks = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    w = []
    for size in blocks:
        if kind == "integral":
            offset = 0
        elif kind == "half":
            offset = F(1, 2)
        else:
            b = rng.randint(3, 7)
            offset = F(rng.choice([a for a in range(1, b) if gcd(a, b) == 1]), b)
        w.append(rng.randint(-2 * n, 2 * n) + offset)
        for _ in range(size - 1):
            w.append(w[-1] - rng.randint(1, 3))
    tail = kind == "integral" and blocks[-1] > 1 and rng.random() < 0.5
    if tail:
        # the last block, rebuilt positive from its bottom entry up
        w[-1] = rng.randint(1, 3)
        for i in range(n - 2, n - 1 - blocks[-1], -1):
            w[i] = w[i + 1] + rng.randint(1, 3)
    setup = parabolic_from_composition(family, tuple(blocks) + (() if tail else (0,)))
    assert is_p_dominant(w, setup), (w, setup)
    return tuple(w), setup


@pytest.mark.parametrize("family", ["B", "C", "D"])
def test_gk_matches_the_oracle_on_long_p_dominant_weights(family, monkeypatch):
    # the doubled classes of these weights are a few falling runs: tall words
    # that rs_shape column-inserts, against the oracle's row-inserted tableaux
    insert_all, finished_columns = socular.tableaux._insert_all, []

    def counted(lines, seq, search=bisect_right, ratio=0):
        out = insert_all(lines, seq, search, ratio)
        if search is bisect_left and out is not None:
            finished_columns.append(len(out))
        return out

    monkeypatch.setattr(socular.tableaux, "_insert_all", counted)
    rng = random.Random(4099 + ord(family))
    for n in (64, 100, 150, 200):
        for kind in ("integral", "half", "generic"):
            w, setup = _p_dominant_weight(rng, family, n, kind)
            rs_shape.cache_clear()
            want = gk_dimension_oracle(w, family)
            assert gk_dimension(w, family) == want, (family, w)
            assert is_socular(w, setup).gk == want
    assert len(finished_columns) >= 12


_ENTRY = st.one_of(
    st.integers(-40, 40),
    st.builds(F, st.integers(-480, 480), st.integers(1, 12)),
)


@settings(max_examples=150, deadline=None, database=None)
@given(family=st.sampled_from("ABCD"), data=st.data())
def test_gk_agrees_with_oracle_and_breakdown_on_mixed_weights(family, data):
    n = data.draw(st.integers(2 if family in "AD" else 1, 64), label="rank")
    w = tuple(data.draw(st.lists(_ENTRY, min_size=n, max_size=n), label="weight"))
    want = gk_dimension_oracle(w, family)
    assert gk_dimension(w, family) == want
    assert gk_breakdown(w, family)["gkdim"] == want


@seed(2402)
@settings(max_examples=40, deadline=None, database=None)
@given(family=st.sampled_from("ABCD"), data=st.data())
def test_gk_dimension_is_bounded_at_rank(family, data):
    n = data.draw(st.integers(64, 200), label="rank")
    w = tuple(data.draw(st.lists(_ENTRY, min_size=n, max_size=n), label="weight"))
    ambient = {"A": n * (n - 1) // 2, "D": n * n - n}.get(family, n * n)
    gk = gk_dimension(w, family)
    assert 0 <= gk <= ambient
    assert gk_breakdown(w, family)["gkdim"] == gk


def test_breakdown_golden_record():
    # the records the gkdim --json output carries, frozen on one mixed weight:
    # integral, half-integral, a quarter class the tilde rewrite reorders, thirds
    w = (F(1, 2), 3, F(1, 4), -2, F(3, 4), F(-5, 3), F(3, 2), F(7, 3), 0, F(-7, 4))
    assert gk_breakdown(w, "C") == {
        "gkdim": 97,
        "ambient": 100,
        "classes": [
            {
                "positions": [2, 4, 9],
                "entries": ["3", "-2", "0"],
                "sequence": ["3", "-2", "0", "0", "2", "-3"],
                "shape": [4, 1, 1],
                "kind": "b",
                "f": 1,
            },
            {
                "positions": [1, 7],
                "entries": ["1/2", "3/2"],
                "sequence": ["1/2", "3/2", "-3/2", "-1/2"],
                "shape": [2, 2],
                "kind": "d",
                "f": 1,
            },
            {
                "positions": [3, 5, 10],
                "entries": ["1/4", "3/4", "-7/4"],
                "sequence": ["1/4", "-7/4", "-3/4"],
                "shape": [2, 1],
                "kind": "a",
                "f": 1,
            },
            {
                "positions": [6, 8],
                "entries": ["-5/3", "7/3"],
                "sequence": ["-5/3", "7/3"],
                "shape": [2],
                "kind": "a",
                "f": 0,
            },
        ],
    }
