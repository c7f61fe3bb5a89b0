import random
from fractions import Fraction as F
from itertools import product

import pytest

from socular import DomainError, double, f_stat, gk_breakdown, gk_dimension, rs_shape
from socular.oracles import gk_dimension_oracle


def test_paper_derived_examples():
    assert gk_dimension((-5, -6, -4, 2), "B") == 14
    assert gk_dimension((-6, -4, -5, -2, -3), "D") == 18
    assert gk_dimension((-9, -5, -6, -7, 8), "D") == 14


def test_finite_dimensional_module():
    # dominant regular integral weight: GK dimension 0
    assert gk_dimension((2, 1), "B") == 0


def test_type_a_example():
    assert gk_dimension((2, 1, 3), "A") == 2


def test_family_validation():
    with pytest.raises(DomainError):
        gk_dimension((1,), "E")
    with pytest.raises(DomainError):
        gk_dimension((1,), "A")
    with pytest.raises(DomainError):
        gk_dimension((1,), "D")


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
