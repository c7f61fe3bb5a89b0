import random
import re
from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest

from socular import (
    DomainError,
    IntegrityError,
    dim_nilradical,
    double,
    gk_breakdown,
    gk_dimension,
    hollow,
    is_integral,
    is_p_dominant,
    is_socular,
    parabolic,
    parabolic_from_composition,
    parabolic_from_roots,
    rs_shape,
    z_diagram,
)

from socular.cli import run
from socular.oracles import _all_setups
from socular.parabolic import z_type

from helpers import levi_positive_root_count


def test_from_roots_examples():
    assert parabolic_from_roots("B", 4, {2, 3}).composition == (2, 1, 1)
    assert parabolic_from_roots("D", 5, {1, 3, 5}).composition == (1, 2, 2, 0)
    setup = parabolic_from_roots("D", 5, {1, 4})
    assert setup.composition == (1, 3, 1)
    assert setup.normalized_composition == (1, 4, 0)


def test_type_d_last_root_reduction():
    # excluding only alpha_n is the (n, 0) form of excluding only alpha_{n-1}
    only_last = parabolic_from_roots("D", 5, {5})
    only_second_last = parabolic_from_roots("D", 5, {4})
    assert only_last.composition == (5, 0)
    assert only_second_last.composition == (4, 1)
    assert only_second_last.normalized_composition == (5, 0)
    assert dim_nilradical(only_last) == dim_nilradical(only_second_last)


def test_from_roots_validation():
    with pytest.raises(DomainError):
        parabolic_from_roots("B", 4, {5})
    with pytest.raises(DomainError):
        parabolic_from_roots("A", 4, {4})  # sl(4) has simple roots 1..3
    with pytest.raises(DomainError):
        parabolic_from_roots("D", 1, set())


@pytest.mark.parametrize(
    "family, n, excluded",
    [
        ("C", 2.5, ()),  # would give composition (2.5,) and the float dim(u) 0.0
        ("B", 2.0, ()),
        ("B", F(2), ()),
        ("B", True, ()),  # a bool is not rank 1
        ("B", 3, {True}),  # nor root 1
        ("D", 3, {2, True}),
    ],
)
def test_from_roots_rejects_non_int_ranks_and_bool_roots(family, n, excluded):
    with pytest.raises(DomainError):
        parabolic_from_roots(family, n, excluded)


_B3 = parabolic_from_composition("B", (1, 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: gk_dimension(5, "B"),
        lambda: gk_breakdown(5, "B"),
        lambda: is_p_dominant(5, _B3),
        lambda: is_socular(5, _B3),
        lambda: is_integral(5),
        lambda: parabolic_from_composition("B", 5),
        lambda: parabolic_from_roots("B", 3, 5),
        lambda: parabolic_from_roots("B", 3, [[1]]),
    ],
    ids=[
        "gk_dimension",
        "gk_breakdown",
        "is_p_dominant",
        "is_socular",
        "is_integral",
        "parabolic_from_composition",
        "parabolic_from_roots-int",
        "parabolic_from_roots-unhashable",
    ],
)
def test_inputs_of_the_wrong_shape_are_domain_errors(call):
    # a weight, composition or excluded set that is not a collection of entries
    with pytest.raises(DomainError):
        call()


def test_from_composition_matches_from_roots():
    for family in ("A", "B", "C", "D"):
        for n in range(2, 6):
            top = n - 1 if family == "A" else n
            for mask in range(1 << top):
                excluded = frozenset(i + 1 for i in range(top) if mask >> i & 1)
                setup = parabolic_from_roots(family, n, excluded)
                again = parabolic_from_composition(family, setup.composition)
                assert again == setup


def test_from_composition_validation():
    with pytest.raises(DomainError):
        parabolic_from_composition("B", (2, 0, 1))
    with pytest.raises(DomainError):
        parabolic_from_composition("A", (2, 0))
    with pytest.raises(DomainError):
        parabolic_from_composition("C", ())


def test_dim_nilradical_examples():
    assert dim_nilradical(parabolic_from_composition("B", (2, 1, 1))) == 14
    assert dim_nilradical(parabolic_from_composition("D", (1, 2, 2, 0))) == 18
    assert dim_nilradical(parabolic_from_composition("D", (1, 3, 1))) == 14
    assert dim_nilradical(parabolic_from_composition("A", (2, 1, 1))) == 5


def test_dim_nilradical_against_root_system():
    # independent count of the Levi's positive roots from the root vectors
    ambient = {
        "A": lambda n: n * (n - 1) // 2,
        "B": lambda n: n * n,
        "C": lambda n: n * n,
        "D": lambda n: n * n - n,
    }
    for family in ("A", "B", "C", "D"):
        for n in range(2, 6):
            top = n - 1 if family == "A" else n
            for mask in range(1 << top):
                excluded = frozenset(i + 1 for i in range(top) if mask >> i & 1)
                setup = parabolic_from_roots(family, n, excluded)
                levi = levi_positive_root_count(family, n, excluded)
                assert dim_nilradical(setup) == ambient[family](n) - levi


def test_p_dominance_examples():
    b4 = parabolic_from_roots("B", 4, {2, 3})
    assert is_p_dominant((-5, -6, -4, 2), b4)
    assert not is_p_dominant((-6, -5, -4, 2), b4)
    d5 = parabolic_from_roots("D", 5, {1, 4})
    assert is_p_dominant((-9, -5, -6, -7, 8), d5)


def test_p_dominance_uses_original_excluded_set():
    # (1,3,1) normalizes to (1,4,0), but alpha_4 stays excluded for dominance
    d5 = parabolic_from_roots("D", 5, {1, 4})
    assert 4 in d5.excluded
    # the alpha_4 gap is large and non-integral-free, still dominant
    assert is_p_dominant((-9, -5, -6, -7, 8), d5)
    # the same weight fails for the parabolic that retains alpha_4
    d5_full = parabolic_from_roots("D", 5, {1})
    assert not is_p_dominant((-9, -5, -6, -7, 8), d5_full)


def test_p_dominance_last_root_by_family():
    bn = parabolic_from_roots("B", 2, set())
    cn = parabolic_from_roots("C", 2, set())
    dn = parabolic_from_roots("D", 2, set())
    assert is_p_dominant((F(3, 2), F(1, 2)), bn)  # 2*lambda_2 = 1
    assert not is_p_dominant((F(3, 2), F(1, 2)), cn)  # lambda_2 = 1/2
    assert is_p_dominant((F(3, 2), F(1, 2)), dn)  # lambda_1 + lambda_2 = 2
    assert not is_p_dominant((F(5, 4), F(1, 4)), dn)  # gap 1, but sum 3/2


def _p_dominant_by_definition(w, setup):
    # the pairings as Fraction arithmetic, read off the simple roots
    w = [F(v) for v in w]
    n = setup.n
    pairings = [w[i - 1] - w[i] for i in range(1, n) if i not in setup.excluded]
    if setup.family != "A" and n not in setup.excluded:
        pairings.append({"B": 2 * w[-1], "C": w[-1], "D": w[-2] + w[-1] if n > 1 else None}[setup.family])
    return all(v > 0 and v.denominator == 1 for v in pairings)


def test_p_dominance_matches_the_fraction_definition():
    rng = random.Random(41)
    for family in "ABCD":
        for setup in _all_setups(family, 4):
            for _ in range(60):
                # steps of mixed size and denominator, so that every root
                # check both passes and fails, on ints and on Fractions
                d = rng.choice([1, 1, 2, 3, 4, 6])
                w = [F(rng.randint(-12, 12), d)]
                for _ in range(setup.n - 1):
                    w.append(w[-1] - F(rng.randint(-2, 4), rng.choice([1, 1, 1, d, 2, 3])))
                if rng.random() < 0.3:
                    w = [int(v) if v.denominator == 1 else v for v in w]
                assert is_p_dominant(w, setup) == _p_dominant_by_definition(w, setup), (w, setup)


@pytest.mark.parametrize(
    "family, composition, weight", [("B", (2, 1, 1), (-5, -6, -4, 2)), ("A", (2, 1), (1, 0, 5))], ids=["B4", "A3"]
)
@pytest.mark.parametrize(
    "kernel, message",
    [
        # a target nothing matches: GK reaches dim(u) but the criterion says no
        ("_integral_target", "non-socular verdict with GKdim {du} == dim(u) {du}"),
        # a GK of 0: the criterion says yes but GK falls short of dim(u)
        ("_gk", "socular verdict with GKdim 0 != dim(u) {du}"),
    ],
    ids=["non-socular-at-dim-u", "socular-below-dim-u"],
)
def test_is_socular_checks_the_theorem_both_ways(monkeypatch, capsys, family, composition, weight, kernel, message):
    setup = parabolic_from_composition(family, composition)
    du = dim_nilradical(setup)
    assert is_socular(weight, setup).verdict
    real_gk = parabolic._gk
    wrong = {"_integral_target": lambda setup: None, "_gk": lambda *args: (0, *real_gk(*args)[1:])}
    monkeypatch.setattr(parabolic, kernel, wrong[kernel])
    expected = message.format(du=du)
    with pytest.raises(IntegrityError, match="^" + re.escape(expected) + " for "):
        is_socular(weight, setup)
    argv = ["socular", "--family", family, "--n", str(setup.n), "--parabolic", ",".join(map(str, composition))]
    assert run([*argv, "--weight", ",".join(map(str, weight))]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"integrity error: {expected} for ")


def test_socular_paper_examples():
    b4 = parabolic_from_composition("B", (2, 1, 1))
    cert = is_socular((-5, -6, -4, 2), b4)
    assert cert.verdict and cert.gk == cert.dim_u == 14
    assert cert.reason == "hollow-match"
    assert cert.candidate_hollow == cert.target_hollow

    d5 = parabolic_from_composition("D", (1, 2, 2, 0))
    cert = is_socular((-6, -4, -5, -2, -3), d5)
    assert cert.verdict and cert.gk == cert.dim_u == 18

    d5b = parabolic_from_roots("D", 5, {1, 4})
    cert = is_socular((-9, -5, -6, -7, 8), d5b)
    assert cert.verdict and cert.gk == cert.dim_u == 14


def test_socular_type_a():
    a3 = parabolic_from_composition("A", (2, 1))
    cert = is_socular((3, 2, 1), a3)
    assert not cert.verdict
    assert cert.reason == "typeA-shape"
    assert is_socular((2, 1, 2), a3).verdict


def test_socular_richardson_section_witnesses():
    # the example weights attached to the so(23) and so(22) Richardson computations
    b11 = parabolic_from_roots("B", 11, {1, 4, 9})
    assert b11.composition == (1, 3, 5, 2)
    lam = (-12, -9, -10, -11, -4, -5, -6, -7, -8, 4, 3)
    assert is_socular(lam, b11).verdict

    d11 = parabolic_from_roots("D", 11, {1, 8})
    assert d11.composition == (1, 7, 3)
    lam = (-20, -5, -6, -7, -8, -9, -10, -11, 3, 2, 1)
    assert is_socular(lam, d11).verdict


def test_socular_requires_dominance():
    b4 = parabolic_from_composition("B", (2, 1, 1))
    with pytest.raises(DomainError):
        is_socular((-6, -5, -4, 2), b4)


def test_socular_non_integral_route():
    b2 = parabolic_from_composition("B", (2,))
    cert = is_socular((F(3, 2), F(1, 2)), b2)
    assert cert.reason == "gk-equality"
    assert cert.verdict and cert.gk == cert.dim_u == 0


def test_socular_non_integral_type_a():
    a3 = parabolic_from_composition("A", (2, 1))
    cert = is_socular((F(3, 2), F(1, 2), 1), a3)
    assert cert.reason == "gk-equality"
    assert cert.verdict and cert.gk == cert.dim_u == 2


def test_d_tail_one_consistency():
    # verdicts for (..., 1) tails agree with the theorem route on a window
    for n in (3, 4):
        for last_cut in (n - 1,):
            setup = parabolic_from_roots("D", n, {last_cut})
            assert setup.composition[-1] == 1
            du = dim_nilradical(setup)
            for w in product(range(-3, 4), repeat=n):
                if not is_p_dominant(w, setup):
                    continue
                cert = is_socular(w, setup)
                assert cert.verdict == (gk_dimension(w, "D") == du)


def test_non_integral_window():
    # over a half-integer window: GK never exceeds dim(u), the verdict tracks
    # equality, and all-half-integral weights reduce to the doubled formula
    from socular import double, f_stat, rs_shape

    half_values = [F(k, 2) for k in range(-4, 5)]
    kinds = {"B": "b", "C": "d", "D": "d"}
    for family in ("B", "C", "D"):
        for n in (2, 3):
            for mask in range(1 << n):
                excluded = frozenset(i + 1 for i in range(n) if mask >> i & 1)
                setup = parabolic_from_roots(family, n, excluded)
                du = dim_nilradical(setup)
                for w in product(half_values, repeat=n):
                    if not is_p_dominant(w, setup):
                        continue
                    g = gk_dimension(w, family)
                    assert g <= du
                    cert = is_socular(w, setup)
                    assert cert.verdict == (g == du)
                    if all(v.denominator == 2 for v in w):
                        base = n * n - (n if family == "D" else 0)
                        assert g == base - f_stat(rs_shape(double(w)), kinds[family])


def test_type_a_shift_invariance():
    a3 = parabolic_from_composition("A", (2, 1))
    for w in product(range(-3, 4), repeat=3):
        if not is_p_dominant(w, a3):
            continue
        verdict = is_socular(w, a3).verdict
        for c in (1, -2, 5):
            shifted = tuple(v + c for v in w)
            assert is_p_dominant(shifted, a3)
            assert is_socular(shifted, a3).verdict == verdict


def _cell_set_criterion(w, setup):
    """The integral B/C/D criterion on cell sets: (verdict, candidate cells, target cells)."""
    parity = "odd" if setup.family in ("B", "C") else "even"
    candidate = hollow(rs_shape(double(w)), parity)
    target = hollow(z_diagram(*z_type(setup)).shape, parity)
    return candidate == target, candidate, target


def _row_counts_of(cells):
    rows = Counter(k for k, _ in cells)
    return tuple(rows[k] for k in range(1, max(rows, default=0) + 1))


def _random_composition(n, rng):
    tail = rng.choice([0, rng.randint(1, n // 8)])
    parts, left = [], n - tail
    while left:
        parts.append(min(left, rng.randint(1, n // 6)))
        left -= parts[-1]
    return (*parts, tail)


def _dominant_weight(setup, rng, kind):
    """An integral p-dominant weight: every block falls inside and a positive tail falls.

    ``stacked`` puts each block below the next one, which is socular more often
    than not; ``raised`` then lifts one block into its neighbours; ``random``
    places each block anywhere.
    """
    n = setup.n
    comp = setup.composition
    while True:
        blocks, top = [], -1
        for size in reversed(comp[:-1]):
            start = rng.randint(-3 * n, 3 * n) if kind == "random" else top - rng.randint(0, 2)
            blocks.insert(0, [start - i for i in range(size)])
            top = blocks[0][-1] - 1
        if kind == "raised":
            j = rng.randrange(len(blocks))
            lift = rng.randint(1, 2 * len(blocks[j]) + 2)
            blocks[j] = [v + lift for v in blocks[j]]
        tail_top = comp[-1] + rng.randint(0, 2 * n)
        w = (*(v for b in blocks for v in b), *range(tail_top, tail_top - comp[-1], -1))
        if is_p_dominant(w, setup):
            return w


def test_socular_certificate_matches_the_cell_set_criterion_at_rank():
    # the verdict and both certified hollow keys against the public cell sets
    rng = random.Random(20231)
    cases = [
        ((-5, -6, -4, 2), parabolic_from_composition("B", (2, 1, 1))),
        ((-6, -4, -5, -2, -3), parabolic_from_composition("D", (1, 2, 2, 0))),
        ((-9, -5, -6, -7, 8), parabolic_from_roots("D", 5, {1, 4})),
        ((-12, -9, -10, -11, -4, -5, -6, -7, -8, 4, 3), parabolic_from_roots("B", 11, {1, 4, 9})),
    ]
    for family in ("B", "C", "D"):
        for kind in ("stacked", "raised", "random") * 4:
            setup = parabolic_from_composition(family, _random_composition(rng.randint(64, 200), rng))
            cases.append((_dominant_weight(setup, rng, kind), setup))
    verdicts = Counter()
    for w, setup in cases:
        cert = is_socular(w, setup)
        verdict, candidate, target = _cell_set_criterion(w, setup)
        assert cert.reason == "hollow-match"
        assert cert.verdict == verdict, (w, setup)
        assert cert.candidate_hollow == _row_counts_of(candidate), (w, setup)
        assert cert.target_hollow == _row_counts_of(target), (w, setup)
        verdicts[setup.family, setup.n >= 64, verdict] += 1
    for family in ("B", "C", "D"):
        assert verdicts[family, True, True] and verdicts[family, True, False], verdicts
