import os
import random
import subprocess
import sys
from collections import Counter
from enum import IntEnum
from pathlib import Path

import pytest

import socular
from socular import (
    DomainError,
    collapse,
    collapse_oracle,
    dominates,
    expand,
    h_algorithm,
    is_orbit_partition,
    is_special,
    parse_partition,
    restricted_transform_oracle,
    transpose,
)
from socular.partitions import ORBIT_FAMILIES, as_partition, format_partition, partitions_of

from helpers import _partitions, all_partitions, collapse_by_steps


def test_transpose_examples():
    assert transpose((6,)) == (1, 1, 1, 1, 1, 1)
    assert transpose((7, 5, 5, 3, 3)) == (5, 5, 5, 3, 3, 1, 1)
    # column multiset of the Z-diagram of type (3;1,7)
    assert transpose((5, 3, 3, 3, 3, 3, 2)) == (7, 7, 6, 1, 1)


def test_transpose_involution():
    for p in all_partitions(20):
        assert transpose(transpose(p)) == p


def test_dominates():
    assert dominates((4, 2), (4, 2))
    assert dominates((4, 2), (3, 3))
    assert not dominates((3, 3), (4, 2))


def test_dominates_needs_equal_totals():
    with pytest.raises(DomainError):
        dominates((3, 1), (3,))


def test_as_partition_validation():
    assert as_partition([3, 1]) == (3, 1)
    with pytest.raises(DomainError):
        as_partition((1, 2))
    with pytest.raises(DomainError):
        as_partition((2, 0))


class _Two(IntEnum):
    TWO = 2


_POSITIVE = "partition parts must be positive integers, got "

# (parts, message): a part that is not a positive int is named before any rise, wherever it stands
AS_PARTITION_REFUSALS = [
    ((2, True), _POSITIVE + "True"),
    ((2.0,), _POSITIVE + "2.0"),
    (("2",), _POSITIVE + "'2'"),
    ((2, 0), _POSITIVE + "0"),
    ((3, -1), _POSITIVE + "-1"),
    ((1, 2, 0), _POSITIVE + "0"),
    ((3, 1, "x", 0), _POSITIVE + "'x'"),
    ((1, 2), "partition parts must be weakly decreasing: (1, 2)"),
    # the rise is reported with the parts already cast to int
    ((1, _Two.TWO), "partition parts must be weakly decreasing: (1, 2)"),
    (5, "a partition must be a sequence of parts, got 5"),
]


@pytest.mark.parametrize("parts, message", AS_PARTITION_REFUSALS, ids=[repr(p) for p, _ in AS_PARTITION_REFUSALS])
def test_as_partition_messages_and_which_wins(parts, message):
    with pytest.raises(DomainError) as exc:
        as_partition(parts)
    assert str(exc.value) == message


def test_as_partition_casts_an_int_subclass_to_int():
    p = as_partition((_Two.TWO, 1))
    assert p == (2, 1) and [type(v) for v in p] == [int, int]
    assert as_partition(()) == ()


def test_parse_format():
    assert parse_partition("7,5,5,3,3") == (7, 5, 5, 3, 3)
    assert parse_partition("") == ()
    assert format_partition((7, 5, 5, 3, 3)) == "7,5,5,3,3"
    with pytest.raises(DomainError):
        parse_partition("3,5")
    with pytest.raises(DomainError, match=r"^cannot parse partition from 'a,b'$"):
        parse_partition("a,b")


def test_parse_partition_refuses_a_part_past_the_digit_limit():
    message = f"^an entry has more than {sys.get_int_max_str_digits()} digits, the int conversion limit$"
    with pytest.raises(DomainError, match=message):
        parse_partition("9" * 5000 + ",1")
    # malformed text keeps its own message, however long
    with pytest.raises(DomainError, match="^cannot parse partition from '9+x'$"):
        parse_partition("9" * 5000 + "x")


def test_is_orbit_partition():
    assert is_orbit_partition((4, 4, 1), "B")
    assert not is_orbit_partition((3, 1), "C")
    assert is_orbit_partition((5, 3, 3, 3, 3, 3, 1, 1), "D")
    assert not is_orbit_partition((3, 1), "B")  # even total
    assert is_orbit_partition((), "C") and is_orbit_partition((), "D")


def test_is_special():
    assert is_special((7, 4, 4, 3, 3, 1, 1, 1, 1), "B")
    assert is_special((5, 3, 3, 3, 3, 3, 1, 1), "D")
    assert not is_special((4, 4, 3, 3, 3), "B")
    with pytest.raises(DomainError):
        is_special((3, 1), "C")


def test_collapse_examples():
    assert collapse((7, 5, 5, 3, 3), "B") == (7, 5, 5, 3, 3)
    assert collapse((5, 3, 3, 3, 3, 3, 2), "D") == (5, 3, 3, 3, 3, 3, 1, 1)
    assert collapse((4, 4, 2), "D") == (4, 4, 1, 1)
    assert collapse((5, 3), "C") == (4, 4)


def test_collapse_parity_error():
    with pytest.raises(DomainError):
        collapse((4, 2), "B")
    with pytest.raises(DomainError):
        collapse((3,), "C")


def test_collapse_properties():
    for p in all_partitions(12):
        for family in ORBIT_FAMILIES:
            if sum(p) % 2 != (1 if family == "B" else 0):
                continue
            c = collapse(p, family)
            assert sum(c) == sum(p)
            assert is_orbit_partition(c, family)
            assert dominates(p, c)
            assert collapse(c, family) == c
            assert (c == p) == is_orbit_partition(p, family)


def test_collapse_matches_oracle_smoke():
    for p in all_partitions(10):
        for family in ORBIT_FAMILIES:
            if sum(p) % 2 != (1 if family == "B" else 0):
                continue
            assert collapse(p, family) == collapse_oracle(p, family)


def test_collapse_walk_takes_the_steps_of_the_rule():
    for p in all_partitions(24):
        for family in ORBIT_FAMILIES:
            if sum(p) % 2 == (family == "B"):
                assert collapse(p, family) == collapse_by_steps(p, family), (p, family)


@pytest.mark.parametrize("family, first", [("D", 2), ("C", 1)])
def test_collapse_of_a_long_staircase_of_bad_parts(family, first):
    # 1,000 distinct parts of the wrong parity, each a bad block of its own: the
    # rule takes a step for most of them, and its per-step rescan made collapse quadratic
    p = tuple(range(first + 2 * 999, first - 1, -2))
    c = collapse(p, family)
    assert c == collapse_by_steps(p, family)
    assert is_orbit_partition(c, family) and dominates(p, c)


def test_expand_examples():
    assert expand((2, 1, 1), "C") == (2, 2)
    # golden value frozen from the brute-force search over special partitions of 17
    assert expand((4, 4, 3, 3, 3), "B") == (5, 3, 3, 3, 3)


def test_expand_fixed_on_special():
    for p in all_partitions(12):
        for family in ORBIT_FAMILIES:
            if sum(p) % 2 != (1 if family == "B" else 0):
                continue
            if is_orbit_partition(p, family) and is_special(p, family):
                assert expand(p, family) == p


def test_expand_is_smallest_special_above():
    for p in all_partitions(14):
        for family in ORBIT_FAMILIES:
            if sum(p) % 2 != (1 if family == "B" else 0):
                continue
            if not is_orbit_partition(p, family):
                continue
            e = expand(p, family)
            assert is_special(e, family)
            assert dominates(e, p)
            for q in partitions_of(sum(p)):
                if q == e or not is_orbit_partition(q, family) or not is_special(q, family):
                    continue
                # no special partition strictly between p and its expansion
                if dominates(q, p) and dominates(e, q):
                    assert q == e


def test_expand_matches_transpose_collapse_duality():
    # independent route: conjugate, collapse in the dual family, conjugate back
    for p in all_partitions(14):
        for family in ORBIT_FAMILIES:
            if sum(p) % 2 != (1 if family == "B" else 0):
                continue
            if not is_orbit_partition(p, family):
                continue
            dual = "B" if family == "B" else "C"
            assert expand(p, family) == transpose(collapse(transpose(p), dual))


def test_special_iff_expand_fixed_point():
    for p in all_partitions(12):
        for family in ORBIT_FAMILIES:
            if sum(p) % 2 != (1 if family == "B" else 0):
                continue
            if not is_orbit_partition(p, family):
                continue
            assert is_special(p, family) == (expand(p, family) == p)


def test_partitions_of_matches_recursive_enumeration():
    for n in range(21):
        assert list(partitions_of(n)) == _partitions(n, n)
        for max_part in range(-1, n + 2):
            assert list(partitions_of(n, max_part)) == _partitions(n, max_part)


def test_partitions_of_has_no_recursion_limit():
    assert next(partitions_of(1200, 1)) == (1,) * 1200
    assert next(partitions_of(1200)) == (1200,)


@pytest.mark.parametrize("args", [(True,), (2.5,), ("3",), (None,), (4, 1.5), (4, False)])
def test_partitions_of_rejects_arguments_that_are_not_ints(args):
    with pytest.raises(DomainError, match="partitions_of takes integers"):
        list(partitions_of(*args))


@pytest.mark.parametrize("args", [(-1,), ("3",), (2.5,), (4, 1.5)])
def test_partitions_of_checks_its_arguments_at_the_call(args):
    # not at the first next(): a bad argument raises before any partition is asked for
    with pytest.raises(DomainError):
        partitions_of(*args)


@pytest.mark.parametrize(
    "op",
    [is_orbit_partition, is_special, collapse, expand, h_algorithm, collapse_oracle, restricted_transform_oracle],
)
def test_every_partition_operation_words_a_bad_orbit_family_alike(op):
    with pytest.raises(DomainError, match=r"^orbit family must be one of \('B', 'C', 'D'\), got 'A'$"):
        op((2, 2), "A")


def _orbit_by_multiplicity(p, family):
    # the definition read literally: total parity, then multiplicities of the constrained parts
    if sum(p) % 2 != (1 if family == "B" else 0):
        return False
    constrained = 1 if family == "C" else 0
    return all(c % 2 == 0 for v, c in Counter(p).items() if v % 2 == constrained)


def _dominates_by_prefix_sums(d, f):
    length = max(len(d), len(f))
    d, f = d + (0,) * (length - len(d)), f + (0,) * (length - len(f))
    return all(sum(d[: i + 1]) >= sum(f[: i + 1]) for i in range(length))


def test_kernels_match_definitions():
    for total in range(15):
        parts = list(partitions_of(total))
        for p in parts:
            assert transpose(p) == tuple(
                sum(1 for v in p if v >= i) for i in range(1, (p[0] if p else 0) + 1)
            )
            for family in ORBIT_FAMILIES:
                assert is_orbit_partition(p, family) == _orbit_by_multiplicity(p, family)
            for q in parts:
                assert dominates(p, q) == _dominates_by_prefix_sums(p, q)


def _large_orbit_partitions(family, count, seed):
    # random partitions of totals 200-240, collapsed into the family, half of them not special
    rng = random.Random(seed)
    found, plain = [], []
    while len(found) < count:
        total = rng.randint(200, 240)
        total += total % 2 != (1 if family == "B" else 0)
        parts, left = [], total
        while left:
            parts.append(rng.randint(1, min(left, 40)))
            left -= parts[-1]
        p = collapse(tuple(sorted(parts, reverse=True)), family)
        if not is_special(p, family):
            found.append(p)
        elif len(plain) < count // 2:
            plain.append(p)
    return found + plain


@pytest.mark.parametrize("family", ORBIT_FAMILIES)
def test_expand_has_no_exponential_cliff(family):
    for p in _large_orbit_partitions(family, 4, seed=ord(family)):
        assert sum(p) >= 200
        e = expand(p, family)
        assert sum(e) == sum(p)
        assert is_orbit_partition(e, family) and is_special(e, family)
        assert dominates(e, p)
        assert expand(e, family) == e
        assert (e == p) == is_special(p, family)


def test_cli_expand_on_a_large_partition():
    p = _large_orbit_partitions("C", 1, seed=7)[0]
    env = dict(os.environ, PYTHONPATH=str(Path(socular.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", "from socular.cli import main; main()",
         "expand", "--family", "C", "--partition", format_partition(p)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert parse_partition(done.stdout.strip()) == expand(p, "C")
