from importlib import import_module

import pytest

from socular import oracles, transforms
from socular import (
    DomainError,
    IntegrityError,
    h_algorithm,
    hollow,
    is_domino_type,
    is_special,
    restricted_transform_oracle,
)
from socular.hollow import FAMILY_PARITY, _hollow_key
from socular.oracles import _orbit_table
from socular.partitions import as_partition

from helpers import all_partitions, mask_members, tiling_domino_oracle

hollow_module = import_module("socular.hollow")  # ``socular.hollow`` is also a function


def test_domino_type_paper_example():
    assert is_domino_type((6, 4, 4, 4, 2, 2, 1, 1))


def test_domino_type_odd_total():
    assert not is_domino_type((1,))
    assert not is_domino_type((2, 1))


def test_domino_type_211():
    # the diagram of (2,1,1) is tiled by one horizontal and one vertical domino
    assert tiling_domino_oracle((2, 1, 1))
    assert is_domino_type((2, 1, 1))


def test_domino_type_matches_tiling_search():
    for p in all_partitions(16):
        assert is_domino_type(p) == tiling_domino_oracle(p)


def test_h_algorithm_worked_example_b():
    assert h_algorithm((6, 4, 4, 4, 2, 2, 1, 1), "B") == (7, 4, 4, 3, 3, 1, 1, 1, 1)


def test_h_algorithm_d_from_richardson_example():
    assert h_algorithm((5, 3, 3, 3, 3, 3, 2), "D") == (5, 3, 3, 3, 3, 3, 1, 1)


def test_h_algorithm_c():
    assert h_algorithm((5, 3), "C") == (4, 4)


def test_h_algorithm_rejects_non_domino():
    with pytest.raises(DomainError):
        h_algorithm((3, 2, 1), "B")
    with pytest.raises(DomainError):
        h_algorithm((2, 2), "E")


def test_h_algorithm_and_its_oracle_validate_their_argument_once(monkeypatch):
    calls = []

    def counting_as_partition(parts):
        calls.append(parts)
        return as_partition(parts)

    monkeypatch.setattr(transforms, "as_partition", counting_as_partition)
    monkeypatch.setattr(oracles, "as_partition", counting_as_partition)
    for p, family in (((6, 4, 4, 4, 2, 2, 1, 1), "B"), ([5, 3], "C"), ((2, 2), "D")):
        for fn in (h_algorithm, restricted_transform_oracle):
            calls.clear()
            fn(p, family)
            assert len(calls) == 1, (fn.__name__, p, family)


def test_h_algorithm_and_its_oracle_count_the_input_once(monkeypatch):
    # h_algorithm counts p once, for its domino test, its rows and its self-check, and
    # counts its result once for that check; the oracle counts p once, for its domino test
    # and its lookup.  The tables are built first, so no table build is counted.
    calls = []
    kernel = hollow_module._row_counts

    def counting_row_counts(p, parity):
        calls.append((p, parity))
        return kernel(p, parity)

    cases = (((6, 4, 4, 4, 2, 2, 1, 1), "B"), ((5, 3), "C"), ((2, 2), "D"))
    for p, family in cases:
        restricted_transform_oracle(p, family)
    monkeypatch.setattr(hollow_module, "_row_counts", counting_row_counts)
    monkeypatch.setattr(transforms, "_row_counts", counting_row_counts)
    for p, family in cases:
        parity = FAMILY_PARITY[family]
        calls.clear()
        out = h_algorithm(p, family)
        assert calls == [(p, parity), (out, parity)], (p, family)
        calls.clear()
        restricted_transform_oracle(p, family)
        assert calls == [(p, parity)], (p, family)


# (rule, wrong rule, p, family, message): each self-check of h_algorithm still fires
WRONG_RULES = [
    ("_pair_blocked", lambda p, last, i, family: True, (2, 1, 1), "B", "moved odd boxes on (2, 1, 1) in type B"),
    ("_first_column", lambda k, parity: 1, (4, 2), "D", "moved even boxes on (4, 2) in type D"),
    ("_pair_blocked", lambda p, last, i, family: False, (1, 1), "C", "rows not weakly decreasing: [0, 2]"),
    ("_first_column", lambda k, parity: 1, (2,), "C", "total 1 != target 2 for (2,) in type C"),
]


@pytest.mark.parametrize("rule, wrong, p, family, message", WRONG_RULES, ids=[r[4] for r in WRONG_RULES])
def test_h_algorithm_self_checks_catch_a_wrong_rule(monkeypatch, rule, wrong, p, family, message):
    monkeypatch.setattr(transforms, rule, wrong)
    with pytest.raises(IntegrityError) as exc:
        h_algorithm(p, family)
    assert str(exc.value) == f"H-algorithm {message}"


def test_h_algorithm_and_its_oracle_refuse_exactly_the_non_domino_partitions():
    # counting one parity decides the domino type: pinned against is_domino_type on every partition
    for p in all_partitions(24):
        domino = is_domino_type(p)
        for family in ("B", "C", "D"):
            for fn in (h_algorithm, restricted_transform_oracle):
                try:
                    fn(p, family)
                    refused = False
                except DomainError as exc:
                    assert str(exc) == f"{p} is not of domino type", (fn.__name__, p, family)
                    refused = True
                assert refused == (not domino), (fn.__name__, p, family)


def test_domino_type_still_validates_its_argument():
    for bad, message in (((1, 2), "weakly decreasing"), ((2, 0), "positive integers"), (("2",), "positive integers")):
        with pytest.raises(DomainError, match=message):
            is_domino_type(bad)
        with pytest.raises(DomainError, match=message):
            h_algorithm(bad, "C")


def test_h_algorithm_postconditions():
    for p in all_partitions(14):
        if sum(p) % 2 or not is_domino_type(p):
            continue
        doubled = sum(p)
        for family in ("B", "C", "D"):
            out = h_algorithm(p, family)
            parity = "odd" if family in ("B", "C") else "even"
            assert sum(out) == (doubled + 1 if family == "B" else doubled)
            assert hollow(out, parity) == hollow(p, parity)
            assert is_special(out, family)


def test_h_algorithm_matches_oracle_smoke():
    for p in all_partitions(12):
        if sum(p) % 2 or not is_domino_type(p):
            continue
        for family in ("B", "C", "D"):
            assert h_algorithm(p, family) == restricted_transform_oracle(p, family)


def test_h_algorithm_output_is_the_only_special_partition_with_its_hollow_shape():
    # past the oracle sweeps' totals: no other special orbit partition of the
    # target total keeps the retained boxes of p
    cases = 0
    for p in all_partitions(20):
        if sum(p) % 2 or not is_domino_type(p):
            continue
        for family in ("B", "C", "D"):
            target = sum(p) + 1 if family == "B" else sum(p)
            table = _orbit_table(target, family)
            cands = mask_members(table, table.by_hollow[_hollow_key(p, FAMILY_PARITY[family])])
            assert [q for q in cands if is_special(q, family)] == [h_algorithm(p, family)], (p, family)
            cases += 1
    assert cases == 3645
