import pytest

from socular import (
    DomainError,
    f_stat,
    hollow,
    parity_profile,
    partitions_of,
    render_diagram,
    render_hollow,
    rs_shape,
    transpose,
)
from socular.hollow import _hollow_key

from helpers import all_partitions, f_stat_column_form


def test_parity_profile_paper_example():
    p_ev, p_odd, _, _ = parity_profile((5, 5, 4, 3, 3))
    assert p_ev == (3, 2, 2, 1, 2)
    assert p_odd == (2, 3, 2, 2, 1)


def test_parity_profile_single_cell():
    p_ev, p_odd, q_ev, q_odd = parity_profile((1,))
    assert p_ev == (1,) and p_odd == (0,)
    assert q_ev == (1,) and q_odd == (0,)


def test_parity_profile_z_shape():
    p_ev, p_odd, _, _ = parity_profile((5, 3))
    assert p_odd == (2, 2)
    assert p_ev == (3, 1)


def _cells_by_enumeration(p, parity):
    bit = 1 if parity == "odd" else 0
    return {
        (k, l)
        for k, length in enumerate(p, 1)
        for l in range(1, length + 1)
        if (k + l) % 2 == bit
    }


def test_closed_forms_match_cell_enumeration():
    for p in all_partitions(16):
        for parity in ("odd", "even"):
            expected = [0] * len(p)
            for k, _ in _cells_by_enumeration(p, parity):
                expected[k - 1] += 1
            assert parity_profile(p)[0 if parity == "even" else 1] == tuple(expected)


def test_row_counts_sum_to_row_lengths():
    for p in all_partitions(16):
        ev, od, _, _ = parity_profile(p)
        assert tuple(a + b for a, b in zip(ev, od)) == p


def test_hollow_examples():
    assert hollow((2,), "odd") == {(1, 2)}
    assert hollow((5, 3), "odd") == {(1, 2), (1, 4), (2, 1), (2, 3)}
    assert hollow((5, 3), "even") == {(1, 1), (1, 3), (1, 5), (2, 2)}


def test_hollow_is_the_cell_definition_and_keys_group_partitions_alike():
    # over every total up to 30, not only within one: equal keys exactly when equal cells
    for parity in ("odd", "even"):
        key_of, cells_of = {}, {}
        for total in range(31):
            for p in partitions_of(total):
                cells = frozenset(_cells_by_enumeration(p, parity))
                assert hollow(p, parity) == cells, (p, parity)
                key = _hollow_key(p, parity)
                assert key_of.setdefault(cells, key) == key, (p, parity)
                assert cells_of.setdefault(key, cells) == cells, (p, parity)


def test_hollow_partitions_cells():
    for p in all_partitions(12):
        odd = hollow(p, "odd")
        even = hollow(p, "even")
        assert len(odd) + len(even) == sum(p)
        assert odd.isdisjoint(even)
        assert odd == _cells_by_enumeration(p, "odd")


def test_f_stat_examples():
    assert f_stat((5, 3), "b") == 2
    assert f_stat((6, 4), "d") == 2
    assert f_stat((4, 2, 2, 2), "d") == 6
    assert f_stat((9,), "a") == 0


def test_f_stat_on_sequences():
    # a sequence of entries goes through Robinson-Schensted first
    assert f_stat(rs_shape((-5, -6, -4, 2, -2, 4, 6, 5)), "b") == 2
    assert f_stat(rs_shape((2, 1, 3)), "a") == 1
    # a sequence that happens to be a partition is still read as a sequence
    assert f_stat(rs_shape((2, 1, 1)), "a") == 1
    assert f_stat((2, 1, 1), "a") == 3


def test_f_stat_reads_shapes_only():
    for bad in ((-5, -6, -4, 2), (2, 1, 3), (2, 0), (1.0,)):
        with pytest.raises(DomainError):
            f_stat(bad, "b")


def test_f_stat_bad_kind():
    with pytest.raises(DomainError):
        f_stat((2, 1), "x")


def test_row_form_equals_column_form():
    for p in all_partitions(16):
        assert f_stat(p, "b") == f_stat_column_form(p, "b")
        assert f_stat(p, "d") == f_stat_column_form(p, "d")


def test_f_stat_a_row_form():
    # the kernel sums the row form (k-1) p_k; check it against the column definition
    for p in all_partitions(14):
        assert f_stat(p, "a") == sum(c * (c - 1) // 2 for c in transpose(p))


def test_render_diagram_paper_figure():
    assert render_diagram((5, 5, 4, 3, 3)) == "EOEOE\nOEOEO\nEOEO\nOEO\nEOE"


def test_render_hollow():
    assert render_hollow((5, 3), "odd") == ".O.O.\nO.O"
    assert render_hollow((5, 3), "even") == "E.E.E\n.E."
