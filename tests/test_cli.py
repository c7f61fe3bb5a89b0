import argparse
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import socular
from socular import cli, hollow, oracles, z_diagram
from socular.cli import build_parser, run

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _ok(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return out


def test_richardson_golden(capsys):
    out = _ok(capsys, ["richardson", "--family", "B", "--n", "11", "--parabolic", "1,3,5,2"])
    assert out.strip() == "7,5,5,3,3"


def test_richardson_d_golden(capsys):
    out = _ok(capsys, ["richardson", "--family", "D", "--n", "11", "--parabolic", "1,7,3"])
    assert out.strip() == "5,3,3,3,3,3,1,1"


def test_socular_golden(capsys):
    out = _ok(
        capsys,
        ["socular", "--family", "D", "--n", "5", "--excluded", "1,4", "--weight", "-9,-5,-6,-7,8"],
    )
    assert out.strip() == "socular: true"


def test_socular_false(capsys):
    out = _ok(
        capsys,
        ["socular", "--family", "A", "--n", "3", "--parabolic", "2,1", "--weight", "3,2,1"],
    )
    assert out.strip() == "socular: false"


def test_gkdim_text(capsys):
    out = _ok(capsys, ["gkdim", "--family", "B", "--n", "4", "--weight", "-5,-6,-4,2"])
    assert out.strip() == "14"


def test_usage_error_exit_1(capsys):
    assert run(["gkdim", "--family", "B", "--n", "4", "--weight", "-5,-6,-4,1/2", "--parabolic"]) == 1
    assert run(["gkdim", "--family", "X", "--n", "1", "--weight", "1"]) == 1
    assert run([]) == 1
    assert run(["halg", "--partition", "x,y", "--family", "B"]) == 1


def test_domain_error_exit_2(capsys):
    # weight not p-dominant
    assert run(["socular", "--family", "B", "--n", "4", "--parabolic", "2,1,1", "--weight", "-6,-5,-4,2"]) == 2
    # composition does not sum to n
    assert run(["richardson", "--family", "B", "--n", "5", "--parabolic", "1,3,5,2"]) == 2
    # weight length mismatch
    assert run(["gkdim", "--family", "B", "--n", "3", "--weight", "1,2"]) == 2
    # malformed partition order is semantic, not syntactic
    assert run(["collapse", "--partition", "3,5", "--family", "C"]) == 2


def test_tableau_rendering(capsys):
    out = _ok(capsys, ["tableau", "--weight", "-5,-6,-4,2", "--double", "back"])
    assert out == "-6 -4 -2 4 5\n-5 2 6\n"


def test_tableau_json_roundtrip(capsys):
    out = _ok(capsys, ["tableau", "--weight", "-5,-6,-4,2", "--double", "back", "--json"])
    payload = json.loads(out)
    assert payload["shape"] == [5, 3]
    assert payload["rows"][0] == ["-6", "-4", "-2", "4", "5"]


def test_zdiagram_output(capsys):
    out = _ok(capsys, ["zdiagram", "--a0", "1", "--b", "2,1"])
    lines = out.strip().splitlines()
    assert lines[0] == "5,3"
    assert lines[1:] == ["EOEOE", "OEO"]


def test_zdiagram_json_roundtrip(capsys):
    out = _ok(capsys, ["zdiagram", "--a0", "1", "--b", "2,1", "--json"])
    payload = json.loads(out)
    shape = tuple(payload["shape"])
    assert shape == z_diagram(1, (2, 1)).shape
    assert {tuple(c) for c in payload["odd_cells"]} == set(hollow(shape, "odd"))
    assert {tuple(c) for c in payload["even_cells"]} == set(hollow(shape, "even"))


def test_halg_collapse_expand(capsys):
    assert _ok(capsys, ["halg", "--partition", "6,4,4,4,2,2,1,1", "--family", "B"]).strip() == "7,4,4,3,3,1,1,1,1"
    assert _ok(capsys, ["collapse", "--partition", "5,3", "--family", "C"]).strip() == "4,4"
    assert _ok(capsys, ["expand", "--partition", "2,1,1", "--family", "C"]).strip() == "2,2"


def test_partition_op_json_roundtrip(capsys):
    out = _ok(capsys, ["collapse", "--partition", "5,3", "--family", "C", "--json"])
    payload = json.loads(out)
    assert payload["shape"] == [4, 4]
    assert payload["transpose"] == [2, 2, 2, 2]


def test_parabolic_json(capsys):
    out = _ok(capsys, ["parabolic", "--family", "D", "--n", "5", "--excluded", "1,4", "--json"])
    payload = json.loads(out)
    assert payload["composition"] == [1, 3, 1]
    assert payload["normalized_composition"] == [1, 4, 0]
    assert payload["dim_u"] == 14


def test_socular_json_roundtrip(capsys):
    out = _ok(
        capsys,
        [
            "socular", "--family", "B", "--n", "4",
            "--parabolic", "2,1,1", "--weight", "-5,-6,-4,2", "--json",
        ],
    )
    payload = json.loads(out)
    assert payload["socular"] is True
    assert payload["gkdim"] == payload["dim_u"] == 14
    assert {tuple(c) for c in payload["odd_cells"]} == set(hollow((5, 3), "odd"))
    assert payload["odd_cells"] == payload["target_odd_cells"]


def test_gkdim_json_breakdown(capsys):
    out = _ok(capsys, ["gkdim", "--family", "C", "--n", "4", "--weight", "1/2,1,1/4,3/4", "--json"])
    payload = json.loads(out)
    assert payload["gkdim"] == 16 - sum(rec["f"] for rec in payload["classes"])
    assert sorted(p for rec in payload["classes"] for p in rec["positions"]) == [1, 2, 3, 4]


def test_richardson_json(capsys):
    out = _ok(capsys, ["richardson", "--family", "D", "--n", "4", "--parabolic", "2,2,0", "--json"])
    payload = json.loads(out)
    assert payload["richardson"] == [4, 4]
    assert payload["very_even"] is True
    assert payload["numeral"] == "undetermined"
    assert payload["dim_orbit"] == 20  # twice dim(u) = 10


def test_dimu(capsys):
    out = _ok(capsys, ["dimu", "--family", "B", "--n", "4", "--parabolic", "2,1,1"])
    assert out.strip() == "14"


def test_oracle_subcommand(capsys):
    code = run(["oracle", "--check", "collapse", "--max-total", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all comparisons passed" in out


def test_oracle_halg_small(capsys):
    assert run(["oracle", "--check", "halg", "--max-total", "8"]) == 0
    capsys.readouterr()


def test_oracle_socular_small(capsys):
    assert run(["oracle", "--check", "socular", "--max-n", "2", "--window", "2"]) == 0
    capsys.readouterr()


def test_zdiagram_hollow_rendering(capsys):
    out = _ok(capsys, ["zdiagram", "--a0", "1", "--b", "2,1", "--hollow", "odd"])
    assert out.strip().splitlines() == ["5,3", ".O.O.", "O.O"]


def test_oracle_refuses_an_empty_budget(capsys):
    # a budget that compares nothing must not report that every comparison passed
    assert run(["oracle", "--check", "collapse", "--max-total", "-3"]) == 2
    assert run(["oracle", "--check", "halg", "--max-total", "-1"]) == 2
    assert run(["oracle", "--check", "socular", "--max-n", "0"]) == 2
    captured = capsys.readouterr()
    assert "all comparisons passed" not in captured.out
    assert captured.err.count("domain error: bad budget") == 3


# Whole output lines, byte for byte: the JSON keys, their order and their values
# are the CLI contract.
GOLDEN = [
    (
        "socular --family B --n 4 --parabolic 2,1,1 --weight -5,-6,-4,2 --json",
        '{"socular": true, "gkdim": 14, "dim_u": 14, "reason": "hollow-match", '
        '"odd_cells": [[1, 2], [1, 4], [2, 1], [2, 3]], "target_odd_cells": [[1, 2], [1, 4], [2, 1], [2, 3]]}',
    ),
    (
        "socular --family D --n 5 --excluded 1,4 --weight -9,-5,-6,-7,8 --json",
        '{"socular": true, "gkdim": 14, "dim_u": 14, "reason": "hollow-match", '
        '"even_cells": [[1, 1], [1, 3], [2, 2], [3, 1], [4, 2]], '
        '"target_even_cells": [[1, 1], [1, 3], [2, 2], [3, 1], [4, 2]]}',
    ),
    (
        "socular --family C --n 3 --parabolic 2,1 --weight 3,2,1 --json",
        '{"socular": false, "gkdim": 0, "dim_u": 7, "reason": "hollow-match", '
        '"odd_cells": [[2, 1], [4, 1], [6, 1]], "target_odd_cells": [[1, 2], [2, 1], [2, 3]]}',
    ),
    (
        "socular --family B --n 3 --parabolic 2,1 --weight 1/3,-2/3,5 --json",
        '{"socular": true, "gkdim": 7, "dim_u": 7, "reason": "gk-equality"}',
    ),
    (
        "socular --family A --n 3 --parabolic 2,1 --weight 3,2,1 --json",
        '{"socular": false, "gkdim": 0, "dim_u": 2, "reason": "typeA-shape"}',
    ),
    (
        "socular --family A --n 3 --parabolic 2,1 --weight 1,0,5 --json",
        '{"socular": true, "gkdim": 2, "dim_u": 2, "reason": "typeA-shape"}',
    ),
    (
        "richardson --family D --n 4 --parabolic 2,2,0 --json",
        '{"richardson": [4, 4], "very_even": true, "numeral": "undetermined", "dim_orbit": 20}',
    ),
    (
        "richardson --family B --n 11 --parabolic 1,3,5,2 --json",
        '{"richardson": [7, 5, 5, 3, 3], "very_even": false, "numeral": null, "dim_orbit": 208}',
    ),
    (
        "richardson --family C --n 5 --parabolic 2,3,0 --json",
        '{"richardson": [4, 4, 2], "very_even": false, "numeral": null, "dim_orbit": 42}',
    ),
    (
        "richardson --family A --n 6 --parabolic 3,1,2 --json",
        '{"richardson": [3, 2, 1], "very_even": false, "numeral": null, "dim_orbit": 22}',
    ),
    (
        "parabolic --family D --n 5 --excluded 1,4 --json",
        '{"composition": [1, 3, 1], "normalized_composition": [1, 4, 0], "excluded": [1, 4], "dim_u": 14}',
    ),
    (
        "parabolic --family B --n 6 --parabolic 2,1,3,0 --json",
        '{"composition": [2, 1, 3, 0], "normalized_composition": [2, 1, 3, 0], "excluded": [2, 3, 6], "dim_u": 32}',
    ),
    (
        "zdiagram --a0 1 --b 2,1 --json",
        '{"shape": [5, 3], "odd_cells": [[1, 2], [1, 4], [2, 1], [2, 3]], '
        '"even_cells": [[1, 1], [1, 3], [1, 5], [2, 2]]}',
    ),
    (
        "zdiagram --a0 0 --b 3 --json",
        '{"shape": [2, 2, 2], "odd_cells": [[1, 2], [2, 1], [3, 2]], "even_cells": [[1, 1], [2, 2], [3, 1]]}',
    ),
    (
        "gkdim --family C --n 4 --weight 1/2,1,1/4,3/4 --json",
        '{"gkdim": 14, "ambient": 16, "classes": ['
        '{"positions": [2], "entries": ["1"], "sequence": ["1", "-1"], "shape": [1, 1], "kind": "b", "f": 1}, '
        '{"positions": [1], "entries": ["1/2"], "sequence": ["1/2", "-1/2"], "shape": [1, 1], "kind": "d", "f": 0}, '
        '{"positions": [3, 4], "entries": ["1/4", "3/4"], "sequence": ["1/4", "-3/4"], "shape": [1, 1], '
        '"kind": "a", "f": 1}]}',
    ),
    (
        "gkdim --family A --n 4 --weight 1/3,2,4/3,0 --json",
        '{"gkdim": 5, "ambient": 6, "classes": ['
        '{"positions": [1, 3], "entries": ["1/3", "4/3"], "sequence": ["1/3", "4/3"], "shape": [2], "kind": "a", "f": 0}, '
        '{"positions": [2, 4], "entries": ["2", "0"], "sequence": ["2", "0"], "shape": [1, 1], "kind": "a", "f": 1}]}',
    ),
    (
        "tableau --weight 1/2,-3/2,1 --double front --json",
        '{"shape": [4, 1, 1], "rows": [["-3/2", "-1/2", "1/2", "1"], ["-1"], ["3/2"]]}',
    ),
    ("tableau --weight 3,1,2 --json", '{"shape": [2, 1], "rows": [["1", "2"], ["3"]]}'),
    (
        "gkdim --family A --n 3 --weight 1,2,3 --json",
        '{"gkdim": 3, "ambient": 3, "classes": [{"positions": [1, 2, 3], "entries": ["1", "2", "3"], '
        '"sequence": ["1", "2", "3"], "shape": [3], "kind": "a", "f": 0}]}',
    ),
    ("dimu --family D --n 5 --excluded 1,4 --json", '{"dim_u": 14}'),
    (
        "parabolic --family A --n 4 --parabolic 2,2 --json",
        '{"composition": [2, 2], "normalized_composition": [2, 2], "excluded": [2], "dim_u": 4}',
    ),
    (
        "richardson --family B --n 3 --excluded 1 --json",
        '{"richardson": [3, 1, 1, 1, 1], "very_even": false, "numeral": null, "dim_orbit": 10}',
    ),
    (
        "zdiagram --a0 2 --b 1 --json",
        '{"shape": [3, 1, 1, 1], "odd_cells": [[1, 2], [2, 1], [4, 1]], "even_cells": [[1, 1], [1, 3], [3, 1]]}',
    ),
    ("halg --partition 4,2 --family C --json", '{"shape": [4, 2], "transpose": [2, 2, 1, 1]}'),
    ("collapse --partition 5,3,1 --family B --json", '{"shape": [5, 3, 1], "transpose": [3, 2, 2, 1, 1]}'),
    ("expand --partition 4,4,3,3,3 --family B --json", '{"shape": [5, 3, 3, 3, 3], "transpose": [5, 5, 5, 1, 1]}'),
    ("oracle --check socular --max-n 2 --window 2", "socular: all comparisons passed"),
]


@pytest.mark.parametrize("argv, line", GOLDEN, ids=[argv for argv, _ in GOLDEN])
def test_output_matches_golden(capsys, argv, line):
    assert _ok(capsys, argv.split()) == line + "\n"


# The CLI contract, byte for byte: (argv, exit code, stdout, stderr).  With GOLDEN
# it covers every subcommand in text and --json mode, the setup-selection errors,
# other domain errors and the usage errors.
CONTRACT = [
    ('tableau --weight -5,-6,-4,2', 0, '-6 -4 2\n-5\n', ''),
    ('tableau --weight -5,-6,-4,2 --double front', 0, '-6 -4 2\n-5 4 5\n-2\n6\n', ''),
    ('gkdim --family D --n 3 --weight 1/2,-1/2,3/2', 0, '3\n', ''),
    ('socular --family B --n 4 --parabolic 2,1,1 --weight -5,-6,-4,2', 0, 'socular: true\n', ''),
    ('socular --family C --n 3 --excluded 2 --weight 3,2,1', 0, 'socular: false\n', ''),
    ('socular --family A --n 3 --parabolic 2,1 --weight 1,0,5', 0, 'socular: true\n', ''),
    ('dimu --family A --n 4 --excluded 2', 0, '4\n', ''),
    ('parabolic --family D --n 5 --excluded 1,4', 0, 'composition: 1,3,1\nnormalized: 1,4,0\ndim_u: 14\n', ''),
    ('parabolic --family C --n 4 --parabolic 1,3,0', 0, 'composition: 1,3,0\nnormalized: 1,3,0\ndim_u: 13\n', ''),
    ('richardson --family C --n 5 --parabolic 2,3,0', 0, '4,4,2\n', ''),
    ('richardson --family A --n 6 --excluded 1,3', 0, '3,2,1\n', ''),
    ('zdiagram --a0 1 --b 2,1 --hollow even', 0, '5,3\nE.E.E\n.E.\n', ''),
    ('zdiagram --a0 0 --b 3 --hollow odd', 0, '2,2,2\n.O\nO.\n.O\n', ''),
    ('zdiagram --a0 2', 0, '1,1,1,1\nE\nO\nE\nO\n', ''),
    ('zdiagram --a0 0', 2, '', 'domain error: empty Z-diagram type (0; )\n'),
    ('halg --partition 2,2 --family D', 0, '2,2\n', ''),
    (
        'collapse --partition 4,4,3,3,3 --family D --json',
        2, '', 'domain error: type D needs total parity 0, got total 17\n',
    ),
    ('expand --partition 3,2,2,1 --family D', 0, '3,3,1,1\n', ''),
    ('oracle --check collapse --max-total 6', 0, 'collapse: all comparisons passed\n', ''),
    ('oracle --check halg --max-total 6', 0, 'halg: all comparisons passed\n', ''),
    ('oracle --check socular --max-n 1 --window 1', 0, 'socular: all comparisons passed\n', ''),
    # halg reads only --max-total; a valid window it never reads is accepted
    ('oracle --check halg --max-total 4 --window 5', 0, 'halg: all comparisons passed\n', ''),
    # selecting the parabolic: both options, neither, a composition off --n, a root out of range
    (
        'dimu --family B --n 4 --parabolic 2,1,1 --excluded 2,3',
        2, '', 'domain error: give either --parabolic or --excluded, not both\n',
    ),
    ('richardson --family B --n 4', 2, '', 'domain error: one of --parabolic or --excluded is required\n'),
    (
        'socular --family B --n 5 --parabolic 2,1,1 --weight -5,-6,-4,2,1',
        2, '', 'domain error: composition sums to 4, but --n is 5\n',
    ),
    ('parabolic --family D --n 4 --excluded 5', 2, '', 'domain error: excluded root index 5 outside 1..4 for D4\n'),
    (
        'parabolic --family A --n 4 --excluded 0 --json',
        2, '', 'domain error: excluded root index 0 outside 1..3 for A4\n',
    ),
    # other domain errors
    (
        'socular --family B --n 4 --parabolic 2,1,1 --weight -6,-5,-4,2',
        2, '', 'domain error: L(lambda) not in O^p: weight is not p-dominant\n',
    ),
    ('gkdim --family B --n 3 --weight 1,2', 2, '', 'domain error: weight has 2 entries, --n is 3\n'),
    ('gkdim --family A --n 0 --weight 1', 2, '', 'domain error: weight has 1 entries, --n is 0\n'),
    # a well-formed weight whose entry int() refuses: more digits than the conversion limit
    (
        'gkdim --family A --n 2 --weight=1,' + '1' * 5000,
        2, '', 'domain error: an entry has more than 4300 digits, the int conversion limit\n',
    ),
    # the same limit in every option that reads integers
    (
        'gkdim --family A --n=' + '2' * 5000 + ' --weight 1',
        2, '', 'domain error: an entry has more than 4300 digits, the int conversion limit\n',
    ),
    (
        'collapse --family C --partition=2,' + '2' * 5000,
        2, '', 'domain error: an entry has more than 4300 digits, the int conversion limit\n',
    ),
    (
        'zdiagram --a0 1 --b=' + '3' * 5000,
        2, '', 'domain error: an entry has more than 4300 digits, the int conversion limit\n',
    ),
    (
        'oracle --check halg --max-total=' + '4' * 5000,
        2, '', 'domain error: an entry has more than 4300 digits, the int conversion limit\n',
    ),
    ('collapse --partition 3,5 --family C', 2, '', 'domain error: partition parts must be weakly decreasing: (3, 5)\n'),
    ('collapse --partition 3,2 --family B', 0, '3,1,1\n', ''),
    (
        'collapse --partition 3,1 --family A',
        2, '', "domain error: orbit family must be one of ('B', 'C', 'D'), got 'A'\n",
    ),
    (
        'expand --partition 3,1 --family A',
        2, '', "domain error: orbit family must be one of ('B', 'C', 'D'), got 'A'\n",
    ),
    ('expand --partition 2,1 --family D', 2, '', 'domain error: (2, 1) is not an orbit partition of type D\n'),
    ('halg --partition 3,1 --family A', 2, '', "domain error: orbit family must be one of ('B', 'C', 'D'), got 'A'\n"),
    ('halg --partition 3 --family B', 2, '', 'domain error: (3,) is not of domino type\n'),
    ('zdiagram --a0 -1', 2, '', 'domain error: a0 must be a non-negative integer, got -1\n'),
    # a negative value with digit-group underscores is a value, as read_int reads it, not an option
    ('zdiagram --a0 -1_0', 2, '', 'domain error: a0 must be a non-negative integer, got -10\n'),
    ('zdiagram --a0 1 --b -1_0,2', 2, '', 'domain error: every b_i must be a positive integer, got -10\n'),
    ('oracle --check collapse --max-total -3', 2, '', 'domain error: bad budget max_total=-3: must be at least 0\n'),
    ('oracle --check socular --max-n 0', 2, '', 'domain error: bad budget max_n=0: must be at least 1\n'),
    ('oracle --check halg --window -1', 2, '', 'domain error: --window must be at least 0, got -1\n'),
    ('oracle --check collapse --window -1', 2, '', 'domain error: --window must be at least 0, got -1\n'),
    ('oracle --check socular --window -2', 2, '', 'domain error: --window must be at least 0, got -2\n'),
    # every check validates the whole budget, also the options it does not read
    ('oracle --check collapse --max-n 0', 2, '', 'domain error: bad budget max_n=0: must be at least 1\n'),
    # usage errors
    ('', 1, '', 'usage error: the following arguments are required: command\n'),
    (
        'frobnicate',
        1,
        '',
        "usage error: argument command: invalid choice: 'frobnicate' (choose from 'tableau', 'gkdim', "
        "'socular', 'dimu', 'parabolic', 'richardson', 'zdiagram', 'halg', 'collapse', 'expand', 'oracle')\n",
    ),
    (
        'gkdim --family X --n 1 --weight 1',
        1, '', "usage error: argument --family: invalid choice: 'X' (choose from 'A', 'B', 'C', 'D')\n",
    ),
    (
        'gkdim --family B --n 4 --weight -5,-6,-4,1/2 --parabolic',
        1, '', 'usage error: unrecognized arguments: --parabolic\n',
    ),
    ('gkdim --family B --n 4 --weight 1.5,2', 1, '', "usage error: argument --weight: not a rational literal: '1.5'\n"),
    ('gkdim --family B --n four --weight 1', 1, '', "usage error: argument --n: invalid int value: 'four'\n"),
    (
        'halg --partition x,y --family B',
        1, '', "usage error: argument --partition: expected comma-separated integers, got 'x,y'\n",
    ),
    ('halg', 1, '', 'usage error: the following arguments are required: --partition, --family\n'),
    ('socular', 1, '', 'usage error: the following arguments are required: --family, --n, --weight\n'),
    ('gkdim --family B', 1, '', 'usage error: the following arguments are required: --n, --weight\n'),
    ('tableau', 1, '', 'usage error: the following arguments are required: --weight\n'),
    ('zdiagram --b 1', 1, '', 'usage error: the following arguments are required: --a0\n'),
    ('oracle', 1, '', 'usage error: the following arguments are required: --check\n'),
    ('oracle --check socular --json', 1, '', 'usage error: unrecognized arguments: --json\n'),
    (
        'tableau --weight 1,2 --double sideways',
        1, '', "usage error: argument --double: invalid choice: 'sideways' (choose from 'back', 'front')\n",
    ),
    ('dimu --family B --n 4 --parabolic 2,1,1 --verbose', 1, '', 'usage error: unrecognized arguments: --verbose\n'),
    ('richardson --family B --n 4 --parabolic', 1, '', 'usage error: argument --parabolic: expected one argument\n'),
    (
        'zdiagram --a0 1 --hollow both',
        1, '', "usage error: argument --hollow: invalid choice: 'both' (choose from 'odd', 'even')\n",
    ),
]

# --help of the program and of each subcommand, at 80 columns
HELP = {
    "": """\
usage: socular [-h]
               {tableau,gkdim,socular,dimu,parabolic,richardson,zdiagram,halg,collapse,expand,oracle}
               ...

positional arguments:
  {tableau,gkdim,socular,dimu,parabolic,richardson,zdiagram,halg,collapse,expand,oracle}
    tableau             Robinson-Schensted tableau of a weight
    gkdim               Gelfand-Kirillov dimension of L(lambda)
    zdiagram            Z-diagram of type (a0; b1,b2,...)
    oracle              run brute-force cross-checks

options:
  -h, --help            show this help message and exit
""",
    "tableau": """\
usage: socular tableau [-h] --weight WEIGHT [--double {back,front}] [--json]

options:
  -h, --help            show this help message and exit
  --weight WEIGHT
  --double {back,front}
  --json
""",
    "gkdim": """\
usage: socular gkdim [-h] --family {A,B,C,D} --n N --weight WEIGHT [--json]

options:
  -h, --help          show this help message and exit
  --family {A,B,C,D}
  --n N
  --weight WEIGHT
  --json
""",
    "socular": """\
usage: socular socular [-h] --family {A,B,C,D} --n N [--parabolic PARABOLIC]
                       [--excluded EXCLUDED] [--json] --weight WEIGHT

options:
  -h, --help            show this help message and exit
  --family {A,B,C,D}
  --n N
  --parabolic PARABOLIC
  --excluded EXCLUDED
  --json
  --weight WEIGHT
""",
    "dimu": """\
usage: socular dimu [-h] --family {A,B,C,D} --n N [--parabolic PARABOLIC]
                    [--excluded EXCLUDED] [--json]

options:
  -h, --help            show this help message and exit
  --family {A,B,C,D}
  --n N
  --parabolic PARABOLIC
  --excluded EXCLUDED
  --json
""",
    "parabolic": """\
usage: socular parabolic [-h] --family {A,B,C,D} --n N [--parabolic PARABOLIC]
                         [--excluded EXCLUDED] [--json]

options:
  -h, --help            show this help message and exit
  --family {A,B,C,D}
  --n N
  --parabolic PARABOLIC
  --excluded EXCLUDED
  --json
""",
    "richardson": """\
usage: socular richardson [-h] --family {A,B,C,D} --n N
                          [--parabolic PARABOLIC] [--excluded EXCLUDED]
                          [--json]

options:
  -h, --help            show this help message and exit
  --family {A,B,C,D}
  --n N
  --parabolic PARABOLIC
  --excluded EXCLUDED
  --json
""",
    "zdiagram": """\
usage: socular zdiagram [-h] --a0 A0 [--b B] [--hollow {odd,even}] [--json]

options:
  -h, --help           show this help message and exit
  --a0 A0
  --b B
  --hollow {odd,even}
  --json
""",
    "halg": """\
usage: socular halg [-h] --partition PARTITION --family {A,B,C,D} [--json]

options:
  -h, --help            show this help message and exit
  --partition PARTITION
  --family {A,B,C,D}
  --json
""",
    "collapse": """\
usage: socular collapse [-h] --partition PARTITION --family {A,B,C,D} [--json]

options:
  -h, --help            show this help message and exit
  --partition PARTITION
  --family {A,B,C,D}
  --json
""",
    "expand": """\
usage: socular expand [-h] --partition PARTITION --family {A,B,C,D} [--json]

options:
  -h, --help            show this help message and exit
  --partition PARTITION
  --family {A,B,C,D}
  --json
""",
    "oracle": """\
usage: socular oracle [-h] --check {collapse,halg,socular}
                      [--max-total MAX_TOTAL] [--max-n MAX_N]
                      [--window WINDOW]

options:
  -h, --help            show this help message and exit
  --check {collapse,halg,socular}
  --max-total MAX_TOTAL
  --max-n MAX_N
  --window WINDOW
""",
}



def _argv_id(argv: str) -> str:
    """The test id of an argv: the argv itself, cut short when it is long."""
    return argv if len(argv) <= 80 else f"{argv[:60]}...<{len(argv)} chars>"


@pytest.mark.parametrize("argv, code, out, err", CONTRACT, ids=[_argv_id(argv) or "<none>" for argv, *_ in CONTRACT])
def test_cli_contract(capsys, argv, code, out, err):
    assert (run(argv.split()), *capsys.readouterr()) == (code, out, err)


@pytest.mark.parametrize("command", HELP, ids=[command or "<program>" for command in HELP])
def test_cli_help(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run([*command.split(), "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (HELP[command], "")


# a valid call of a subcommand that names the option, the option's value to come last
VALUE_CALLS = {
    "--n": "gkdim --family A --weight 1,2 --n",
    "--parabolic": "dimu --family B --n 4 --parabolic",
    "--excluded": "dimu --family B --n 4 --excluded",
    "--weight": "gkdim --family A --n 2 --weight",
    "--partition": "collapse --family C --partition",
    "--a0": "zdiagram --a0",
    "--b": "zdiagram --a0 1 --b",
    "--max-total": "oracle --check halg --max-total",
    "--max-n": "oracle --check socular --max-n",
    "--window": "oracle --check socular --window",
}


@pytest.mark.parametrize("flag", cli.OPTIONS)
def test_every_option_is_named_and_reads_values_by_one_rule(capsys, flag):
    named = [flags for _, flags, _ in cli.COMMANDS.values()]
    assert all(set(flags) <= set(cli.OPTIONS) and len(set(flags)) == len(flags) for flags in named)
    assert any(flag in flags for flags in named)
    assert (flag in VALUE_CALLS) == ("type" in cli.OPTIONS[flag])
    if flag not in VALUE_CALLS:
        return
    argv = VALUE_CALLS[flag].split()
    assert flag in cli.COMMANDS[argv[0]][1]
    # malformed text is a usage error; a well-formed value past the int conversion limit a domain error
    assert run([*argv, "x"]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: argument {flag}: ")
    limit = "domain error: an entry has more than 4300 digits, the int conversion limit\n"
    assert (run([*argv, "7" * 5000]), *capsys.readouterr()) == (2, "", limit)


# values with blanks, which a shell passes in one word: (argv, exit code, stderr)
BLANK_VALUES = [
    # a space makes argparse read a value whatever it looks like; a tab or newline does not
    (["zdiagram", "--a0", "-1 "], 2, "domain error: a0 must be a non-negative integer, got -1\n"),
    (["zdiagram", "--a0", "-1\t"], 2, "domain error: a0 must be a non-negative integer, got -1\n"),
    (["zdiagram", "--a0", "1", "--b", "-1,\t2"], 2, "domain error: every b_i must be a positive integer, got -1\n"),
    (["zdiagram", "--a0", "1", "--b", "-1,+2\n"], 2, "domain error: every b_i must be a positive integer, got -1\n"),
    # malformed text after a leading -digit is still a value that read_int refuses
    (["zdiagram", "--a0", "-1_"], 1, "usage error: argument --a0: invalid int value: '-1_'\n"),
    (["zdiagram", "--a0", "- 1"], 1, "usage error: argument --a0: invalid int value: '- 1'\n"),
]


@pytest.mark.parametrize("argv, code, err", BLANK_VALUES, ids=[repr(argv[-1]) for argv, _, _ in BLANK_VALUES])
def test_a_negative_value_with_blanks_is_read_as_a_value(capsys, argv, code, err):
    assert (run(argv), *capsys.readouterr()) == (code, "", err)


def test_oracle_mismatches_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(oracles, "check_collapse", lambda budget: ["first mismatch", "second mismatch"])
    assert run(["oracle", "--check", "collapse"]) == 3
    assert capsys.readouterr() == ("collapse: 2 mismatches\n", "first mismatch\nsecond mismatch\n")


def test_integrity_error_exit_3(capsys, monkeypatch):
    def broken(setup):
        raise socular.IntegrityError("rows out of order")

    monkeypatch.setattr(socular, "richardson_partition", broken)
    assert run(["richardson", "--family", "B", "--n", "4", "--parabolic", "2,1,1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("integrity error:")


def test_readme_lists_every_subcommand_and_json_reaches_all_but_oracle():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Subcommands:(.*?)\.\n", readme, re.S).group(1)
    parser = build_parser()
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    assert sorted(re.findall(r"`([a-z]+)`", listed)) == sorted(sub.choices)
    for name, subparser in sub.choices.items():
        assert ("[--json]" in subparser.format_usage()) == (name != "oracle"), name


def _fresh_modules(statement: str, names) -> list[str]:
    """Which of ``names`` a new interpreter has in ``sys.modules`` after ``statement``."""
    code = f"import sys; {statement}; print(' '.join(m for m in {list(names)!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("module", ["socular", "socular.cli"])
def test_python_m_runs_the_cli(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-m", module, "gkdim", "--family", "B", "--n", "4", "--weight", "-5,-6,-4,2"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "14\n", "")
    proc = subprocess.run([sys.executable, "-m", module, "oracle"], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")


# subcommands that need no weight, GK dimension, parabolic or exact rational
PARTITION_ONLY = [
    ["zdiagram", "--a0", "1", "--b", "2,1"],
    ["collapse", "--partition", "5,3", "--family", "C"],
    ["expand", "--partition", "4,4,3,3,3", "--family", "B"],
    ["halg", "--partition", "6,4,4,4,2,2,1,1", "--family", "B"],
]

# subcommands that build a parabolic but read no weight
SETUP_ONLY = [
    ["richardson", "--family", "B", "--n", "4", "--parabolic", "2,1,1"],
    ["dimu", "--family", "D", "--n", "5", "--excluded", "1,4"],
    ["parabolic", "--family", "C", "--n", "4", "--parabolic", "1,3,0"],
]


def _after_run(argv) -> str:
    return f"from socular.cli import run; assert run({argv!r}) == 0"


def test_cli_import_leaves_out_what_its_subcommands_may_not_need():
    unneeded = ["dataclasses", "inspect", "json", "socular.oracles", "socular.hollow", "socular.tableaux"]
    assert _fresh_modules("import socular.cli", unneeded) == []
    lazy = ["socular.weights", "socular.gkdim", "socular.parabolic", "socular.oracles", "fractions", "decimal"]
    submodules = [f"socular.{info.name}" for info in pkgutil.iter_modules(socular.__path__)]
    assert _fresh_modules("import socular", ["dataclasses", *lazy, *submodules]) == []
    for argv in SETUP_ONLY:
        assert _fresh_modules(_after_run(argv), [*lazy, "socular.tableaux", "socular.hollow"]) == [], argv
    for argv in PARTITION_ONLY:
        unused = [*lazy, "socular.tableaux"]
        if argv[0] in ("collapse", "expand"):
            unused.append("socular.hollow")
        assert _fresh_modules(_after_run(argv), unused) == [], argv


def test_gkdim_loads_no_parabolic_setup():
    # the family rule lives in socular.errors, so a GK dimension needs no setup code
    unused = ["socular.setups", "socular.parabolic", "socular.oracles"]
    assert _fresh_modules(_after_run(["gkdim", "--family", "B", "--n", "4", "--weight", "-5,-6,-4,2"]), unused) == []
    assert _fresh_modules("import socular; socular.gk_dimension((-5, -6, -4, 2), 'B')", unused) == []


def _subcommands(parser) -> list[str]:
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return list(sub.choices)


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["--json", "gkdim"]], ids=str)
def test_a_call_without_a_leading_subcommand_takes_the_full_parser(argv):
    assert _subcommands(cli._parser_for(argv)) == list(cli.COMMANDS)


ONE_SUBCOMMAND = [argv for argv, *_ in CONTRACT if argv.split()[:1] and argv.split()[0] in cli.COMMANDS]


@pytest.mark.parametrize("argv", ONE_SUBCOMMAND, ids=_argv_id)
def test_one_subparser_parses_like_the_full_parser(capsys, monkeypatch, argv):
    argv = argv.split()
    assert _subcommands(cli._parser_for(argv)) == [argv[0]]
    alone = (run(argv), *capsys.readouterr())
    monkeypatch.setattr(cli, "_parser_for", lambda argv: build_parser())
    assert (run(argv), *capsys.readouterr()) == alone
