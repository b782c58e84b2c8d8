import contextlib
import functools
import hashlib
import itertools
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import factoroid
from factoroid import cli, vna
from factoroid import constructors as mk
from factoroid.cocycle import NotUnitModulus, validate_cocycle
from factoroid.groupoid import BadInverse, BadUnit, DanglingReference
from factoroid.textio import ParseError, parse_text, serialize

from references import trivial_groupoid


def test_round_trip_plain(full3):
    text = serialize(full3)
    g, w = parse_text(text)
    assert w is None
    assert g.arrow_order == full3.arrow_order
    assert g.units == full3.units
    assert g.mass == full3.mass
    assert g.compose == full3.compose
    assert serialize(g) == text


def test_round_trip_cocycle(klein_twisted):
    g0, w0 = klein_twisted
    text = serialize(g0, w0)
    g, w = parse_text(text)
    assert w is not None
    for pair in g0.composable_pairs():
        from references import as_complex

        assert w(*pair) == as_complex(w0(*pair))
    assert serialize(g, w) == text


def test_round_trip_exact_masses():
    g0 = trivial_groupoid(
        ["x0", "x1"],
        {"x0": float(Fraction(1, 3)), "x1": float(Fraction(2, 3))},
        exact_mass={"x0": Fraction(1, 3), "x1": Fraction(2, 3)},
    )
    text = serialize(g0)
    assert "1/3" in text
    g, _ = parse_text(text)
    assert g.exact_mass == {"x0": Fraction(1, 3), "x1": Fraction(2, 3)}
    assert serialize(g) == text


def test_round_trip_awkward_floats():
    masses = {"x0": 0.1, "x1": 0.2, "x2": 1.0 - 0.1 - 0.2}
    g0 = trivial_groupoid(["x0", "x1", "x2"], masses)
    g, _ = parse_text(serialize(g0))
    assert g.mass == masses


def test_random_instances_round_trip():
    for seed in range(20):
        g0 = mk.random_groupoid(seed)
        g, _ = parse_text(serialize(g0))
        assert g.arrow_order == g0.arrow_order
        assert g.mass == g0.mass
        assert g.compose == g0.compose
        assert g.inverse == g0.inverse


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_text("[units]\nx0 0.5 extra\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_text("x0 0.5\n")
    with pytest.raises(ParseError):
        parse_text("[nonsense]\n")


def test_bad_mass_names_its_line():
    with pytest.raises(ParseError) as err:
        parse_text("[units]\nx0 1.0\n\npt abc\n")
    assert err.value.line == 4
    assert "'abc'" in str(err.value)


def test_exact_mass_too_large_for_a_float_names_its_line():
    # a fraction elsewhere makes every mass exact; 1e400 has no float
    with pytest.raises(ParseError) as err:
        parse_text("[units]\nx0 1e400\nx1 1/2\n")
    assert err.value.line == 2
    assert "'1e400'" in str(err.value)


@pytest.mark.parametrize(
    "section, clash",
    [
        ("unit_arrows", "x0 r|x0|x1"),
        ("compose", "r|x0|x1 r|x1|x0 r|x1|x1"),
        ("inverse", "r|x0|x1 r|x0|x1"),
        ("cocycle", "r|x0|x1 r|x1|x0 -1.0 0.0"),
    ],
    ids=["unit_arrows", "compose", "inverse", "cocycle"],
)
def test_duplicate_row_names_its_line(full2, section, clash):
    # a contradicting row ahead of the true one; the second of the two is named
    text = serialize(full2) + "[cocycle]\nr|x0|x1 r|x1|x0 1.0 0.0\n"
    lines = text.splitlines()
    header = lines.index(f"[{section}]")
    key = clash.split()[: 1 if section in ("unit_arrows", "inverse") else 2]
    true_row = next(
        i for i in range(header + 1, len(lines)) if lines[i].split()[: len(key)] == key
    )
    lines.insert(header + 1, clash)
    with pytest.raises(ParseError) as err:
        parse_text("\n".join(lines))
    assert err.value.line == true_row + 2  # 1-based, after the inserted row
    assert f"first given on line {header + 2}" in str(err.value)


@pytest.mark.parametrize(
    "bad, message",
    [
        ("r|x1|x1 r|x1|x0", "compose rows need `g h gh`"),
        ("r|x0|x0 r|x0|x0 r|x0|x1",
         "duplicate compose row for 'r|x0|x0 r|x0|x0' (first given on line {first})"),
    ],
    ids=["width", "duplicate"],
)
def test_line_numbers_count_every_line_break(full2, bad, message):
    # rows numbered as str.splitlines numbers them, whatever the separator
    lines = serialize(full2).splitlines()
    header = lines.index("[compose]")
    lines[header] += "  # g h gh"
    lines[header + 1] += "  # the unit squares to itself"
    lines[header + 1 : header + 1] = ["", "# one row per composable pair", "   "]
    lines.insert(1, "")
    first = lines.index("r|x0|x0 r|x0|x0 r|x0|x0  # the unit squares to itself") + 1
    at = lines.index("[inverse]")
    separators = itertools.cycle(["\r\n", "\x0c", "\u2028", "\n"])
    parse_text("".join(line + next(separators) for line in lines))
    lines.insert(at, bad)
    with pytest.raises(ParseError) as err:
        parse_text("".join(line + next(separators) for line in lines))
    assert err.value.line == at + 1
    assert str(err.value) == f"line {at + 1}: " + message.format(first=first)


def _fault_base() -> list[str]:
    """full2 on lines 1-25 (headers on 1, 4, 9, 12 and 21), then a cocycle
    section: its header on line 26 and two rows on lines 27-28."""
    g, _ = mk.NAMED_INSTANCES["full2"]()
    text = serialize(g) + "[cocycle]\nr|x0|x1 r|x1|x0 1.0 0.0\nr|x1|x0 r|x0|x1 1.0 0.0\n"
    return text.splitlines()


# an edit (k, row) with k > 0 replaces line k; with k < 0 it inserts the row
# so that it becomes line -k; edits apply from the largest |k| down
_FAULTS = {  # edits of _fault_base(), then the class, line and message
    "units: ragged row": (
        [(2, "x0 0.5 extra")], ParseError, 2,
        "units rows need `id mass`"),
    "units: repeated key": (
        [(-4, "x0 0.25")], ParseError, 4,
        "duplicate unit 'x0'"),
    "units: unknown section": (
        [(1, "[unitz]")], ParseError, 1,
        "unknown section 'unitz'"),
    "units: bad mass": (
        [(3, "x1 abc")], ParseError, 3,
        "bad mass 'abc' for 'x1': could not convert string to float: 'abc'"),
    "units: nan mass": (
        [(3, "x1 nan")], ParseError, 3,
        "bad mass 'nan' for 'x1': mass must be finite"),
    "units: infinite mass": (
        [(2, "x0 -inf")], ParseError, 2,
        "bad mass '-inf' for 'x0': mass must be finite"),
    "units: mass overflowing to inf": (
        [(2, "x0 1e999")], ParseError, 2,
        "bad mass '1e999' for 'x0': mass must be finite"),
    "unit_arrows: unknown unit": (
        [(-12, "zz r|x0|x0")], BadUnit, None,
        "unit_arrows must be defined for every unit"),
    "inverse: unknown arrow": (
        [(-26, "zz r|x0|x0")], BadInverse, None,
        "inverse must be defined for every arrow"),
    "units: no rows": (
        [(2, "# x0 0.5"), (3, "")], ParseError, 0,
        "no units defined"),
    "arrows: ragged row": (
        [(5, "r|x0|x0 x0")], ParseError, 5,
        "arrows rows need `id src tgt`"),
    "arrows: repeated key": (
        [(-9, "r|x0|x1 x1 x0")], DanglingReference, None,
        "duplicate arrow identifiers"),
    "arrows: unknown id": (
        [(6, "r|x0|x1 zz x0")], DanglingReference, None,
        "arrow 'r|x0|x1' references unknown unit"),
    "arrows: unknown section": (
        [(4, "[arrowz]")], ParseError, 4,
        "unknown section 'arrowz'"),
    "unit_arrows: ragged row": (
        [(10, "x0 r|x0|x0 extra")], ParseError, 10,
        "unit_arrows rows need `unit arrow`"),
    "unit_arrows: repeated key": (
        [(-12, "x0 r|x1|x1")], ParseError, 12,
        "duplicate unit_arrows row for 'x0' (first given on line 10)"),
    "unit_arrows: unknown id": (
        [(11, "x1 zz")], DanglingReference, None,
        "unit arrow 'zz' of 'x1' is not an arrow"),
    "unit_arrows: unknown section": (
        [(9, "[unit_arrowz]")], ParseError, 9,
        "unknown section 'unit_arrowz'"),
    "compose: ragged row": (
        [(13, "r|x0|x0 r|x0|x0")], ParseError, 13,
        "compose rows need `g h gh`"),
    "compose: repeated key": (
        [(-21, "r|x0|x0 r|x0|x1 r|x0|x0")], ParseError, 21,
        "duplicate compose row for 'r|x0|x0 r|x0|x1' (first given on line 14)"),
    "compose: unknown id": (
        [(15, "r|x0|x1 zz r|x0|x0")], DanglingReference, None,
        "compose entry ('r|x0|x1','zz')->'r|x0|x0' uses unknown arrow"),
    "compose: unknown section": (
        [(12, "[composer]")], ParseError, 12,
        "unknown section 'composer'"),
    "inverse: ragged row": (
        [(22, "r|x0|x0")], ParseError, 22,
        "inverse rows need `g ginv`"),
    "inverse: repeated key": (
        [(-26, "r|x0|x1 r|x0|x1")], ParseError, 26,
        "duplicate inverse row for 'r|x0|x1' (first given on line 23)"),
    "inverse: unknown id": (
        [(23, "r|x0|x1 zz")], DanglingReference, None,
        "inverse of 'r|x0|x1' is unknown"),
    "inverse: unknown section": (
        [(21, "[inverses]")], ParseError, 21,
        "unknown section 'inverses'"),
    "cocycle: ragged row": (
        [(27, "r|x0|x1 r|x1|x0 1.0")], ParseError, 27,
        "cocycle rows need `g h re im`"),
    "cocycle: repeated key": (
        [(-29, "r|x0|x1 r|x1|x0 -1.0 0.0")], ParseError, 29,
        "duplicate cocycle row for 'r|x0|x1 r|x1|x0' (first given on line 27)"),
    "cocycle: unknown id": (
        [(27, "zz r|x1|x0 1.0 0.0")], ParseError, 27,
        "cocycle entry on non-composable pair ('zz', 'r|x1|x0')"),
    "cocycle: unknown section": (
        [(26, "[cocycles]")], ParseError, 26,
        "unknown section 'cocycles'"),
    "cocycle: bad phase": (
        [(28, "r|x1|x0 r|x0|x1 1.0 abc")], ParseError, 28,
        "bad phase: could not convert string to float: 'abc'"),
    "cocycle: non-unit phase": (
        [(27, "r|x0|x1 r|x1|x0 0.5 0.0")], ParseError, 27,
        "phase 0.5 0.0 does not have modulus 1"),
    "cocycle: nan phase": (
        [(27, "r|x0|x1 r|x1|x0 nan 0.0")], ParseError, 27,
        "phase nan 0.0 does not have modulus 1"),
    "cocycle: non-composable pair": (
        [(28, "r|x0|x1 r|x0|x1 1 0")], ParseError, 28,
        "cocycle entry on non-composable pair ('r|x0|x1', 'r|x0|x1')"),
    "compose: header with a stray bracketed field": (
        [(12, "[compose] x]  # note")], ParseError, 12,
        "unknown section 'compose] x'"),
    "data before a header": (
        [(-1, "x0 0.5")], ParseError, 1,
        "data before any section header"),
    "data before a header, after a comment": (
        [(-1, "# note"), (-1, ""), (-1, "x0 0.5")], ParseError, 1,
        "data before any section header"),
    "compose: repeated key before an unknown id": (
        [(13, "zz r|x0|x0 r|x0|x0"), (-21, "r|x0|x0 r|x0|x1 r|x0|x0")], ParseError, 21,
        "duplicate compose row for 'r|x0|x0 r|x0|x1' (first given on line 14)"),
    "compose: distinct unknown ids are no repeat": (
        [(13, "zz r|x0|x0 r|x0|x0"), (14, "yy r|x0|x0 r|x0|x0")], DanglingReference, None,
        "compose entry ('zz','r|x0|x0')->'r|x0|x0' uses unknown arrow"),
    "compose: a repeated unknown id is a repeat": (
        [(13, "zz r|x0|x0 r|x0|x0"), (-21, "zz r|x0|x0 r|x1|x1")], ParseError, 21,
        "duplicate compose row for 'zz r|x0|x0' (first given on line 13)"),
    "compose: repeated key before a later ragged row": (
        [(-21, "r|x0|x0 r|x0|x1 r|x0|x0"), (-22, "r|x0|x0")], ParseError, 21,
        "duplicate compose row for 'r|x0|x0 r|x0|x1' (first given on line 14)"),
    "compose: ragged row before a repeated key": (
        [(13, "r|x0|x0"), (-21, "r|x0|x0 r|x0|x1 r|x0|x0")], ParseError, 13,
        "compose rows need `g h gh`"),
    "compose: repeated key before an inverse repeat": (
        [(-21, "r|x0|x0 r|x0|x1 r|x0|x0"), (-26, "r|x0|x1 r|x0|x1")], ParseError, 21,
        "duplicate compose row for 'r|x0|x0 r|x0|x1' (first given on line 14)"),
    "compose: repeated key before an arrow fault": (
        [(6, "r|x0|x1 zz x0"), (-21, "r|x0|x0 r|x0|x1 r|x0|x0")], ParseError, 21,
        "duplicate compose row for 'r|x0|x0 r|x0|x1' (first given on line 14)"),
    "units: bad mass before a compose repeat": (
        [(3, "x1 abc"), (-21, "r|x0|x0 r|x0|x1 r|x0|x0")], ParseError, 3,
        "bad mass 'abc' for 'x1': could not convert string to float: 'abc'"),
    "units: ragged row before an unknown section": (
        [(2, "x0 0.5 extra"), (21, "[inverses]")], ParseError, 21,
        "unknown section 'inverses'"),
    "inverse: repeated key before an arrow fault": (
        [(6, "r|x0|x1 zz x0"), (-26, "r|x0|x1 r|x0|x1")], ParseError, 26,
        "duplicate inverse row for 'r|x0|x1' (first given on line 23)"),
    "cocycle: non-unit phase before a repeat": (
        [(27, "r|x0|x1 r|x1|x0 0.5 0.0"), (-29, "r|x0|x1 r|x1|x0 -1.0 0.0")],
        ParseError, 27,
        "phase 0.5 0.0 does not have modulus 1"),
    "cocycle: repeat before a ragged row": (
        [(-29, "r|x0|x1 r|x1|x0 -1.0 0.0"), (-30, "r|x0|x1")], ParseError, 29,
        "duplicate cocycle row for 'r|x0|x1 r|x1|x0' (first given on line 27)"),
    "cocycle: ragged row before a bad phase": (
        [(27, "r|x0|x1 r|x1|x0 1.0"), (28, "r|x1|x0 r|x0|x1 abc 0.0")], ParseError, 27,
        "cocycle rows need `g h re im`"),
    "cocycle: unknown id after a groupoid fault": (
        [(23, "r|x0|x1 zz"), (27, "zz r|x1|x0 1.0 0.0")], DanglingReference, None,
        "inverse of 'r|x0|x1' is unknown"),
}


@pytest.mark.parametrize("case", list(_FAULTS), ids=list(_FAULTS))
def test_first_fault_is_pinned(case):
    # every section crossed with every fault, and pairs of faults: the class,
    # message and line of the fault named first
    edits, cls, line, message = _FAULTS[case]
    lines = _fault_base()
    for at, row in sorted(edits, key=lambda e: -abs(e[0])):
        if at > 0:
            lines[at - 1] = row
        else:
            lines.insert(-at - 1, row)
    with pytest.raises(ValueError) as err:
        parse_text("\n".join(lines) + "\n")
    prefix = "" if line is None else f"line {line}: "
    assert type(err.value) is cls
    assert str(err.value) == prefix + message
    assert getattr(err.value, "line", None) == line


def test_messy_file_reports_like_the_clean_one(tmp_path, capsys):
    # comments, blank lines, tabs, CRLF line ends and a spaced header
    messy = os.path.join(os.path.dirname(__file__), "data", "klein4-twisted-messy.txt")
    with open(messy, "rb") as fh:
        raw = fh.read()
    assert raw.count(b"\r\n") == raw.count(b"\n") and b"\t" in raw
    assert b"[ compose ]  # note" in raw
    clean = tmp_path / "clean.txt"
    assert run_cli(capsys, "gen", "--family", "klein4-twisted", "--out", str(clean))[0] == 0
    code, want = run_cli(capsys, "report", str(clean), "--format", "json")
    assert code == 0 and run_cli(capsys, "report", messy, "--format", "json") == (0, want)


def test_missing_inverse_entry_names_arrow(full2):
    text = serialize(full2)
    lines = [l for l in text.splitlines() if l != "r|x0|x1 r|x1|x0"]
    with pytest.raises(BadInverse) as err:
        parse_text("\n".join(lines))
    assert "r|x0|x1" in err.value.ids


def test_bad_cocycle_modulus_rejected(z2):
    text = serialize(z2) + "[cocycle]\npt.1 pt.1 0.5 0.0\n"
    with pytest.raises(ParseError) as err:
        parse_text(text)
    assert err.value.line == len(text.splitlines())
    # the cocycle check itself rejects the value, NaN included
    for bad in (0.5, complex("nan")):
        values = {pair: 1.0 for pair in z2.composable_pairs()}
        values[("pt.1", "pt.1")] = bad
        with pytest.raises(NotUnitModulus):
            validate_cocycle(z2, list(values.values()))


def test_cocycle_on_noncomposable_pair_rejected(full2):
    text = serialize(full2) + "[cocycle]\nr|x0|x1 r|x0|x1 1 0\n"
    with pytest.raises(ParseError):
        parse_text(text)


# -- command line ------------------------------------------------------------

def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_gen_validate_report(tmp_path, capsys):
    path = tmp_path / "full2.txt"
    code, _ = run_cli(capsys, "gen", "--family", "full2", "--out", str(path))
    assert code == 0
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 0 and "valid groupoid" in out
    code, out = run_cli(capsys, "report", str(path), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["factor"] and data["consistent"]


def test_cli_report_klein_twisted(tmp_path, capsys):
    path = tmp_path / "k4t.txt"
    run_cli(capsys, "gen", "--family", "klein4-twisted", "--out", str(path))
    code, out = run_cli(capsys, "report", str(path), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["twisted"] and data["center_dim"] == 1 and data["consistent"]


def test_cli_kleppner_exit_codes(tmp_path, capsys):
    z2 = tmp_path / "z2.txt"
    run_cli(capsys, "gen", "--family", "z2", "--out", str(z2))
    code, out = run_cli(capsys, "kleppner", str(z2))
    assert code == 0 and "False" in out


def test_cli_corrupted_file_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("[units]\nx0 0.5\n[arrows]\ng x0 missing\n")
    code = cli.main(["validate", str(path)])
    assert code == 1


@pytest.mark.parametrize("verb, command, target", [
    ("read", ["report"], "dir"),
    ("read", ["report"], "utf16.txt"),
    ("write", ["gen", "--family", "z2", "--out"], "dir"),
    ("write", ["gen", "--family", "z2", "--out"], "missing/x.txt"),
    ("write", ["globalize", "--out"], "dir"),
], ids=["report-dir", "report-utf16", "gen-dir", "gen-missing-dir", "globalize-dir"])
def test_cli_unusable_path_exits_1_naming_it(tmp_path, capsys, verb, command, target):
    (tmp_path / "dir").mkdir()
    (tmp_path / "utf16.txt").write_bytes("[units]\n".encode("utf-16"))  # starts ff fe
    path = str(tmp_path / target)
    code = cli.main([*command, path])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot {verb} {path}: ") and "Traceback" not in err


def test_cli_inconsistent_report_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "z2.txt"
    run_cli(capsys, "gen", "--family", "z2", "--out", str(path))

    real = cli.factoriality_report

    def broken(g, w=None, **kw):
        return real(g, w, **kw)._replace(consistent=False)

    monkeypatch.setattr(cli, "factoriality_report", broken)
    code, _ = run_cli(capsys, "report", str(path))
    assert code == 2


@pytest.mark.parametrize("message, detail", [
    ("Unable to allocate 43.7 TiB for an array", "Unable to allocate 43.7 TiB for an array"),
    ("", "allocation failed"),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("command, owner, name", [
    (["report", "{file}"], cli, "factoriality_report"),
    (["dr-scan", "--bound", "1000000000000"], mk, "deaconu_renault"),
], ids=["report", "dr-scan"])
def test_cli_out_of_memory_exits_1(tmp_path, capsys, monkeypatch, command, owner, name,
                                   message, detail):
    # the allocation fails by monkeypatch: a real one of that size could be
    # granted lazily under overcommit and then fill the host's memory
    path = tmp_path / "z2.txt"
    run_cli(capsys, "gen", "--family", "z2", "--out", str(path))

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(owner, name, exhausted)
    code = cli.main([arg.format(file=path) for arg in command])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == f"error: out of memory: {detail}\n"


def test_cli_internal_inconsistency_exits_2(tmp_path, capsys, monkeypatch):
    # the center's rows are orthonormal by construction; rows that are not
    # break that invariant, which MatrixStarAlgebra checks
    path = tmp_path / "full3.txt"
    run_cli(capsys, "gen", "--family", "full3", "--out", str(path))
    real = vna._null_algebra

    def doubled(eigvals, confirm, tol):
        rows, gap = real(eigvals, confirm, tol)
        return 2 * rows, gap

    monkeypatch.setattr(vna, "_null_algebra", doubled)
    code = cli.main(["report", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert "not orthonormal" in captured.err


@pytest.mark.parametrize("phase", ["nan 0", "0.5 0", "inf 0"])
def test_cli_bad_phase_exits_1_naming_its_line(tmp_path, capsys, phase):
    path = tmp_path / "k.txt"
    run_cli(capsys, "gen", "--family", "klein4-twisted", "--out", str(path))
    lines = path.read_text().splitlines()
    row = lines.index("[cocycle]") + 1
    lines[row] = " ".join(lines[row].split()[:2] + [phase])
    path.write_text("\n".join(lines) + "\n")
    code = cli.main(["report", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert f"line {row + 1}:" in captured.err


@pytest.mark.parametrize("seed", [21, 24, 48])
def test_cli_tight_rank_tol_passes_structure_check(tmp_path, capsys, seed):
    # these tables pass validate_cocycle; rounding of their product phases
    # near 1e-15 is no structural defect, so at the least tolerance taken
    # (above that rounding) the report is consistent
    path = tmp_path / "rt.txt"
    run_cli(capsys, "gen", "--family", "random-twisted", "--seed", str(seed),
            "--out", str(path))
    bound = str(cli.MIN_TOLERANCE)
    code = cli.main(["report", str(path), "--rank-tol", bound, "--containment-tol", bound])
    captured = capsys.readouterr()
    assert code == 0 and not captured.err


def _env_with_src():
    """The environment, with this checkout's package first on the path."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(factoroid.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_closed_pipe_exits_1_without_traceback():
    # the reader is gone before the command writes its first byte
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "factoroid", "dr-scan", "--size", "10", "--bound", "10"],
            stdout=write_end, stderr=subprocess.PIPE, env=_env_with_src(), timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr and b"Exception ignored" not in proc.stderr


def _strict_json(text):
    """Parse ``text`` as RFC 8259 JSON, which has no Infinity or NaN."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_cli_json_writes_non_finite_floats_as_null(tmp_path, capsys):
    # center rejects no eigenvalue on z2, so the rejected end of the gap is inf
    path = str(tmp_path / "z2.txt")
    run_cli(capsys, "gen", "--family", "z2", "--out", path)
    code, out = run_cli(capsys, "report", path, "--format", "json")
    assert code == 0
    assert _strict_json(out)["center_gap"] == [0.0, None]
    code, out = run_cli(capsys, "center", path, "--format", "json")
    assert code == 0
    assert _strict_json(out)["gap"] == [0.0, None]
    code, out = run_cli(capsys, "report", path)
    assert code == 0
    assert ["center_gap", "[0.0, inf]"] in [line.split(None, 1) for line in out.splitlines()]


_BLOCKED = """
import contextlib, io, json, sys
for name in json.loads(sys.argv[1]):
    sys.modules[name] = None  # any import of it now raises
from factoroid import cli
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def _run_blocked(capsys, blocked, calls):
    """Run each of ``calls`` through ``cli.main`` in one fresh interpreter in
    which every module of ``blocked`` fails to import; each must exit 0 with
    the code and stdout it gives in this process."""
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED, json.dumps(blocked), json.dumps(calls)],
        capture_output=True, text=True, env=_env_with_src(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for argv, (code, out) in zip(calls, json.loads(proc.stdout), strict=True):
        assert [code, out] == list(run_cli(capsys, *argv)) and code == 0, argv


def test_cli_never_imports_scipy(tmp_path, capsys):
    # scipy is for the tests' dense oracle alone; no subcommand may load it
    path = str(tmp_path / "k.txt")
    run_cli(capsys, "gen", "--family", "klein4-twisted", "--out", path)
    _run_blocked(capsys, ["scipy"], [
        ["report", path, "--format", "json"], ["center", path], ["validate", path],
        ["icc", path], ["twisted-icc", path], ["kleppner", path],
        ["fourier", path, "--elements", "2"], ["gen", "--family", "klein4-twisted"],
        ["corpus", "--count", "3"],
    ])


def test_report_commands_load_neither_builders_nor_basis(tmp_path, capsys):
    # the instance builders and the Fourier basis serve other commands only
    path = str(tmp_path / "t.txt")
    run_cli(capsys, "gen", "--family", "random-twisted", "--seed", "3", "--out", path)
    _run_blocked(capsys, ["scipy", "factoroid.constructors", "factoroid.basis"], [
        ["report", path], ["report", path, "--format", "json"], ["validate", path],
        ["center", path], ["icc", path], ["twisted-icc", path], ["kleppner", path],
    ])


def test_generators_and_reports_never_load_numpy_ma(tmp_path, capsys):
    # numpy.ma costs 11-15 ms to import; np.unique loads it, so neither the
    # acceptance generators (seed 4 draws a coset action first, the twisted
    # ones turn their coboundaries to phases) nor a report calls np.unique
    path = str(tmp_path / "t.txt")
    run_cli(capsys, "gen", "--family", "random-twisted", "--seed", "3", "--out", path)
    _run_blocked(capsys, ["numpy.ma"], [
        ["gen", "--family", "random", "--seed", "4"],
        ["gen", "--family", "random-twisted", "--seed", "3"],
        ["corpus", "--count", "20"], ["corpus", "--twisted", "--count", "20"], ["report", path],
    ])


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "s3-bundle"], ["corpus", "--count", "3"],
    ["fourier", "{file}", "--elements", "2"], ["globalize", "--demo"], ["dr-scan"],
])
def test_commands_import_what_they_run_in_a_fresh_process(tmp_path, capsys, argv):
    path = str(tmp_path / "k.txt")
    run_cli(capsys, "gen", "--family", "klein4-twisted", "--out", path)
    argv = [arg.format(file=path) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "factoroid", *argv],
        capture_output=True, text=True, env=_env_with_src(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert run_cli(capsys, *argv) == (0, proc.stdout)


def test_family_names_match_the_registry(capsys):
    names = sorted([*mk.NAMED_INSTANCES, *cli._FAMILIES])
    assert cli._FAMILY_NAMES == tuple(names)
    assert cli.main(["gen", "--family", "nosuch"]) == 1
    assert capsys.readouterr().err == (
        f"error: unknown family 'nosuch'; choose from {', '.join(names)}\n"
    )


# every public name of the package, submodules included
_EXPORTED = (
    "Arrow", "AsymmetricBasis", "BadInverse", "BadUnit", "Basis",
    "CentralSetCertificate", "Cocycle", "CocycleIdentityViolated", "ConjugacyClass",
    "DanglingReference", "EmptyRestriction", "FactorialityReport", "FourierData",
    "GroupoidError", "IccVerdict", "KleppnerVerdict", "L2Space", "MatrixStarAlgebra",
    "MeasuredGroupoid", "NonAssociative", "NotErgodic", "NotInAlgebra",
    "NotIsotropy", "NotUnitModulus", "ParseError", "RegularityVerdict",
    "TranslationAlgebra", "TwistedIccVerdict", "algebra", "apply_coboundary", "basis",
    "build_basis", "center", "central_set_search", "check_basis", "check_isomorphism",
    "cocycle", "conditional_expectation", "conjugacy", "conjugacy_class",
    "conjugate_basis", "ergodic_class_decomposition", "extend_iso_basis",
    "factoriality_report", "fourier", "groupoid", "invariant_subalgebra", "is_icc",
    "is_omega_regular", "j_map", "kleppner_holds", "l2_space", "multiplication_operator",
    "normalize_cocycle", "parse_file", "parse_text", "phi_and_sharp", "serialize",
    "subspace_leq", "subspaces_equal", "textio", "trivial_cocycle", "twisted_icc",
    "validate_cocycle", "validate_groupoid", "vna", "write_file",
)

_EXPORT_PROBE = """
import json, sys
import factoroid.textio
loaded = sorted(m for m in sys.modules if m.startswith("factoroid"))
listed = dir(factoroid)
for name in json.loads(sys.argv[1]):
    exec(f"from factoroid import {name}")
print(json.dumps([loaded, listed]))
"""


def test_package_names_resolve_on_first_access():
    # importing one submodule runs it and what it imports, nothing else;
    # every public name is listed at once and imports when asked for
    proc = subprocess.run(
        [sys.executable, "-c", _EXPORT_PROBE, json.dumps(_EXPORTED)],
        capture_output=True, text=True, env=_env_with_src(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, listed = json.loads(proc.stdout)
    assert loaded == [
        "factoroid", "factoroid.cocycle", "factoroid.conjugacy", "factoroid.groupoid",
        "factoroid.textio",
    ]
    assert set(_EXPORTED) <= set(listed) and "__version__" in listed
    assert sorted(factoroid.__all__) == sorted(_EXPORTED)
    assert factoroid.MeasuredGroupoid is factoroid.groupoid.MeasuredGroupoid
    assert factoroid.build_basis.__module__ == "factoroid.basis"
    with pytest.raises(AttributeError, match="no_such_name"):
        factoroid.no_such_name


def test_cli_reports_are_deterministic(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    run_cli(capsys, "gen", "--family", "random", "--seed", "5", "--out", str(path))
    _, out1 = run_cli(capsys, "report", str(path), "--format", "json")
    _, out2 = run_cli(capsys, "report", str(path), "--format", "json")
    assert out1 == out2


def test_cli_center_and_icc(tmp_path, capsys):
    path = tmp_path / "s3.txt"
    run_cli(capsys, "gen", "--family", "s3-bundle", "--out", str(path))
    code, out = run_cli(capsys, "center", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["center_dim"] == 3
    code, out = run_cli(capsys, "icc", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["icc"] is False


def test_cli_twisted_icc(tmp_path, capsys):
    path = tmp_path / "k4t.txt"
    run_cli(capsys, "gen", "--family", "klein4-twisted", "--out", str(path))
    code, out = run_cli(capsys, "twisted-icc", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["twisted_icc"] is True


def test_cli_fourier(tmp_path, capsys):
    path = tmp_path / "full2.txt"
    run_cli(capsys, "gen", "--family", "full2", "--out", str(path))
    code, out = run_cli(
        capsys, "fourier", str(path), "--elements", "5", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["max_residual"] < 1e-10
    assert data["max_parseval_gap"] < 1e-9


def test_cli_corpus(capsys):
    code, out = run_cli(capsys, "corpus", "--count", "4", "--seed", "0")
    assert code == 0
    assert "0 inconsistent" in out


def test_cli_corpus_twisted(capsys):
    code, out = run_cli(capsys, "corpus", "--count", "4", "--seed", "0", "--twisted")
    assert code == 0


def test_cli_corpus_kleppner_converse_flag(capsys):
    code, out = run_cli(
        capsys, "corpus", "--count", "5", "--seed", "0", "--twisted",
        "--kleppner-converse",
    )
    assert code == 0
    assert "kleppner-converse candidates" in out


def test_cli_globalize(capsys):
    code, out = run_cli(capsys, "globalize", "--demo")
    assert code == 0 and "True" in out
    code, out = run_cli(capsys, "globalize", "--seed", "3")
    assert code == 0


def test_cli_dr_scan(capsys):
    code, out = run_cli(
        capsys, "dr-scan", "--map", "x0:x1,x1:x1", "--bound", "2"
    )
    assert code == 0
    assert "essentially_free" in out


def test_cli_env_tolerance(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FACTOROID_TOLERANCE", "1e-7")
    path = tmp_path / "z2.txt"
    run_cli(capsys, "gen", "--family", "z2", "--out", str(path))
    code, out = run_cli(capsys, "report", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["rank_tol"] == 1e-7


def test_cli_bad_env_tolerance_exits_1(tmp_path, capsys, monkeypatch):
    path = tmp_path / "z2.txt"
    run_cli(capsys, "gen", "--family", "z2", "--out", str(path))
    monkeypatch.setenv("FACTOROID_TOLERANCE", "abc")
    assert cli.main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "FACTOROID_TOLERANCE" in err


@pytest.mark.parametrize(
    "option, value",
    [("--rank-tol", "-1"), ("--rank-tol", "0"), ("--rank-tol", "nan"),
     ("--rank-tol", "inf"), ("--containment-tol", "-1"), ("--containment-tol", "1"),
     # below MIN_TOLERANCE a decision would rest on rounding, and valid
     # files ended in exit 2
     ("--rank-tol", "1e-16"), ("--rank-tol", "1e-15"), ("--rank-tol", "9.9e-13"),
     ("--containment-tol", "1e-16"), ("--containment-tol", "2.3e-16"),
     ("--containment-tol", "9.9e-13")],
)
def test_cli_bad_tolerance_exits_1(tmp_path, capsys, option, value):
    path = tmp_path / "full3.txt"
    run_cli(capsys, "gen", "--family", "full3", "--out", str(path))
    assert cli.main(["report", str(path), option, value]) == 1
    captured = capsys.readouterr()
    assert not captured.out and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and option in captured.err
    assert ">= 1e-12" in captured.err


@pytest.mark.parametrize("value", ["1e-16", "9.9e-13"])
def test_cli_env_tolerance_below_the_bound_exits_1(tmp_path, capsys, monkeypatch, value):
    path = tmp_path / "k.txt"
    run_cli(capsys, "gen", "--family", "klein4-twisted", "--out", str(path))
    monkeypatch.setenv("FACTOROID_TOLERANCE", value)
    for argv in (["report", str(path)], ["center", str(path)], ["corpus", "--count", "1"]):
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert not captured.out and "Traceback" not in captured.err
        assert captured.err.startswith("error: FACTOROID_TOLERANCE ") and "1e-12" in captured.err
    monkeypatch.setenv("FACTOROID_TOLERANCE", str(cli.MIN_TOLERANCE))
    code, out = run_cli(capsys, "report", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["rank_tol"] == cli.MIN_TOLERANCE


def test_cli_every_accepted_tolerance_reports_random_twisted_consistently(capsys):
    # at the bound, for both options, and at wide tolerances, the corpus
    # runs consistent: no tolerance that is taken ends in exit 2
    bound = str(cli.MIN_TOLERANCE)
    for argv in (["--rank-tol", bound], ["--containment-tol", bound],
                 ["--rank-tol", "0.5"], ["--rank-tol", "2"], ["--containment-tol", "0.999"]):
        code, out = run_cli(capsys, "corpus", "--twisted", "--count", "200", *argv)
        assert code == 0 and out.endswith("checked 200 instances, 0 inconsistent\n"), argv


@pytest.mark.parametrize("tol", ["0.5", "2"])
def test_cli_wide_rank_tol_keeps_the_full_algebra(tmp_path, capsys, tol):
    # the translations have rank n whatever the tolerance, so a wide one no
    # longer drops any of them; sn_bundle(5) keeps its 17-dimensional center
    path = tmp_path / "sn5.txt"
    run_cli(capsys, "gen", "--family", "sn-bundle", "--n", "5", "--out", str(path))
    code, out = run_cli(capsys, "report", str(path), "--rank-tol", tol, "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["consistent"] and report["center_dim"] == 17


def test_cli_env_tolerance_read_only_where_taken(capsys, monkeypatch):
    monkeypatch.setenv("FACTOROID_TOLERANCE", "abc")
    code, out = run_cli(capsys, "gen", "--family", "z2")
    assert code == 0 and out.startswith("[units]")


def test_cli_negative_env_tolerance_exits_1(tmp_path, capsys, monkeypatch):
    path = tmp_path / "full3.txt"
    run_cli(capsys, "gen", "--family", "full3", "--out", str(path))
    monkeypatch.setenv("FACTOROID_TOLERANCE", "-1")
    assert cli.main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "FACTOROID_TOLERANCE" in err


def test_cli_shared_parser_keeps_no_state(tmp_path, capsys, monkeypatch):
    # one parser serves every call in the process; no option, default or
    # environment value may leak from one call into the next
    path = str(tmp_path / "k.txt")
    run_cli(capsys, "gen", "--family", "klein4-twisted", "--out", path)

    def text_rank_tol(out):
        return [line.split()[1] for line in out.splitlines() if line.startswith("rank_tol ")]

    code, out = run_cli(capsys, "report", "--rank-tol", "1e-6", path)
    assert code == 0 and text_rank_tol(out) == ["1e-06"]
    code, first = run_cli(capsys, "report", path, "--format", "json")
    assert code == 0 and json.loads(first)["rank_tol"] == 1e-9
    monkeypatch.setenv("FACTOROID_TOLERANCE", "1e-7")
    code, out = run_cli(capsys, "report", path)
    assert code == 0 and text_rank_tol(out) == ["1e-07"]
    monkeypatch.delenv("FACTOROID_TOLERANCE")
    assert cli.main(["report", "--rank-tol", "abc", path]) == 1
    assert "--rank-tol" in capsys.readouterr().err
    assert run_cli(capsys, "report", path, "--format", "json") == (0, first)
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "argv",
    [["report"], ["validate", "{file}", "--format", "json"],
     ["icc", "{file}", "--rank-tol", "1e-9"],
     ["center", "{file}", "--containment-tol", "1e-8"],
     ["corpus", "--format", "json"], ["nosuch"], [],
     ["fourier", "{file}", "--elements", "-2"], ["fourier", "{file}", "--elements", "0"],
     ["corpus", "--count", "-1"], ["corpus", "--count", "0"], ["corpus", "--count", "x"],
     ["dr-scan", "--size", "0"], ["dr-scan", "--size", "-3"],
     ["dr-scan", "--map", "x0:x0", "--masses", "x0:1,x9:0.5"]],
)
def test_cli_usage_error_exits_1(tmp_path, capsys, argv):
    # a missing file, an option the subcommand does not read, no subcommand,
    # a count below 1, an empty shift system, a mass for a non-unit
    path = tmp_path / "z2.txt"
    run_cli(capsys, "gen", "--family", "z2", "--out", str(path))
    assert cli.main([arg.format(file=path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert not captured.out and captured.err.startswith("error: ")


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--help"])
    assert exc.value.code == 0
    assert "--rank-tol" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["globalize", "dr-scan"])
def test_cli_json_output_matches_the_pinned_digests(capsys, command):
    # sha256 of `factoroid <command> <key> --format json` on stdout, for
    # globalize seeds 0-49 and --demo, and for dr-scan on a grid of seed,
    # size 1-9 and bound 1-5 and the maps of the README and the CI smoke test
    with open(os.path.join(os.path.dirname(__file__), "data", f"{command}-digests.json")) as fh:
        want = json.load(fh)
    assert len(want) == {"globalize": 51, "dr-scan": 272}[command]
    got = {}
    for key in want:
        code, out = run_cli(capsys, command, *key.split(), "--format", "json")
        assert code == 0, key
        got[key] = hashlib.sha256(out.encode()).hexdigest()
    assert got == want


def test_twisted_outputs_match_the_pinned_digests(tmp_path, capsys):
    # sha256 of `factoroid <command> FILE --format json` on stdout, for the
    # three twisted commands on `gen --family random-twisted --seed s`, s in
    # 0-199; the keys read "<command> --seed <s>"
    with open(os.path.join(os.path.dirname(__file__), "data", "twisted-digests.json")) as fh:
        want = json.load(fh)
    assert len(want) == 600
    got = {}
    for seed in range(200):
        path = str(tmp_path / f"t{seed}.txt")
        assert run_cli(capsys, "gen", "--family", "random-twisted", "--seed", str(seed),
                       "--out", path)[0] == 0
        for command in ("twisted-icc", "kleppner", "report"):
            code, out = run_cli(capsys, command, path, "--format", "json")
            assert code == 0, (command, seed)
            got[f"{command} --seed {seed}"] = hashlib.sha256(out.encode()).hexdigest()
    assert got == want


_SMALL_NAMED = ("full2", "full3", "klein4", "klein4-twisted", "s3-bundle", "swap",
                "z2", "z3", "z4-translation")


def test_untwisted_reports_match_the_pinned_digests(tmp_path, capsys):
    # sha256 of `factoroid report FILE --format <format>` on stdout, keyed
    # "<format> <gen spec>", for `gen --family random --seed s`, s in 0-99,
    # and the nine small named families in json and text, and in json for
    # `sn-bundle --n 3` to `--n 6` and the S4 and S4xZ2 translations (the
    # large multi-block centers); a key "center json <gen spec>" pins
    # `factoroid center FILE --format json` on the sn-bundles
    with open(os.path.join(os.path.dirname(__file__), "data", "report-digests.json")) as fh:
        want = json.load(fh)
    assert len(want) == 228
    specs = [f"random --seed {seed}" for seed in range(100)] + list(_SMALL_NAMED)
    keys = [f"{fmt} {spec}" for spec in specs for fmt in ("json", "text")]
    for spec in [f"sn-bundle --n {n}" for n in range(3, 7)] + ["s4-translation",
                                                               "s4xz2-translation"]:
        keys += [f"json {spec}"] + ([f"center json {spec}"] if spec.startswith("sn") else [])
    assert sorted(keys) == sorted(want)
    got, made = {}, {}
    for key in keys:
        *command, fmt, spec = key.split(" ", 2 if key.startswith("center") else 1)
        if spec not in made:
            made[spec] = str(tmp_path / f"instance{len(made)}.txt")
            assert run_cli(capsys, "gen", "--family", *spec.split(), "--out", made[spec])[0] == 0
        code, out = run_cli(capsys, *(command or ["report"]), made[spec], "--format", fmt)
        assert code == 0, key
        got[key] = hashlib.sha256(out.encode()).hexdigest()
    assert got == want


def _json_safe(value):
    """The reference for ``cli._render``: ``value`` with every non-finite
    float as None, for ``json.dumps``."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     math.inf, -math.inf, math.nan, 1e16, 0.1]),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), _JSON_VALUES, max_size=6))
def test_json_writer_matches_the_stdlib(value):
    # every code point in strings and keys, signed zeros, subnormals,
    # non-finite floats as null, empty lists and dicts at any depth
    assert cli._render(value, "json") == json.dumps(_json_safe(value), indent=2, allow_nan=False)


@pytest.mark.parametrize("value", [
    {"a": {1, 2}}, {"a": [np.int64(3)]}, {"a": {1: "x"}}, {"a": {("b",): 1}}, {"a": np.bool_(True)},
], ids=["set", "numpy-integer", "int-key", "tuple-key", "numpy-bool"])
def test_json_writer_refuses_what_the_stdlib_cannot_write(value):
    with pytest.raises(TypeError):
        cli._render(value, "json")


@pytest.mark.parametrize("command", ["validate", "report", "twisted-icc", "kleppner", "center"])
def test_cocycle_that_validates_normalizes(capsys, command):
    # w(e, e) off 1 by 5e-11, inside the identity tolerance: every command
    # that normalizes runs on what validation accepts
    path = os.path.join(os.path.dirname(__file__), "data", "z2-near-unit-cocycle.txt")
    code = cli.main([command, path, *(["--format", "json"] if command == "report" else [])])
    captured = capsys.readouterr()
    assert code == 0 and not captured.err
    if command == "report":
        rep = json.loads(captured.out)
        assert rep["consistent"] and not rep["factor"]


def test_cli_dr_scan_rejects_bad_map_and_masses(capsys):
    for argv in (
        ["--map", "x0:x9"],
        ["--map", "x0:x1,x1:x0", "--masses", "x0:abc,x1:1"],
        ["--map", "x0:x1,x1:x0", "--masses", "x0:1"],
    ):
        assert cli.main(["dr-scan", *argv]) == 1, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out


@pytest.mark.parametrize(
    "argv, option",
    [(["--map", "x0:x1,x0:x0", "--bound", "1"], "--map"),
     (["--map", "x0:x1,x1:x0", "--masses", "x0:1,x1:1,x0:0"], "--masses"),
     (["--map", "x0:x1, x0 :x0"], "--map")],
)
def test_cli_dr_scan_rejects_a_repeated_key(capsys, argv, option):
    # a key given twice would silently keep its last value
    assert cli.main(["dr-scan", *argv]) == 1
    captured = capsys.readouterr()
    assert not captured.out and "Traceback" not in captured.err
    assert captured.err == f"error: {option} gives 'x0' twice\n"


@pytest.mark.parametrize("masses", ["x0:-1,x1:0,x2:0.5", "x0:nan,x1:0,x2:0.5"])
def test_cli_dr_scan_rejects_negative_and_nan_masses(capsys, masses):
    argv = ["dr-scan", "--map", "x0:x1,x1:x0,x2:x2", "--masses", masses, "--bound", "2"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "'x0'" in captured.err
    assert not captured.out


_BAD_MASSES = ("0", "-0.5", "nan", "inf", "1/0", "1e400")
_BAD_PHASES = ("nan 0", "inf 0", "0.6 0.8")


@functools.cache
def _fuzz_texts() -> list[tuple[str, ...]]:
    """Serialized instances, line by line, for the mutation test."""
    cases = [(mk.random_groupoid(seed), None) for seed in range(4)]
    cases += [mk.random_twisted_pair(seed) for seed in range(4)]
    cases.append(mk.NAMED_INSTANCES["klein4-twisted"]())
    return [tuple(serialize(g, w).splitlines()) for g, w in cases]


def _rows_in(lines, section):
    """Positions of the data lines under ``[section]``."""
    found, current = [], None
    for i, line in enumerate(lines):
        if line.startswith("["):
            current = line[1:-1]
        elif current == section:
            found.append(i)
    return found


def _mutate(lines, kind, data):
    """Drop, duplicate or swap a row, or give a mass or a phase a bad value."""
    if kind == "mass":
        rows = _rows_in(lines, "units")
    elif kind == "phase":  # a cocycle row, or a new one on a composable pair
        cocycle = _rows_in(lines, "cocycle")
        rows = cocycle or _rows_in(lines, "compose")
    else:
        rows = [i for i, line in enumerate(lines) if not line.startswith("[")]
    if not rows:
        return
    i = data.draw(st.sampled_from(rows))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = data.draw(st.sampled_from(rows))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "mass":
        lines[i] = f"{lines[i].split()[0]} {data.draw(st.sampled_from(_BAD_MASSES))}"
    else:
        pair = " ".join(lines[i].split()[:2])
        row = f"{pair} {data.draw(st.sampled_from(_BAD_PHASES))}"
        if cocycle:
            lines[i] = row
        else:
            lines += ["[cocycle]", row]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_report_survives_mutated_files(tmp_path_factory, data):
    # every mutated file ends in a report or a clean exit 1; exit 2 or an
    # escaping exception would be a defect
    lines = list(data.draw(st.sampled_from(_fuzz_texts())))
    kinds = st.sampled_from(["drop", "duplicate", "swap", "mass", "phase"])
    for kind in data.draw(st.lists(kinds, min_size=1, max_size=3)):
        _mutate(lines, kind, data)
    path = tmp_path_factory.getbasetemp() / "mutated.txt"
    path.write_text("\n".join(lines) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["report", str(path)])
    assert code in (0, 1), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_report_survives_random_bytes(tmp_path_factory, data):
    # random bytes, alone or spliced into a valid file, end in an exit code
    text = "\n".join(data.draw(st.sampled_from(_fuzz_texts()))).encode()
    at, noise = data.draw(st.integers(0, len(text))), data.draw(st.binary(max_size=64))
    path = tmp_path_factory.getbasetemp() / "random.bin"
    path.write_bytes(data.draw(st.sampled_from([noise, text[:at] + noise + text[at:]])))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["report", str(path)])
    assert code in (0, 1, 2)
