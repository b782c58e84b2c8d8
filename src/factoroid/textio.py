"""Line-oriented text format for groupoids and cocycles.

Sections are introduced by a bracketed header and hold whitespace-separated
rows::

    [units]        id mass          (mass as decimal or p/q fraction)
    [arrows]       id src tgt
    [unit_arrows]  unit arrow
    [compose]      g h gh           (one row per composable pair)
    [inverse]      g ginv
    [cocycle]      g h re im        (optional; omitted pairs default to 1)

'#' starts a comment.  Serialization is deterministic and round-trips
identifiers bit-exactly and masses decimal-exactly (floats are written with
their shortest exact representation, fractions verbatim).

Parsing cuts the text into lines and sections once, and each section into
its fields with C-level string calls (``str.split`` and ``str.join``), with
no Python statement per line: the rows of a section all have its width
exactly when a separator joined in between them lands on every
(width + 1)-th field.  Every name is then mapped to its position once, and
the tables go to ``MeasuredGroupoid`` as position arrays, which
``validate_groupoid`` checks against the groupoid axioms; the cocycle rows
become one phase array in the order of ``g.pairs``.  Line numbers and
per-row bookkeeping are built only once a table shows a fault (a ragged or
repeated row, a row keyed by an unknown id, a pair that does not compose, a
bad value): the fault named is the first in section order (units, arrows,
unit_arrows, compose, inverse, then the groupoid axioms, then cocycle),
within a section the first in line order.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import accumulate, chain, count, repeat
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from .cocycle import UNIT_MODULUS_TOL, Cocycle, complex_array, validate_cocycle
from .groupoid import GroupoidError, MeasuredGroupoid, validate_groupoid

_USAGE = {  # the fields of each section's rows
    "units": "id mass", "arrows": "id src tgt", "unit_arrows": "unit arrow",
    "compose": "g h gh", "inverse": "g ginv", "cocycle": "g h re im",
}
_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines breaks besides \n
_COMMENT = re.compile("#[^\n]*")


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _Sections:
    """A document as lines, and the ranges of lines [a, b) of each section."""

    def __init__(self, text: str):
        if any(c in text for c in _BREAKS):  # then number lines as splitlines does
            text = "\n".join(text.splitlines())
        if "#" in text:
            text = _COMMENT.sub("", text)
        self.lines = text.split("\n")
        # a field that no row holds: it separates the rows joined in fields()
        self.mark = next(c for c in map(chr, count()) if c not in text and not c.isspace())
        heads: list[tuple[int, str]] = []  # (line index, name) of each header
        line, seen, at = 0, 0, text.find("[")
        while at >= 0:  # only lines holding a "[" can be headers
            line, seen = line + text.count("\n", seen, at), at
            end = text.find("\n", at)
            end = len(text) if end < 0 else end
            head = text[text.rfind("\n", 0, at) + 1 : end].strip()
            if head[0] == "[" and head[-1] == "]":
                heads.append((line, head[1:-1].strip()))
            at = text.find("[", end)
        first = heads[0][0] if heads else len(self.lines)
        if "".join(self.lines[:first]).strip():
            line = next(i for i, row in enumerate(self.lines) if row.strip())
            raise ParseError("data before any section header", line + 1)
        self.spans: dict[str, list[tuple[int, int]]] = {s: [] for s in _USAGE}
        for (line, name), (end, _) in zip(heads, heads[1:] + [(len(self.lines), "")]):
            if name not in _USAGE:
                raise ParseError(f"unknown section {name!r}", line + 1)
            self.spans[name].append((line + 1, end))

    def fields(self, name: str) -> Optional[list[str]]:
        """A section's fields row after row; None if a row has the wrong width."""
        width = len(_USAGE[name].split())
        rows = list(chain.from_iterable(self.lines[a:b] for a, b in self.spans[name]))
        fields = self._cut(rows, width)
        if fields is None:  # a blank row, or a ragged one
            rows = list(filter(str.strip, rows))
            fields = self._cut(rows, width) if rows else []
        return fields

    def _cut(self, rows: list[str], width: int) -> Optional[list[str]]:
        fields = f" {self.mark} ".join(rows).split()
        if len(fields) != len(rows) * (width + 1) - 1:
            return None
        if fields[width :: width + 1].count(self.mark) != len(rows) - 1:
            return None
        del fields[width :: width + 1]
        return fields

    def keyed(self, name: str) -> dict[str, str]:
        """A two-field section as a dict from its first field to its second."""
        fields = self.fields(name)
        table = {} if fields is None else dict(zip(fields[0::2], fields[1::2]))
        if fields is None or 2 * len(table) < len(fields):
            self.check(name, 1)
        return table

    def check(
        self, name: str, keys: int, row_fault: Optional[Callable[[list[str], int], None]] = None
    ) -> None:
        """Raise the error naming a section's first row that has the wrong
        width, repeats the key (its first ``keys`` fields) of an earlier row,
        or fails ``row_fault``, which raises; return if there is none."""
        first: dict[tuple[str, ...], int] = {}
        width = len(_USAGE[name].split())
        for a, b in self.spans[name]:
            for line_no, line in enumerate(self.lines[a:b], start=a + 1):
                row = line.split()
                if not row:
                    continue
                if len(row) != width:
                    raise ParseError(f"{name} rows need `{_USAGE[name]}`", line_no)
                key = tuple(row[:keys])
                if keys and key in first:
                    raise ParseError(
                        f"duplicate unit {key[0]!r}" if name == "units" else
                        f"duplicate {name} row for {' '.join(key)!r} "
                        f"(first given on line {first[key]})",
                        line_no,
                    )
                first[key] = line_no
                if row_fault is not None:
                    row_fault(row, line_no)


def _masses(tokens: dict[str, str], exact: bool):
    """The float and exact masses of the units; raises on a bad token."""
    if not exact:
        mass = dict(zip(tokens, map(float, tokens.values())))
        if not all(map(math.isfinite, mass.values())):
            raise ValueError("mass must be finite")
        return mass, None
    exact_mass = dict(zip(tokens, map(Fraction, tokens.values())))
    return dict(zip(tokens, map(float, exact_mass.values()))), exact_mass


def _positions(index: Mapping[str, int], ids: Iterable, *sizes: int) -> list[np.ndarray]:
    """The positions of ``ids`` under ``index``, -1 for an unknown id, cut
    into consecutive pieces of the given sizes."""
    at = np.fromiter(map(index.get, ids, repeat(-1)), dtype=np.intp, count=sum(sizes))
    ends = list(accumulate(sizes))
    return [at[i:j] for i, j in zip([0, *ends], ends)]


def _phases(g: MeasuredGroupoid, fields: list[str]) -> Optional[np.ndarray]:
    """The phases of the cocycle rows ``fields`` (g h re im, flat) in the
    order of ``g.pairs``, 1 on every pair not given; None if a row names a
    pair that does not compose or an earlier row's pair, or a bad phase."""
    t = g.pairs
    n = len(fields) // 4
    at = t.at(*_positions(g._index, chain(fields[0::4], fields[1::4]), n, n))
    if (at < 0).any() or np.bincount(at, minlength=len(t.left)).max(initial=0) > 1:
        return None
    v = np.empty(len(at), dtype=complex)
    try:
        v.real = np.fromiter(map(float, fields[2::4]), float, len(at))
        v.imag = np.fromiter(map(float, fields[3::4]), float, len(at))
    except ValueError:
        return None
    if not (np.abs(np.abs(v) - 1.0) <= UNIT_MODULUS_TOL).all():  # NaN fails too
        return None
    phases = np.empty(len(t.left), dtype=complex)
    phases.fill(1.0)
    phases[at] = v
    return phases


def parse_text(text: str) -> tuple[MeasuredGroupoid, Optional[Cocycle]]:
    """Parse and validate a groupoid (and optional cocycle) document."""
    doc = _Sections(text)
    tokens = doc.keyed("units")
    if not tokens:
        raise ParseError("no units defined", 0)
    exact = "/" in "".join(tokens.values())

    def bad_mass(row: list[str], line_no: int) -> None:
        u, tok = row
        try:
            _masses({u: tok}, exact)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ParseError(f"bad mass {tok!r} for {u!r}: {exc}", line_no) from exc

    try:
        mass, exact_mass = _masses(tokens, exact)
    except (ValueError, ZeroDivisionError, OverflowError):
        doc.check("units", 1, bad_mass)
        raise
    arrows = doc.fields("arrows")
    if arrows is None:
        doc.check("arrows", 0)
    unit_arrows = doc.keyed("unit_arrows")
    compose = doc.fields("compose")
    if compose is None:
        doc.check("compose", 2)
    try:
        inverse = doc.keyed("inverse")
        # every name is mapped to its position once; an id that names no
        # arrow gets a position past the arrows, its name kept for the fault
        # message
        units, labels = list(mass), arrows[0::3]
        k, n, e, m = len(units), len(labels), len(unit_arrows), len(inverse)
        unit, index = dict(zip(units, range(k))), dict(zip(labels, range(n)))
        src, tgt, x = _positions(unit, chain(arrows[1::3], arrows[2::3], unit_arrows), n, n, e)

        def ids():
            return chain(unit_arrows.values(), inverse, inverse.values(), compose)

        at, = _positions(index, ids(), e + 2 * m + len(compose))
        unknown = []
        if (at < 0).any():
            unknown = [i for i, p in zip(ids(), at.tolist()) if p < 0]
            at[at < 0] = n + np.arange(len(unknown))
        g = validate_groupoid(MeasuredGroupoid(
            units, list(mass.values()), labels, src, tgt, at[e + 2 * m :].reshape(-1, 3).T,
            at[e : e + 2 * m].reshape(2, -1), (x, at[:e]), unknown=unknown,
            exact_mass=exact_mass,
        ))
    except (ParseError, GroupoidError):
        doc.check("compose", 2)  # a repeated compose row is named first
        raise

    fields = doc.fields("cocycle")
    if fields == []:
        return g, None

    def bad_row(row: list[str], line_no: int) -> None:
        x, y, a, b = row
        try:
            g.pair_position(x, y)
        except KeyError:
            raise ParseError(f"cocycle entry on non-composable pair {(x, y)!r}", line_no) from None
        try:
            v = complex(float(a), float(b))
        except ValueError as exc:
            raise ParseError(f"bad phase: {exc}", line_no) from exc
        if not abs(abs(v) - 1.0) <= UNIT_MODULUS_TOL:  # NaN and inf fail too
            raise ParseError(f"phase {a} {b} does not have modulus 1", line_no)

    phases = None if fields is None else _phases(g, fields)
    if phases is None:
        doc.check("cocycle", 2, bad_row)
    return g, validate_cocycle(g, phases)


def parse_file(path) -> tuple[MeasuredGroupoid, Optional[Cocycle]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


def serialize(g: MeasuredGroupoid, w: Optional[Cocycle] = None) -> str:
    """Deterministic text rendering; parse(serialize(x)) == x."""
    t, unit, name = g.pairs, g.units, g.arrow_order
    if g.exact_mass is None:
        mass = g.unit_masses.tolist()  # a float formats as its repr
    else:
        mass = [f"{m.numerator}/{m.denominator}" for m in map(g.exact_mass.__getitem__, unit)]
    out = ["[units]", *[f"{u} {m}" for u, m in zip(unit, mass)], "[arrows]"]
    out += [f"{a} {unit[x]} {unit[y]}" for a, x, y in zip(name, t.src.tolist(), t.tgt.tolist())]
    out.append("[unit_arrows]")
    out += [f"{u} {name[a]}" for u, a in zip(unit, t.unit_arrow.tolist())]
    out.append("[compose]")
    order = np.lexsort((t.right, t.left))  # by left factor, then right
    rows = zip(t.left[order].tolist(), t.right[order].tolist(), t.prod[order].tolist())
    out += [f"{name[x]} {name[y]} {name[xy]}" for x, y, xy in rows]
    out.append("[inverse]")
    out += [f"{a} {name[b]}" for a, b in zip(name, t.inv.tolist())]
    if w is not None:
        out.append("[cocycle]")
        phase = complex_array(w.on(g), w.turns)
        p = order[phase[order] != 1]
        rows = zip(t.left[p].tolist(), t.right[p].tolist(), phase[p].tolist())
        out += [f"{name[x]} {name[y]} {v.real!r} {v.imag!r}" for x, y, v in rows]
    return "\n".join(out) + "\n"


def write_file(path, g: MeasuredGroupoid, w: Optional[Cocycle] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(g, w))
