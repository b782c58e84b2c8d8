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

Parsing is one pass over the lines that gathers each section's fields; the
tables are cut from them column by column, and a ragged or repeated row is
named, by its line, only once a table shows there is one.  The groupoid
axioms are then checked on position arrays by ``validate_groupoid``, which
names the first fault in table order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import numpy as np

from .cocycle import UNIT_MODULUS_TOL, Cocycle, validate_cocycle
from .groupoid import MeasuredGroupoid, validate_groupoid

_USAGE = {  # the fields of each section's rows
    "units": "id mass", "arrows": "id src tgt", "unit_arrows": "unit arrow",
    "compose": "g h gh", "inverse": "g ginv", "cocycle": "g h re im",
}


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_text(text: str) -> tuple[MeasuredGroupoid, Optional[Cocycle]]:
    """Parse and validate a groupoid (and optional cocycle) document."""
    fields: dict[str, list[str]] = {s: [] for s in _USAGE}  # row after row
    lines: dict[str, list[int]] = {s: [] for s in _USAGE}  # the line of each row
    ragged: dict[str, int] = {}  # section -> place of its first row of wrong width
    width = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        row = raw.partition("#")[0].split()
        if not row:
            continue
        if row[0][0] == "[" and row[-1][-1] == "]":
            name = raw.partition("#")[0].strip()[1:-1].strip()
            if name not in _USAGE:
                raise ParseError(f"unknown section {name!r}", line_no)
            out, at, width = fields[name], lines[name], len(_USAGE[name].split())
            continue
        if width is None:
            raise ParseError("data before any section header", line_no)
        if len(row) != width:
            ragged.setdefault(name, len(at))
        out += row
        at.append(line_no)

    def columns(name: str) -> tuple[list[list[str]], int]:
        """A section's fields column by column, up to its first row of the
        wrong width; and that row's place (the row count if there is none)."""
        width = len(_USAGE[name].split())
        stop = ragged.get(name, len(lines[name]))
        return [fields[name][i : width * stop : width] for i in range(width)], stop

    def fault(name: str, keys, stop: int) -> Optional[ParseError]:
        """The error naming a section's first row that repeats the key of an
        earlier row or, at ``stop``, has the wrong width."""
        first: dict[tuple[str, ...], int] = {}
        for line_no, key in zip(lines[name], keys):
            if key in first:
                return ParseError(
                    f"duplicate unit {key[0]!r}" if name == "units" else
                    f"duplicate {name} row for {' '.join(key)!r} "
                    f"(first given on line {first[key]})",
                    line_no,
                )
            first[key] = line_no
        if stop < len(lines[name]):
            return ParseError(f"{name} rows need `{_USAGE[name]}`", lines[name][stop])
        return None

    def keyed(name: str) -> dict:
        """A section's rows as a dict from their key (the first field, or
        the first two for compose) to their last field."""
        cols, stop = columns(name)
        table = dict(zip(cols[0] if len(cols) == 2 else zip(*cols[:2]), cols[-1]))
        if len(table) < len(lines[name]):
            raise fault(name, zip(*cols[:-1]), stop)
        return table

    mass_tokens = keyed("units")
    if not mass_tokens:
        raise ParseError("no units defined", 0)
    exact = any("/" in tok for tok in mass_tokens.values())
    mass: dict[str, float] = {}
    exact_mass: Optional[dict[str, Fraction]] = {} if exact else None
    for line_no, (u, tok) in zip(lines["units"], mass_tokens.items()):
        try:
            if exact:
                frac = Fraction(tok)
                exact_mass[u] = frac
                mass[u] = float(frac)
            else:
                mass[u] = float(tok)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ParseError(f"bad mass {tok!r} for {u!r}: {exc}", line_no) from exc

    arrows, stop = columns("arrows")
    if stop < len(lines["arrows"]):
        raise fault("arrows", (), stop)
    unit_arrows, compose, inverse = keyed("unit_arrows"), keyed("compose"), keyed("inverse")
    g = validate_groupoid(
        MeasuredGroupoid(
            list(mass), mass, list(zip(*arrows)), compose, inverse, unit_arrows,
            exact_mass=exact_mass,
        )
    )

    cocycle = None
    if lines["cocycle"]:
        values = {pair: complex(1.0) for pair in g.composable_pairs()}
        (x, y, real, imag), stop = columns("cocycle")
        error = fault("cocycle", zip(x, y), stop)
        for line_no, pair, a, b in zip(lines["cocycle"], zip(x, y), real, imag):
            if error is not None and line_no == error.line:
                break
            if pair not in values:
                raise ParseError(
                    f"cocycle entry on non-composable pair {pair!r}", line_no
                )
            try:
                values[pair] = v = complex(float(a), float(b))
            except ValueError as exc:
                raise ParseError(f"bad phase: {exc}", line_no) from exc
            if not abs(abs(v) - 1.0) <= UNIT_MODULUS_TOL:  # NaN and inf fail too
                raise ParseError(f"phase {a} {b} does not have modulus 1", line_no)
        if error is not None:
            raise error
        cocycle = validate_cocycle(g, values)
    return g, cocycle


def parse_file(path) -> tuple[MeasuredGroupoid, Optional[Cocycle]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


def _mass_token(g: MeasuredGroupoid, unit: str) -> str:
    if g.exact_mass is not None:
        frac = g.exact_mass[unit]
        return f"{frac.numerator}/{frac.denominator}"
    return repr(g.mass[unit])


def serialize(g: MeasuredGroupoid, w: Optional[Cocycle] = None) -> str:
    """Deterministic text rendering; parse(serialize(x)) == x."""
    g._require_validated()
    out: list[str] = ["[units]"]
    out.extend(f"{u} {_mass_token(g, u)}" for u in g.units)
    out.append("[arrows]")
    out.extend(f"{a.id} {a.src} {a.tgt}" for a in g.arrows)
    out.append("[unit_arrows]")
    out.extend(f"{u} {g.unit_arrow[u]}" for u in g.units)
    out.append("[compose]")
    t, name = g.pairs, g.arrow_order
    order = np.lexsort((t.right, t.left))  # by left factor, then right
    out.extend(f"{name[t.left[p]]} {name[t.right[p]]} {name[t.prod[p]]}" for p in order)
    out.append("[inverse]")
    out.extend(f"{a} {g.inverse[a]}" for a in g.arrow_order)
    if w is not None:
        out.append("[cocycle]")
        phase = w.complex_phases(g)
        for p in order[phase[order] != 1]:
            v = complex(phase[p])
            out.append(f"{name[t.left[p]]} {name[t.right[p]]} {v.real!r} {v.imag!r}")
    return "\n".join(out) + "\n"


def write_file(path, g: MeasuredGroupoid, w: Optional[Cocycle] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(g, w))
