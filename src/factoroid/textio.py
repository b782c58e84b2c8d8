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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .cocycle import UNIT_MODULUS_TOL, Cocycle, validate_cocycle
from .groupoid import MeasuredGroupoid, validate_groupoid

_SECTIONS = ("units", "arrows", "unit_arrows", "compose", "inverse", "cocycle")


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_text(text: str) -> tuple[MeasuredGroupoid, Optional[Cocycle]]:
    """Parse and validate a groupoid (and optional cocycle) document."""
    rows: dict[str, list[tuple[int, list[str]]]] = {s: [] for s in _SECTIONS}
    section: Optional[str] = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section {name!r}", line_no)
            section = name
            continue
        if section is None:
            raise ParseError("data before any section header", line_no)
        rows[section].append((line_no, line.split()))

    def rows_of(name: str, usage: str):
        """The (line, row) pairs of a section, each row as wide as ``usage``."""
        for line_no, row in rows[name]:
            if len(row) != len(usage.split()):
                raise ParseError(f"{name} rows need `{usage}`", line_no)
            yield line_no, row

    units: list[str] = []
    mass_tokens: dict[str, tuple[int, str]] = {}  # unit -> (line, token)
    for line_no, row in rows_of("units", "id mass"):
        if row[0] in mass_tokens:
            raise ParseError(f"duplicate unit {row[0]!r}", line_no)
        units.append(row[0])
        mass_tokens[row[0]] = (line_no, row[1])
    if not units:
        raise ParseError("no units defined", 0)

    exact = any("/" in tok for _, tok in mass_tokens.values())
    mass: dict[str, float] = {}
    exact_mass: Optional[dict[str, Fraction]] = {} if exact else None
    for u, (line_no, tok) in mass_tokens.items():
        try:
            if exact:
                frac = Fraction(tok)
                exact_mass[u] = frac
                mass[u] = float(frac)
            else:
                mass[u] = float(tok)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ParseError(f"bad mass {tok!r} for {u!r}: {exc}", line_no) from exc

    def keyed(name: str, usage: str, width: int):
        """The (line, row) pairs of a section whose first ``width`` fields
        are a key, rejecting a key that an earlier row already gave."""
        first: dict[tuple[str, ...], int] = {}
        for line_no, row in rows_of(name, usage):
            key = tuple(row[:width])
            if key in first:
                raise ParseError(
                    f"duplicate {name} row for {' '.join(key)!r} "
                    f"(first given on line {first[key]})",
                    line_no,
                )
            first[key] = line_no
            yield line_no, row

    arrows = [tuple(row) for _, row in rows_of("arrows", "id src tgt")]
    unit_arrows = dict(row for _, row in keyed("unit_arrows", "unit arrow", 1))
    compose = {(g, h): gh for _, (g, h, gh) in keyed("compose", "g h gh", 2)}
    inverse = dict(row for _, row in keyed("inverse", "g ginv", 1))

    g = validate_groupoid(
        MeasuredGroupoid(
            units, mass, arrows, compose, inverse, unit_arrows,
            exact_mass=exact_mass,
        )
    )

    cocycle = None
    if rows["cocycle"]:
        values = {pair: complex(1.0) for pair in g.composable_pairs()}
        for line_no, row in keyed("cocycle", "g h re im", 2):
            pair = (row[0], row[1])
            if pair not in values:
                raise ParseError(
                    f"cocycle entry on non-composable pair {pair!r}", line_no
                )
            try:
                values[pair] = v = complex(float(row[2]), float(row[3]))
            except ValueError as exc:
                raise ParseError(f"bad phase: {exc}", line_no) from exc
            if not abs(abs(v) - 1.0) <= UNIT_MODULUS_TOL:  # NaN and inf fail too
                raise ParseError(f"phase {row[2]} {row[3]} does not have modulus 1", line_no)
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
    index = g.arrow_index
    for (x, y) in sorted(g.compose, key=lambda p: (index(p[0]), index(p[1]))):
        out.append(f"{x} {y} {g.compose[(x, y)]}")
    out.append("[inverse]")
    out.extend(f"{a} {g.inverse[a]}" for a in g.arrow_order)
    if w is not None:
        from .cocycle import as_complex

        out.append("[cocycle]")
        for (x, y) in sorted(w.values, key=lambda p: (index(p[0]), index(p[1]))):
            v = as_complex(w.values[(x, y)])
            if v != 1:
                out.append(f"{x} {y} {v.real!r} {v.imag!r}")
    return "\n".join(out) + "\n"


def write_file(path, g: MeasuredGroupoid, w: Optional[Cocycle] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(g, w))
