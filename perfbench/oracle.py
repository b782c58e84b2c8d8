"""Exact center-dimension oracle that reads the instance files directly.

It shares no code with factoroid: the text format is parsed here, and the
answer comes from group theory, not from linear algebra.  A finite twisted
groupoid algebra splits over orbits as a sum of matrix algebras over the
twisted group algebra of one isotropy group, and the center of a twisted
group algebra C^w G is spanned by the w-regular conjugacy classes: g is
w-regular when w(g, h) == w(h, g) for every h commuting with g.  So

    center_dim = sum over positive-mass orbits O of
                 #(w-regular conjugacy classes of G_x), x any unit of O.

The commutator ratio w(g, h) / w(h, g) on commuting pairs is unchanged by
coboundaries, so the cocycle is used as written, normalized or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

PHASE_TOL = 1e-9


@dataclass(frozen=True)
class Tables:
    units: tuple[str, ...]
    mass: dict[str, Fraction]
    src: dict[str, str]
    tgt: dict[str, str]
    unit_arrow: dict[str, str]
    compose: dict[tuple[str, str], str]
    cocycle: dict[tuple[str, str], complex]  # rows absent from the file are 1


@dataclass(frozen=True)
class Expected:
    center_dim: int
    positive_orbits: int
    has_isotropy: bool  # some positive-mass unit has a nontrivial isotropy group

    @property
    def ergodic(self) -> bool:
        return self.positive_orbits == 1

    @property
    def icc(self) -> bool:
        # every positive orbit contributes exactly its unit class
        return self.center_dim == self.positive_orbits

    @property
    def factor(self) -> bool:
        return self.center_dim == 1


def read_tables(text: str) -> Tables:
    sections: dict[str, list[list[str]]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            current = sections.setdefault(line.strip("[]").strip(), [])
        else:
            current.append(line.split())
    units = tuple(row[0] for row in sections["units"])
    return Tables(
        units=units,
        mass={row[0]: Fraction(row[1]) for row in sections["units"]},
        src={row[0]: row[1] for row in sections["arrows"]},
        tgt={row[0]: row[2] for row in sections["arrows"]},
        unit_arrow={row[0]: row[1] for row in sections["unit_arrows"]},
        compose={(row[0], row[1]): row[2] for row in sections["compose"]},
        cocycle={
            (row[0], row[1]): complex(float(row[2]), float(row[3]))
            for row in sections.get("cocycle", [])
        },
    )


def _orbits(t: Tables) -> list[list[str]]:
    parent = {u: u for u in t.units}

    def find(u: str) -> str:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for a in t.src:
        parent[find(t.src[a])] = find(t.tgt[a])
    groups: dict[str, list[str]] = {}
    for u in t.units:
        groups.setdefault(find(u), []).append(u)
    return list(groups.values())


def _regular_class_count(t: Tables, x: str) -> int:
    group = [a for a in t.src if t.src[a] == x and t.tgt[a] == x]
    e = t.unit_arrow[x]
    mul = t.compose
    inv = {h: next(k for k in group if mul[(h, k)] == e) for h in group}

    def w(g: str, h: str) -> complex:
        return t.cocycle.get((g, h), 1.0)

    seen: set[str] = set()
    count = 0
    for g in group:
        if g in seen:
            continue
        seen |= {mul[(mul[(h, g)], inv[h])] for h in group}
        commuting = (h for h in group if mul[(g, h)] == mul[(h, g)])
        if all(abs(w(g, h) - w(h, g)) <= PHASE_TOL for h in commuting):
            count += 1
    return count


def expected(text: str) -> Expected:
    t = read_tables(text)
    center_dim = 0
    positive = 0
    has_isotropy = False
    for orbit in _orbits(t):
        if all(t.mass[u] == 0 for u in orbit):
            continue
        positive += 1
        x = orbit[0]
        center_dim += _regular_class_count(t, x)
        has_isotropy |= any(
            t.src[a] == x and t.tgt[a] == x and a != t.unit_arrow[x] for a in t.src
        )
    return Expected(center_dim, positive, has_isotropy)
