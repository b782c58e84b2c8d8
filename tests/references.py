"""Plain references and builders that only the tests use.

``twisted_convolve`` is the twisted convolution of functions on the arrows,
written as one loop over the composition table, against which the tests
check the products of the translation algebra; ``verify_central_certificate``
re-checks a central-set certificate against its defining rule, arrow by
arrow; ``bundle_center_dim_oracle`` counts the center of a group bundle from
the fibers' conjugacy classes; ``sorted_row_gram`` assembles the Gram matrix
of ``center``'s commutator map row by row, finding the rows by sorting their
keys.  ``trivial_groupoid`` builds a table for the tests, and
``shift_connects_by_search`` decides membership in a shift groupoid by a
witness search.

``central_set_search_by_bfs`` is the breadth-first walk that
``central_set_search`` ran before it set each orbit in one hop from its
least loop, kept verbatim as the reference for its certificates;
``phase_close`` compares two phases, exactly for rational turns.

``from_names`` maps tables given by name to the positions that
``MeasuredGroupoid`` takes, as the parser does for a file; the tests that
build faulty tables by name go through it.  ``action_by_name`` does the
same for an action: it maps a (g, x) -> y dict to the |G| x |X| array of
unit positions that ``PartialActionSystem`` and ``transformation_groupoid``
take, and ``product_by_name`` reads a group's product table by name.  The
builders of the standard families have their name-based forms here
(``full_relation_by_name``, ``group_bundle_by_name``,
``partial_action_groupoid_by_name``, ``disjoint_union_by_name`` and
``restrict_by_name``), against which the array builders are checked.

The stages of a report that read ``g.pairs`` by position have their
name-walking forms here, as the references they are checked against:
``orbits_by_union_find``, ``invariant_rows_by_name``, ``icc_by_name`` and
``loops_off_units_by_name``.  So do the conjugacy class, its decomposition
into full bisections, phase regularity and basis conjugation
(``class_by_name``, ``ergodic_class_decomposition_by_name``,
``is_omega_regular_by_name`` and ``conjugate_basis_by_name``), written on
the name-keyed set algebra that the tests walk: ``by_source``,
``conjugate``, ``mul_sets`` and ``inv_set``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from factoroid.basis import Basis
from factoroid.cocycle import (
    HOLONOMY_TOL,
    CentralSetCertificate,
    Cocycle,
    Phase,
    RegularityVerdict,
    _normalized,
    as_complex,
    normalize_cocycle,
    pconj,
    pmul,
    pone,
    trivial_cocycle,
)
from factoroid.conjugacy import IccVerdict, _loops_off_units
from factoroid.constructors import DeaconuRenaultSystem, FiniteGroupTable, PartialActionSystem
from factoroid.groupoid import GroupoidError, MeasuredGroupoid, validate_groupoid
from factoroid.vna import L2Space, TranslationAlgebra


def by_source(g: MeasuredGroupoid, x: str) -> tuple[str, ...]:
    """The arrows with source x, in storage order."""
    return tuple(a.id for a in g.arrows if a.src == x)


def conjugate(g: MeasuredGroupoid, a: str, h: str) -> Optional[str]:
    """a h a^-1, or None when not composable."""
    ah = g.compose.get((a, h))
    return None if ah is None else g.compose.get((ah, g.inverse[a]))


def mul_sets(g: MeasuredGroupoid, left: Iterable[str], right: Iterable[str]) -> frozenset[str]:
    """Pointwise product set {gh | g in left, h in right, composable}."""
    left = list(left)
    return frozenset(g.compose[(a, b)] for b in right for a in left if g.src[a] == g.tgt[b])


def inv_set(g: MeasuredGroupoid, ids: Iterable[str]) -> frozenset[str]:
    return frozenset(g.inverse[a] for a in ids)


def class_by_name(g: MeasuredGroupoid, base: Iterable[str]) -> set[str]:
    """The conjugacy class of an isotropy set, conjugating arrow by arrow."""
    omega, frontier = set(base), list(base)
    while frontier:
        h = frontier.pop()
        for c in (conjugate(g, a, h) for a in by_source(g, g.src[h])):
            if c not in omega:
                omega.add(c)
                frontier.append(c)
    return omega


def ergodic_class_decomposition_by_name(
    g: MeasuredGroupoid, base: Iterable[str]
) -> list[tuple[str, ...]]:
    """``ergodic_class_decomposition`` of an ergodic groupoid with uniform
    fibers, peeling off the first live arrow at each source, layer by layer."""
    positive = {u for u in g.units if g.mass[u] > 0.0}
    remaining = [h for h in g.sort_arrows(class_by_name(g, base)) if g.src[h] in positive]
    layers = []
    while remaining:
        taken: dict[str, str] = {}
        for h in remaining:
            taken.setdefault(g.src[h], h)
        layers.append(g.sort_arrows(taken.values()))
        remaining = [h for h in remaining if h not in layers[-1]]
    return layers


def is_omega_regular_by_name(
    g: MeasuredGroupoid, w: Cocycle, ids: Iterable[str]
) -> RegularityVerdict:
    """``is_omega_regular`` on a bisection inside the isotropy, arrow by
    arrow: x in storage order, then a in ``by_source(s(x))``."""
    w = w if w.normalized else normalize_cocycle(g, w)
    ids = frozenset(ids)
    for x in g.sort_arrows(ids):
        for a in by_source(g, g.src[x]):
            y = conjugate(g, a, x)
            if y in ids and not phase_close(w(y, a), w(a, x), HOLONOMY_TOL):
                return RegularityVerdict(False, witness=(a, x, y))
    return RegularityVerdict(True)


def conjugate_basis_by_name(g: MeasuredGroupoid, basis: Basis, window: Iterable[str]) -> Basis:
    """``conjugate_basis`` by the set products C B C^-1, block by block."""
    window = list(window)
    blocks, unit_block = [], None
    for i, block in enumerate(basis.blocks):
        conj = mul_sets(g, mul_sets(g, window, block), inv_set(g, window))
        if conj:
            unit_block = len(blocks) if i == basis.unit_block else unit_block
            blocks.append(g.sort_arrows(conj))
    if unit_block is None:
        raise GroupoidError("conjugation of the unit block vanished")
    return Basis(tuple(blocks), symmetric=basis.symmetric, unit_block=unit_block)


def twisted_convolve(
    g: MeasuredGroupoid,
    w: Optional[Cocycle],
    f1: Mapping[str, complex],
    f2: Mapping[str, complex],
) -> dict[str, complex]:
    """Convolution (f1 * f2)(x) = sum over ab = x of w(a,b) f1(a) f2(b)."""
    if w is None:
        w = trivial_cocycle(g)
    out = {a: 0.0 + 0.0j for a in g.arrow_order}
    for (a, b), ab in g.compose.items():
        va, vb = f1.get(a), f2.get(b)
        if va and vb:
            out[ab] += as_complex(w(a, b)) * va * vb
    return out


def phase_close(a: Phase, b: Phase, tol: float) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return abs(as_complex(a) - as_complex(b)) <= tol


def _transports(
    g: MeasuredGroupoid, w: Cocycle, loops: np.ndarray
) -> list[list[tuple[int, int, Phase]]]:
    """For each loop h, its moves to c = a h a^-1 by the positive-target
    arrows a with s(a) = s(h), in storage order: (a, c, conj(w(c, a)) w(a, h)),
    the transport factor of f along h -> c, by arrow positions."""
    t, phase = g.pairs, w.on(g)
    i, p, a, c = t.conjugations(loops)
    factor = pmul(pconj(phase[t.start[a] + t.rank[c]]), phase[p])
    keep = g.unit_masses[t.tgt[a]] > 0.0
    moves: list[list[tuple[int, int, Phase]]] = [[] for _ in loops]
    for j, x, y, v in zip(*(u[keep].tolist() for u in (i, a, c, factor))):
        moves[j].append((x, y, v))
    return moves


def central_set_search_by_bfs(g: MeasuredGroupoid, w: Cocycle) -> Optional[CentralSetCertificate]:
    """Find a central isotropy set off the units, or report none exists.

    Scans each conjugation orbit of positive-mass non-unit isotropy arrows.
    On an orbit, any compatible f is determined up to scale by transport
    along a spanning tree, so the orbit carries a certificate exactly when
    every off-tree move closes up (loop holonomy 1 within ``HOLONOMY_TOL``).  The
    moves and their phases are read from ``g.pairs`` by position.
    """
    g._require_validated()
    loops = np.flatnonzero(_loops_off_units(g)[1])
    if not len(loops):
        return None
    w = _normalized(g, w)
    moves = dict(zip(loops.tolist(), _transports(g, w, loops)))
    unvisited = set(moves)
    for root in moves:
        if root not in unvisited:
            continue
        # breadth-first transport of f from f(root) = 1
        f: dict[int, Phase] = {root: pone(w.exact)}
        order = [root]
        queue = [root]
        while queue:
            h = queue.pop(0)
            for _, c, factor in moves[h]:
                if c not in f:
                    f[c] = pmul(factor, f[h])
                    order.append(c)
                    queue.append(c)
        unvisited -= set(f)
        consistent = True
        max_defect = 0.0
        for h in order:
            for _, c, factor in moves[h]:
                lhs = f[c]
                rhs = pmul(factor, f[h])
                defect = abs(as_complex(lhs) - as_complex(rhs))
                max_defect = max(max_defect, defect)
                if not phase_close(lhs, rhs, HOLONOMY_TOL):
                    consistent = False
                    break
            if not consistent:
                break
        if consistent:
            name = g.arrow_order
            return CentralSetCertificate(
                support=frozenset(name[h] for h in order),
                f={name[h]: as_complex(v) for h, v in f.items()},
                max_defect=max_defect,
            )
    return None


def verify_central_certificate(
    g: MeasuredGroupoid, w: Cocycle, cert: CentralSetCertificate
) -> None:
    """Raise GroupoidError unless ``cert`` is central for the normalized
    representative of ``w``: its support is positive-mass isotropy off the
    units where f is nonzero, and for each h in it and each positive-target
    arrow a with s(a) = s(h), c = a h a^-1 is in it with
    f(c) = conj(w(c, a)) w(a, h) f(h) within ``HOLONOMY_TOL``."""
    if not w.normalized:
        w = normalize_cocycle(g, w)
    for h in g.sort_arrows(cert.support):
        if g.src[h] != g.tgt[h] or g.is_unit_arrow(h):
            raise GroupoidError("certificate support is not isotropy off units", [h])
        if g.mass[g.src[h]] <= 0.0:
            raise GroupoidError("certificate support touches a null unit", [h])
        if cert.f[h] == 0:
            raise GroupoidError("certificate function vanishes on support", [h])
        for a in by_source(g, g.src[h]):
            if g.mass[g.tgt[a]] <= 0.0:
                continue
            c = conjugate(g, a, h)
            if c not in cert.support:
                raise GroupoidError("certificate support is not conjugation invariant", [h, a])
            expected = as_complex(w(c, a)).conjugate() * as_complex(w(a, h)) * cert.f[h]
            if abs(cert.f[c] - expected) > HOLONOMY_TOL:
                raise GroupoidError("certificate function breaks the transport rule", [h, a])


def bundle_center_dim_oracle(
    fibers: Mapping[str, FiniteGroupTable], mass: Mapping[str, float]
) -> int:
    """The center dimension of a group bundle: the number of fiber
    conjugacy classes summed over positive-mass units."""
    return sum(
        len(fibers[x].conjugacy_classes()) for x in fibers if mass[x] > 0.0
    )


def product_by_name(table: FiniteGroupTable) -> dict[tuple[str, str], str]:
    """The product of the group by names, (a, b) -> ab."""
    e = table.elements
    return {(a, b): e[ab] for a, row in zip(e, table.product.tolist()) for b, ab in zip(e, row)}


def action_by_name(
    group: FiniteGroupTable, units: Sequence[str], action: Mapping[tuple[str, str], str]
) -> np.ndarray:
    """The |G| x |X| position array of an action given by name: entry
    [g, x] is the position of action[(g, x)] in ``units``, or -1 where the
    dict has no (g, x)."""
    unit = {u: i for i, u in enumerate(units)}
    out = np.full((len(group.elements), len(units)), -1, dtype=np.intp)
    for (g, x), y in action.items():
        out[group.elements.index(g), unit[x]] = unit[y]
    return out


def from_names(
    units: Sequence[str],
    mass: Mapping[str, float],
    arrows: Sequence[tuple[str, str, str]],
    compose: Union[Mapping[tuple[str, str], str], Iterable[tuple[str, str, str]]],
    inverse: Mapping[str, str],
    unit_arrows: Mapping[str, str],
    **kw,
) -> MeasuredGroupoid:
    """The unvalidated groupoid of tables given by name: ``arrows`` as
    (id, src, tgt) triples, ``compose`` as a map (g, h) -> gh or as rows
    (g, h, gh), ``inverse`` and ``unit_arrows`` as maps, their rows in map
    order.  An unknown unit becomes -1, and an id that names no arrow a
    position past the arrows (its name kept for the fault message)."""
    if isinstance(compose, Mapping):
        compose = [(g, h, gh) for (g, h), gh in compose.items()]
    unit = {u: i for i, u in enumerate(units)}
    index = {a: i for i, (a, _, _) in enumerate(arrows)}
    unknown: list[str] = []

    def arrow(a: str) -> int:
        if a in index:
            return index[a]
        unknown.append(a)
        return len(arrows) + len(unknown) - 1

    src = [unit.get(s, -1) for _, s, _ in arrows]
    tgt = [unit.get(t, -1) for _, _, t in arrows]
    rows = np.array([[arrow(a) for a in row] for row in compose], dtype=np.intp).reshape(-1, 3)
    return MeasuredGroupoid(
        units, [mass[u] for u in units], [a for a, _, _ in arrows], src, tgt, tuple(rows.T),
        ([index.get(a, -1) for a in inverse], [arrow(a) for a in inverse.values()]),
        ([unit.get(u, -1) for u in unit_arrows], [arrow(a) for a in unit_arrows.values()]),
        unknown=unknown, **kw,
    )


def trivial_groupoid(
    units: Sequence[str], mass: Mapping[str, float], **kw
) -> MeasuredGroupoid:
    """Units only: every arrow is a unit arrow."""
    arrows = [(f"e|{u}", u, u) for u in units]
    compose = {(f"e|{u}", f"e|{u}"): f"e|{u}" for u in units}
    inverse = {f"e|{u}": f"e|{u}" for u in units}
    unit_arrows = {u: f"e|{u}" for u in units}
    return validate_groupoid(from_names(units, mass, arrows, compose, inverse, unit_arrows, **kw))


def full_relation_by_name(
    units: Sequence[str], mass: Mapping[str, float], **kw
) -> MeasuredGroupoid:
    """``full_relation`` built name by name."""
    def aid(x: str, y: str) -> str:
        return f"r|{x}|{y}"  # arrow from y to x

    arrows = [(aid(x, y), y, x) for x in units for y in units]
    compose = [(aid(x, y), aid(y, z), aid(x, z)) for x in units for y in units for z in units]
    inverse = {aid(x, y): aid(y, x) for x in units for y in units}
    unit_arrows = {u: aid(u, u) for u in units}
    return validate_groupoid(from_names(units, mass, arrows, compose, inverse, unit_arrows, **kw))


def group_bundle_by_name(
    fibers: Mapping[str, FiniteGroupTable],
    mass: Mapping[str, float],
    units: Optional[Sequence[str]] = None,
    **kw,
) -> MeasuredGroupoid:
    """``group_bundle`` built name by name."""
    units = tuple(units) if units is not None else tuple(fibers)
    arrows, compose, inverse, unit_arrows = [], [], {}, {}
    for x in units:
        tab = fibers[x]
        mult = product_by_name(tab)
        name = {gm: f"{x}.{gm}" for gm in tab.elements}
        arrows.extend((name[gm], x, x) for gm in tab.elements)
        for g1 in tab.elements:
            inverse[name[g1]] = name[tab.inverse[g1]]
            for g2 in tab.elements:
                compose.append((name[g1], name[g2], name[mult[(g1, g2)]]))
        unit_arrows[x] = name[tab.identity]
    return validate_groupoid(from_names(units, mass, arrows, compose, inverse, unit_arrows, **kw))


def partial_action_groupoid_by_name(p: PartialActionSystem, **kw) -> MeasuredGroupoid:
    """``partial_action_groupoid`` built name by name, from the maps
    g -> {x: sigma_g(x)} read off the action array."""
    grp, mult = p.group, product_by_name(p.group)
    maps = {gm: {p.units[x]: p.units[y] for x, y in enumerate(row) if y >= 0}
            for gm, row in zip(grp.elements, p.action.tolist())}

    def aid(gm: str, x: str) -> str:
        return f"{gm}|{x}"

    arrows = [(aid(gm, x), x, y) for gm in grp.elements for x, y in maps[gm].items()]
    compose, inverse = [], {}
    for gm in grp.elements:
        for x, y in maps[gm].items():
            inverse[aid(gm, x)] = aid(grp.inverse[gm], y)
            for g2 in grp.elements:
                if y in maps[g2]:
                    compose.append((aid(g2, y), aid(gm, x), aid(mult[(g2, gm)], x)))
    unit_arrows = {x: aid(grp.identity, x) for x in p.units}
    g = from_names(p.units, p.mass, arrows, compose, inverse, unit_arrows, **kw)
    return validate_groupoid(g)


def disjoint_union_by_name(
    parts: Sequence[MeasuredGroupoid], weights: Sequence[float], **kw
) -> MeasuredGroupoid:
    """``disjoint_union`` built name by name from validated parts."""
    units, mass, arrows, compose, inverse, unit_arrows = [], {}, [], [], {}, {}
    for i, (part, weight) in enumerate(zip(parts, weights)):
        pre = f"p{i}:"
        units.extend(pre + u for u in part.units)
        mass.update({pre + u: weight * part.mass[u] for u in part.units})
        arrows.extend((pre + a.id, pre + a.src, pre + a.tgt) for a in part.arrows)
        compose.extend((pre + g, pre + h, pre + gh) for (g, h), gh in part.compose.items())
        inverse.update({pre + x: pre + y for x, y in part.inverse.items()})
        unit_arrows.update({pre + u: pre + e for u, e in part.unit_arrow.items()})
    return validate_groupoid(from_names(units, mass, arrows, compose, inverse, unit_arrows, **kw))


def restrict_by_name(g: MeasuredGroupoid, keep: Iterable[str]) -> tuple[MeasuredGroupoid, float]:
    """``MeasuredGroupoid.restrict`` built name by name."""
    keep_set = set(keep)
    total = math.fsum(g.mass[u] for u in keep_set)
    units = tuple(u for u in g.units if u in keep_set)
    kept = [a for a in g.arrows if a.src in keep_set and a.tgt in keep_set]
    ids = {a.id for a in kept}
    compose = {p: gh for p, gh in g.compose.items() if p[0] in ids and p[1] in ids}
    exact = None
    if g.exact_mass is not None:
        etotal = sum(g.exact_mass[u] for u in keep_set)
        if etotal > 0:
            exact = {u: g.exact_mass[u] / etotal for u in units}
    sub = from_names(
        units, {u: g.mass[u] / total for u in units}, [(a.id, a.src, a.tgt) for a in kept],
        compose, {a.id: g.inverse[a.id] for a in kept}, {u: g.unit_arrow[u] for u in units},
        exact_mass=exact,
    )
    return validate_groupoid(sub), total


def shift_connects_by_search(d: DeaconuRenaultSystem, x: str, k: int, y: str) -> bool:
    """Whether some sigma^n x = sigma^m y with n - m = k, by witness search
    up to a horizon past every tail and period."""
    horizon = 2 * len(d.units) + abs(k) + 1
    for n in range(max(0, k), horizon + 1):
        zx, zy = x, y
        for _ in range(n):
            zx = d.sigma[zx]
        for _ in range(n - k):
            zy = d.sigma[zy]
        if zx == zy:
            return True
    return False


def sorted_row_gram(alg: TranslationAlgebra) -> np.ndarray:
    """The dense n x n Gram matrix K^H K of ``center``'s commutator map K,
    summed over K's occupied rows (b, k), which a sort of their keys finds:
    pair (a, b) puts |L_ab|_F w(a,b) in column a of row (b, ab) and minus
    that in column b of row (a, ab), and row u adds conj(u_p) u_q at (p, q)
    for the columns p, q of its two entries (a missing entry repeats the
    other one's column with value 0)."""
    n = alg.matrix_dim
    i, j, k, phase = alg.forms
    occupied, place = np.unique(np.concatenate([j * n + k, i * n + k]), return_inverse=True)
    first, second = place[:len(i)], place[len(i):]
    value = phase * np.sqrt(np.bincount(i, minlength=n))[k]
    cols = np.empty((2, len(occupied)), dtype=np.intp)
    vals = np.zeros((2, len(occupied)), dtype=complex)
    cols[1, first], cols[0, second] = i, j
    cols[0, first], vals[0, first] = i, value
    cols[1, second], vals[1, second] = j, -value
    gram = np.zeros((n, n), dtype=complex)
    np.add.at(gram, (cols[:, None], cols[None, :]), vals.conj()[:, None] * vals[None, :])
    return gram


def orbits_by_union_find(g: MeasuredGroupoid) -> tuple[frozenset[str], ...]:
    """The orbits of the units, joined arrow by arrow in a union-find, in
    the order of their first units."""
    parent = {u: u for u in g.units}

    def find(u: str) -> str:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for a in g.arrow_order:
        ru, rv = find(g.src[a]), find(g.tgt[a])
        if ru != rv:
            parent[rv] = ru
    groups: dict[str, list[str]] = {}
    for u in g.units:
        groups.setdefault(find(u), []).append(u)
    return tuple(frozenset(o) for o in groups.values())  # first seen, first unit first


def invariant_rows_by_name(g: MeasuredGroupoid, space: L2Space) -> np.ndarray:
    """``invariant_subalgebra``'s rows, walking the positive arrows by name:
    the row of orbit O holds |L_{e_u}|_F at e_u for u in O, divided by its
    norm."""
    tgt = [g.tgt[h] for h in space.index]
    units = [space.pos[g.unit_arrow[u]] for u in tgt]
    norms = np.sqrt(np.bincount(units, minlength=space.dim))
    positive = [o for o in orbits_by_union_find(g) if any(g.mass[u] > 0.0 for u in o)]
    orbit_of = {u: at for at, orbit in enumerate(positive) for u in orbit}
    orbit = np.array([orbit_of.get(u, -1) for u in tgt])
    rows = norms * (orbit == np.arange(len(positive))[:, None])
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _isotropy_off_units(g: MeasuredGroupoid) -> frozenset[str]:
    return frozenset(a for a in g.arrow_order if g.src[a] == g.tgt[a]) - g.unit_arrow_set


def loops_off_units_by_name(g: MeasuredGroupoid) -> list[int]:
    """Positions of the positive-mass isotropy arrows off the units."""
    off = _isotropy_off_units(g)
    return [i for i, a in enumerate(g.arrow_order) if a in off and g.mass[g.src[a]] > 0.0]


def icc_by_name(g: MeasuredGroupoid) -> IccVerdict:
    """``is_icc`` from the isotropy off the units, arrow by arrow."""
    off = _isotropy_off_units(g)
    offending = [h for h in off if g.mass[g.src[h]] > 0.0]
    counts = {u: 0 for u in g.units}
    for h in off:
        counts[g.src[h]] += 1
    return IccVerdict(not offending, frozenset(offending) or None, counts)
