"""Plain references and builders that only the tests use.

``twisted_convolve`` is the twisted convolution of functions on the arrows,
written as one loop over the composition table, against which the tests
check the products of the translation algebra; ``verify_central_certificate``
re-checks a central-set certificate against its defining rule, arrow by
arrow; ``bundle_center_dim_oracle`` counts the center of a group bundle from
the fibers' conjugacy classes; ``sorted_row_gram`` assembles the Gram matrix
of ``center``'s commutator map row by row, finding the rows by sorting their
keys.  ``trivial_groupoid`` and ``compose_rows``
build tables for the tests.

The stages of a report that read ``g.pairs`` by position have their
name-walking forms here, as the references they are checked against:
``orbits_by_union_find``, ``invariant_rows_by_name``, ``icc_by_name`` and
``loops_off_units_by_name``.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from factoroid.cocycle import (
    HOLONOMY_TOL,
    CentralSetCertificate,
    Cocycle,
    as_complex,
    normalize_cocycle,
    trivial_cocycle,
)
from factoroid.conjugacy import IccVerdict
from factoroid.constructors import FiniteGroupTable
from factoroid.groupoid import GroupoidError, MeasuredGroupoid, validate_groupoid
from factoroid.vna import L2Space, TranslationAlgebra


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
        for a in g.by_source(g.src[h]):
            if g.mass[g.tgt[a]] <= 0.0:
                continue
            c = g.conjugate(a, h)
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


def trivial_groupoid(
    units: Sequence[str], mass: Mapping[str, float], **kw
) -> MeasuredGroupoid:
    """Units only: every arrow is a unit arrow."""
    arrows = [(f"e|{u}", u, u) for u in units]
    compose = [f"e|{u}" for u in units for _ in range(3)]
    inverse = {f"e|{u}": f"e|{u}" for u in units}
    unit_arrows = {u: f"e|{u}" for u in units}
    return validate_groupoid(
        MeasuredGroupoid(units, mass, arrows, compose, inverse, unit_arrows, **kw)
    )


def compose_rows(table: Mapping[tuple[str, str], str]) -> list[str]:
    """A composition table (g, h) -> gh, such as the ``compose`` view of a
    validated groupoid, as the flat rows g h gh that ``MeasuredGroupoid``
    takes, in the table's order."""
    return [x for (g, h), gh in table.items() for x in (g, h, gh)]


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
