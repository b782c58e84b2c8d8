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
from factoroid.constructors import FiniteGroupTable
from factoroid.groupoid import GroupoidError, MeasuredGroupoid, validate_groupoid
from factoroid.vna import TranslationAlgebra


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
