"""Plain references and builders that only the tests use.

``twisted_convolve`` is the twisted convolution of functions on the arrows,
written as one loop over the composition table, against which the tests
check the products of the translation algebra; ``verify_central_certificate``
re-checks a central-set certificate against its defining rule, arrow by
arrow; ``bundle_center_dim_oracle`` counts the center of a group bundle from
the fibers' conjugacy classes.  ``trivial_groupoid`` and ``compose_rows``
build tables for the tests.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

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
