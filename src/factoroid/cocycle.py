"""Unit-modulus 2-cocycles on a groupoid and the twisted structure deciders.

A cocycle assigns a phase to every composable pair of arrows, subject to the
associativity identity  w(x,yz) w(y,z) = w(xy,z) w(x,y).  It is stored as one
array in the order of the groupoid's pairs ``g.pairs``, of complex numbers
or, in exact mode, of rational turns t (``Fraction``) representing
exp(2*pi*i*t); exact mode makes every comparison an equality of fractions,
which is convenient when all inputs are roots of unity.

The twisted factoriality decider looks for a "central" subset of the
isotropy: a conjugation-invariant set supporting a nowhere-zero function that
transforms under conjugation by the cocycle's phases.  Existence is decided
per conjugation orbit by spanning-tree phase propagation: fix the value 1 at
a root, push values along tree edges, and test every remaining edge.  A loop
with holonomy different from 1 rules the orbit out.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

import numpy as np

from .groupoid import GroupoidError, MeasuredGroupoid
from .conjugacy import _require_isotropy

UNIT_MODULUS_TOL = 1e-12
IDENTITY_TOL = 1e-10
HOLONOMY_TOL = 1e-9

Phase = Union[complex, Fraction]


class NotUnitModulus(GroupoidError):
    pass


class CocycleIdentityViolated(GroupoidError):
    pass


# -- phase arithmetic (complex numbers or rational turns) -------------------

def _exact(a) -> bool:  # a rational turn, or an array of them
    return isinstance(a, Fraction) or getattr(a, "dtype", None) == object


def pmul(a: Phase, b: Phase) -> Phase:
    """a b, entry by entry on arrays.  A complex array product is written
    out as Python's ``*`` computes it, which NumPy's can miss in the last bit."""
    if _exact(a):
        return (a + b) % 1
    if not isinstance(a, np.ndarray):
        return a * b
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def pconj(a: Phase) -> Phase:
    return (-a) % 1 if _exact(a) else a.conjugate()


def phalf(a: Phase) -> Phase:
    """Principal square root: halve the angle taken in (-pi, pi]."""
    if isinstance(a, Fraction):
        rep = a if a <= Fraction(1, 2) else a - 1
        return (rep / 2) % 1
    return cmath.exp(0.5j * cmath.phase(complex(a)))

def pone(exact: bool) -> Phase:
    return Fraction(0) if exact else complex(1.0)


def as_complex(a: Phase) -> complex:
    if isinstance(a, Fraction):
        return cmath.exp(2j * cmath.pi * a)
    return complex(a)


def phase_close(a: Phase, b: Phase, tol: float) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return abs(as_complex(a) - as_complex(b)) <= tol


@dataclass(frozen=True, eq=False)
class Cocycle:
    """A validated cocycle: ``phases[p]`` is its phase, complex or in exact
    mode a ``Fraction`` turn, at pair p of ``groupoid.pairs``.  ``w(g, h)``
    reads the pair (g, h) by arrow names."""

    groupoid: MeasuredGroupoid
    phases: np.ndarray
    exact: bool
    normalized: bool

    def __call__(self, g: str, h: str) -> Phase:
        t = self.groupoid.pairs
        x, y = self.groupoid.arrow_index(g), self.groupoid.arrow_index(h)
        if t.src[x] != t.tgt[y]:
            raise KeyError((g, h))
        return self.phases.item(t.start[y] + t.rank[x])

    def on(self, g: MeasuredGroupoid) -> np.ndarray:
        """The phases, in the order of ``g.pairs``: ``g`` must be ``groupoid``."""
        if self.groupoid is not g:
            raise GroupoidError("the cocycle is defined on another groupoid")
        return self.phases

    def complex_phases(self, g: MeasuredGroupoid) -> np.ndarray:
        """``on(g)`` as complex numbers, a turn t as exp(2*pi*i*t)."""
        if not self.exact:
            return self.on(g)
        return np.fromiter(map(as_complex, self.on(g)), complex, len(self.phases))

    def conjugate_cocycle(self) -> "Cocycle":
        return Cocycle(self.groupoid, pconj(self.phases), self.exact, self.normalized)


@dataclass(frozen=True)
class CentralSetCertificate:
    """A conjugation-invariant isotropy set with a compatible phase function.

    ``f`` is nowhere zero on the support and satisfies, for every h in the
    support and every positive-target arrow g with s(g) = s(h),

        f(g h g^-1) = conj(w(g h g^-1, g)) * w(g, h) * f(h).
    """

    support: frozenset[str]
    f: dict[str, complex]
    max_defect: float


@dataclass(frozen=True)
class RegularityVerdict:
    regular: bool
    witness: Optional[tuple[str, str, str]] = None  # (g, x, y) violating triple


@dataclass(frozen=True)
class KleppnerVerdict:
    holds: bool
    witness: Optional[str] = None  # phase-symmetric isotropy arrow


@dataclass(frozen=True)
class TwistedIccVerdict:
    icc: bool
    certificate: Optional[CentralSetCertificate] = None


def _is_normalized(g: MeasuredGroupoid, phases: np.ndarray, tol: float) -> bool:
    """Whether the phase is 1 on every (x, 1), (1, x) and (x, x^-1)."""
    t = g.pairs
    at = phases[np.concatenate([
        t.start[t.unit_arrow[t.src]] + t.rank,
        t.start + t.rank[t.unit_arrow[t.tgt]],
        t.start[t.inv] + t.rank,
    ])]
    if _exact(phases):
        return bool((at == 0).all())
    return bool((np.abs(at - 1) <= tol).all())


def validate_cocycle(
    g: MeasuredGroupoid,
    values: Mapping[tuple[str, str], Phase],
    *,
    exact: bool = False,
) -> Cocycle:
    """Check unit modulus and the cocycle identity on all composable triples.

    In exact mode every value must be a rational turn t standing for
    exp(2*pi*i*t), compared exactly; otherwise values are arbitrary
    unit-modulus complex numbers.  The identity is checked in one numpy pass
    over the composable triples of ``g.pairs``.
    """
    g._require_validated()
    w = np.empty(len(g.pairs.left), dtype=object if exact else complex)
    for p, pair in enumerate(g.composable_pairs()):
        if pair not in values:
            raise CocycleIdentityViolated(
                f"cocycle value missing for composable pair {pair!r}", pair
            )
        v = values[pair]
        if exact:
            v = Fraction(v) % 1
        else:
            v = complex(v)
            if not abs(abs(v) - 1.0) <= UNIT_MODULUS_TOL:  # NaN fails too
                raise NotUnitModulus(
                    f"|w{pair!r}| = {abs(v)!r} is not 1", pair
                )
        w[p] = v
    if len(values) > len(w):  # every composable pair has its value
        extra = set(values) - set(g.composable_pairs())
        raise CocycleIdentityViolated(
            "cocycle defined on non-composable pairs", sorted(extra)[0]
        )

    def fails(xy, yz, xy_z, x_yz):  # w(x,yz) w(y,z) != w(xy,z) w(x,y)
        if exact:  # rational turns, compared exactly
            return (w[x_yz] + w[yz]) % 1 != (w[xy_z] + w[xy]) % 1
        return ~(np.abs(w[x_yz] * w[yz] - w[xy_z] * w[xy]) <= IDENTITY_TOL)
    bad = g.pairs.first_failure(fails, "yz")
    if bad is not None:
        x, y, z = (g.arrow_order[i] for i in bad)
        raise CocycleIdentityViolated(
            f"cocycle identity fails on triple ({x!r},{y!r},{z!r})", (x, y, z)
        )
    return Cocycle(g, w, exact, _is_normalized(g, w, UNIT_MODULUS_TOL))


def trivial_cocycle(g: MeasuredGroupoid, *, exact: bool = False) -> Cocycle:
    g._require_validated()
    phases = np.full(len(g.pairs.left), pone(exact), dtype=object if exact else complex)
    return Cocycle(g, phases, exact, normalized=True)


def apply_coboundary(
    g: MeasuredGroupoid, w: Cocycle, rho: Mapping[str, Phase]
) -> Cocycle:
    """The cohomologous cocycle  w'(x,y) = rho(x) rho(y) conj(rho(xy)) w(x,y)."""
    g._require_validated()
    t = g.pairs
    r = np.array([rho[x] for x in g.arrow_order], dtype=w.phases.dtype)
    phases = pmul(pmul(r[t.left], pmul(r[t.right], pconj(r[t.prod]))), w.on(g))
    return Cocycle(g, phases, w.exact, _is_normalized(g, phases, UNIT_MODULUS_TOL))


def normalize_cocycle(g: MeasuredGroupoid, w: Cocycle) -> Cocycle:
    """Apply the two explicit coboundary corrections yielding a cocycle with
    phase 1 on every pair involving a unit arrow and on every (x, x^-1)."""
    g._require_validated()
    t = g.pairs
    rho1 = pconj(w.on(g)[t.start[t.unit_arrow[t.src]] + t.rank])  # conj w(x, 1)
    step1 = apply_coboundary(g, w, dict(zip(g.arrow_order, rho1.tolist())))
    # one half-phase per inverse pair, taken at a canonical representative:
    # rho(x) rho(x^-1) then squares to the exact conjugate phase no matter
    # which branch the square root picks (the values at x and x^-1 agree only
    # up to rounding, which matters exactly on the branch cut)
    rep = np.minimum(np.arange(len(t.inv)), t.inv)
    half = pconj(step1.phases[t.start[t.inv[rep]] + t.rank[rep]])  # conj w(rep, rep^-1)
    rho2 = {x: phalf(v) for x, v in zip(g.arrow_order, half.tolist())}
    step2 = apply_coboundary(g, step1, rho2)
    if not step2.normalized:
        raise CocycleIdentityViolated("normalization failed; invalid cocycle")
    return step2


def _normalized(g: MeasuredGroupoid, w: Optional[Cocycle]) -> Cocycle:
    """The trivial cocycle for None, else the normalized representative."""
    if w is None:
        return trivial_cocycle(g)
    return w if w.normalized else normalize_cocycle(g, w)


def _conjugation_moves(g: MeasuredGroupoid, h: str) -> Iterable[tuple[str, str]]:
    """(g, ghg^-1) pairs for positive-target conjugators with s(g) = s(h)."""
    for a in g.by_source(g.src[h]):
        if g.mass[g.tgt[a]] <= 0.0:
            continue
        c = g.conjugate(a, h)
        if c is not None:
            yield a, c


def _edge_phase(w: Cocycle, a: str, h: str, c: str) -> Phase:
    # transport factor of f along h -> c = a h a^-1
    return pmul(pconj(w(c, a)), w(a, h))


def central_set_search(
    g: MeasuredGroupoid, w: Cocycle, tol: float = HOLONOMY_TOL
) -> Optional[CentralSetCertificate]:
    """Find a central isotropy set off the units, or report none exists.

    Scans each conjugation orbit of positive-mass non-unit isotropy arrows.
    On an orbit, any compatible f is determined up to scale by transport
    along a spanning tree, so the orbit carries a certificate exactly when
    every off-tree move closes up (loop holonomy 1 within ``tol``).
    """
    g._require_validated()
    w = _normalized(g, w)
    nodes = [
        h
        for h in g.arrow_order
        if g.src[h] == g.tgt[h]
        and h not in g.unit_arrow_set
        and g.mass[g.src[h]] > 0.0
    ]
    unvisited = set(nodes)
    for root in nodes:
        if root not in unvisited:
            continue
        # breadth-first transport of f from f(root) = 1
        f: dict[str, Phase] = {root: pone(w.exact)}
        order = [root]
        queue = [root]
        while queue:
            h = queue.pop(0)
            for a, c in _conjugation_moves(g, h):
                if c not in f:
                    f[c] = pmul(_edge_phase(w, a, h, c), f[h])
                    order.append(c)
                    queue.append(c)
        unvisited -= set(f)
        consistent = True
        max_defect = 0.0
        for h in order:
            for a, c in _conjugation_moves(g, h):
                lhs = f[c]
                rhs = pmul(_edge_phase(w, a, h, c), f[h])
                defect = abs(as_complex(lhs) - as_complex(rhs))
                max_defect = max(max_defect, defect)
                if not phase_close(lhs, rhs, tol):
                    consistent = False
                    break
            if not consistent:
                break
        if consistent:
            return CentralSetCertificate(
                support=frozenset(order),
                f={h: as_complex(v) for h, v in f.items()},
                max_defect=max_defect,
            )
    return None


def verify_central_certificate(
    g: MeasuredGroupoid,
    w: Cocycle,
    cert: CentralSetCertificate,
    tol: float = HOLONOMY_TOL,
) -> None:
    """Re-check a certificate against the defining transformation rule."""
    g._require_validated()
    w = _normalized(g, w)
    for h in cert.support:
        if g.src[h] != g.tgt[h] or h in g.unit_arrow_set:
            raise GroupoidError("certificate support is not isotropy off units", [h])
        if g.mass[g.src[h]] <= 0.0:
            raise GroupoidError("certificate support touches a null unit", [h])
        if cert.f[h] == 0:
            raise GroupoidError("certificate function vanishes on support", [h])
        for a, c in _conjugation_moves(g, h):
            if c not in cert.support:
                raise GroupoidError(
                    "certificate support is not conjugation invariant", [h, a]
                )
            expected = as_complex(_edge_phase(w, a, h, c)) * cert.f[h]
            if abs(cert.f[c] - expected) > tol:
                raise GroupoidError(
                    "certificate function breaks the transport rule", [h, a]
                )


def is_omega_regular(
    g: MeasuredGroupoid,
    w: Cocycle,
    ids: Iterable[str],
    tol: float = HOLONOMY_TOL,
) -> RegularityVerdict:
    """Phase symmetry of a bisection inside the isotropy:
    w(y, g) == w(g, x) whenever g x g^-1 = y with x, y in the set.

    Evaluated on the normalized representative of the cocycle.
    """
    g._require_validated()
    w = _normalized(g, w)
    ids = _require_isotropy(g, ids)
    if not g.is_bisection(ids):
        raise GroupoidError("phase regularity is defined for bisections")
    for x in g.sort_arrows(ids):
        for a in g.by_source(g.src[x]):
            y = g.conjugate(a, x)
            if y is None or y not in ids:
                continue
            if not phase_close(w(y, a), w(a, x), tol):
                return RegularityVerdict(False, witness=(a, x, y))
    return RegularityVerdict(True)


def kleppner_holds(
    g: MeasuredGroupoid, w: Cocycle, tol: float = HOLONOMY_TOL
) -> KleppnerVerdict:
    """Decide the phase-symmetry obstruction over singleton bisections.

    The condition fails exactly when some positive-mass non-unit isotropy
    arrow h satisfies w(h, g) = w(g, h) for every g conjugating h to itself:
    such a singleton is itself a non-null phase-regular bisection (its class
    has finite measure at finite scale), and conversely any offending
    bisection forces the self-condition on each of its positive singletons.
    """
    g._require_validated()
    w = _normalized(g, w)
    for h in g.arrow_order:
        if g.src[h] != g.tgt[h] or h in g.unit_arrow_set:
            continue
        if g.mass[g.src[h]] <= 0.0:
            continue
        symmetric = True
        for a in g.by_source(g.src[h]):
            if g.conjugate(a, h) != h:
                continue
            if not phase_close(w(h, a), w(a, h), tol):
                symmetric = False
                break
        if symmetric:
            return KleppnerVerdict(False, witness=h)
    return KleppnerVerdict(True)


def twisted_icc(
    g: MeasuredGroupoid, w: Cocycle, tol: float = HOLONOMY_TOL
) -> TwistedIccVerdict:
    """Twisted analogue of the icc decider: no central set may exist."""
    cert = central_set_search(g, w, tol)
    return TwistedIccVerdict(icc=cert is None, certificate=cert)
