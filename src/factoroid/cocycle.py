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
per conjugation orbit in one hop: conjugating by a and then by b is
conjugating by ba, and s(ba) = s(a), so every member of an orbit is one
conjugation away from its least loop.  Fix the value 1 there, carry it to
each member along the least loop's first move onto it, and test every move
at once.  A move with holonomy different from 1 rules the orbit out.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .groupoid import GroupoidError, MeasuredGroupoid
from .conjugacy import _loops_off_units, _require_isotropy

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
    return a.dtype.kind == "O" if isinstance(a, np.ndarray) else isinstance(a, Fraction)


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


def complex_array(a: np.ndarray) -> np.ndarray:
    """An array of phases as complex numbers, a turn t as exp(2*pi*i*t)."""
    if not _exact(a):
        return a
    return np.fromiter(map(as_complex, a.ravel()), complex, a.size).reshape(a.shape)


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
        return self.phases.item(self.groupoid.pair_position(g, h))

    def on(self, g: MeasuredGroupoid) -> np.ndarray:
        """The phases, in the order of ``g.pairs``: ``g`` must be ``groupoid``."""
        if self.groupoid is not g:
            raise GroupoidError("the cocycle is defined on another groupoid")
        return self.phases

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


def _is_normalized(g: MeasuredGroupoid, phases: np.ndarray) -> bool:
    """Whether the phase is 1 on every (x, 1), (1, x) and (x, x^-1)."""
    t = g.pairs
    at = phases[np.concatenate([
        t.start[t.unit_arrow[t.src]] + t.rank,
        t.start + t.rank[t.unit_arrow[t.tgt]],
        t.start[t.inv] + t.rank,
    ])]
    if _exact(phases):
        return bool((at == 0).all())
    return bool((np.abs(at - 1) <= UNIT_MODULUS_TOL).all())


def validate_cocycle(
    g: MeasuredGroupoid,
    phases: Sequence[Phase],
    *,
    exact: bool = False,
) -> Cocycle:
    """Check unit modulus and the cocycle identity on all composable triples.

    ``phases`` holds one value per composable pair, in the order of
    ``g.pairs`` (of ``composable_pairs()``).  In exact mode every value must
    be a rational turn t standing for exp(2*pi*i*t), compared exactly;
    otherwise values are arbitrary unit-modulus complex numbers.  The
    identity is checked in one numpy pass over the composable triples of
    ``g.pairs``.
    """
    t = g._pair_table()
    if len(phases) != len(t.left):
        raise CocycleIdentityViolated(
            f"a cocycle needs one phase per composable pair: {len(t.left)}, "
            f"not {len(phases)}"
        )
    if exact:
        w = np.fromiter((Fraction(v) % 1 for v in phases), dtype=object, count=len(t.left))
    else:
        w = np.array(phases, dtype=complex)
        bad = ~(np.abs(np.abs(w) - 1.0) <= UNIT_MODULUS_TOL)  # NaN fails too
        if bad.any():
            p = int(bad.argmax())
            pair = g.arrow_order[t.left[p]], g.arrow_order[t.right[p]]
            raise NotUnitModulus(f"|w{pair!r}| = {abs(complex(w[p]))!r} is not 1", pair)

    def fails(xy, yz, xy_z, x_yz):  # w(x,yz) w(y,z) != w(xy,z) w(x,y)
        if exact:  # rational turns, compared exactly
            return (w[x_yz] + w[yz]) % 1 != (w[xy_z] + w[xy]) % 1
        return ~(np.abs(w[x_yz] * w[yz] - w[xy_z] * w[xy]) <= IDENTITY_TOL)
    bad = t.first_failure(fails, "yz")
    if bad is not None:
        x, y, z = (g.arrow_order[i] for i in bad)
        raise CocycleIdentityViolated(
            f"cocycle identity fails on triple ({x!r},{y!r},{z!r})", (x, y, z)
        )
    return Cocycle(g, w, exact, _is_normalized(g, w))


def trivial_cocycle(g: MeasuredGroupoid, *, exact: bool = False) -> Cocycle:
    g._require_validated()
    phases = np.full(len(g.pairs.left), pone(exact), dtype=object if exact else complex)
    return Cocycle(g, phases, exact, normalized=True)


def apply_coboundary(g: MeasuredGroupoid, w: Cocycle, rho: np.ndarray) -> Cocycle:
    """The cohomologous cocycle  w'(x,y) = rho(x) rho(y) conj(rho(xy)) w(x,y),
    rho given by arrow position."""
    g._require_validated()
    t, r = g.pairs, np.asarray(rho, dtype=w.phases.dtype)
    phases = pmul(pmul(r[t.left], pmul(r[t.right], pconj(r[t.prod]))), w.on(g))
    return Cocycle(g, phases, w.exact, _is_normalized(g, phases))


def normalize_cocycle(g: MeasuredGroupoid, w: Cocycle) -> Cocycle:
    """Apply the two explicit coboundary corrections yielding a cocycle with
    phase 1 on every pair involving a unit arrow and on every (x, x^-1).

    Nothing is re-checked: on a validated cocycle the identity on (x, e, e)
    and (e, e, x), e a unit, gives w(x, e) = w(e, e) = w(e, x) within
    ``IDENTITY_TOL``, so the correction by conj(w(x, e)) brings every unit
    pair to 1 and the one by a square root of conj(w(x, x^-1)), shared by x
    and x^-1, brings every (x, x^-1) to 1 and leaves the unit pairs, all to
    that tolerance (exactly for turns).  A check at the tighter
    ``UNIT_MODULUS_TOL`` would measure only the tolerance."""
    t = g._pair_table()
    step1 = apply_coboundary(g, w, pconj(w.on(g)[t.start[t.unit_arrow[t.src]] + t.rank]))
    # one half-phase per inverse pair, taken at a canonical representative:
    # rho(x) rho(x^-1) then squares to the exact conjugate phase no matter
    # which branch the square root picks (the values at x and x^-1 agree only
    # up to rounding, which matters exactly on the branch cut)
    rep = np.minimum(np.arange(len(t.inv)), t.inv)
    half = pconj(step1.phases[t.start[t.inv[rep]] + t.rank[rep]])  # conj w(rep, rep^-1)
    step2 = apply_coboundary(g, step1, [phalf(v) for v in half.tolist()])
    return Cocycle(g, step2.phases, w.exact, True)


def _normalized(g: MeasuredGroupoid, w: Optional[Cocycle]) -> Cocycle:
    """The trivial cocycle for None, else the normalized representative."""
    if w is None:
        return trivial_cocycle(g)
    return w if w.normalized else normalize_cocycle(g, w)


def central_set_search(
    g: MeasuredGroupoid, w: Optional[Cocycle]
) -> Optional[CentralSetCertificate]:
    """The first central isotropy set off the units, by least loop, or None.

    Conjugating by a and then by b is conjugating by ba, and s(ba) = s(a),
    so the orbit of a positive-mass loop h is exactly its one-hop conjugates
    a h a^-1, s(a) = s(h), m(t(a)) > 0.  Any compatible f on it is, up to
    scale, f(r) = 1 at its least loop r and f(c) carried along r's first
    move onto c in storage order; the orbit is central exactly when every
    move closes up (holonomy 1 within ``HOLONOMY_TOL``, exactly for turns).
    The moves are read from ``g.pairs`` by position and checked at once."""
    g._require_validated()
    loops = np.flatnonzero(_loops_off_units(g)[1])
    if not len(loops):
        return None
    w = _normalized(g, w)
    t, phase = g.pairs, w.on(g)
    i, p, a, c = t.conjugations(loops)  # the moves h = loops[i] -> c = a h a^-1
    keep = g.unit_masses[t.tgt[a]] > 0.0
    i, p, a, c = i[keep], p[keep], a[keep], c[keep]
    factor = pmul(pconj(phase[t.start[a] + t.rank[c]]), phase[p])  # conj(w(c, a)) w(a, h)
    j = np.searchsorted(loops, c)
    # moves run h in ascending order, so the first move onto a loop comes
    # from the least loop of its orbit, and is that loop's first onto it
    hit = np.full(len(loops), len(j))
    np.minimum.at(hit, j, np.arange(len(j)))
    root = i[hit]
    roots = np.flatnonzero(root == np.arange(len(loops)))
    f = pmul(factor[hit], pone(w.exact))
    f[roots], hit[roots] = pone(w.exact), -1
    lhs, rhs = f[j], pmul(factor, f[i])
    d = complex_array(lhs) - complex_array(rhs)
    defect = np.hypot(d.real, d.imag)  # as Python's abs, to the last bit
    bad = lhs != rhs if w.exact else ~(defect <= HOLONOMY_TOL)
    good = roots[np.bincount(root[i[bad]], minlength=len(loops))[roots] == 0]
    if not len(good):
        return None
    orbit = np.flatnonzero(root == good[0])
    orbit = orbit[np.argsort(hit[orbit])]
    name = list(map(g.arrow_order.__getitem__, loops[orbit].tolist()))
    return CentralSetCertificate(
        support=frozenset(name),
        f=dict(zip(name, complex_array(f[orbit]).tolist())),
        max_defect=float(defect[root[i] == good[0]].max()),
    )


def is_omega_regular(
    g: MeasuredGroupoid,
    w: Cocycle,
    ids: Iterable[str],
) -> RegularityVerdict:
    """Phase symmetry of a bisection inside the isotropy:
    w(y, g) == w(g, x) whenever g x g^-1 = y with x, y in the set.

    Evaluated on the normalized representative of the cocycle.  The
    conjugations and phases are read from ``g.pairs`` by position; the
    witness is the first failure with x in storage order, then g.
    """
    g._require_validated()
    w = _normalized(g, w)
    ids = _require_isotropy(g, ids)
    if not g.is_bisection(ids):
        raise GroupoidError("phase regularity is defined for bisections")
    t, phase = g.pairs, w.on(g)
    x = np.array(sorted(map(g.arrow_index, ids)), dtype=np.intp)
    i, p, a, y = t.conjugations(x)  # y = a x a^-1
    ya, ax = phase[t.start[a] + t.rank[y]], phase[p]  # w(y, a), w(a, x)
    bad = np.isin(y, x) & ~(ya == ax if w.exact else np.abs(ya - ax) <= HOLONOMY_TOL)
    if not bad.any():
        return RegularityVerdict(True)
    m = int(bad.argmax())
    return RegularityVerdict(False, witness=tuple(g.arrow_order[v] for v in (a[m], x[i[m]], y[m])))


def kleppner_holds(g: MeasuredGroupoid, w: Optional[Cocycle]) -> KleppnerVerdict:
    """Decide the phase-symmetry obstruction over singleton bisections.

    The condition fails exactly when some positive-mass non-unit isotropy
    arrow h satisfies w(h, g) = w(g, h) for every g conjugating h to itself:
    such a singleton is itself a non-null phase-regular bisection (its class
    has finite measure at finite scale), and conversely any offending
    bisection forces the self-condition on each of its positive singletons.
    The conjugations and phases are read from ``g.pairs`` by position.
    """
    g._require_validated()
    h = np.flatnonzero(_loops_off_units(g)[1])
    if not len(h):
        return KleppnerVerdict(True)
    t, phase = g.pairs, _normalized(g, w).on(g)
    if (phase == phase[0]).all():  # untwisted: the first loop is phase-symmetric
        return KleppnerVerdict(False, witness=g.arrow_order[h[0]])
    i, p, a, c = t.conjugations(h)
    fixes = c == h[i]  # a h a^-1 = h
    i, p, a = i[fixes], p[fixes], a[fixes]
    ha, ah = phase[t.start[a] + t.rank[h[i]]], phase[p]  # w(h, a), w(a, h)
    close = ha == ah if w.exact else np.abs(ha - ah) <= HOLONOMY_TOL
    symmetric = np.flatnonzero(np.bincount(i[~close], minlength=len(h)) == 0)
    if len(symmetric):
        return KleppnerVerdict(False, witness=g.arrow_order[h[symmetric[0]]])
    return KleppnerVerdict(True)


def twisted_icc(g: MeasuredGroupoid, w: Optional[Cocycle]) -> TwistedIccVerdict:
    """Twisted analogue of the icc decider: no central set may exist.  None
    stands for the trivial cocycle, here and in ``kleppner_holds``."""
    cert = central_set_search(g, w)
    return TwistedIccVerdict(icc=cert is None, certificate=cert)
