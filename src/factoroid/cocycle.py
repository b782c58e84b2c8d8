"""Unit-modulus 2-cocycles on a groupoid and the twisted structure deciders.

A cocycle assigns a phase to every composable pair of arrows, subject to the
associativity identity  w(x,yz) w(y,z) = w(xy,z) w(x,y).  It is stored as one
array in the order of the groupoid's pairs ``g.pairs``: of complex numbers,
or, in exact mode, of ``int64`` numerators k over one denominator N, the
cocycle's ``turns``, each standing for exp(2*pi*i*k/N).  Exact mode makes
every comparison an equality of integers, which is convenient when all
inputs are roots of unity: a product of phases is a sum of numerators mod N.

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
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .groupoid import GroupoidError, MeasuredGroupoid
from .conjugacy import _require_isotropy

UNIT_MODULUS_TOL = 1e-12
IDENTITY_TOL = 1e-10
HOLONOMY_TOL = 1e-9
MAX_TURNS = 2**60  # the largest denominator: a sum of two turns stays in int64


class NotUnitModulus(GroupoidError):
    pass


class CocycleIdentityViolated(GroupoidError):
    pass


# -- phase arithmetic: complex arrays (turns 0) or numerators over turns -----

def pmul(a: np.ndarray, b, turns: int) -> np.ndarray:
    """a b, entry by entry.  A complex product is written out as Python's
    ``*`` computes it, which NumPy's can miss in the last bit."""
    if turns:
        return (a + b) % turns
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def pconj(a: np.ndarray, turns: int) -> np.ndarray:
    return -a % turns if turns else a.conjugate()


def _phase_sqrt(a: np.ndarray, turns: int) -> np.ndarray:
    """Principal square roots: halve the angle taken in (-pi, pi]; for turns
    N, halve the turn k/N taken in (-1/2, 1/2], giving numerators over 2N."""
    if turns:
        return np.where(2 * a <= turns, a, a - turns) % (2 * turns)
    return np.array([cmath.exp(0.5j * cmath.phase(v)) for v in a.tolist()], dtype=complex)


def complex_array(a: np.ndarray, turns: int) -> np.ndarray:
    """Phases as complex numbers: ``a`` itself for turns 0, else each
    numerator k as exp(2*pi*i*(k/turns)), one ``cmath.exp`` per distinct k."""
    if not turns:
        return a
    k = a.flatten()
    k.sort()
    k = k[k != np.concatenate([k[1:], k[-1:] + 1])]  # the last of each run: the distinct k
    z = np.array([cmath.exp(2j * cmath.pi * (v / turns)) for v in k.tolist()], dtype=complex)
    return z[k.searchsorted(a)]


def _checked_turns(turns) -> int:
    """``turns`` as an int, if it is an integer in 1..``MAX_TURNS``."""
    if isinstance(turns, (int, np.integer)) and type(turns) is not bool and 0 < turns <= MAX_TURNS:
        return int(turns)
    raise CocycleIdentityViolated(f"turns must be an integer in 1..{MAX_TURNS}, not {turns!r}")


@dataclass(frozen=True, eq=False)
class Cocycle:
    """A validated cocycle: ``phases[p]`` is its phase at pair p of
    ``groupoid.pairs``, complex for ``turns`` 0, else the numerator k in
    0..turns-1 of the turn k/turns.  ``w(g, h)`` reads the pair (g, h) by
    arrow names, a turn as a ``Fraction``."""

    groupoid: MeasuredGroupoid
    phases: np.ndarray
    turns: int
    normalized: bool

    def __call__(self, g: str, h: str) -> complex | Fraction:
        v = self.phases.item(self.groupoid.pair_position(g, h))
        return Fraction(v, self.turns) if self.turns else v

    def on(self, g: MeasuredGroupoid) -> np.ndarray:
        """The phases, in the order of ``g.pairs``: ``g`` must be ``groupoid``."""
        if self.groupoid is not g:
            raise GroupoidError("the cocycle is defined on another groupoid")
        return self.phases

    def conjugate_cocycle(self) -> "Cocycle":
        return Cocycle(self.groupoid, pconj(self.phases, self.turns), self.turns, self.normalized)


class CentralSetCertificate(NamedTuple):
    """A conjugation-invariant isotropy set with a compatible phase function.

    ``f`` is nowhere zero on the support and satisfies, for every h in the
    support and every positive-target arrow g with s(g) = s(h),

        f(g h g^-1) = conj(w(g h g^-1, g)) * w(g, h) * f(h).
    """

    support: frozenset[str]
    f: dict[str, complex]
    max_defect: float


class RegularityVerdict(NamedTuple):
    regular: bool
    witness: Optional[tuple[str, str, str]] = None  # (g, x, y) violating triple


class KleppnerVerdict(NamedTuple):
    holds: bool
    witness: Optional[str] = None  # phase-symmetric isotropy arrow


class TwistedIccVerdict(NamedTuple):
    icc: bool
    certificate: Optional[CentralSetCertificate] = None


def _is_normalized(g: MeasuredGroupoid, phases: np.ndarray, turns: int) -> bool:
    """Whether the phase is 1 on every (x, 1), (1, x) and (x, x^-1)."""
    t = g.pairs
    at = phases[np.concatenate([
        t.start[t.unit_arrow[t.src]] + t.rank,
        t.start + t.rank[t.unit_arrow[t.tgt]],
        t.start[t.inv] + t.rank,
    ])]
    return bool((at == 0).all() if turns else (np.abs(at - 1) <= UNIT_MODULUS_TOL).all())


def validate_cocycle(
    g: MeasuredGroupoid,
    phases: np.ndarray,
    *,
    turns: int = 0,
) -> Cocycle:
    """Check unit modulus and the cocycle identity on all composable triples.

    ``phases`` holds one value per composable pair, in the order of
    ``g.pairs`` (of ``composable_pairs()``).  For ``turns`` 0 the values are
    unit-modulus complex numbers; for turns N in 1..``MAX_TURNS`` they are
    integers k standing for exp(2*pi*i*k/N), taken mod N and compared
    exactly.  The identity is checked in one numpy pass over the composable
    triples of ``g.pairs``.
    """
    t = g.pairs
    w = np.asarray(phases) if turns else np.array(phases, dtype=complex)
    if w.shape != t.left.shape:
        raise CocycleIdentityViolated(
            f"a cocycle needs one phase per composable pair, shape ({len(t.left)},), "
            f"not {w.shape}"
        )
    if turns:
        turns = _checked_turns(turns)
        if w.dtype.kind not in "iu":
            raise CocycleIdentityViolated(f"exact phases are integers over turns, not {w.dtype}")
        w = (w % turns).astype(np.int64)
    else:
        bad = ~(np.abs(np.abs(w) - 1.0) <= UNIT_MODULUS_TOL)  # NaN fails too
        if bad.any():
            p = int(bad.argmax())
            pair = g.arrow_order[t.left[p]], g.arrow_order[t.right[p]]
            raise NotUnitModulus(f"|w{pair!r}| = {abs(complex(w[p]))!r} is not 1", pair)

    def fails(xy, yz, xy_z, x_yz):  # w(x,yz) w(y,z) != w(xy,z) w(x,y)
        if turns:  # numerators, compared exactly
            return pmul(w[x_yz], w[yz], turns) != pmul(w[xy_z], w[xy], turns)
        return ~(np.abs(w[x_yz] * w[yz] - w[xy_z] * w[xy]) <= IDENTITY_TOL)
    bad = t.first_failure(fails, "yz")
    if bad is not None:
        x, y, z = (g.arrow_order[i] for i in bad)
        raise CocycleIdentityViolated(
            f"cocycle identity fails on triple ({x!r},{y!r},{z!r})", (x, y, z)
        )
    return Cocycle(g, w, turns, _is_normalized(g, w, turns))


def trivial_cocycle(g: MeasuredGroupoid, *, exact: bool = False) -> Cocycle:
    """Phase 1 on every pair; in exact mode the turn 0 over 1."""
    phases = np.empty(len(g.pairs.left), np.int64 if exact else complex)
    phases.fill(0 if exact else 1)
    return Cocycle(g, phases, int(exact), True)


def _cobounded(g: MeasuredGroupoid, phases: np.ndarray, rho: np.ndarray, turns: int) -> np.ndarray:
    """The phases rho(x) rho(y) conj(rho(xy)) w(x,y), rho by arrow position."""
    t = g.pairs
    return pmul(pmul(rho[t.left], pmul(rho[t.right], pconj(rho[t.prod], turns), turns), turns),
                phases, turns)


def apply_coboundary(g: MeasuredGroupoid, w: Cocycle, rho: np.ndarray) -> Cocycle:
    """The cohomologous cocycle  w'(x,y) = rho(x) rho(y) conj(rho(xy)) w(x,y),
    rho given by arrow position: unit-modulus complex numbers, or for an
    exact w integers k, each the turn k / ``w.turns``."""
    phases, n = w.on(g), w.turns
    rho = np.asarray(rho) if n else np.asarray(rho, dtype=complex)
    if rho.shape != (len(g.arrow_order),) or (n and rho.dtype.kind not in "iu"):
        raise CocycleIdentityViolated(f"a coboundary needs one {'integer' if n else 'phase'} "
                                      f"per arrow, not {rho.dtype} of shape {rho.shape}")
    if n:
        rho = (rho % n).astype(np.int64)
    else:
        bad = ~(np.abs(np.abs(rho) - 1.0) <= UNIT_MODULUS_TOL)  # NaN fails too
        if bad.any():
            x = int(bad.argmax())
            name = g.arrow_order[x]
            raise NotUnitModulus(f"|rho({name!r})| = {abs(complex(rho[x]))!r} is not 1", [name])
    phases = _cobounded(g, phases, rho, n)
    return Cocycle(g, phases, n, _is_normalized(g, phases, n))


def normalize_cocycle(g: MeasuredGroupoid, w: Cocycle) -> Cocycle:
    """Apply the two explicit coboundary corrections yielding a cocycle with
    phase 1 on every pair involving a unit arrow and on every (x, x^-1).

    Nothing is re-checked: on a validated cocycle the identity on (x, e, e)
    and (e, e, x), e a unit, gives w(x, e) = w(e, e) = w(e, x) within
    ``IDENTITY_TOL``, so the correction by conj(w(x, e)) brings every unit
    pair to 1 and the one by a square root of conj(w(x, x^-1)), shared by x
    and x^-1, brings every (x, x^-1) to 1 and leaves the unit pairs, all to
    that tolerance (exactly for turns).  A check at the tighter
    ``UNIT_MODULUS_TOL`` would measure only the tolerance.  The square roots
    of turns over N are over 2N, and so is an exact result, which is then put
    over the least denominator of its turns: normalizing it again keeps N."""
    t, phases, n = g.pairs, w.on(g), w.turns
    step1 = _cobounded(g, phases, pconj(phases[t.start[t.unit_arrow[t.src]] + t.rank], n), n)
    # one half-phase per inverse pair, taken at a canonical representative:
    # rho(x) rho(x^-1) then squares to the exact conjugate phase no matter
    # which branch the square root picks (the values at x and x^-1 agree only
    # up to rounding, which matters exactly on the branch cut)
    rep = np.minimum(np.arange(len(t.inv)), t.inv)
    half = pconj(step1[t.start[t.inv[rep]] + t.rank[rep]], n)  # conj w(rep, rep^-1)
    rho = _phase_sqrt(half, n)
    if not n:
        return Cocycle(g, _cobounded(g, step1, rho, n), n, True)
    n = _checked_turns(2 * n)  # rho is over 2N: rewrite the phases over 2N too
    phases = _cobounded(g, 2 * step1, rho, n)
    d = int(np.gcd.reduce(phases, initial=n))
    return Cocycle(g, phases // d, n // d, True)


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
    loops = g._loops_off_units[1].nonzero()[0]
    if not len(loops):
        return None
    w = _normalized(g, w)
    t, phase, n = g.pairs, w.on(g), w.turns
    i, p, a, c = t.conjugations(loops)  # the moves h = loops[i] -> c = a h a^-1
    keep = g.unit_masses[t.tgt[a]] > 0.0
    i, p, a, c = i[keep], p[keep], a[keep], c[keep]
    factor = pmul(pconj(phase[t.start[a] + t.rank[c]], n), phase[p], n)  # conj(w(c, a)) w(a, h)
    j = loops.searchsorted(c)
    # moves run h in ascending order, so the first move onto a loop comes
    # from the least loop of its orbit, and is that loop's first onto it
    hit = np.zeros(len(loops), dtype=np.intp) + len(j)
    np.minimum.at(hit, j, np.arange(len(j)))
    root = i[hit]
    roots = (root == np.arange(len(loops))).nonzero()[0]
    one = 0 if n else 1.0 + 0j
    f = pmul(factor[hit], one, n)
    f[roots], hit[roots] = one, -1
    lhs, rhs = f[j], pmul(factor, f[i], n)
    d = complex_array(lhs, n) - complex_array(rhs, n)
    defect = np.hypot(d.real, d.imag)  # as Python's abs, to the last bit
    bad = lhs != rhs if n else ~(defect <= HOLONOMY_TOL)
    good = roots[np.bincount(root[i[bad]], minlength=len(loops))[roots] == 0]
    if not len(good):
        return None
    orbit = (root == good[0]).nonzero()[0]
    orbit = orbit[hit[orbit].argsort()]
    name = list(map(g.arrow_order.__getitem__, loops[orbit].tolist()))
    return CentralSetCertificate(
        support=frozenset(name),
        f=dict(zip(name, complex_array(f[orbit], n).tolist())),
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
    w = _normalized(g, w)
    ids = _require_isotropy(g, ids)
    if not g.is_bisection(ids):
        raise GroupoidError("phase regularity is defined for bisections")
    t, phase = g.pairs, w.on(g)
    x = np.array(sorted(map(g.arrow_index, ids)), dtype=np.intp)
    i, p, a, y = t.conjugations(x)  # y = a x a^-1
    ya, ax = phase[t.start[a] + t.rank[y]], phase[p]  # w(y, a), w(a, x)
    bad = np.isin(y, x) & ~(ya == ax if w.turns else np.abs(ya - ax) <= HOLONOMY_TOL)
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
    h = g._loops_off_units[1].nonzero()[0]
    if not len(h):
        return KleppnerVerdict(True)
    t, phase = g.pairs, _normalized(g, w).on(g)
    if (phase == phase[0]).all():  # untwisted: the first loop is phase-symmetric
        return KleppnerVerdict(False, witness=g.arrow_order[h[0]])
    i, p, a, c = t.conjugations(h)
    fixes = c == h[i]  # a h a^-1 = h
    i, p, a = i[fixes], p[fixes], a[fixes]
    ha, ah = phase[t.start[a] + t.rank[h[i]]], phase[p]  # w(h, a), w(a, h)
    close = ha == ah if w.turns else np.abs(ha - ah) <= HOLONOMY_TOL
    symmetric = (np.bincount(i[~close], minlength=len(h)) == 0).nonzero()[0]
    if len(symmetric):
        return KleppnerVerdict(False, witness=g.arrow_order[h[symmetric[0]]])
    return KleppnerVerdict(True)


def twisted_icc(g: MeasuredGroupoid, w: Optional[Cocycle]) -> TwistedIccVerdict:
    """Twisted analogue of the icc decider: no central set may exist.  None
    stands for the trivial cocycle, here and in ``kleppner_holds``."""
    cert = central_set_search(g, w)
    return TwistedIccVerdict(icc=cert is None, certificate=cert)
