"""Conjugation closures of isotropy subsets and the icc decider.

The conjugacy class of an arrow set A inside the isotropy is the set of all
conjugates g a g^-1, taken in one hop (see ``_closure``).

At finite scale every conjugacy class has finite measure, so the groupoid has
"infinite conjugacy classes" exactly when no positive-mass isotropy arrow
lies outside the units; this reduced test is the decider.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .groupoid import GroupoidError, MeasuredGroupoid


class NotIsotropy(GroupoidError):
    pass


class NotErgodic(GroupoidError):
    pass


class ConjugacyClass(NamedTuple):
    base: frozenset[str]
    omega: frozenset[str]          # closure of base under conjugation
    mu_s: float
    fiber_counts: dict[str, int]   # unit -> |s^-1(x) & omega|, positive units


class IccVerdict(NamedTuple):
    icc: bool
    witness: Optional[frozenset[str]]  # non-null isotropy off the units
    fiber_counts: dict[str, int]       # unit -> non-unit isotropy arrows at it


def _require_isotropy(g: MeasuredGroupoid, ids: Iterable[str]) -> frozenset[str]:
    ids = frozenset(ids)
    t, at = g.pairs, list(map(g.arrow_index, ids))
    bad = list(compress(ids, t.src[at] != t.tgt[at]))
    if bad:
        raise NotIsotropy("set is not contained in the isotropy", sorted(bad))
    return ids


def conjugacy_class(g: MeasuredGroupoid, base: Iterable[str]) -> ConjugacyClass:
    """Close an isotropy subset under conjugation by every arrow."""
    base = _require_isotropy(g, base)
    closed = _closure(g, base)
    at = g.pairs.src[closed]  # the source of each arrow of the class
    fiber = np.bincount(at, minlength=len(g.units)).tolist()
    counts = {u: c for u, c, m in zip(g.units, fiber, g.unit_masses) if m > 0.0}
    return ConjugacyClass(
        base=base,
        omega=frozenset(compress(g.arrow_order, closed)),
        mu_s=math.fsum(g.unit_masses[at].tolist()),
        fiber_counts=counts,
    )


def _closure(g: MeasuredGroupoid, base: Iterable[str]) -> np.ndarray:
    """The conjugacy class of an isotropy set as a mask over the arrows: the
    conjugates a h a^-1 of each h in the set over every a with s(a) = s(h),
    by position in ``g.pairs``.  One hop is the whole class: conjugating by
    a and then by b is conjugating by ba, and s(ba) = s(a); the unit arrow
    of s(h) gives h itself."""
    closed = np.zeros(len(g.arrow_order), dtype=bool)
    closed[g.pairs.conjugations(np.fromiter(map(g.arrow_index, base), np.intp))[3]] = True
    return closed


def is_icc(g: MeasuredGroupoid) -> IccVerdict:
    """Decide the infinite-conjugacy-class condition.

    Finite scale collapses the definition: every class has finite measure, so
    the condition holds exactly when every isotropy arrow outside the units
    is based at a zero-mass unit.
    """
    off, positive = g._loops_off_units
    witness = frozenset(compress(g.arrow_order, positive))
    counts = np.bincount(g.pairs.src[off], minlength=len(g.units))
    return IccVerdict(
        icc=not witness,
        witness=witness or None,
        fiber_counts=dict(zip(g.units, counts.tolist())),
    )


def ergodic_class_decomposition(
    g: MeasuredGroupoid, base: Iterable[str]
) -> list[tuple[str, ...]]:
    """Split a conjugacy class of an ergodic groupoid into full bisections.

    Returns k disjoint bisections V_1..V_k covering the class over the
    positive-mass units, each with source equal to the common support; k is
    the fiber count.  V_j holds the live arrows (in the class, at a positive
    unit) of rank j among the live arrows at their source, in storage order.
    Every positive unit holds k live arrows: conjugation by an arrow u -> v
    carries the class's arrows at u onto those at v, and an ergodic groupoid
    has an arrow between any two positive units.
    """
    if not g.is_ergodic().ergodic:
        raise NotErgodic("decomposition requires an ergodic groupoid")
    src, positive = g.pairs.src, g.unit_masses > 0.0
    live = (_closure(g, _require_isotropy(g, base)) & positive[src]).nonzero()[0]
    k = int(np.bincount(src[live], minlength=len(positive))[positive].max(initial=0))
    rank = np.empty_like(live)
    rank[src[live].argsort(kind="stable")] = np.arange(len(live)) % k
    return [tuple(g._names(g.arrow_order, live[rank == j])) for j in range(k)]
