"""Verdicts do not depend on how an instance is written down.

Reordering the arrows, renaming the units and applying a coboundary to the
cocycle each give an isomorphic twisted groupoid algebra, so the verdicts
and the center dimension of the report must not move.  The arrow order
fixes the coordinates of the L^2 space, on which the index arithmetic of
the translations and the greedy bisection basis depend.
"""

import random

import pytest

from factoroid import constructors as mk
from factoroid.cocycle import apply_coboundary, trivial_cocycle, validate_cocycle
from factoroid.groupoid import validate_groupoid
from factoroid.vna import factoriality_report

from references import from_names

FIELDS = ("icc", "ergodic", "factor", "center_dim", "consistent")


def _rebuild(g, w, rename, arrows, compose):
    """The groupoid rewritten, and the cocycle w, pair by pair, on it."""
    h = validate_groupoid(
        from_names(
            [rename[u] for u in g.units],
            {rename[u]: g.mass[u] for u in g.units},
            [(a, rename[s], rename[t]) for a, s, t in arrows],
            compose,
            g.inverse,
            {rename[u]: e for u, e in g.unit_arrow.items()},
            exact_mass=(
                None if g.exact_mass is None
                else {rename[u]: m for u, m in g.exact_mass.items()}
            ),
            unnormalized=g.unnormalized,
        )
    )
    if w is None:
        return h, None
    return h, validate_cocycle(h, [w(*p) for p in h.composable_pairs()], exact=w.exact)


def permute_arrows(g, w, rng):
    arrows = [(a.id, a.src, a.tgt) for a in g.arrows]
    rng.shuffle(arrows)
    pairs = list(g.compose.items())
    rng.shuffle(pairs)
    return _rebuild(g, w, {u: u for u in g.units}, arrows, dict(pairs))


def rename_units(g, w, rng):
    order = list(g.units)
    rng.shuffle(order)
    rename = {u: f"v{i}" for i, u in enumerate(order)}
    arrows = [(a.id, a.src, a.tgt) for a in g.arrows]
    return _rebuild(g, w, rename, arrows, g.compose)


def coboundary(g, w, rng):
    base = trivial_cocycle(g) if w is None else w
    return g, apply_coboundary(g, base, mk.random_coboundary(g, rng))


def _cases():
    for seed in range(50):
        yield f"random-{seed}", mk.random_groupoid(seed), None
    for seed in range(30):
        yield f"twisted-{seed}", *mk.random_twisted_pair(seed)


def _verdicts(g, w):
    rep = factoriality_report(g, w).to_dict()
    return {f: rep[f] for f in FIELDS}


@pytest.fixture(scope="module")
def baseline():
    return [(name, g, w, _verdicts(g, w)) for name, g, w in _cases()]


@pytest.mark.parametrize("transform", [permute_arrows, rename_units, coboundary])
def test_verdicts_survive(baseline, transform):
    for name, g, w, expected in baseline:
        rng = random.Random(f"{transform.__name__}-{name}")
        h, v = transform(g, w, rng)
        assert _verdicts(h, v) == expected, name
