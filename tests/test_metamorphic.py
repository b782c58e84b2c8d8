"""Verdicts do not depend on how an instance is written down.

Reordering the arrows, renaming the units and applying a coboundary to the
cocycle each give an isomorphic twisted groupoid algebra, so the verdicts
and the center dimension of the report must not move.  The arrow order
fixes the coordinates of the L^2 space, on which the index arithmetic of
the translations and the greedy bisection basis depend.
"""

import math
import random

import numpy as np
import pytest

from factoroid import constructors as mk
from factoroid.cocycle import apply_coboundary, trivial_cocycle, validate_cocycle
from factoroid.groupoid import validate_groupoid
from factoroid.vna import factoriality_report

from references import from_names, relabel

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
    phases = [int(w(*p) * w.turns) if w.turns else w(*p) for p in h.composable_pairs()]
    return h, validate_cocycle(h, phases, turns=w.turns)


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


# every field of the report that a relabelling or a coboundary must keep;
# ``twisted`` and the witnesses may move under a coboundary of the trivial
# cocycle, and the lower end of ``center_gap`` is rounding
_KEPT = ("icc", "ergodic", "factor", "kleppner", "nonsingular", "pmp", "consistent",
         "center_dim", "invariant_dim")


def _relabelled(g, w, rng):
    arrows, units = len(g.arrow_order), len(g.units)
    return relabel(g, w, np.array(rng.sample(range(arrows), arrows)),
                   np.array(rng.sample(range(units), units)),
                   ([f"v{j}" for j in range(units)], [f"a{i}" for i in range(arrows)]))


def _cobounded(g, w, rng):
    base = trivial_cocycle(g) if w is None else w
    return g, apply_coboundary(g, base, mk.random_coboundary(g, rng, bool(base.turns)))


_TRANSFORMS = {
    "relabel": _relabelled,
    "coboundary": _cobounded,
    "both": lambda g, w, rng: _relabelled(*_cobounded(g, w, rng), rng),
}


@pytest.fixture(scope="module")
def corpus_reports():
    """The random corpus, and the random-twisted one with float and with
    exact phases, each instance with its report."""
    cases = [(f"random-{seed}", mk.random_groupoid(seed), None) for seed in range(500)]
    cases += [(f"twisted-{seed}-{exact}", *mk.random_twisted_pair(seed, exact=exact))
              for seed in range(200) for exact in (False, True)]
    return [(name, g, w, factoriality_report(g, w).to_dict()) for name, g, w in cases]


@pytest.mark.parametrize("transform", sorted(_TRANSFORMS))
def test_reports_survive_relabelling_at_corpus_size(corpus_reports, transform):
    # arrows and units permuted and renamed, a random coboundary, or both
    for name, g, w, want in corpus_reports:
        rng = random.Random(f"{transform}-{name}")
        got = factoriality_report(*_TRANSFORMS[transform](g, w, rng)).to_dict()
        assert {f: got[f] for f in _KEPT} == {f: want[f] for f in _KEPT}, name
        assert math.isclose(got["center_gap"][1], want["center_gap"][1], rel_tol=1e-9), name
