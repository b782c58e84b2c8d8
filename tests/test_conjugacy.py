import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factoroid import constructors as mk
from factoroid.basis import build_basis
from factoroid.conjugacy import (
    NotErgodic,
    NotIsotropy,
    _closure,
    conjugacy_class,
    ergodic_class_decomposition,
    is_icc,
)
from factoroid.vna import _commutator_rows, algebra

from references import (
    by_source,
    closure_by_fixed_point,
    component_roots,
    conjugate,
    from_names,
    inv_set,
    mul_sets,
    product_by_name,
)


def brute_force_group_class(table, element):
    """Independent conjugacy closure inside a single group table."""
    mult = product_by_name(table)
    return {mult[(mult[(h, element)], table.inverse[h])] for h in table.elements}


def test_unit_arrow_class_is_orbit_units(full2):
    cls = conjugacy_class(full2, ["r|x0|x0"])
    assert cls.omega == frozenset({"r|x0|x0", "r|x1|x1"})
    assert cls.mu_s == pytest.approx(1.0)


def test_z2_class_is_singleton(z2):
    cls = conjugacy_class(z2, ["pt.1"])
    assert cls.omega == frozenset({"pt.1"})
    assert cls.mu_s == pytest.approx(1.0)


def test_s3_transposition_class(s3_bundle):
    s3 = mk.symmetric_group(3)
    expected = brute_force_group_class(s3, "102")
    assert expected == {"102", "021", "210"}  # oracle: the three transpositions
    cls = conjugacy_class(s3_bundle, ["pt.102"])
    assert cls.omega == frozenset(f"pt.{e}" for e in expected)
    assert cls.mu_s == pytest.approx(3.0)


def test_fiber_counts(s3_bundle, full2):
    assert conjugacy_class(s3_bundle, ["pt.102"]).fiber_counts["pt"] == 3
    assert conjugacy_class(full2, ["r|x0|x0"]).fiber_counts["x0"] == 1
    assert conjugacy_class(full2, ["r|x0|x0"]).fiber_counts["x1"] == 1


def test_rejects_non_isotropy(full2):
    with pytest.raises(NotIsotropy):
        conjugacy_class(full2, ["r|x0|x1"])


def test_icc_verdicts(full2, z2, swap_groupoid, s3_bundle, null_orbit_groupoid):
    assert is_icc(full2).icc
    v = is_icc(z2)
    assert not v.icc and v.witness == frozenset({"pt.1"})
    assert is_icc(swap_groupoid).icc
    assert not is_icc(s3_bundle).icc
    # isotropy over null units does not spoil the condition
    assert is_icc(null_orbit_groupoid).icc


def test_icc_witness_measures_positive(z2_bundle):
    v = is_icc(z2_bundle)
    assert not v.icc
    assert z2_bundle.arrow_measure(v.witness, "source") > 0
    assert not (v.witness & z2_bundle.unit_arrow_set)


def test_conjugation_invariance_of_omega(s3_bundle):
    cls = conjugacy_class(s3_bundle, ["pt.102"])
    g = s3_bundle
    for h in cls.omega:
        for a in by_source(g, g.src[h]):
            c = conjugate(g, a, h)
            assert c in cls.omega


def test_mu_s_equals_fiber_count_integral(s3_bundle, z2_bundle):
    for g, base in ((s3_bundle, ["pt.102"]), (z2_bundle, ["x0.1"])):
        cls = conjugacy_class(g, base)
        integral = math.fsum(
            g.mass[u] * cls.fiber_counts.get(u, 0) for u in g.units
        )
        assert cls.mu_s == pytest.approx(integral)


def test_ergodic_decomposition_unit_class(full2):
    layers = ergodic_class_decomposition(full2, ["r|x0|x0"])
    assert len(layers) == 1
    assert frozenset(layers[0]) == full2.unit_arrow_set


def test_ergodic_decomposition_s3(s3_bundle):
    layers = ergodic_class_decomposition(s3_bundle, ["pt.102"])
    assert len(layers) == 3
    cls = conjugacy_class(s3_bundle, ["pt.102"])
    assert cls.mu_s == pytest.approx(len(layers))
    seen = set()
    for layer in layers:
        assert s3_bundle.is_bisection(layer)
        assert {s3_bundle.src[a] for a in layer} == {"pt"}
        seen |= set(layer)
    assert seen == set(cls.omega)


def test_ergodic_decomposition_requires_ergodicity(z2_bundle):
    with pytest.raises(NotErgodic):
        ergodic_class_decomposition(z2_bundle, ["x0.1"])


def test_fiber_equivariance(z4_translation):
    g = z4_translation
    base = [a for a in g.iso_subgroupoid() if a not in g.unit_arrow_set][:1] or [
        next(iter(g.unit_arrow_set))
    ]
    cls = conjugacy_class(g, base)
    for a in g.arrow_order:
        x, y = g.src[a], g.tgt[a]
        assert cls.fiber_counts.get(x, 0) == cls.fiber_counts.get(y, 0)


def test_min_bisection_cover(s3_bundle):
    cls = conjugacy_class(s3_bundle, ["pt.102"])
    # an isotropy set needs as many bisections as it has arrows at one unit
    assert max(cls.fiber_counts.values()) == 3
    assert max(conjugacy_class(s3_bundle, []).fiber_counts.values()) == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2000), scale_seed=st.integers(0, 100))
def test_icc_depends_only_on_measure_class(seed, scale_seed):
    import random

    g = mk.random_groupoid(seed)
    rng = random.Random(f"reweight-{seed}-{scale_seed}")
    factors = {u: (rng.random() + 0.1 if g.mass[u] > 0 else 0.0) for u in g.units}
    total = sum(g.mass[u] * factors[u] for u in g.units)
    from factoroid.groupoid import validate_groupoid

    reweighted = validate_groupoid(
        from_names(
            g.units,
            {u: g.mass[u] * factors[u] / total for u in g.units},
            [(a.id, a.src, a.tgt) for a in g.arrows],
            g.compose,
            g.inverse,
            g.unit_arrow,
        )
    )
    assert is_icc(reweighted).icc == is_icc(g).icc


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2000))
def test_basis_sweep_agrees_with_closure(seed):
    g = mk.random_groupoid(seed)
    iso = sorted(g.iso_subgroupoid())
    if not iso:
        return
    base = iso[seed % len(iso)]
    # conjugating twice is conjugating by a product, so one sweep over the
    # blocks of a basis already gives the fixed point of the closure
    swept: set[str] = set()
    for block in build_basis(g, symmetric=True).blocks:
        swept |= mul_sets(g, mul_sets(g, block, [base]), inv_set(g, block))
    assert swept == conjugacy_class(g, [base]).omega


_ONE_HOP_CASES = {
    "random": lambda: ((mk.random_groupoid(s), None) for s in range(500)),
    "random-twisted": lambda: (mk.random_twisted_pair(s) for s in range(200)),
    "random-twisted-exact": lambda: (mk.random_twisted_pair(s, exact=True) for s in range(200)),
    "named": lambda: (build() for name, build in sorted(mk.NAMED_INSTANCES.items())
                      if name != "s5-translation"),
    "sn-bundle": lambda: ((mk.sn_bundle(n)[0], None) for n in range(2, 6)),
}


@pytest.mark.parametrize("family", sorted(_ONE_HOP_CASES))
def test_one_hop_classes_match_the_fixed_point_oracles(family):
    # the class of each loop, and the blocks of ``center`` on the edges
    # (a, b^-1 a b) of its paired rows, are closed after one hop
    for g, w in _ONE_HOP_CASES[family]():
        t = g.pairs
        for h in np.flatnonzero(t.src == t.tgt).tolist():
            base = [g.arrow_order[h]]
            assert np.array_equal(_closure(g, base), closure_by_fixed_point(g, base))
        alg = algebra(g, w, "left")
        norms = np.sqrt(np.bincount(alg.forms[0], minlength=alg.matrix_dim))
        _, loop, c, _ = _commutator_rows(alg, norms)
        a, label = alg.forms[0][loop], np.arange(alg.matrix_dim)
        np.minimum.at(label, a, c)
        assert np.array_equal(label, component_roots(alg.matrix_dim, a, c))


@pytest.mark.parametrize("seed", range(50))
def test_globalize_gluing_is_closed_after_one_hop(seed):
    # pair (g, x), at g |X| + x, is glued to (h, y) for y = sigma_{h^-1 g}(x);
    # the least pair glued to each pair names its class, as the fixed point
    # does, and the global unit g.(1, x) of ``globalize`` names the same one
    p = mk.random_partial_action(seed)
    act, grp, units = p.action, p.group, p.units
    n, size = act.shape
    prod, inv = grp.product, grp.inverse_at
    y = act[prod[inv[None, :], np.arange(n)[:, None]][:, :, None], np.arange(size)]
    g, h, x = np.nonzero(y >= 0)
    cls = np.arange(n * size)
    np.minimum.at(cls, g * size + x, h * size + y[g, h, x])
    assert np.array_equal(cls, component_roots(n * size, g * size + x, h * size + y[g, h, x]))
    glob = mk.globalize(p)
    unit = [glob.groupoid.tgt[f"{e}|{glob.embedding[u]}"] for e in grp.elements for u in units]
    assert len(set(zip(cls.tolist(), unit))) == len(set(cls.tolist())) == len(set(unit))
