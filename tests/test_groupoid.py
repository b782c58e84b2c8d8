import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from factoroid import constructors as mk
from factoroid.groupoid import (
    BadInverse,
    BadUnit,
    DanglingReference,
    EmptyRestriction,
    MeasuredGroupoid,
    NonAssociative,
    check_isomorphism,
    compose_many,
    validate_groupoid,
)


def test_z2_is_valid_and_pmp(z2):
    assert z2.flags.pmp and z2.flags.nonsingular and z2.flags.mass_normalized


def test_full2_valid_and_pmp(full2):
    # direct check of the fiber-counting measure on every singleton
    for a in full2.arrows:
        assert full2.mass[a.src] == full2.mass[a.tgt]
    assert full2.flags.pmp


def test_broken_compose_reports_bad_unit():
    # claim a product between non-composable arrows of a two-unit groupoid
    h = mk.full_relation(["x0", "x1"], {"x0": 0.5, "x1": 0.5})
    bad = dict(h.compose)
    bad[("r|x0|x1", "r|x0|x1")] = "r|x0|x0"  # tgt != src
    raw = MeasuredGroupoid(
        h.units, h.mass, [(a.id, a.src, a.tgt) for a in h.arrows],
        bad, h.inverse, h.unit_arrow,
    )
    with pytest.raises(BadUnit):
        raw.validate()


def test_missing_composition_detected(full2):
    compose = dict(full2.compose)
    del compose[("r|x1|x0", "r|x0|x1")]
    raw = MeasuredGroupoid(
        full2.units, full2.mass,
        [(a.id, a.src, a.tgt) for a in full2.arrows],
        compose, full2.inverse, full2.unit_arrow,
    )
    with pytest.raises(DanglingReference):
        raw.validate()


def test_broken_inverse_detected(full2):
    inverse = dict(full2.inverse)
    inverse["r|x1|x0"] = "r|x1|x0"
    raw = MeasuredGroupoid(
        full2.units, full2.mass,
        [(a.id, a.src, a.tgt) for a in full2.arrows],
        full2.compose, inverse, full2.unit_arrow,
    )
    with pytest.raises(BadInverse) as err:
        raw.validate()
    assert "r|x1|x0" in err.value.ids


def _latin_square() -> MeasuredGroupoid:
    """Three loops at one unit with a table that is a Latin square but not a
    group: row/col shuffles breaking (aa)b = a(ab)."""
    arrows = [("e", "x", "x"), ("a", "x", "x"), ("b", "x", "x")]
    table = {
        ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
        ("a", "e"): "a", ("a", "a"): "e", ("a", "b"): "b",
        ("b", "e"): "b", ("b", "a"): "b", ("b", "b"): "e",
    }
    inverse = {"e": "e", "a": "a", "b": "b"}
    return MeasuredGroupoid(["x"], {"x": 1.0}, arrows, table, inverse, {"x": "e"})


def test_nonassociative_table_detected():
    with pytest.raises(NonAssociative):
        _latin_square().validate()


def _first_nonassociative_by_loop(g):
    """The triple-by-triple associativity loop that ``validate`` ran before
    its index pass, kept as the reference for the first failing triple."""
    for (a, b), ab in g.compose.items():
        for c in g.by_target(g.src[b]):
            if g.compose[(ab, c)] != g.compose[(a, g.compose[(b, c)])]:
                return f"(g h) k != g (h k) for ({a!r},{b!r},{c!r})", (a, b, c)
    return None


def _with_swapped_product(g, rng):
    """``g`` rebuilt with the products of two pairs of non-unit arrows
    swapped (both products non-unit, with equal endpoints, so that only
    associativity can fail) and its composition rows shuffled; None when no
    such pairs exist."""
    unit = g.is_unit_arrow
    pairs = [
        (p, gh) for p, gh in g.compose.items()
        if not (unit(p[0]) or unit(p[1]) or unit(gh))
    ]
    rng.shuffle(pairs)
    for (p, gh), (q, gh2) in itertools.combinations(pairs, 2):
        if gh != gh2 and (g.src[gh], g.tgt[gh]) == (g.src[gh2], g.tgt[gh2]):
            compose = dict(g.compose)
            compose[p], compose[q] = gh2, gh
            rows = list(compose.items())
            rng.shuffle(rows)
            return MeasuredGroupoid(
                g.units, g.mass, [(a.id, a.src, a.tgt) for a in g.arrows],
                dict(rows), g.inverse, g.unit_arrow,
            )
    return None


def test_index_pass_names_the_loops_first_triple():
    rng = random.Random(0)
    cases = [_latin_square()]
    for seed in range(60):
        raw = _with_swapped_product(mk.random_groupoid(seed), rng)
        if raw is not None:
            cases.append(raw)
    assert len(cases) > 30
    for raw in cases:
        with pytest.raises(NonAssociative) as err:
            raw.validate()
        assert (str(err.value), err.value.ids) == _first_nonassociative_by_loop(raw)


def test_unnormalized_mass_rejected_without_flag():
    with pytest.raises(BadUnit):
        mk.trivial_groupoid(["x"], {"x": 0.7})
    g = mk.trivial_groupoid(["x"], {"x": 0.7}, unnormalized=True)
    assert not g.flags.mass_normalized


def test_compose_many(z2, full2):
    a = "pt.1"
    assert compose_many(z2, [a, a]) == "pt.0"
    assert compose_many(z2, [a, z2.inverse[a]]) == z2.unit_arrow["pt"]
    assert compose_many(full2, ["r|x0|x1", "r|x1|x0"]) == "r|x0|x0"
    assert compose_many(full2, ["r|x0|x1", "r|x0|x1"]) is None
    assert compose_many(full2, ["r|x0|x0"]) == "r|x0|x0"
    assert compose_many(full2, []) is None


def test_iso_subgroupoid(z2, full2, z2_trivial_two_points):
    assert z2.iso_subgroupoid() == frozenset(z2.arrow_order)
    assert full2.iso_subgroupoid() == full2.unit_arrow_set
    # trivial action: every arrow loops
    g = z2_trivial_two_points
    assert g.iso_subgroupoid() == frozenset(g.arrow_order)
    assert len(g.arrows) == 4


def test_orbits(full2, z4_translation):
    assert full2.orbits() == (frozenset({"x0", "x1"}),)
    parts = mk.disjoint_union(
        [mk.group_groupoid(mk.cyclic_group(2)), mk.group_groupoid(mk.cyclic_group(3))],
        [0.5, 0.5],
    )
    assert len(parts.orbits()) == 2
    assert z4_translation.orbits() == (frozenset(z4_translation.units),)


def test_ergodicity(full2, null_orbit_groupoid):
    assert full2.is_ergodic().ergodic
    two = mk.trivial_groupoid(["x0", "x1"], {"x0": 0.5, "x1": 0.5})
    verdict = two.is_ergodic()
    assert not verdict.ergodic
    assert verdict.witness is not None and len(verdict.witness) == 2
    # null orbits are ignored
    assert null_orbit_groupoid.is_ergodic().ergodic


def test_arrow_measure(full2):
    # oracle: integrate fiber counts directly
    def mu(ids, side):
        total = 0.0
        for u in full2.units:
            count = sum(
                1 for a in ids
                if (full2.src[a] if side == "source" else full2.tgt[a]) == u
            )
            total += count * full2.mass[u]
        return total

    all_arrows = list(full2.arrow_order)
    assert math.isclose(full2.arrow_measure(all_arrows, "source"), mu(all_arrows, "source"))
    assert full2.arrow_measure(all_arrows, "source") == pytest.approx(2.0)
    assert full2.arrow_measure(full2.unit_arrow_set, "source") == pytest.approx(1.0)
    assert full2.arrow_measure([], "source") == 0.0


def test_restrict(full3, s3_bundle):
    sub, factor = full3.restrict(["x0", "x1"])
    assert factor == pytest.approx(2 / 3)
    assert len(sub.units) == 2 and len(sub.arrows) == 4
    assert sub.flags.mass_normalized
    ref = mk.full_relation(["x0", "x1"], {"x0": 0.5, "x1": 0.5})
    assert sorted(len(sub.by_source(u)) for u in sub.units) == [2, 2]

    same, factor = s3_bundle.restrict(["pt"])
    assert factor == pytest.approx(1.0)
    assert same.arrow_order == s3_bundle.arrow_order

    with pytest.raises(EmptyRestriction):
        mk.trivial_groupoid(
            ["x0", "x1"], {"x0": 1.0, "x1": 0.0}
        ).restrict(["x1"])


def test_restrict_all_units_is_identity(full3):
    sub, factor = full3.restrict(list(full3.units))
    assert factor == pytest.approx(1.0)
    assert check_isomorphism(
        sub, full3,
        {u: u for u in full3.units},
        {a: a for a in full3.arrow_order},
        check_mass=True,
    )


def test_fullness(full2, z2_bundle):
    assert full2.is_full(["x0"]) == full2.is_full(["x0", "x1"])
    f = full2.is_full(["x0"])
    assert f.borel_full and f.mu_full
    f = z2_bundle.is_full(["x0"])
    assert not f.borel_full and not f.mu_full


def test_fullness_null_units(null_orbit_groupoid):
    f = null_orbit_groupoid.is_full(["x0"])
    assert not f.borel_full
    assert f.mu_full  # x1, x2 carry no mass


def test_set_algebra(full2):
    a = {"r|x0|x1"}
    assert full2.mul_sets(a, full2.inv_set(a)) == frozenset({"r|x0|x0"})
    assert full2.is_bisection(["r|x0|x1", "r|x1|x0"])
    assert not full2.is_bisection(["r|x0|x1", "r|x0|x0"])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2000))
def test_random_instances_satisfy_measure_identities(seed):
    g = mk.random_groupoid(seed)
    # inversion swaps the source and target measures
    ids = [a for i, a in enumerate(g.arrow_order) if (seed + i) % 3 != 0]
    inv = g.inv_set(ids)
    assert g.arrow_measure(ids, "source") == pytest.approx(
        g.arrow_measure(inv, "target")
    )
    # on the isotropy both measures agree exactly
    iso = g.iso_subgroupoid()
    assert g.arrow_measure(iso, "source") == pytest.approx(
        g.arrow_measure(iso, "target")
    )
    # pmp implies nonsingular
    if g.flags.pmp:
        assert g.flags.nonsingular


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2000))
def test_orbits_ignore_null_unit_arrows(seed):
    g = mk.random_groupoid(seed)
    orbits = g.orbits()
    assert frozenset().union(*orbits) == frozenset(g.units)
    total = sum(len(o) for o in orbits)
    assert total == len(g.units)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2000))
def test_adding_isolated_null_unit_keeps_orbits(seed):
    g = mk.random_groupoid(seed)
    extended = validate_groupoid(
        MeasuredGroupoid(
            list(g.units) + ["zz_null"],
            {**g.mass, "zz_null": 0.0},
            [(a.id, a.src, a.tgt) for a in g.arrows] + [("zz_e", "zz_null", "zz_null")],
            {**g.compose, ("zz_e", "zz_e"): "zz_e"},
            {**g.inverse, "zz_e": "zz_e"},
            {**g.unit_arrow, "zz_null": "zz_e"},
        )
    )
    old = set(g.orbits())
    new = set(extended.orbits())
    assert new == old | {frozenset({"zz_null"})}
    assert extended.is_ergodic().ergodic == g.is_ergodic().ergodic
