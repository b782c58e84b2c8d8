import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from factoroid import constructors as mk
from factoroid.conjugacy import conjugacy_class, is_icc
from factoroid.groupoid import (
    GroupoidError, MeasuredGroupoid, check_isomorphism, validate_groupoid,
)
from factoroid.textio import serialize
from factoroid.vna import center

from references import bundle_center_dim_oracle


def test_group_tables():
    for table in (
        mk.cyclic_group(1), mk.cyclic_group(4), mk.symmetric_group(3),
        mk.dihedral_group(4), mk.klein_four_group(),
    ):
        assert mk.group_groupoid(table).validated
    assert len(mk.symmetric_group(3).elements) == 6
    assert len(mk.dihedral_group(4).elements) == 8
    assert len(mk.klein_four_group().elements) == 4


def test_conjugacy_class_counts():
    assert len(mk.cyclic_group(4).conjugacy_classes()) == 4
    assert len(mk.symmetric_group(3).conjugacy_classes()) == 3
    assert len(mk.klein_four_group().conjugacy_classes()) == 4
    assert len(mk.dihedral_group(4).conjugacy_classes()) == 5


def test_group_bundle_dims(z2_bundle, s3_bundle):
    assert len(z2_bundle.arrows) == 4
    assert z2_bundle.iso_subgroupoid() == frozenset(z2_bundle.arrow_order)
    assert center(z2_bundle).dim == 4  # two fibers, two classes each
    assert center(s3_bundle).dim == 3  # three classes in S3

    trivial = mk.group_bundle(
        {"x0": mk.cyclic_group(1), "x1": mk.cyclic_group(1)},
        {"x0": 0.5, "x1": 0.5},
    )
    assert len(trivial.arrows) == 2


def test_bundle_center_oracle_agreement():
    import random

    for seed in range(10):
        rng = random.Random(f"oracle-{seed}")
        n = rng.randint(1, 3)
        menu = [mk.cyclic_group(2), mk.cyclic_group(3), mk.symmetric_group(3)]
        fibers = {f"x{i}": rng.choice(menu) for i in range(n)}
        w = [rng.random() + 0.1 for _ in range(n)]
        tot = sum(w)
        mass = {f"x{i}": w[i] / tot for i in range(n)}
        g = mk.group_bundle(fibers, mass)
        assert center(g).dim == bundle_center_dim_oracle(fibers, mass)


def test_bundle_center_is_diagonal_iff_fibers_trivial():
    import random

    import numpy as np
    from dense_oracle import svd_span
    from factoroid.vna import algebra, l2_space, multiplication_operator, subspaces_equal

    menu = [mk.cyclic_group(1), mk.cyclic_group(2), mk.symmetric_group(3)]
    for seed in range(8):
        rng = random.Random(f"diag-{seed}")
        n = rng.randint(1, 3)
        fibers = {f"x{i}": rng.choice(menu) for i in range(n)}
        mass = {f"x{i}": 1.0 / n for i in range(n)}
        g = mk.group_bundle(fibers, mass)
        space = l2_space(g)
        diagonal = svd_span(
            np.array([
                multiplication_operator(space, {u: 1.0}) for u in g.units
            ])
        )
        alg = algebra(g)
        # the center's rows are coordinates over L_a / |L_a|_F; as matrices:
        arrow, _, _, val = alg.forms
        norms = np.sqrt(np.bincount(arrow, np.abs(val) ** 2, alg.matrix_dim))
        central = svd_span(
            [alg.element(y / norms) for y in center(g, alg=alg).basis_ops]
        )
        equal, _ = subspaces_equal(central, diagonal)
        trivial = all(len(fibers[u].elements) == 1 for u in g.units)
        assert equal == trivial, seed


def test_swap_is_full_relation(swap_groupoid, full2):
    unit_map = {"x0": "x0", "x1": "x1"}
    arrow_map = {
        "0|x0": "r|x0|x0", "0|x1": "r|x1|x1",
        "1|x0": "r|x1|x0", "1|x1": "r|x0|x1",
    }
    assert check_isomorphism(swap_groupoid, full2, unit_map, arrow_map,
                             check_mass=True)


def test_trivial_action_on_point_is_group():
    z2 = mk.cyclic_group(2)
    g = mk.transformation_groupoid(
        z2, {("0", "pt"): "pt", ("1", "pt"): "pt"}, ["pt"], {"pt": 1.0}
    )
    ref = mk.group_groupoid(z2)
    assert check_isomorphism(
        g, ref, {"pt": "pt"}, {"0|pt": "pt.0", "1|pt": "pt.1"}
    )


def test_z4_translation_props(z4_translation):
    assert len(z4_translation.arrows) == 16
    assert z4_translation.is_ergodic().ergodic
    assert is_icc(z4_translation).icc


def test_induced_diagnostic_trivial_action():
    z2 = mk.cyclic_group(2)
    action = {("0", "x0"): "x0", ("0", "x1"): "x1",
              ("1", "x0"): "x0", ("1", "x1"): "x1"}
    witness = mk.induced_action_diagnostic(
        z2, action, ["x0", "x1"], {"x0": 0.5, "x1": 0.5}
    )
    assert witness is not None
    assert witness.finite_class == ("1",)
    # the closure of the loop at x0 stays at x0: the orbit is a single point
    assert set(witness.invariant_units) == {"x0"}
    assert set(witness.subgroup) == {"0", "1"}


def test_induced_diagnostic_free_action_none():
    z2 = mk.cyclic_group(2)
    action = {("0", "x0"): "x0", ("0", "x1"): "x1",
              ("1", "x0"): "x1", ("1", "x1"): "x0"}
    assert mk.induced_action_diagnostic(
        z2, action, ["x0", "x1"], {"x0": 0.5, "x1": 0.5}
    ) is None


def test_induced_diagnostic_coset_action():
    s3 = mk.symmetric_group(3)
    action, cosets = mk.coset_action(s3, ["012", "102"])
    witness = mk.induced_action_diagnostic(
        s3, action, cosets, {u: 1 / len(cosets) for u in cosets}
    )
    assert witness is not None
    # the class is a single transposition fixing exactly its own coset, and
    # its stabilizer is the order-2 centralizer
    assert len(witness.finite_class) == 1
    assert len(witness.invariant_units) == 1
    assert len(witness.subgroup) == 2


def _z3_twice_the_same_swap():
    # every map is a bijection, but sigma_1 sigma_1 is not sigma_2
    swap = {"x": "y", "y": "x", "z": "z"}
    return {(g, u): (u if g == "0" else swap[u]) for g in "012" for u in "xyz"}


@pytest.mark.parametrize(
    "group, action",
    [
        (mk.cyclic_group(2), {("0", "x"): "x", ("1", "x"): "y",
                              ("0", "y"): "x", ("1", "y"): "x"}),
        (mk.cyclic_group(2), {("0", "x"): "y", ("1", "x"): "x",
                              ("0", "y"): "x", ("1", "y"): "y"}),
        (mk.cyclic_group(3), _z3_twice_the_same_swap()),
    ],
    ids=["not-bijective", "identity-moves-a-point", "not-compatible"],
)
def test_rejects_non_action(group, action):
    units = sorted({u for _, u in action})
    with pytest.raises(mk.InvalidPartialAction):
        mk.transformation_groupoid(
            group, action, units, {u: 1 / len(units) for u in units}
        )


def test_full_domain_partial_action_matches_global():
    z2 = mk.cyclic_group(2)
    action = {("0", "x0"): "x0", ("0", "x1"): "x1",
              ("1", "x0"): "x1", ("1", "x1"): "x0"}
    p = mk.global_partial_action(z2, action, ["x0", "x1"],
                                 {"x0": 0.5, "x1": 0.5})
    g = mk.partial_action_groupoid(p)
    # the swap groupoid written out by hand: (g, h.x)(h, x) = (g + h, x)
    swap = validate_groupoid(MeasuredGroupoid(
        ["x0", "x1"], {"x0": 0.5, "x1": 0.5},
        [("0|x0", "x0", "x0"), ("0|x1", "x1", "x1"),
         ("1|x0", "x0", "x1"), ("1|x1", "x1", "x0")],
        """0|x0 0|x0 0|x0  0|x0 1|x1 1|x1  1|x0 0|x0 1|x0  1|x0 1|x1 0|x1
           0|x1 0|x1 0|x1  0|x1 1|x0 1|x0  1|x1 0|x1 1|x1  1|x1 1|x0 0|x0""".split(),
        {"0|x0": "0|x0", "0|x1": "0|x1", "1|x0": "1|x1", "1|x1": "1|x0"},
        {"x0": "0|x0", "x1": "0|x1"},
    ))
    assert check_isomorphism(
        g, swap,
        {u: u for u in g.units},
        {a: a for a in g.arrow_order},
        check_mass=True,
    )


def test_half_domain_groupoid():
    p = mk.half_domain_fixture()
    g = mk.partial_action_groupoid(p)
    assert sorted(g.arrow_order) == ["0|y0", "0|y1", "1|y0"]
    iso = g.iso_subgroupoid()
    assert "1|y0" in iso  # the flip fixes y0


def test_empty_domains_give_trivial_groupoid():
    z2 = mk.cyclic_group(2)
    p = mk.PartialActionSystem(
        z2, ("y0", "y1"), {"y0": 0.5, "y1": 0.5},
        {"0": frozenset({"y0", "y1"}), "1": frozenset()},
        {"0": {"y0": "y0", "y1": "y1"}, "1": {}},
    )
    g = mk.partial_action_groupoid(p)
    assert len(g.arrows) == 2


def test_invalid_partial_action_detected():
    z2 = mk.cyclic_group(2)
    with pytest.raises(mk.InvalidPartialAction):
        mk.PartialActionSystem(
            z2, ("y0", "y1"), {"y0": 0.5, "y1": 0.5},
            {"0": frozenset({"y0", "y1"}), "1": frozenset({"y0"})},
            {"0": {"y0": "y0", "y1": "y1"}, "1": {"y0": "y1"}},  # not into X_1
        )


def test_restrict_partial_identity():
    p = mk.half_domain_fixture()
    q = mk.restrict_partial(p, ["y0", "y1"])
    assert q.domains == p.domains and q.maps == p.maps


def test_restrict_partial_kills_swap():
    z2 = mk.cyclic_group(2)
    action = {("0", "x0"): "x0", ("0", "x1"): "x1",
              ("1", "x0"): "x1", ("1", "x1"): "x0"}
    p = mk.global_partial_action(z2, action, ["x0", "x1"],
                                 {"x0": 0.5, "x1": 0.5})
    q = mk.restrict_partial(p, ["x0"])
    assert q.domains["1"] == frozenset()
    g = mk.partial_action_groupoid(q)
    assert len(g.arrows) == 1


def test_globalize_global_input_collapses():
    z2 = mk.cyclic_group(2)
    action = {("0", "x0"): "x0", ("0", "x1"): "x1",
              ("1", "x0"): "x1", ("1", "x1"): "x0"}
    p = mk.global_partial_action(z2, action, ["x0", "x1"],
                                 {"x0": 0.5, "x1": 0.5})
    glob = mk.globalize(p)
    assert len(glob.space_units) == len(p.units)
    assert glob.embedded_full and glob.restriction_isomorphic


def test_globalize_half_domain():
    glob = mk.globalize(mk.half_domain_fixture())
    assert len(glob.space_units) == 3
    g = glob.groupoid
    # the flip fixes the embedded y0 class and swaps the two y1 classes
    emb_y0 = glob.embedding["y0"]
    flip = {a.id for a in g.arrows
            if a.id.startswith("1|") and a.src == emb_y0}
    assert all(g.tgt[a] == emb_y0 for a in flip)
    others = [a for a in g.arrow_order
              if a.startswith("1|") and g.src[a] != emb_y0]
    assert len(others) == 2
    assert all(g.src[a] != g.tgt[a] for a in others)


def test_globalize_empty_domains_gives_product():
    z2 = mk.cyclic_group(2)
    p = mk.PartialActionSystem(
        z2, ("y0", "y1"), {"y0": 0.5, "y1": 0.5},
        {"0": frozenset({"y0", "y1"}), "1": frozenset()},
        {"0": {"y0": "y0", "y1": "y1"}, "1": {}},
    )
    glob = mk.globalize(p)
    assert len(glob.space_units) == 4  # G x Y


def test_globalize_random_actions():
    for seed in range(8):
        p = mk.random_partial_action(seed)
        glob = mk.globalize(p)
        assert glob.embedded_full and glob.restriction_isomorphic


def test_deaconu_renault_fixed_point():
    d = mk.DeaconuRenaultSystem(("x",), {"x": 1.0}, {"x": "x"}, bound=4)
    view = mk.deaconu_renault(d)
    for n in range(-4, 5):
        assert view.b_sets[n] == frozenset({"x"})
        assert view.contains("x", n, "x")


def test_deaconu_renault_tail_into_fixed_point():
    d = mk.DeaconuRenaultSystem(
        ("x0", "x1"), {"x0": 0.5, "x1": 0.5},
        {"x0": "x1", "x1": "x1"}, bound=3,
    )
    view = mk.deaconu_renault(d)
    for k in range(-3, 4):
        assert view.contains("x0", k, "x0")
        assert view.b_sets[k] == frozenset({"x0", "x1"})
    assert ("x0", 1, "x1") in view.arrows


def test_deaconu_renault_brute_force_agreement():
    for seed in range(12):
        d = mk.random_shift_system(seed, size=7, bound=3)
        view = mk.deaconu_renault(d)
        for x in d.units:
            for y in d.units:
                for k in range(-d.bound, d.bound + 1):
                    assert view.contains(x, k, y) == view.brute_force_contains(
                        x, k, y
                    ), (seed, x, k, y)


def test_deaconu_renault_units_always_loops():
    d = mk.random_shift_system(3, size=6)
    view = mk.deaconu_renault(d)
    for x in d.units:
        assert view.contains(x, 0, x)
        assert x in view.b_sets[0]


def test_essentially_free_decisions():
    full = mk.random_shift_system(0, size=5)
    rep = mk.essentially_free(full)
    assert not rep.free

    degenerate = mk.DeaconuRenaultSystem(
        ("x0", "x1"), {"x0": 0.0, "x1": 0.0}, {"x0": "x1", "x1": "x0"}, 2
    )
    rep = mk.essentially_free(degenerate)
    assert rep.free
    assert "null" in rep.note


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_deaconu_renault_rejects_bad_masses(bad):
    d = mk.DeaconuRenaultSystem(
        ("x0", "x1"), {"x0": 0.5, "x1": bad}, {"x0": "x1", "x1": "x0"}, 2
    )
    with pytest.raises(GroupoidError, match="'x1'"):
        mk.deaconu_renault(d)
    with pytest.raises(GroupoidError, match="'x1'"):
        mk.essentially_free(d)


def test_sn_bundle_small():
    g2, a2 = mk.sn_bundle(2)
    assert len(g2.units) == 1 and len(g2.arrows) == 2
    assert len(a2) == 1

    g3, a3 = mk.sn_bundle(3)
    assert len(g3.units) == 2
    assert g3.is_bisection(a3)
    cls = conjugacy_class(g3, a3)
    counts = {u: cls.fiber_counts[u] for u in g3.units}
    assert counts == {"n2": 1, "n3": 3}
    # the class measure is the weighted transposition count, and the minimal
    # bisection cover grows like the largest class
    expected = math.fsum(
        g3.mass[f"n{n}"] * math.comb(n, 2) for n in (2, 3)
    )
    assert cls.mu_s == pytest.approx(expected)
    assert max(cls.fiber_counts.values()) == math.comb(3, 2)


def test_sn_bundle_weight_identity():
    # class measure in closed form: (sum 2^-n) / (sum 2^-n / C(n,2))
    g3, a3 = mk.sn_bundle(3)
    cls = conjugacy_class(g3, a3)
    rho = math.fsum(2.0 ** (-n) / math.comb(n, 2) for n in (2, 3))
    assert cls.mu_s == pytest.approx(math.fsum(2.0 ** (-n) for n in (2, 3)) / rho)


def test_sn_bundle_cover_growth():
    for n in (2, 3, 4):
        g, a = mk.sn_bundle(n)
        cls = conjugacy_class(g, a)
        assert max(cls.fiber_counts.values()) == math.comb(n, 2)


def test_random_groupoid_deterministic():
    a = mk.random_groupoid(17)
    b = mk.random_groupoid(17)
    assert a.arrow_order == b.arrow_order
    assert a.mass == b.mass
    assert a.compose == b.compose


def test_random_twisted_pair_deterministic():
    g1, w1 = mk.random_twisted_pair(23)
    g2, w2 = mk.random_twisted_pair(23)
    assert g1.arrow_order == g2.arrow_order
    assert w1.phases.tolist() == w2.phases.tolist()


def _serialized_digest(instances) -> str:
    digest = hashlib.sha256()
    for inst in instances:
        digest.update(serialize(*inst).encode())
    return digest.hexdigest()


def test_generator_output_is_pinned():
    # the acceptance corpora and the benchmark pool are drawn from these
    # seeds; a refactor of the generators must keep every RNG draw in order.
    # The named instances and globalizations pin the other builders' output.
    assert _serialized_digest((mk.random_groupoid(s),) for s in range(200)) == (
        "dc491908a31a23934df3bdf0aba9817333318c793458980410c30b5cca086fa7"
    )
    assert _serialized_digest(mk.random_twisted_pair(s) for s in range(100)) == (
        "0f7f2cbb2618acecd0d084dee7e46d02e83a346f77c86d1695301e233946a667"
    )
    # of the size ladder only its first rung is built here
    ladder = ("s4-translation", "s4xz2-translation", "s5-translation")
    named = (mk.NAMED_INSTANCES[name]() for name in sorted(mk.NAMED_INSTANCES)
             if name not in ladder)
    assert _serialized_digest(named) == (
        "eb97b8b6b96e97093f877c4be32f5f60db7ce9e92965793c931d659cdfe38880"
    )
    assert _serialized_digest([mk.NAMED_INSTANCES["s4-translation"]()]) == (
        "99c9e835b34e14a616b845f7bdd9a24f653cf30c40fc08cf36537141939cc412"
    )
    globalized = (
        (mk.globalize(mk.random_partial_action(s)).groupoid,) for s in range(8)
    )
    assert _serialized_digest(globalized) == (
        "5f3fffd2ef88619684c90e088ed27c828819fd069278fdfdbf756bc68226973f"
    )


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 5000))
def test_random_groupoid_contract(seed):
    g = mk.random_groupoid(seed)
    assert g.validated
    assert g.flags.nonsingular
    assert len(g.units) <= 12 and len(g.arrows) <= 60


def test_restriction_preserves_icc_and_center():
    g = mk.random_groupoid(2)
    positive = sorted(u for u in g.units if g.mass[u] > 0)
    keep = positive  # full positive section is always mu-full
    sub, _ = g.restrict(keep)
    assert g.is_full(keep).mu_full
    assert is_icc(g).icc == is_icc(sub).icc
    assert center(g).dim == center(sub).dim
