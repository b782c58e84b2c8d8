"""Acceptance criteria for the verification suite.

Each test covers one numbered criterion and prints a PASS line when it
holds; run with ``pytest tests/test_acceptance.py -v -s`` to see them.  The
seeded corpora are shared across criteria through module-scoped fixtures.
"""

import math
import random

import numpy as np
import pytest

from factoroid import constructors as mk
from factoroid.basis import build_basis, conjugate_basis
from factoroid.cocycle import is_omega_regular, normalize_cocycle, trivial_cocycle
from factoroid.conjugacy import (
    conjugacy_class,
    ergodic_class_decomposition,
    is_icc,
)
from factoroid.groupoid import validate_groupoid
from factoroid.vna import (
    algebra,
    center,
    factoriality_report,
    fourier,
    j_map,
    l2_space,
    subspaces_equal,
)

from dense_oracle import commutant
from references import (
    bundle_center_dim_oracle,
    by_source,
    conjugate,
    conjugate_basis_by_name,
    ergodic_class_decomposition_by_name,
    from_names,
    is_omega_regular_by_name,
    shift_connects_by_search,
)

N_CORPUS = 500
N_TWISTED = 200
CONTAINMENT_TOL = 1e-8


@pytest.fixture(scope="module")
def corpus():
    return [(seed, mk.random_groupoid(seed)) for seed in range(N_CORPUS)]


@pytest.fixture(scope="module")
def corpus_reports(corpus):
    return [(seed, g, factoriality_report(g)) for seed, g in corpus]


@pytest.fixture(scope="module")
def twisted_corpus():
    return [(seed, *mk.random_twisted_pair(seed)) for seed in range(N_TWISTED)]


@pytest.fixture(scope="module")
def twisted_reports(twisted_corpus):
    return [
        (seed, g, w, factoriality_report(g, w)) for seed, g, w in twisted_corpus
    ]


def test_criterion_1_theorem_equivalence(corpus_reports):
    """icc <=> numerical center equals the invariant subalgebra."""
    assert len(corpus_reports) >= 500
    bad = [
        seed
        for seed, _, rep in corpus_reports
        if rep.icc != rep.center_equals_invariant or not rep.center_matches_decider
    ]
    assert not bad, f"inconsistent seeds: {bad}"
    print(
        f"\nACCEPTANCE 1 PASS: icc <=> center=invariants on "
        f"{len(corpus_reports)} instances (tol {CONTAINMENT_TOL})"
    )


def test_criterion_2_factor_characterization(corpus_reports):
    """center dim 1 <=> ergodic and icc."""
    bad = [
        seed
        for seed, _, rep in corpus_reports
        if (rep.center_dim == 1) != (rep.ergodic and rep.icc)
    ]
    assert not bad, f"inconsistent seeds: {bad}"
    print(
        f"ACCEPTANCE 2 PASS: factor <=> ergodic+icc on "
        f"{len(corpus_reports)} instances"
    )


def test_criterion_3_twisted_equivalence(twisted_reports):
    """Twisted decider matches the numerical center; exact Klein dims."""
    assert len(twisted_reports) >= 200
    bad = [
        seed
        for seed, _, _, rep in twisted_reports
        if rep.icc != rep.center_equals_invariant or not rep.center_matches_decider
    ]
    assert not bad, f"inconsistent twisted seeds: {bad}"
    g, w = mk.klein_four_twisted()
    assert center(g, w).dim == 1
    assert center(g).dim == 4
    print(
        f"ACCEPTANCE 3 PASS: twisted decider matches numerics on "
        f"{len(twisted_reports)} pairs; Klein four dims 1 (twisted) / 4 (plain)"
    )


def test_criterion_4_kleppner_necessity(corpus_reports, twisted_reports):
    """Whenever the center is scalar, the phase-symmetry condition holds."""
    bad = [
        seed
        for seed, _, rep in corpus_reports
        if rep.center_dim == 1 and not rep.kleppner
    ]
    bad += [
        seed
        for seed, _, _, rep in twisted_reports
        if rep.center_dim == 1 and not rep.kleppner
    ]
    factors = sum(
        rep.center_dim == 1 for _, _, rep in corpus_reports
    ) + sum(rep.center_dim == 1 for _, _, _, rep in twisted_reports)
    assert not bad, f"necessity violated at seeds: {bad}"
    print(f"ACCEPTANCE 4 PASS: Kleppner necessity on {factors} factor instances")


def test_criterion_5_commutation_theorem(corpus, twisted_corpus):
    """commutant(L_w) = R_wbar with equal dims and containment < 1e-8."""
    # size-capped deterministic slice keeps the dense nullspace tractable
    untwisted = [(s, g, None) for s, g in corpus if len(g.arrows) <= 40][:35]
    twisted = [
        (s, g, w) for s, g, w in twisted_corpus if len(g.arrows) <= 40
    ][:15]
    checked = 0
    worst = 0.0
    for seed, g, w in untwisted + twisted:
        wn = normalize_cocycle(g, w) if w is not None else trivial_cocycle(g)
        left = algebra(g, wn, "left")
        right = algebra(g, wn.conjugate_cocycle(), "right")
        comm = commutant(left.basis_ops)
        assert comm.dim == right.dim, (seed, comm.dim, right.dim)
        equal, residual = subspaces_equal(comm, right, CONTAINMENT_TOL)
        assert equal, (seed, residual)
        worst = max(worst, residual)
        checked += 1
    assert checked >= 50
    print(
        f"ACCEPTANCE 5 PASS: commutation theorem on {checked} instances, "
        f"worst containment residual {worst:.2e}"
    )


def test_criterion_6_fourier(z2, full2, full3, s3_bundle, z2_bundle,
                             swap_groupoid, z4_translation, klein_twisted):
    """Reconstruction residual < 1e-10, Parseval gap < 1e-9, 100 elements each."""
    fixtures = [
        (z2, None), (full2, None), (full3, None), (s3_bundle, None),
        (z2_bundle, None), (swap_groupoid, None), (z4_translation, None),
        (klein_twisted[0], normalize_cocycle(*klein_twisted)),
        (klein_twisted[0], None),
    ]
    rng = np.random.default_rng(123)
    worst_res, worst_par = 0.0, 0.0
    for g, w in fixtures:
        basis = build_basis(g, symmetric=True)
        space = l2_space(g)
        alg = algebra(g, w, space=space)
        for _ in range(100):
            coeff = rng.standard_normal(len(alg.basis_ops)) + 1j * (
                rng.standard_normal(len(alg.basis_ops))
            )
            op = np.einsum("j,jab->ab", coeff, alg.basis_ops)
            data = fourier(g, w, op, basis, alg=alg, space=space)
            worst_res = max(worst_res, data.residual)
            worst_par = max(worst_par, data.parseval_gap)
    assert worst_res < 1e-10, worst_res
    assert worst_par < 1e-9, worst_par
    print(
        f"ACCEPTANCE 6 PASS: {len(fixtures)}x100 expansions, "
        f"max residual {worst_res:.2e}, max Parseval gap {worst_par:.2e}"
    )


def test_criterion_7_measure_class_invariance(corpus):
    """is_icc is stable under support-preserving reweightings."""
    checked = 0
    for seed, g in corpus[:100]:
        baseline = is_icc(g).icc
        rng = random.Random(f"acc7-{seed}")
        for _ in range(20):
            factors = {
                u: (rng.random() + 0.05 if g.mass[u] > 0 else 0.0)
                for u in g.units
            }
            total = sum(g.mass[u] * factors[u] for u in g.units)
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
            assert is_icc(reweighted).icc == baseline, seed
        checked += 1
    assert checked == 100
    print("ACCEPTANCE 7 PASS: icc invariant under 100x20 reweightings")


def test_criterion_8_ergodic_decomposition(full2, s3_bundle, klein4):
    """Class measure equals the layer count; layers are full bisections."""
    action, cosets = mk.coset_action(mk.symmetric_group(3), ["012", "102"])
    coset_groupoid = mk.transformation_groupoid(
        mk.symmetric_group(3), action, cosets,
        {u: 1 / len(cosets) for u in cosets},
    )
    cases = [
        (full2, [next(iter(full2.unit_arrow_set))]),
        (s3_bundle, ["pt.102"]),
        (s3_bundle, ["pt.120"]),
        (klein4, ["pt.1.0"]),
        (coset_groupoid, sorted(
            a for a in coset_groupoid.iso_subgroupoid()
            if a not in coset_groupoid.unit_arrow_set
        )[:1]),
    ]
    for g, base in cases:
        assert g.is_ergodic().ergodic
        layers = ergodic_class_decomposition(g, base)
        cls = conjugacy_class(g, base)
        k = len(layers)
        assert abs(cls.mu_s - k) <= 1e-12, (cls.mu_s, k)
        positive = {u for u in g.units if g.mass[u] > 0.0}
        for layer in layers:
            assert g.is_bisection(layer)
            assert {g.src[a] for a in layer} == positive
    print(f"ACCEPTANCE 8 PASS: ergodic class decomposition on {len(cases)} cases")


def _decomposition_cases(corpus):
    """Each ergodic non-icc instance, based at its first icc witness."""
    for seed, g in corpus:
        witness = is_icc(g).witness
        if g.is_ergodic().ergodic and witness:
            yield seed, g, g.sort_arrows(witness)[:1]


def _regularity_cases(twisted_corpus):
    """The singleton of each positive loop off the units, and each block of
    an isotropy basis, under the normalized cocycle of a twisted instance."""
    for seed, g, w in twisted_corpus:
        w = normalize_cocycle(g, w)
        loops = [[h] for h in np.asarray(g.arrow_order)[g._loops_off_units[1]].tolist()]
        iso = [b for b in build_basis(g).blocks if all(g.src[a] == g.tgt[a] for a in b)]
        for ids in loops + iso:
            yield seed, g, w, ids


def _conjugation_cases(corpus):
    """A basis of each of the first 100 instances, conjugated by each of its
    blocks."""
    for seed, g in corpus[:100]:
        basis = build_basis(g)
        for block in basis.blocks:
            yield seed, g, basis, block


# stage -> (corpus fixture, its cases, the stage, its name-walking reference)
_POSITION_STAGES = {
    "ergodic_class_decomposition": (
        "corpus", _decomposition_cases,
        ergodic_class_decomposition, ergodic_class_decomposition_by_name,
    ),
    "is_omega_regular": (
        "twisted_corpus", _regularity_cases, is_omega_regular, is_omega_regular_by_name,
    ),
    "conjugate_basis": (
        "corpus", _conjugation_cases, conjugate_basis, conjugate_basis_by_name,
    ),
}


@pytest.mark.parametrize("stage", sorted(_POSITION_STAGES))
def test_position_stages_match_name_walks(stage, request):
    """The stages that read ``g.pairs`` by position give what their
    name-walking references give, on the acceptance corpora."""
    fixture, cases, by_position, by_name = _POSITION_STAGES[stage]
    checked = 0
    for seed, g, *args in cases(request.getfixturevalue(fixture)):
        got, want = by_position(g, *args), by_name(g, *args)
        assert got == want, (seed, args, got, want)
        checked += 1
    assert checked > 0
    print(f"{stage}: {checked} cases match the name walk")


def test_criterion_9_bundle_center_oracle():
    """Numerical center dim equals the summed fiber class counts, exactly."""
    menu = [
        mk.cyclic_group(2), mk.cyclic_group(3), mk.cyclic_group(4),
        mk.symmetric_group(3), mk.dihedral_group(4),
    ]
    for seed in range(50):
        rng = random.Random(f"acc9-{seed}")
        n = rng.randint(1, 3)
        fibers = {f"x{i}": rng.choice(menu) for i in range(n)}
        w = [rng.random() + 0.1 for _ in range(n)]
        tot = sum(w)
        mass = {f"x{i}": w[i] / tot for i in range(n)}
        g = mk.group_bundle(fibers, mass)
        expected = bundle_center_dim_oracle(fibers, mass)
        got = center(g).dim
        assert got == expected, (seed, got, expected)
    print("ACCEPTANCE 9 PASS: 50 bundle center dims match the class-count oracle")


def test_criterion_10_restriction(corpus):
    """Full restrictions preserve the verdict and the center dimension."""
    checked = 0
    worst_pairs = []
    for seed, g in corpus:
        if checked >= 50:
            break
        positive = sorted(u for u in g.units if g.mass[u] > 0)
        if len(positive) < 2:
            continue
        rng = random.Random(f"acc10-{seed}")
        keep = None
        for _ in range(10):
            k = rng.randint(1, len(positive))
            cand = rng.sample(positive, k)
            if g.is_full(cand).mu_full:
                keep = cand
                break
        if keep is None:
            keep = positive
        sub, _ = g.restrict(keep)
        assert is_icc(g).icc == is_icc(sub).icc, seed
        d1, d2 = center(g).dim, center(sub).dim
        assert d1 == d2, (seed, d1, d2)
        worst_pairs.append((seed, len(keep), len(positive)))
        checked += 1
    assert checked == 50
    proper = sum(1 for _, k, p in worst_pairs if k < p)
    print(
        f"ACCEPTANCE 10 PASS: 50 full restrictions preserve icc and center "
        f"dims ({proper} proper subsets)"
    )


def test_criterion_11_globalization():
    """Partial actions embed fully into their globalizations."""
    for seed in range(30):
        p = mk.random_partial_action(seed)
        glob = mk.globalize(p)
        assert glob.embedded_full
        assert glob.restriction_isomorphic
        # the recorded arrow bijection really is a bijection onto the
        # restriction's arrows
        original = mk.partial_action_groupoid(p)
        restricted, _ = glob.groupoid.restrict(
            sorted(set(glob.embedding.values()),
                   key=glob.space_units.index)
        )
        assert sorted(glob.arrow_bijection) == sorted(original.arrow_order)
        assert sorted(glob.arrow_bijection.values()) == sorted(
            restricted.arrow_order
        )
    print("ACCEPTANCE 11 PASS: 30 globalizations are full and restrict back")


def test_criterion_12_shift_systems():
    """Full-support systems are never essentially free; loop scans agree."""
    for seed in range(25):
        d = mk.random_shift_system(seed, size=6, bound=4)
        rep = mk.essentially_free(d)
        assert not rep.free
        view = mk.deaconu_renault(d)
        assert any(
            view.b_measure[n] > 0 for n in view.b_sets if n != 0
        )
        for x in d.units:
            for y in d.units:
                for k in range(-d.bound, d.bound + 1):
                    assert view.contains(x, k, y) == shift_connects_by_search(d, x, k, y)
    print("ACCEPTANCE 12 PASS: 25 shift systems; loop scan and witness search agree")


def test_criterion_13_central_vector_identities(
    z2, klein4, z2_bundle, s3_bundle, full2, klein_twisted
):
    """Central elements live on the isotropy and transform by the twist."""
    from references import as_complex

    fixtures = [
        (z2, None), (klein4, None), (z2_bundle, None), (s3_bundle, None),
        (full2, None), (klein_twisted[0], normalize_cocycle(*klein_twisted)),
    ]
    total_checked = 0
    for g, w in fixtures:
        wn = w if w is not None else trivial_cocycle(g)
        space = l2_space(g)
        alg = algebra(g, wn)
        z = center(g, wn, alg=alg)
        arrow, _, _, val = alg.forms
        norms = np.sqrt(np.bincount(arrow, np.abs(val) ** 2, alg.matrix_dim))
        iso = g.iso_subgroupoid()
        for y in z.basis_ops:
            op = alg.element(y / norms)  # y holds coordinates over L_a / |L_a|_F
            op = op / np.linalg.norm(op)
            vals = space.function_values(j_map(g, op, space))
            off = math.fsum(
                abs(vals[a]) ** 2 * g.mass[g.src[a]]
                for a in space.index if a not in iso
            )
            assert off < 1e-8, (off,)
            for h in iso:
                if h not in space.pos:
                    continue
                for a in by_source(g, g.src[h]):
                    c = conjugate(g, a, h)
                    if c is None or c not in space.pos:
                        continue
                    lhs = as_complex(wn(c, a)) * vals[c]
                    rhs = as_complex(wn(a, h)) * vals[h]
                    assert abs(lhs - rhs) < 1e-8
                    total_checked += 1
    assert total_checked > 0
    print(
        f"ACCEPTANCE 13 PASS: support and conjugation identities on "
        f"{total_checked} central-vector constraints"
    )
