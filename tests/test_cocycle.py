import cmath
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factoroid import constructors as mk, groupoid
from factoroid.cocycle import (
    IDENTITY_TOL,
    CocycleIdentityViolated,
    NotUnitModulus,
    apply_coboundary,
    as_complex,
    central_set_search,
    is_omega_regular,
    kleppner_holds,
    normalize_cocycle,
    pconj,
    phalf,
    pmul,
    trivial_cocycle,
    twisted_icc,
    validate_cocycle,
)
from factoroid.conjugacy import is_icc
from factoroid.groupoid import GroupoidError
from factoroid.vna import factoriality_report

from references import (
    by_source,
    central_set_search_by_bfs,
    from_names,
    phase_close,
    verify_central_certificate,
)


def klein_pair(exact=False):
    return mk.klein_four_twisted(exact=exact)


def test_trivial_cocycle_is_normalized(full2):
    w = trivial_cocycle(full2)
    assert w.normalized
    assert not hasattr(w, "values")  # one phase per pair, in an array
    assert len(w.phases) == len(list(full2.composable_pairs()))
    assert all(w(a, b) == 1 for a, b in full2.composable_pairs())


def test_klein_cocycle_identity_oracle():
    # independent check of the associativity phase identity on all triples
    g, w = klein_pair()
    for (y, z), yz in g.compose.items():
        for x in by_source(g, g.tgt[y]):
            lhs = as_complex(w(x, yz)) * as_complex(w(y, z))
            rhs = as_complex(w(g.compose[(x, y)], z)) * as_complex(w(x, y))
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_validate_rejects_non_unit_modulus(z2):
    values = {pair: complex(1.0) for pair in z2.composable_pairs()}
    values[("pt.1", "pt.1")] = 0.5 + 0j
    with pytest.raises(NotUnitModulus):
        validate_cocycle(z2, list(values.values()))  # in the order of z2.pairs


def test_validate_rejects_random_phases(full2):
    import random

    rng = random.Random(7)
    values = {
        pair: cmath.exp(2j * cmath.pi * rng.random())
        for pair in full2.composable_pairs()
    }
    with pytest.raises(CocycleIdentityViolated):
        validate_cocycle(full2, list(values.values()))


def test_validate_requires_all_pairs(z2):
    with pytest.raises(CocycleIdentityViolated):
        validate_cocycle(z2, [])
    with pytest.raises(CocycleIdentityViolated):
        validate_cocycle(z2, [1.0])


def _first_identity_failure_by_loop(g, table):
    """The triple-by-triple loop that ``validate_cocycle`` ran before its
    index pass, kept as the reference for the first failing triple."""
    for (y, z), yz in g.compose.items():
        for x in by_source(g, g.tgt[y]):
            lhs = pmul(table[(x, yz)], table[(y, z)])
            rhs = pmul(table[(g.compose[(x, y)], z)], table[(x, y)])
            if not phase_close(lhs, rhs, IDENTITY_TOL):
                return f"cocycle identity fails on triple ({x!r},{y!r},{z!r})", (x, y, z)
    return None


def _named_as_the_loop_names(exact) -> int:
    """Perturb one phase of each ``random_twisted_pair`` 0-39, on a groupoid
    whose composition rows are shuffled, and check that ``validate_cocycle``
    names the loop's first failing triple; returns how many raised."""
    rng = random.Random(1)
    shift = Fraction(1, 5) if exact else cmath.exp(0.3j)
    raised = 0
    for seed in range(40):
        g, w = mk.random_twisted_pair(seed, exact=exact)
        rows = list(g.compose.items())
        rng.shuffle(rows)
        g = from_names(
            g.units, g.mass, [(a.id, a.src, a.tgt) for a in g.arrows],
            dict(rows), g.inverse, g.unit_arrow,
        ).validate()
        values = {pair: w(*pair) for pair in g.composable_pairs()}
        pair = rng.choice(sorted(values))
        values[pair] = pmul(values[pair], shift)
        expect = _first_identity_failure_by_loop(g, values)
        try:
            validate_cocycle(g, list(values.values()), exact=exact)
            got = None
        except CocycleIdentityViolated as exc:
            got = str(exc), exc.ids
        assert got == expect
        raised += got is not None
    return raised


@pytest.mark.parametrize("exact", [False, True])
def test_index_pass_names_the_loops_first_triple(exact):
    assert _named_as_the_loop_names(exact) >= 30


@pytest.mark.parametrize("block", [1, 7, 1200])
def test_blocks_of_any_size_name_the_loops_first_failing_triple(block, monkeypatch):
    # one pair a block, a few pairs a block, and one block for most tables
    monkeypatch.setattr(groupoid, "_TRIPLE_BLOCK", block)
    assert _named_as_the_loop_names(exact=False) >= 30


def test_normalize_klein():
    g, w = klein_pair()
    assert not w.normalized
    wn = normalize_cocycle(g, w)
    assert wn.normalized
    for x in g.arrow_order:
        assert as_complex(wn(x, g.inverse[x])) == pytest.approx(1.0)
    # normalizing again is the identity
    wn2 = normalize_cocycle(g, wn)
    for pair in g.composable_pairs():
        assert as_complex(wn2(*pair)) == pytest.approx(as_complex(wn(*pair)))


def test_normalize_fixes_trivial(z3):
    w = trivial_cocycle(z3)
    wn = normalize_cocycle(z3, w)
    for pair in z3.composable_pairs():
        assert as_complex(wn(*pair)) == 1.0


def _coboundary_by_loop(g, table, rho):
    """The pair-by-pair loop that ``apply_coboundary`` ran on a dict of
    phases before it worked on arrays, kept as the reference for rounding."""
    return {
        (x, y): pmul(pmul(rho[x], pmul(rho[y], pconj(rho[g.compose[(x, y)]]))), v)
        for (x, y), v in table.items()
    }


def _normalized_by_loop(g, w):
    """``normalize_cocycle`` as it was written on dicts of phases."""
    table = {pair: w(*pair) for pair in g.composable_pairs()}
    rho1 = {x: pconj(table[(x, g.unit_arrow[g.src[x]])]) for x in g.arrow_order}
    step1 = _coboundary_by_loop(g, table, rho1)
    rho2 = {}
    for x in g.arrow_order:
        rep = min(x, g.inverse[x], key=g.arrow_index)
        rho2[x] = phalf(pconj(step1[(rep, g.inverse[rep])]))
    return _coboundary_by_loop(g, step1, rho2)


@pytest.mark.parametrize("exact", [False, True])
def test_normalize_matches_the_loop_bit_for_bit(exact):
    # NumPy's complex product can differ from Python's in the last bit;
    # the array code must not, down to the sign of a zero
    for seed in range(200):
        g, w = mk.random_twisted_pair(seed, exact=exact)
        expect = _normalized_by_loop(g, w)
        wn = normalize_cocycle(g, w)
        for pair in g.composable_pairs():
            assert wn(*pair) == expect[pair], (seed, pair)
            assert repr(wn(*pair)) == repr(expect[pair]), (seed, pair)


def test_cocycle_is_read_only_on_its_groupoid():
    # the phases are in the pair order of the groupoid they were built on
    g, w = klein_pair()
    other, _ = klein_pair()
    with pytest.raises(GroupoidError, match="another groupoid"):
        normalize_cocycle(other, w)
    with pytest.raises(GroupoidError, match="another groupoid"):
        apply_coboundary(other, w, np.ones(len(g.arrow_order)))


def test_normalized_cocycle_inverse_symmetry():
    # after full normalization, conj(w(x, y)) = w(y^-1, x^-1)
    g, w = klein_pair()
    wn = normalize_cocycle(g, w)
    for (x, y) in g.composable_pairs():
        lhs = as_complex(wn(x, y)).conjugate()
        rhs = as_complex(wn(g.inverse[y], g.inverse[x]))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_apply_coboundary_round_trip(full3):
    import random

    rng = random.Random(3)
    w = trivial_cocycle(full3)
    rho = mk.random_coboundary(full3, rng)
    w1 = apply_coboundary(full3, w, rho)
    back = apply_coboundary(full3, w1, rho.conjugate())
    for pair in full3.composable_pairs():
        assert as_complex(back(*pair)) == pytest.approx(1.0, abs=1e-12)


def test_cocycle_identity_preserved_by_normalize_and_coboundary():
    import random

    g, w = klein_pair()
    rng = random.Random(11)
    w1 = apply_coboundary(g, w, mk.random_coboundary(g, rng))
    w2 = normalize_cocycle(g, w1)
    for (y, z), yz in g.compose.items():
        for x in by_source(g, g.tgt[y]):
            lhs = as_complex(w2(x, yz)) * as_complex(w2(y, z))
            rhs = as_complex(w2(g.compose[(x, y)], z)) * as_complex(w2(x, y))
            assert abs(lhs - rhs) < 1e-10


def test_omega_regular_examples(full2):
    g, w = klein_pair()
    verdict = is_omega_regular(g, w, ["pt.0.1"])
    assert not verdict.regular
    assert verdict.witness == ("pt.1.0", "pt.0.1", "pt.0.1")
    assert is_omega_regular(g, trivial_cocycle(g), ["pt.0.1"]).regular
    assert is_omega_regular(g, w, [g.unit_arrow["pt"]]).regular
    assert is_omega_regular(
        full2, trivial_cocycle(full2), full2.unit_arrow_set
    ).regular


def test_central_set_untwisted_exists(z2, s3_bundle):
    for g in (z2, s3_bundle):
        cert = central_set_search(g, trivial_cocycle(g))
        assert cert is not None
        verify_central_certificate(g, trivial_cocycle(g), cert)
        assert all(abs(v) == pytest.approx(1.0) for v in cert.f.values())


def test_central_set_klein_twisted_none():
    g, w = klein_pair()
    assert central_set_search(g, w) is None


def test_central_set_principal_none(full3):
    assert central_set_search(full3, trivial_cocycle(full3)) is None


def test_central_set_skips_null_isotropy(null_orbit_groupoid):
    # isotropy exists only over null units; no central set should be found
    g = null_orbit_groupoid
    assert central_set_search(g, trivial_cocycle(g)) is None


def test_kleppner_examples(full3):
    z2g = mk.group_groupoid(mk.cyclic_group(2))
    v = kleppner_holds(z2g, trivial_cocycle(z2g))
    assert not v.holds and v.witness == "pt.1"
    g, w = klein_pair()
    assert kleppner_holds(g, w).holds
    assert not kleppner_holds(g, trivial_cocycle(g)).holds
    assert kleppner_holds(full3, trivial_cocycle(full3)).holds


def test_twisted_icc_examples():
    g, w = klein_pair()
    assert twisted_icc(g, w).icc
    verdict = twisted_icc(g, trivial_cocycle(g))
    assert not verdict.icc
    assert verdict.certificate is not None


def test_exact_mode_matches_floats():
    g, w_exact = klein_pair(exact=True)
    g_float, w_float = klein_pair(exact=False)
    assert w_exact.exact
    assert isinstance(w_exact(*next(iter(g.composable_pairs()))), Fraction)
    wn = normalize_cocycle(g, w_exact)
    assert wn.exact and wn.normalized
    assert twisted_icc(g, w_exact).icc == twisted_icc(g_float, w_float).icc
    assert kleppner_holds(g, w_exact).holds == kleppner_holds(g_float, w_float).holds


@settings(max_examples=50, deadline=None)
@given(rho_seed=st.integers(0, 100000))
def test_normalize_survives_any_coboundary(rho_seed):
    # phases can land exactly on the square-root branch cut; normalization
    # must still produce phase 1 on every (x, x^-1)
    import random

    g, w = klein_pair()
    rng = random.Random(f"branch-{rho_seed}")
    w1 = apply_coboundary(g, w, mk.random_coboundary(g, rng))
    wn = normalize_cocycle(g, w1)
    assert wn.normalized
    for x in g.arrow_order:
        assert as_complex(wn(x, g.inverse[x])) == pytest.approx(
            1.0, abs=1e-12
        )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 3000))
def test_twisted_icc_specializes_to_icc(seed):
    g = mk.random_groupoid(seed)
    assert twisted_icc(g, trivial_cocycle(g)).icc == is_icc(g).icc


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000), rho_seed=st.integers(0, 1000))
def test_central_verdict_coboundary_invariant(seed, rho_seed):
    import random

    g, w = mk.random_twisted_pair(seed)
    rng = random.Random(f"rho-{rho_seed}")
    w2 = apply_coboundary(g, w, mk.random_coboundary(g, rng))
    assert (central_set_search(g, w) is None) == (central_set_search(g, w2) is None)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000))
def test_certificates_verify(seed):
    g, w = mk.random_twisted_pair(seed)
    wn = normalize_cocycle(g, w)
    cert = central_set_search(g, wn)
    if cert is not None:
        verify_central_certificate(g, wn, cert)


def heisenberg(n):
    """Z_n x Z_n with w((a,b),(c,d)) = exp(2 pi i a d / n); its twisted group
    algebra is M_n(C), a factor.  Element (a, b) sits at a n + b, and arrow x
    is element x."""
    g = mk.group_groupoid(mk.direct_product(mk.cyclic_group(n), mk.cyclic_group(n)))
    k = np.arange(n * n)
    table = mk.cyclic_bicharacter(n)[np.ix_(k // n, k % n)]
    return g, validate_cocycle(g, mk.pullback_group_cocycle(g, k, table))


_ORACLE_CASES = {
    "twisted": lambda: (mk.random_twisted_pair(s) for s in range(200)),
    "twisted-exact": lambda: (mk.random_twisted_pair(s, exact=True) for s in range(200)),
    "random": lambda: ((g, trivial_cocycle(g)) for g in map(mk.random_groupoid, range(100))),
    "heisenberg": lambda: map(heisenberg, (5, 6)),
}


@pytest.mark.parametrize("family", sorted(_ORACLE_CASES))
def test_central_set_search_matches_the_breadth_first_oracle(family):
    # the one-hop search returns the walk's certificate to the last bit: the
    # same support, f in the same order, and the same max_defect
    found = 0
    for g, w in _ORACLE_CASES[family]():
        got, want = central_set_search(g, w), central_set_search_by_bfs(g, w)
        assert (got is None) == (want is None)
        if got is not None:
            found += 1
            assert got.support == want.support
            assert repr(list(got.f.items())) == repr(list(want.f.items()))
            assert got.max_defect == want.max_defect
    assert found > 0 or family == "heisenberg"


def test_heisenberg_twist_is_a_factor():
    g, w = heisenberg(6)
    assert twisted_icc(g, w).icc and kleppner_holds(g, w).holds
    rep = factoriality_report(g, w)
    assert rep.factor and rep.consistent
