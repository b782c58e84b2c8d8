import cmath
import hashlib
import json
import os
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factoroid import cocycle, constructors as mk, groupoid
from factoroid.cli import _json
from factoroid.cocycle import (
    IDENTITY_TOL,
    MAX_TURNS,
    CocycleIdentityViolated,
    NotUnitModulus,
    apply_coboundary,
    central_set_search,
    is_omega_regular,
    kleppner_holds,
    normalize_cocycle,
    trivial_cocycle,
    twisted_icc,
    validate_cocycle,
)
from factoroid.conjugacy import is_icc
from factoroid.groupoid import GroupoidError
from factoroid.vna import factoriality_report

from references import (
    as_complex,
    by_source,
    central_set_search_by_bfs,
    from_names,
    pconj,
    phalf,
    phase_close,
    pmul,
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


def _wrong_phases(g):
    """Phase arrays of the wrong shape or type, each with its turns."""
    n = len(g.pairs.left)
    return {
        "a column": (np.ones((n, 1)), 0),
        "a square": (np.ones((n, n)), 0),
        "a scalar": (1.0, 0),
        "exact NaN": (np.full(n, np.nan), 12),
        "exact complex": (np.ones(n, complex), 12),
        "exact Fractions": ([Fraction(0)] * n, 12),
        "exact bools": (np.zeros(n, bool), 12),
        "exact, turns negative": (np.zeros(n, np.int64), -12),
        "exact, turns past MAX_TURNS": (np.zeros(n, np.int64), MAX_TURNS + 1),
        "exact, turns not an integer": (np.zeros(n, np.int64), 12.5),
        "exact, turns a bool": (np.zeros(n, np.int64), True),
    }


@pytest.mark.parametrize("case", sorted(_wrong_phases(mk.klein_four_twisted()[0])))
def test_validate_rejects_phases_of_the_wrong_shape_or_type(case):
    g, _ = klein_pair()
    phases, turns = _wrong_phases(g)[case]
    with pytest.raises(CocycleIdentityViolated, match="shape|integer"):
        validate_cocycle(g, phases, turns=turns)


def test_turns_up_to_max_turns_are_exact_and_normalizing_past_it_raises():
    g, w = klein_pair(exact=True)
    halves = w.phases // (w.turns // 2)  # the Klein twist takes the turns 0 and 1/2
    big = validate_cocycle(g, halves * (MAX_TURNS // 2), turns=MAX_TURNS)
    assert [big(*p) for p in g.composable_pairs()] == [w(*p) for p in g.composable_pairs()]
    wn = normalize_cocycle(g, validate_cocycle(g, halves * (MAX_TURNS // 4), turns=MAX_TURNS // 2))
    # over 2N = MAX_TURNS, then over the least denominator, that of the twelfths
    want = normalize_cocycle(g, w)
    assert wn.turns == want.turns == 4 and wn.normalized
    assert np.array_equal(wn.phases, want.phases)
    with pytest.raises(CocycleIdentityViolated, match="turns"):
        normalize_cocycle(g, big)
    with pytest.raises(CocycleIdentityViolated, match="turns"):
        factoriality_report(g, big)


@pytest.mark.parametrize("seed", [None, 0, 3, 7])
def test_normalizing_again_keeps_the_least_denominator(seed):
    # the halved turns are put over their least denominator, so normalizing
    # a normalized cocycle gives it back; the turns doubled on every call,
    # and the 56th call on the Klein twist raised past MAX_TURNS
    g, w = klein_pair(exact=True) if seed is None else mk.random_twisted_pair(seed, exact=True)
    first = normalize_cocycle(g, w)
    assert np.gcd.reduce(first.phases, initial=first.turns) == 1
    assert (2 * mk.TURNS) % first.turns == 0
    wn = first
    for _ in range(100):
        wn = normalize_cocycle(g, wn)
        assert wn.turns == first.turns and np.array_equal(wn.phases, first.phases)


def test_apply_coboundary_rejects_a_rho_off_the_unit_circle():
    # rho = 2 gives phases of modulus 8, which a report called consistent
    g, w = klein_pair()
    with pytest.raises(NotUnitModulus, match="pt.0.0") as err:
        apply_coboundary(g, w, np.full(len(g.arrow_order), 2.0))
    assert err.value.ids == (g.arrow_order[0],)
    rho = np.ones(len(g.arrow_order), complex)
    rho[2] = np.nan
    with pytest.raises(NotUnitModulus) as err:
        apply_coboundary(g, w, rho)
    assert err.value.ids == (g.arrow_order[2],)


@pytest.mark.parametrize("exact", [False, True])
def test_apply_coboundary_rejects_a_rho_of_the_wrong_shape_or_type(exact):
    g, w = klein_pair(exact)
    n = len(g.arrow_order)
    bad = [np.zeros(n - 1, np.int64), np.zeros((n, 1), np.int64), np.zeros((n, n), np.int64)]
    if exact:
        bad += [np.zeros(n), np.ones(n, complex)]
    for rho in bad:
        with pytest.raises(CocycleIdentityViolated, match="per arrow"):
            apply_coboundary(g, w, rho if exact else rho + 1)


def test_exact_coboundaries_take_any_integers_mod_the_turns():
    g, w = klein_pair(exact=True)
    rho = np.array([-13, 5, 2**62, 7])
    w1 = apply_coboundary(g, w, rho)
    assert w1.turns == w.turns and w1.phases.dtype == np.int64
    r = dict(zip(g.arrow_order, (Fraction(int(k), w.turns) % 1 for k in rho)))
    for (x, y) in g.composable_pairs():
        expect = pmul(pmul(r[x], pmul(r[y], pconj(r[g.compose[(x, y)]]))), w(x, y))
        assert w1(x, y) == expect


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
    names the loop's first failing triple; returns how many raised.  Exact
    phases are handed over as turns over 60, to hold the shift by 1/5."""
    rng = random.Random(1)
    shift = Fraction(12, 60) if exact else cmath.exp(0.3j)
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
            phases = [int(v * 60) for v in values.values()] if exact else list(values.values())
            validate_cocycle(g, phases, turns=60 if exact else 0)
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
    assert w_exact.turns == mk.TURNS and w_exact.phases.dtype == np.int64
    assert isinstance(w_exact(*next(iter(g.composable_pairs()))), Fraction)
    wn = normalize_cocycle(g, w_exact)
    assert wn.turns == 4 and wn.normalized  # the -1 of the twist becomes -i
    assert twisted_icc(g, w_exact).icc == twisted_icc(g_float, w_float).icc
    assert kleppner_holds(g, w_exact).holds == kleppner_holds(g_float, w_float).holds
    bar = w_exact.conjugate_cocycle()
    assert all(bar(*p) == pconj(w_exact(*p)) for p in g.composable_pairs())
    one = trivial_cocycle(g, exact=True)
    assert one.turns == 1 and all(one(*p) == 0 for p in g.composable_pairs())
    assert twisted_icc(g, one).icc == twisted_icc(g, trivial_cocycle(g)).icc


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


def heisenberg(n, exact=False):
    """Z_n x Z_n with w((a,b),(c,d)) = exp(2 pi i a d / n); its twisted group
    algebra is M_n(C), a factor.  Element (a, b) sits at a n + b, and arrow x
    is element x.  In exact mode the phases are turns over n."""
    g = mk.group_groupoid(mk.direct_product(mk.cyclic_group(n), mk.cyclic_group(n)))
    k = np.arange(n * n)
    table = mk.cyclic_bicharacter(n, exact)[np.ix_(k // n, k % n)]
    return g, validate_cocycle(g, mk.pullback_group_cocycle(g, k, table), turns=n if exact else 0)


_ORACLE_CASES = {
    "twisted": lambda: (mk.random_twisted_pair(s) for s in range(200)),
    "twisted-exact": lambda: (mk.random_twisted_pair(s, exact=True) for s in range(200)),
    "random": lambda: ((g, trivial_cocycle(g)) for g in map(mk.random_groupoid, range(100))),
    "heisenberg": lambda: map(heisenberg, (5, 6)),
    "heisenberg-exact": lambda: (heisenberg(n, exact=True) for n in (5, 6)),
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
    assert found > 0 or family.startswith("heisenberg")


def test_heisenberg_twist_is_a_factor():
    for exact in (False, True):
        g, w = heisenberg(6, exact)
        assert twisted_icc(g, w).icc and kleppner_holds(g, w).holds
        rep = factoriality_report(g, w)
        assert rep.factor and rep.consistent


# denominators small, next to MAX_TURNS, and odd
_DENOMINATORS = st.one_of(
    st.sampled_from([1, 2, MAX_TURNS]),
    st.integers(1, 10**6),
    st.integers(MAX_TURNS - 10**6, MAX_TURNS),
    st.integers(0, 10**6).map(lambda m: 2 * m + 1),
)


@settings(max_examples=300, deadline=None)
@given(n=_DENOMINATORS, data=st.data())
def test_integer_turns_match_the_fraction_oracle(n, data):
    # products, conjugates and the half-turns of normalization, as numerators
    # over n, against the Fraction arithmetic in references; n // 2 is the
    # half turn for an even n, whose square root must be +1/4
    turns = st.lists(st.integers(0, n - 1), min_size=4, max_size=4)
    a = np.array([0, n - 1, n // 2, *data.draw(turns)], dtype=np.int64)
    b = np.array([n - 1, n - 1, n // 2, *data.draw(turns)], dtype=np.int64)
    fa, fb = ([Fraction(k, n) for k in v.tolist()] for v in (a, b))
    assert [Fraction(k, n) for k in cocycle.pmul(a, b, n).tolist()] == list(map(pmul, fa, fb))
    assert [Fraction(k, n) for k in cocycle.pconj(a, n).tolist()] == list(map(pconj, fa))
    half = cocycle._phase_sqrt(a, n).tolist()
    assert [Fraction(k, 2 * n) for k in half] == list(map(phalf, fa))


def test_complex_array_matches_the_fraction_oracle_bit_for_bit():
    for n in range(1, 65):
        k = np.arange(n)
        got = cocycle.complex_array(k[::-1].reshape(1, n), n)[0, ::-1]
        want = [cmath.exp(2j * cmath.pi * Fraction(j, n)) for j in range(n)]
        assert list(map(repr, got.tolist())) == list(map(repr, want)), n
        assert cocycle.complex_array(got, 0) is got


def _exact_outputs(g, w) -> str:
    """The exact-mode outputs that no CLI path prints, as one string: the
    normalized phases, the central-set certificate (sorted support, f by
    arrow, max_defect), the Kleppner verdict and the factoriality report."""
    cert = central_set_search(g, w)
    kv = kleppner_holds(g, w)
    wn = normalize_cocycle(g, w)
    return "\n".join([
        " ".join(str(Fraction(k, wn.turns)) for k in wn.phases.tolist()),
        "none" if cert is None else repr((sorted(cert.support), sorted(cert.f.items()),
                                          float(cert.max_defect))),
        repr((bool(kv.holds), kv.witness)),
        _json(factoriality_report(g, w).to_dict()),
    ])


def test_exact_mode_outputs_match_the_pinned_digests():
    # sha256 of ``_exact_outputs`` for random_twisted_pair(s, exact=True),
    # s in 0-199, and klein_four_twisted(exact=True); the keys read
    # "random-twisted --seed <s>" and "klein4-twisted"
    with open(os.path.join(os.path.dirname(__file__), "data", "exact-digests.json")) as fh:
        want = json.load(fh)
    assert len(want) == 201
    cases = {f"random-twisted --seed {s}": lambda s=s: mk.random_twisted_pair(s, exact=True)
             for s in range(200)}
    cases["klein4-twisted"] = lambda: mk.klein_four_twisted(exact=True)
    got = {key: hashlib.sha256(_exact_outputs(*build()).encode()).hexdigest()
           for key, build in cases.items()}
    assert got == want
