import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factoroid import constructors as mk, groupoid
from factoroid.basis import Basis, conjugate_basis
from factoroid.cocycle import is_omega_regular
from factoroid.conjugacy import conjugacy_class, ergodic_class_decomposition, is_icc
from factoroid.groupoid import (
    BadInverse,
    BadUnit,
    DanglingReference,
    EmptyRestriction,
    GroupoidError,
    MeasuredGroupoid,
    NonAssociative,
    PairTable,
    check_isomorphism,
    validate_groupoid,
)
from factoroid.textio import serialize
from factoroid.vna import factoriality_report

from references import by_source, from_names, inv_set, mul_sets, trivial_groupoid


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
    raw = from_names(
        h.units, h.mass, [(a.id, a.src, a.tgt) for a in h.arrows],
        bad, h.inverse, h.unit_arrow,
    )
    with pytest.raises(BadUnit):
        raw.validate()


def test_missing_composition_detected(full2):
    compose = dict(full2.compose)
    del compose[("r|x1|x0", "r|x0|x1")]
    raw = from_names(
        full2.units, full2.mass,
        [(a.id, a.src, a.tgt) for a in full2.arrows],
        compose, full2.inverse, full2.unit_arrow,
    )
    with pytest.raises(DanglingReference):
        raw.validate()


def test_broken_inverse_detected(full2):
    inverse = dict(full2.inverse)
    inverse["r|x1|x0"] = "r|x1|x0"
    raw = from_names(
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
    return from_names(["x"], {"x": 1.0}, arrows, table, inverse, {"x": "e"})


def test_nonassociative_table_detected():
    with pytest.raises(NonAssociative):
        _latin_square().validate()


def _first_nonassociative_by_loop(g):
    """The triple-by-triple associativity loop that ``validate`` ran before
    its index pass, kept as the reference for the first failing triple."""
    rows = zip(*g._compose_rows().tolist())
    compose = {(g._name(a), g._name(b)): g._name(ab) for a, b, ab in rows}
    for (a, b), ab in compose.items():
        for c in [x.id for x in g.arrows if x.tgt == g.src[b]]:
            if compose[(ab, c)] != compose[(a, compose[(b, c)])]:
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
            return from_names(
                g.units, g.mass, [(a.id, a.src, a.tgt) for a in g.arrows],
                dict(rows), g.inverse, g.unit_arrow,
            )
    return None


def _swapped_product_cases(seeds: int) -> list[MeasuredGroupoid]:
    """The Latin square and ``_with_swapped_product`` of random groupoids."""
    rng = random.Random(0)
    cases = [_latin_square()]
    for seed in range(seeds):
        raw = _with_swapped_product(mk.random_groupoid(seed), rng)
        if raw is not None:
            cases.append(raw)
    return cases


def test_index_pass_names_the_loops_first_triple():
    cases = _swapped_product_cases(60)
    assert len(cases) > 30
    for raw in cases:
        with pytest.raises(NonAssociative) as err:
            raw.validate()
        assert (str(err.value), err.value.ids) == _first_nonassociative_by_loop(raw)


def _closure_by_words(g, generators) -> set:
    """The arrows that are products of unit arrows and ``generators``, grown
    one generator at a time through the ``compose`` view."""
    reached = set(g.unit_arrow_set) | set(generators)
    frontier = set(reached)
    while frontier:
        frontier = {
            g.compose[(s, r)] for r in frontier for s in generators
            if g.src[s] == g.tgt[r]
        } - reached
        reached |= frontier
    return reached


def _s4_on_cosets_of_s3():
    """S4 acting on the four cosets of a point stabilizer: one orbit with
    isotropy S3, so its generators are tree arrows and isotropy arrows."""
    s4 = mk.symmetric_group(4)
    action, cosets = mk.coset_action(s4, [e for e in s4.elements if e[3] == "3"])
    return mk.transformation_groupoid(s4, action, cosets, {c: 1 / len(cosets) for c in cosets})


@pytest.mark.parametrize("build", [
    lambda: mk.NAMED_INSTANCES["full3"]()[0],
    lambda: mk.NAMED_INSTANCES["klein4-twisted"]()[0],
    lambda: mk.NAMED_INSTANCES["s4-translation"]()[0],
    lambda: mk.sn_bundle(4)[0],
    lambda: _s4_on_cosets_of_s3(),
    lambda: mk.random_groupoid(7),
], ids=["full3", "klein4-twisted", "s4-translation", "sn-bundle-4", "s4-on-cosets", "random-7"])
def test_generators_and_units_generate_every_arrow(build):
    g = build()
    generators = [g.arrow_order[a] for a in g.pairs.generators()]
    assert len(set(generators)) == len(generators)
    assert _closure_by_words(g, generators) == set(g.arrow_order)


def _with_product_changed(g, rng, avoid=()):
    """The tables of ``g`` with the product of one pair (x, y) of non-unit
    arrows, y not x^-1 and neither in ``avoid``, replaced by another arrow
    with its endpoints, and the rows shuffled; None when there is no such
    pair and arrow."""
    unit, avoid = g.is_unit_arrow, set(avoid)
    by_ends: dict = {}
    for a in g.arrows:
        by_ends.setdefault((a.src, a.tgt), []).append(a.id)
    choices = [
        (pair, other) for pair, xy in g.compose.items()
        if not (unit(pair[0]) or unit(pair[1]) or avoid & set(pair))
        and pair[1] != g.inverse[pair[0]]
        for other in by_ends[(g.src[xy], g.tgt[xy])] if other != xy
    ]
    if not choices:
        return None
    pair, other = rng.choice(choices)
    compose = dict(g.compose)
    compose[pair] = other
    rows = list(compose.items())
    rng.shuffle(rows)
    return dict(
        units=list(g.units), mass=dict(g.mass),
        arrows=[(a.id, a.src, a.tgt) for a in g.arrows], compose=dict(rows),
        inverse=dict(g.inverse), unit_arrows=dict(g.unit_arrow),
    )


def _validate_and_pass_the_generators(tables: dict):
    """Validate the groupoid of ``tables``: the ``NonAssociative`` message
    and ids or None, what a pass over the generators of its table finds,
    called directly, and the loop's first failing triple."""
    raw = from_names(**tables)
    built = []
    real = MeasuredGroupoid._table_in_positions

    def keep(self, *args):
        built.append(real(self, *args))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MeasuredGroupoid, "_table_in_positions", keep)
        try:
            raw.validate()
            named = None
        except NonAssociative as err:
            named = str(err), err.ids
    t = built[0]

    def fails(xy, yz, xy_z, x_yz):
        return t.prod[xy_z] != t.prod[x_yz]
    found = t.first_failure(fails, "xy", t.generators())
    return named, found, _first_nonassociative_by_loop(raw)


# The S4 translation groupoid is principal: one arrow per (source, target),
# so a changed product always fails the endpoint check first
@pytest.mark.parametrize("build", [lambda: mk.sn_bundle(4)[0], _s4_on_cosets_of_s3],
                         ids=["sn-bundle-4", "s4-on-cosets"])
def test_a_product_changed_off_the_generators_is_named_as_the_full_pass_names_it(build):
    g, rng = build(), random.Random(1)
    generators = {g.arrow_order[a] for a in g.pairs.generators()}
    for _ in range(3):
        tables = _with_product_changed(g, rng, avoid=generators)
        named, found, want = _validate_and_pass_the_generators(tables)
        assert found is not None and want is not None
        assert named == want


_LADDER = ("s4-translation", "s4xz2-translation", "s5-translation")


@settings(max_examples=80, deadline=None)
@given(
    source=st.one_of(
        st.sampled_from(sorted(set(mk.NAMED_INSTANCES) - set(_LADDER))),
        st.integers(0, 2000),
    ),
    seed=st.integers(0, 2**32),
    change=st.booleans(),
)
def test_generator_pass_and_full_pass_agree(source, seed, change):
    # one product changed, or none: the verdict of the pass over the
    # generators is the full pass's, and the fault named is the loop's
    g = mk.random_groupoid(source) if isinstance(source, int) else mk.NAMED_INSTANCES[source]()[0]
    tables = _with_product_changed(g, random.Random(seed)) if change else None
    if tables is None:
        tables = _tables_of(g)
    named, found, want = _validate_and_pass_the_generators(tables)
    assert (found is None) == (want is None)
    assert named == want


def _triples(t: PairTable) -> int:
    fan = np.bincount(t.src)
    return int(fan[t.src] @ fan[t.tgt])


@pytest.mark.parametrize("build, small", [
    (lambda: mk.random_groupoid(266), True),  # 56 arrows, the most triples of seeds 0-299
    (lambda: mk.full_relation([f"x{i}" for i in range(9)], {f"x{i}": 1 / 9 for i in range(9)}),
     False),
    (lambda: mk.sn_bundle(4)[0], False),
], ids=["random-266", "full9", "sn-bundle-4"])
def test_small_tables_take_the_full_pass_and_larger_ones_the_generators(build, small):
    g = build()
    assert (_triples(g.pairs) <= groupoid._FULL_PASS_TRIPLES) == small
    middles = []
    real = PairTable.first_failure

    def spy(self, fails, outer, chosen=None):
        middles.append(chosen)
        return real(self, fails, outer, chosen)

    raw = from_names(**_tables_of(g))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PairTable, "first_failure", spy)
        raw.validate()
    assert len(middles) == 1
    if small:
        assert middles[0] is None  # every arrow
    else:
        assert np.array_equal(middles[0], raw.pairs.generators())


@pytest.mark.parametrize("block", [1, 7, 1200])
def test_blocks_of_any_size_name_the_loops_first_triple(block, monkeypatch):
    # one pair a block, a few pairs a block, and one block for most tables
    monkeypatch.setattr(groupoid, "_TRIPLE_BLOCK", block)
    cases = _swapped_product_cases(30)
    g = mk.sn_bundle(4)[0]  # on the generator route
    generators = {g.arrow_order[a] for a in g.pairs.generators()}
    tables = _with_product_changed(g, random.Random(3), avoid=generators)
    cases.append(from_names(**tables))
    for raw in cases:
        with pytest.raises(NonAssociative) as err:
            raw.validate()
        assert (str(err.value), err.value.ids) == _first_nonassociative_by_loop(raw)


def test_generators_stay_small_on_sn_bundle_6():
    # the bundle of S2..S6: a few generators per fiber, against 872 arrows
    # and about 375 M composable triples
    t = mk.sn_bundle(6)[0].pairs
    generators = t.generators()
    assert len(t.src) == 872 and len(generators) <= 24
    fan, into = np.bincount(t.src), np.bincount(t.tgt)
    triples = into[t.src] * fan[t.tgt]  # by middle arrow
    assert triples[generators].sum() * 100 < triples.sum()


def _tables_of(g: MeasuredGroupoid) -> dict:
    """The tables of ``g`` by name as fresh, mutable arguments of
    ``from_names``, the composition table as a dict ``compose``."""
    return dict(
        units=list(g.units), mass=dict(g.mass),
        arrows=[(a.id, a.src, a.tgt) for a in g.arrows], compose=dict(g.compose),
        inverse=dict(g.inverse), unit_arrows=dict(g.unit_arrow),
    )


def _edit(name: str, **changes):
    """The tables of a named instance with some replaced; a callable value
    is applied to the table in place instead."""
    t = _tables_of(mk.NAMED_INSTANCES[name]()[0])
    for key, change in changes.items():
        if callable(change):
            change(t[key])
        else:
            t[key] = change
    return t


# full2: r|x0|x1 runs from x1 to x0, r|x1|x0 from x0 to x1; z3: pt.k is k mod 3
_E0, _E1, _A, _B = "r|x0|x0", "r|x1|x1", "r|x0|x1", "r|x1|x0"

_BROKEN = {
    "duplicate unit": (
        _edit("full2", units=["x0", "x1", "x0"]),
        BadUnit, "duplicate unit identifiers", ("x0",)),
    "duplicate units, in storage order": (
        _edit("full2", units=["x1", "x0", "x1", "x0"]),
        BadUnit, "duplicate unit identifiers", ("x1", "x0")),
    "duplicate arrow": (
        _edit("full2", arrows=lambda a: a.append(a[2])),
        DanglingReference, "duplicate arrow identifiers", (_B,)),
    "negative mass": (
        _edit("full2", mass={"x0": 1.5, "x1": -0.5}),
        BadUnit, "negative mass at unit 'x1'", ("x1",)),
    "exact masses miss a unit": (
        _edit("full2", exact_mass={"x0": Fraction(1, 2)}),
        BadUnit, "exact masses must cover exactly the units", ()),
    "exact and float masses disagree": (
        _edit("full2", exact_mass={"x0": Fraction(1, 3), "x1": Fraction(2, 3)}),
        BadUnit, "exact and float mass disagree at 'x0'", ("x0",)),
    "masses do not sum to 1": (
        _edit("full2", mass={"x0": 0.5, "x1": 0.25}),
        BadUnit, "unit masses do not sum to 1 (pass unnormalized=True to allow)", ()),
    "dangling src": (
        _edit("full2", arrows=lambda a: a.__setitem__(1, (_A, "zz", "x0"))),
        DanglingReference, "arrow 'r|x0|x1' references unknown unit", (_A,)),
    "unit without a unit arrow": (
        _edit("full2", unit_arrows={"x0": _E0}),
        BadUnit, "unit_arrows must be defined for every unit", ("x1",)),
    "unit arrow unknown": (
        _edit("full2", unit_arrows={"x0": _E0, "x1": "zz"}),
        DanglingReference, "unit arrow 'zz' of 'x1' is not an arrow", ("zz",)),
    "unit arrow not a loop": (
        _edit("full2", unit_arrows={"x0": _E0, "x1": _A}),
        BadUnit, "unit arrow 'r|x0|x1' is not a loop at 'x1'", (_A,)),
    "shared unit arrow": (
        _edit("full2", unit_arrows={"x0": _E0, "x1": _E0}),
        BadUnit, "unit arrow 'r|x0|x0' is not a loop at 'x1'", (_E0,)),
    "unit arrows: first faulty row": (
        _edit("full2", unit_arrows={"x0": _A, "x1": "zz"}),
        BadUnit, "unit arrow 'r|x0|x1' is not a loop at 'x0'", (_A,)),
    "compose: unknown g": (
        _edit("full2", compose=lambda c: c.__setitem__(("zz", _E0), _E0)),
        DanglingReference, "compose entry ('zz','r|x0|x0')->'r|x0|x0' uses unknown arrow",
        ("zz",)),
    "compose: unknown h": (
        _edit("full2", compose=lambda c: c.__setitem__((_E0, "zz"), _E0)),
        DanglingReference, "compose entry ('r|x0|x0','zz')->'r|x0|x0' uses unknown arrow",
        ("zz",)),
    "compose: unknown gh": (
        _edit("full2", compose=lambda c: c.__setitem__((_A, _B), "zz")),
        DanglingReference, "compose entry ('r|x0|x1','r|x1|x0')->'zz' uses unknown arrow",
        ("zz",)),
    "compose: arrows do not compose": (
        _edit("full2", compose=lambda c: c.__setitem__((_A, _A), _E0)),
        BadUnit, "compose('r|x0|x1','r|x0|x1') defined but tgt(h) != src(g)", (_A, _A)),
    "compose: wrong product endpoints": (
        _edit("full2", compose=lambda c: c.__setitem__((_A, _B), _E1)),
        BadUnit, "product 'r|x1|x1' of ('r|x0|x1','r|x1|x0') has wrong endpoints",
        (_A, _B, _E1)),
    "compose: first faulty row": (
        _edit("full2", compose=lambda c: c.update({(_E0, _A): _E1, (_E1, _E1): "zz"})),
        BadUnit, "product 'r|x1|x1' of ('r|x0|x0','r|x0|x1') has wrong endpoints",
        (_E0, _A, _E1)),
    "compose: pair given twice": (
        _edit("full2", compose=[
            *((g, h, gh) for (g, h), gh in mk.NAMED_INSTANCES["full2"]()[0].compose.items()),
            (_E0, _A, _A)]),
        DanglingReference, "compose row for ('r|x0|x0','r|x0|x1') repeats an earlier row",
        (_E0, _A)),
    "compose: missing pair": (
        _edit("full2", compose=lambda c: c.pop((_B, _A))),
        DanglingReference, "missing composition for composable pair ('r|x1|x0','r|x0|x1')",
        (_B, _A)),
    "inverse missing": (
        _edit("full2", inverse=lambda i: i.pop(_A)),
        BadInverse, "inverse must be defined for every arrow", (_A,)),
    "inverse unknown": (
        _edit("full2", inverse=lambda i: i.__setitem__(_A, "zz")),
        DanglingReference, "inverse of 'r|x0|x1' is unknown", (_A, "zz")),
    "inverse not an involution": (
        _edit("full2", inverse=lambda i: i.__setitem__(_B, _B)),
        BadInverse, "inverse is not an involution at 'r|x0|x1'", (_A, _B)),
    "inverse with wrong endpoints": (
        _edit("full3", inverse=lambda i: i.update({
            "r|x0|x1": "r|x2|x0", "r|x2|x0": "r|x0|x1",
            "r|x1|x0": "r|x0|x2", "r|x0|x2": "r|x1|x0",
        })),
        BadInverse, "inverse of 'r|x0|x1' has wrong endpoints", ("r|x0|x1", "r|x2|x0")),
    "g g^-1 not the unit": (
        _edit("z3", inverse={"pt.0": "pt.0", "pt.1": "pt.1", "pt.2": "pt.2"}),
        BadInverse, "g * g^-1 is not the unit at tgt('pt.1')", ("pt.1",)),
    "g^-1 g not the unit": (
        _edit("z3", compose=lambda c: c.__setitem__(("pt.2", "pt.1"), "pt.1")),
        BadInverse, "g^-1 * g is not the unit at src('pt.1')", ("pt.1",)),
    "inverse: first faulty row": (
        _edit("z3", inverse={"pt.0": "pt.0", "pt.1": "pt.1", "pt.2": "zz"}),
        BadInverse, "g * g^-1 is not the unit at tgt('pt.1')", ("pt.1",)),
    "unit not right-neutral": (
        _edit("z3", compose=lambda c: c.__setitem__(("pt.1", "pt.0"), "pt.2")),
        BadUnit, "unit arrow not right-neutral at 'pt.1'", ("pt.1",)),
    "unit not left-neutral": (
        _edit("z3", compose=lambda c: c.__setitem__(("pt.0", "pt.1"), "pt.2")),
        BadUnit, "unit arrow not left-neutral at 'pt.1'", ("pt.1",)),
    "non-associative": (
        None,
        NonAssociative, "(g h) k != g (h k) for ('a','b','b')", ("a", "b", "b")),
}


@pytest.mark.parametrize("case", list(_BROKEN), ids=list(_BROKEN))
def test_each_broken_table_names_its_fault(case):
    # one table per check of validate, and tables with faults in two rows:
    # the first faulty row in table order is named, whatever the checks' order
    tables, cls, message, ids = _BROKEN[case]
    raw = _latin_square() if tables is None else from_names(**tables)
    with pytest.raises(GroupoidError) as err:
        raw.validate()
    assert (type(err.value), str(err.value), err.value.ids) == (cls, message, ids)



@pytest.mark.parametrize("case", ["compose: unknown gh", "inverse not an involution"])
@pytest.mark.parametrize("read", [lambda c: list(c.items()), dict], ids=["items", "dict"])
def test_compose_view_validates_before_it_reads_the_rows(case, read):
    # the rows as given are never named unchecked: an unknown product read
    # past the arrow ids (IndexError), a wrong inverse returned the rows
    tables = _BROKEN[case][0]
    with pytest.raises(GroupoidError) as eager:
        validate_groupoid(from_names(**tables))
    with pytest.raises(GroupoidError) as err:
        read(from_names(**tables).compose)
    assert (type(err.value), str(err.value), err.value.ids) == (
        type(eager.value), str(eager.value), eager.value.ids)

def _z3_not_associative():
    """Z3 with a a = e: the table of the CI smoke step's ``z3bad.txt``."""
    rows = [("e", "e", "e"), ("e", "a", "a"), ("e", "b", "b"), ("a", "e", "a"), ("a", "a", "e"),
            ("a", "b", "e"), ("b", "e", "b"), ("b", "a", "e"), ("b", "b", "a")]
    return from_names(["x"], {"x": 1.0}, [(a, "x", "x") for a in "eab"], rows,
                      {"e": "e", "a": "b", "b": "a"}, {"x": "e"})


@pytest.mark.parametrize("build", [
    _z3_not_associative,
    lambda: mk.full_relation(["x0", "x1"], {"x0": 0.5, "x1": math.nan}),
], ids=["z3-not-associative", "nan-mass"])
@pytest.mark.parametrize("read", [
    lambda g: g.pairs, lambda g: g.flags, is_icc, factoriality_report, serialize,
], ids=["pairs", "flags", "is_icc", "factoriality_report", "serialize"])
def test_a_bad_table_fails_at_first_read_with_the_eager_fault(build, read):
    with pytest.raises(GroupoidError) as eager:
        validate_groupoid(build())
    g = build()  # construction checks nothing
    for _ in range(2):  # nothing is kept from a failed read, so it fails again
        with pytest.raises(GroupoidError) as err:
            read(g)
        assert (type(err.value), str(err.value), err.value.ids) == (
            type(eager.value), str(eager.value), eager.value.ids)


_NAME_VIEWS = ("src", "tgt", "inverse", "unit_arrow", "unit_arrow_set", "_index", "arrows")


def test_validate_reads_only_the_arrays_it_was_given():
    # the S4 translation groupoid: 576 arrows, 13,824 composable pairs; its
    # tables given by name, then validated with no name view built
    g = mk.NAMED_INSTANCES["s4-translation"]()[0]
    raw = from_names(**_tables_of(g))
    raw.validate()
    assert not set(_NAME_VIEWS) & set(vars(raw))
    assert len(raw.pairs.prod) == 13_824
    for a, b in zip(vars(raw.pairs).values(), vars(g.pairs).values()):
        assert np.array_equal(a, b)


def test_position_stages_build_no_name_views():
    # the conjugacy class, its decomposition, phase regularity and basis
    # conjugation map names to positions at their input and back at their
    # output only
    g, w = mk.klein_four_twisted()
    singletons = Basis(tuple((a,) for a in g.arrow_order), symmetric=True, unit_block=0)
    assert conjugacy_class(g, ["pt.1.0"]).mu_s == 1.0
    assert ergodic_class_decomposition(g, ["pt.1.0"]) == [("pt.1.0",)]
    assert is_omega_regular(g, w, ["pt.0.1"]).witness == ("pt.1.0", "pt.0.1", "pt.0.1")
    assert conjugate_basis(g, singletons, ["pt.1.0"]) == singletons
    assert not (set(_NAME_VIEWS) - {"_index"}) & set(vars(g))


def test_validation_drops_the_compose_rows_and_can_run_again():
    g = mk.NAMED_INSTANCES["full3"]()[0]  # not the session fixture: validate runs again
    pairs, compose = g.pairs, dict(g.compose)
    assert g._rows is None
    assert g.validate() is g and g._rows is None
    assert dict(g.compose) == compose
    for a, b in zip(vars(g.pairs).values(), vars(pairs).values()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("mass, message", [
    (math.nan, "mass at unit 'x1' is not finite"),
    (math.inf, "mass at unit 'x1' is not finite"),
    (-math.inf, "negative mass at unit 'x1'"),
])
def test_a_non_finite_mass_is_named(mass, message, recwarn):
    # with unnormalized=True no total is checked; the unit is named anyway,
    # and no numpy warning is raised on the way
    raw = from_names(**_edit("full2", mass={"x0": 0.5, "x1": mass}))
    raw.unnormalized = True
    with pytest.raises(BadUnit) as err:
        raw.validate()
    assert (str(err.value), err.value.ids) == (message, ("x1",))
    assert not recwarn.list


def test_unnormalized_mass_rejected_without_flag():
    with pytest.raises(BadUnit):
        trivial_groupoid(["x"], {"x": 0.7})
    g = trivial_groupoid(["x"], {"x": 0.7}, unnormalized=True)
    assert not g.flags.mass_normalized


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
    two = trivial_groupoid(["x0", "x1"], {"x0": 0.5, "x1": 0.5})
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
    assert sorted(len(by_source(sub, u)) for u in sub.units) == [2, 2]

    same, factor = s3_bundle.restrict(["pt"])
    assert factor == pytest.approx(1.0)
    assert same.arrow_order == s3_bundle.arrow_order

    with pytest.raises(EmptyRestriction):
        trivial_groupoid(
            ["x0", "x1"], {"x0": 1.0, "x1": 0.0}
        ).restrict(["x1"])


@pytest.mark.parametrize("keep", [["x0"], ["x1", "x2"], ["x2", "x0", "x1"]])
def test_restrict_renormalizes_exact_masses(keep):
    exact = {"x0": Fraction(1, 2), "x1": Fraction(1, 3), "x2": Fraction(1, 6)}
    g = mk.full_relation(list(exact), {u: float(m) for u, m in exact.items()}, exact_mass=exact)
    sub, _ = g.restrict(keep)
    total = sum(exact[u] for u in keep)
    assert sub.exact_mass == {u: exact[u] / total for u in sub.units}
    assert sub.units == tuple(u for u in g.units if u in keep) and sub.flags.mass_normalized


def test_restrict_all_units_is_identity(full3):
    sub, factor = full3.restrict(list(full3.units))
    assert factor == pytest.approx(1.0)
    # the tables keep storage order, so validate names faults deterministically
    assert list(sub.inverse) == list(full3.inverse) == list(sub.arrow_order)
    assert check_isomorphism(
        sub, full3,
        {u: u for u in full3.units},
        {a: a for a in full3.arrow_order},
    )


_SWAP_TO_FULL2 = {"0|x0": "r|x0|x0", "0|x1": "r|x1|x1", "1|x0": "r|x1|x0", "1|x1": "r|x0|x1"}
_IDENTITY_UNITS = {"x0": "x0", "x1": "x1"}


@pytest.mark.parametrize("source, target, units, arrows", [
    ("swap_groupoid", "full2", {"x0": "x0"}, _SWAP_TO_FULL2),  # a unit left out
    ("swap_groupoid", "full2", _IDENTITY_UNITS,  # an arrow of the source left out
     {**{a: b for a, b in _SWAP_TO_FULL2.items() if a != "1|x1"}, "2|x1": "r|x0|x1"}),
    ("swap_groupoid", "full2", _IDENTITY_UNITS, {**_SWAP_TO_FULL2, "1|x1": "r|x1|x0"}),  # not onto
    ("swap_groupoid", "full2", _IDENTITY_UNITS,
     {**_SWAP_TO_FULL2, "1|x0": "r|x0|x1", "1|x1": "r|x1|x0"}),  # endpoints swapped
    ("klein4", "klein4", {"pt": "pt"},  # the identity swapped with an involution
     {"pt.0.0": "pt.0.1", "pt.0.1": "pt.0.0", "pt.1.0": "pt.1.0", "pt.1.1": "pt.1.1"}),
])
def test_check_isomorphism_rejects(request, source, target, units, arrows):
    a, b = request.getfixturevalue(source), request.getfixturevalue(target)
    assert not check_isomorphism(a, b, units, arrows)


@pytest.mark.parametrize("shift, same", [(0.0, True), (1e-10, True), (1e-6, False)])
def test_isomorphism_compares_masses_within_a_constant(full2, shift, same):
    # masses within ISOMORPHISM_MASS_TOL (1e-9) count as equal, and farther
    # apart they make the same tables no isomorphism of measured groupoids
    moved = mk.full_relation(list(full2.units), {"x0": 0.5 + shift, "x1": 0.5 - shift})
    ids = {a: a for a in full2.arrow_order}
    units = {u: u for u in full2.units}
    assert check_isomorphism(moved, full2, units, ids) == same


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
    assert mul_sets(full2, a, inv_set(full2, a)) == frozenset({"r|x0|x0"})
    assert full2.is_bisection(["r|x0|x1", "r|x1|x0"])
    assert not full2.is_bisection(["r|x0|x1", "r|x0|x0"])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2000))
def test_random_instances_satisfy_measure_identities(seed):
    g = mk.random_groupoid(seed)
    # inversion swaps the source and target measures
    ids = [a for i, a in enumerate(g.arrow_order) if (seed + i) % 3 != 0]
    inv = inv_set(g, ids)
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
        from_names(
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
