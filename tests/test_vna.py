import inspect
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factoroid import constructors as mk
from factoroid.basis import build_basis
from factoroid.cocycle import apply_coboundary, normalize_cocycle, trivial_cocycle
from factoroid.conjugacy import is_icc
from factoroid import cli, vna
from factoroid.groupoid import MeasuredGroupoid, validate_groupoid
from factoroid.textio import parse_text, serialize
from factoroid.vna import (
    AsymmetricBasis,
    InternalInconsistency,
    MatrixStarAlgebra,
    NotInAlgebra,
    algebra,
    center,
    conditional_expectation,
    factoriality_report,
    fourier,
    invariant_subalgebra,
    j_map,
    l2_space,
    multiplication_operator,
    phi_and_sharp,
    subspace_leq,
    subspaces_equal,
)

from dense_oracle import commutant, svd_span
from references import (
    as_complex,
    by_source,
    conjugate,
    from_names,
    icc_by_name,
    invariant_rows_by_name,
    loops_off_units_by_name,
    orbits_by_union_find,
    sorted_row_gram,
    trivial_groupoid,
    twisted_convolve,
)


def random_algebra_element(alg, rng):
    coeff = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    return alg.element(coeff)


def central_matrices(alg, z):
    """The center's rows y, coordinates over the frame L_a / |L_a|_F, as the
    n x n matrices sum_a (y_a / |L_a|_F) L_a."""
    arrow, _, _, val = alg.forms
    norms = np.sqrt(np.bincount(arrow, np.abs(val) ** 2, alg.matrix_dim))
    return [alg.element(y / norms) for y in z.basis_ops]


def translation(g, w, ids, side, space):
    """The translation by an arrow set: the element of the translation
    algebra whose coefficient is 1 at each arrow of the set."""
    return algebra(g, w, side, space=space).element(np.isin(space.index, list(ids)))


def test_rep_operator_units_is_identity(full2):
    space = l2_space(full2)
    lam = translation(full2, None, full2.unit_arrow_set, "left", space)
    assert np.allclose(lam, np.eye(space.dim))


def test_rep_operator_z2_swap(z2):
    space = l2_space(z2)
    lam = translation(z2, None, ["pt.1"], "left", space)
    assert np.allclose(lam, np.array([[0, 1], [1, 0]], dtype=complex))


def test_rep_operator_klein_twisted_signs():
    g, w = mk.klein_four_twisted()
    wn = normalize_cocycle(g, w)
    space = l2_space(g)
    lam = translation(g, w, ["pt.0.1"], "left", space)
    # partial permutation carrying the normalized phases wn((0,1), h) over
    # the 4 pairs: column h holds wn((0,1), h) at row (0,1) h
    nonzero = {
        (space.index[r], space.index[c]): lam[r, c]
        for r in range(4) for c in range(4) if lam[r, c] != 0
    }
    assert len(nonzero) == 4
    for h in space.index:
        phase = as_complex(wn("pt.0.1", h))
        assert nonzero[(g.compose[("pt.0.1", h)], h)] == phase
    assert nonzero[("pt.0.1", "pt.0.0")] == 1.0  # the unit column
    # normalizing turns the -1 of the given cocycle on (0,1)(1,0) into -i
    assert nonzero[("pt.1.1", "pt.1.0")] == pytest.approx(-1j, abs=1e-15)


def test_rep_operator_adjoint_is_inverse(z4_translation):
    g = z4_translation
    space = l2_space(g)
    w = trivial_cocycle(g)
    for a in g.arrow_order[:6]:
        lam = translation(g, w, [a], "left", space)
        lam_inv = translation(g, w, [g.inverse[a]], "left", space)
        assert np.allclose(lam.conj().T, lam_inv)


def test_report_reads_no_pair_list(monkeypatch):
    # parsing and the report read the composition table and the cocycle by
    # position: they never walk the composable pairs by name, and the
    # groupoid keeps no dict as long as its pair list
    def refuse(self):
        raise AssertionError("composable_pairs() was called")

    for family in ("full3", "klein4-twisted"):
        text = serialize(*mk.NAMED_INSTANCES[family]())
        with monkeypatch.context() as patch:
            patch.setattr(MeasuredGroupoid, "composable_pairs", refuse)
            g, w = parse_text(text)
            report = factoriality_report(g, w)
        assert report.consistent and report.twisted == (w is not None)
        assert (w is not None) == ("[cocycle]" in text)
        longest = max((len(v) for v in vars(g).values() if isinstance(v, dict)), default=0)
        assert longest < len(g.compose) == len(g.pairs.left)


# numpy's Python-level helpers that the builders and the report path call as
# array methods, or replace by index arithmetic, np.zeros, np.empty and
# .fill, np.bincount or a sorted copy
_WRAPPERS = ("flatnonzero", "cumsum", "searchsorted", "repeat", "argsort", "eye", "zeros_like",
             "tile", "stack", "full", "indices", "unique", "issubdtype")


def test_report_path_calls_numpy_at_its_c_entry_points(monkeypatch):
    # building the instances (their group tables too), restricting them,
    # parsing, validation, the deciders, the center, the invariants and the
    # rendering never go through the wrappers above (S5 translation, 14,400
    # arrows, is left out)
    def refuse(name):
        def wrapper(*args, **kwargs):
            raise AssertionError(f"np.{name} was called")
        return wrapper

    with monkeypatch.context() as patch:
        for name in _WRAPPERS:
            patch.setattr(np, name, refuse(name))
        mk._small_group.cache_clear()
        cases = [mk.NAMED_INSTANCES[name]() for name in sorted(mk.NAMED_INSTANCES)
                 if name != "s5-translation"]
        randoms = [mk.random_groupoid(seed) for seed in range(50)]
        cases += [(g, None) for g in randoms]
        cases += [(g.restrict(g.units[::2])[0], None) for g in randoms
                  if any(g.mass[u] > 0.0 for u in g.units[::2])]
        cases += [mk.random_twisted_pair(seed, exact=exact) for seed in range(20)
                  for exact in (False, True)]
        for g, w in cases:
            parsed = parse_text(serialize(g, w))
            for h, v in (parsed, (g, w)) if w is not None and w.turns else (parsed,):
                report = factoriality_report(h, v).to_dict()
                assert report["consistent"]
                assert cli._render(report, "json") and cli._render(report, "text")


def _sweep_instances():
    """Seeded instances, the same with their units in shuffled order (so
    that orbits interleave), their restrictions to about half their units
    (null units among them), and the named instances below the size ladder."""
    ladder = ("s4-translation", "s4xz2-translation", "s5-translation")
    for seed in range(150):
        g = mk.random_groupoid(seed)
        yield g
        yield validate_groupoid(from_names(
            random.Random(seed).sample(g.units, len(g.units)), g.mass,
            [(a, g.src[a], g.tgt[a]) for a in g.arrow_order], g.compose,
            g.inverse, g.unit_arrow, exact_mass=g.exact_mass,
        ))
        keep = g.units[::2]
        if any(g.mass[u] > 0.0 for u in keep):
            yield g.restrict(keep)[0]
    for seed in range(60):
        yield mk.random_twisted_pair(seed)[0]
    for name in sorted(set(mk.NAMED_INSTANCES) - set(ladder)):
        yield mk.NAMED_INSTANCES[name]()[0]


def test_positional_stages_match_name_walking_references():
    # orbits, ergodicity, icc, the loops off the units, the L^2 space and
    # the invariant rows read g.pairs by position; their name-walking forms
    # are the references
    seen = {"null unit": 0, "not ergodic": 0, "not icc": 0}
    for g in _sweep_instances():
        orbits = orbits_by_union_find(g)
        assert g.orbits() == orbits
        positive = [o for o in orbits if any(g.mass[u] > 0.0 for u in o)]
        erg = g.is_ergodic()
        assert erg.ergodic == (len(positive) <= 1)
        assert erg.witness == (None if erg.ergodic else tuple(positive[:2]))
        assert is_icc(g) == icc_by_name(g)
        assert np.flatnonzero(g._loops_off_units[1]).tolist() == loops_off_units_by_name(g)
        assert g.iso_subgroupoid() == frozenset(a for a in g.arrow_order if g.src[a] == g.tgt[a])
        space = l2_space(g)
        index = tuple(a for a in g.arrow_order if g.mass[g.src[a]] > 0.0)
        assert space.index == index and space.pos == {a: i for i, a in enumerate(index)}
        assert space.weights.tolist() == [g.mass[g.src[a]] for a in index]
        unit_vector = [space.sqrt_weights[i] if a in g.unit_arrow_set else 0.0
                       for i, a in enumerate(index)]
        assert space.unit_vector.tolist() == unit_vector
        rows = invariant_subalgebra(g, space).basis_ops
        assert rows.shape == (len(positive), len(index))
        assert np.array_equal(rows, invariant_rows_by_name(g, space))
        seen["null unit"] += min(g.mass.values()) == 0.0
        seen["not ergodic"] += not erg.ergodic
        seen["not icc"] += not is_icc(g).icc
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize(
    "family", ["full3", "s3-bundle", "klein4-twisted", "random:0", "random:4", "random-twisted:2"]
)
def test_report_builds_no_name_views(family):
    # after parsing, a report reads positions only: no name view is built,
    # not the dicts by identifier, the Arrow triples or the maps of the
    # arrows by source and by target
    name, _, seed = family.partition(":")
    if name == "random":
        text = serialize(mk.random_groupoid(int(seed)))
    elif name == "random-twisted":
        text = serialize(*mk.random_twisted_pair(int(seed)))
    else:
        text = serialize(*mk.NAMED_INSTANCES[family]())
    g, w = parse_text(text)
    assert factoriality_report(g, w).consistent
    assert not {"src", "tgt", "inverse", "unit_arrow", "arrows"} & set(vars(g))


def _worst_residual_row_by_row(a, b):
    """``subspace_leq`` as it was written, one projection on span(b) per
    basis row of a, kept as the reference for its one batched projection."""
    worst = 0.0
    for v in a.basis_ops:
        v = np.asarray(v, dtype=complex).reshape(-1)
        if np.linalg.norm(v) > 0.0:
            proj = b._rows.T @ (b._rows @ v.conj()).conj() if b.dim else 0.0
            worst = max(worst, float(np.linalg.norm(v - proj) / np.linalg.norm(v)))
    return worst


def test_subspace_leq_matches_the_row_by_row_projection():
    checked = 0
    for seed in range(40):
        for g, w in ((mk.random_groupoid(seed), None), mk.random_twisted_pair(seed)):
            z, inv = center(g, w), invariant_subalgebra(g)
            for span in (z, inv):  # orthonormal rows, as MatrixStarAlgebra checks
                gram = span.basis_ops @ span.basis_ops.conj().T
                assert np.abs(gram - np.eye(span.dim)).max(initial=0.0) <= 1e-12
            for a, b in ((z, inv), (inv, z)):
                ok, worst = subspace_leq(a, b)
                expect = _worst_residual_row_by_row(a, b)
                assert abs(worst - expect) <= 1e-15 and ok == (expect <= vna.CONTAINMENT_TOL)
                checked += worst > 0.0
    assert checked > 10



def test_relative_residuals_are_the_bits_of_linalg_norm():
    # _relative reduces each row as np.linalg.norm(x, axis=1) does; the
    # report prints the residual, so the bits must not move
    rng = np.random.default_rng(0)
    for rows, cols in ((5, 7), (1, 81), (4, 1), (0, 3), (2, 0)):
        for flat in (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)),
                     rng.standard_normal((rows, cols))):
            diff = flat * rng.random((rows, cols)) * 1e-9
            if rows > 2:
                flat[1], diff[2, 0] = 0.0, np.nan  # a zero row reads 0, a NaN row NaN
            norm = np.linalg.norm(flat, axis=1)
            want = np.divide(np.linalg.norm(diff, axis=1), norm, out=np.zeros(rows), where=norm != 0.0)
            assert vna._relative(diff, flat).tobytes() == want.tobytes()

def test_subspace_leq_agrees_across_projection_blocks(monkeypatch, full3):
    # blocks of one row and of two rows must give the one-block residuals
    left = algebra(full3)
    c = commutant(left.basis_ops)
    pairs = [(left, c), (c, left), (center(full3), invariant_subalgebra(full3))]
    whole = [subspace_leq(a, b) for a, b in pairs]
    for rows in (1, 2):
        monkeypatch.setattr(vna, "_PROJECT_BLOCK", rows * left.matrix_dim**2)
        for (a, b), (ok, worst) in zip(pairs, whole):
            ok_blocks, worst_blocks = subspace_leq(a, b)
            assert ok_blocks == ok and abs(worst_blocks - worst) <= 1e-15
            assert abs(worst - max(b.contains(op)[1] for op in a.basis_ops)) <= 1e-15


def test_span_refuses_rows_that_are_not_orthonormal():
    # the rows are taken as they are, so a broken invariant must raise, at
    # RANK_TOL whatever the containment tolerance; a NaN row fails the test
    n = 4
    unit = np.eye(n)[0]
    for rows in ([2 * unit], [unit, unit], [unit, np.full(n, np.nan)]):
        for tol in (vna.RANK_TOL, 1.0):
            with pytest.raises(InternalInconsistency, match="not orthonormal"):
                MatrixStarAlgebra(rows, tol=tol)
    empty = MatrixStarAlgebra(np.zeros((0, n)))
    assert empty.dim == 0 and empty.contains(np.zeros(n)) == (True, 0.0)
    assert not empty.contains(unit)[0]
    assert MatrixStarAlgebra(np.eye(n)[1:3]).dim == 2


def test_contains_fails_on_nan(full3):
    # a NaN entry gives a NaN residual, which fails every tolerance
    left = algebra(full3)
    dense = svd_span(left.basis_ops)
    for alg in (left, dense):
        mat = np.eye(left.matrix_dim, dtype=complex)
        assert alg.contains(mat)[0] and alg.contains(np.zeros_like(mat)) == (True, 0.0)
        mat[0, 1] = np.nan
        ok, residual = alg.contains(mat)
        assert not ok and math.isnan(residual)
    bad = svd_span([np.eye(2)])
    bad.basis_ops = np.array([np.eye(2), np.full((2, 2), np.nan), np.zeros((2, 2))])
    ok, worst = subspace_leq(bad, svd_span([np.eye(2)]))
    assert not ok and math.isnan(worst)


def test_twisted_convolution_unit(full2):
    space = l2_space(full2)
    f = {a: 1.0 for a in full2.unit_arrow_set}
    h = {a: complex(i + 1) for i, a in enumerate(full2.arrow_order)}
    out = twisted_convolve(full2, None, f, h)
    for a in full2.arrow_order:
        assert out[a] == pytest.approx(h[a])


def test_twisted_convolution_z2_inverse(z2):
    out = twisted_convolve(z2, None, {"pt.1": 1.0}, {"pt.1": 1.0})
    assert out["pt.0"] == pytest.approx(1.0)
    assert out["pt.1"] == 0.0


def test_convolution_matches_operator_product():
    g, w = mk.klein_four_twisted()
    wn = normalize_cocycle(g, w)
    space = l2_space(g)
    a_set, b_set = ["pt.1.0"], ["pt.1.1"]
    lam = translation(g, wn, a_set, "left", space) @ translation(
        g, wn, b_set, "left", space
    )
    ja = space.function_values(j_map(g, lam, space))
    conv = twisted_convolve(
        g, wn, {a: 1.0 for a in a_set}, {b: 1.0 for b in b_set}
    )
    for arrow in g.arrow_order:
        assert conv[arrow] == pytest.approx(ja[arrow], abs=1e-12)


def test_convolution_holder_bound(full3):
    import random

    rng = random.Random(5)
    space = l2_space(full3)
    f = {a: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for a in full3.arrow_order}
    h = {a: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for a in full3.arrow_order}
    out = twisted_convolve(full3, None, f, h)

    def l2norm(func):
        return math.sqrt(
            sum(abs(v) ** 2 * full3.mass[full3.src[a]] for a, v in func.items())
        )

    assert max(abs(v) for v in out.values()) <= l2norm(f) * l2norm(h) + 1e-9


def test_algebra_dims(z2, full2):
    trivial = trivial_groupoid(["x0", "x1"], {"x0": 0.5, "x1": 0.5})
    assert algebra(trivial).dim == 2
    assert algebra(full2).dim == 4
    assert algebra(z2).dim == 2


def test_algebra_excludes_null_arrows(null_orbit_groupoid):
    alg = algebra(null_orbit_groupoid)
    assert alg.dim == 1  # only the positive unit contributes


def test_commutant_of_identity(full2):
    space = l2_space(full2)
    c = commutant(np.array([np.eye(space.dim, dtype=complex)]))
    assert c.dim == space.dim ** 2


def test_commutant_full2_oracle(full2):
    left = algebra(full2)
    c = commutant(left.basis_ops)
    assert c.dim == 4
    z = commutant(left.basis_ops, within=left)
    assert z.dim == 1


def test_commutant_z2_oracle(z2):
    left = algebra(z2)
    c = commutant(left.basis_ops)
    ok, _ = subspace_leq(left, c)
    assert ok
    assert commutant(left.basis_ops, within=left).dim == 2


def test_center_dims(z2, full2, klein_twisted):
    assert center(full2).dim == 1
    assert center(z2).dim == 2
    g, w = klein_twisted
    assert center(g, w).dim == 1
    assert center(g).dim == 4


def _oracle_cases():
    for seed in range(200):
        yield f"random-{seed}", mk.random_groupoid(seed), None
    for seed in range(100):
        yield f"twisted-{seed}", *mk.random_twisted_pair(seed)


def test_center_matches_dense_oracle():
    # the structure-constant center against the dense within=alg commutant
    checked = 0
    for name, g, w in _oracle_cases():
        if l2_space(g).dim > 40:
            continue
        alg = algebra(g, w)
        z = center(g, w, alg=alg)
        oracle = commutant(alg.basis_ops, within=alg)
        assert z.dim == oracle.dim, name
        accepted, rejected = z.observed_gap
        o_accepted, o_rejected = oracle.observed_gap
        # accepted residuals are rounding noise (about 1e-15) on both sides
        assert accepted == pytest.approx(o_accepted, rel=1e-9, abs=1e-12), name
        if math.isfinite(o_rejected):
            assert rejected == pytest.approx(o_rejected, rel=1e-9), name
        else:
            assert rejected == o_rejected, name
        matrices = svd_span(central_matrices(alg, z))
        assert subspaces_equal(matrices, oracle)[0], name
        checked += 1
    assert checked >= 250


def _regular_class_count(g, w, x):
    """The w-regular conjugacy classes of the isotropy group at unit x, from
    the tables alone: g is w-regular when w(g, h) == w(h, g) for every h
    commuting with g (a coboundary leaves that ratio unchanged)."""
    group = [a for a in g.arrow_order if g.src[a] == x and g.tgt[a] == x]

    def phase(a, b):
        return 1.0 if w is None else as_complex(w(a, b))

    seen, count = set(), 0
    for a in group:
        if a in seen:
            continue
        seen |= {g.compose[(g.compose[(h, a)], g.inverse[h])] for h in group}
        commuting = [h for h in group if g.compose[(a, h)] == g.compose[(h, a)]]
        count += all(abs(phase(a, h) - phase(h, a)) <= 1e-9 for h in commuting)
    return count


def test_center_dim_matches_regular_class_count():
    # finite twisted groupoid algebras split over orbits into matrix algebras
    # over C^w G_x, whose center is spanned by the w-regular classes of G_x
    for name, g, w in _oracle_cases():
        expected = 0
        done = set()
        for x in g.units:
            if x in done:
                continue
            orbit = {g.tgt[a] for a in g.arrow_order if g.src[a] == x}
            done |= orbit
            if g.mass[x] > 0.0:
                expected += _regular_class_count(g, w, x)
        assert center(g, w).dim == expected, name


def _structure_defects(forms, side, space):
    """What validation implies of the translations given by ``forms``, read
    off their dense stack: the worst defect of the adjoint rule T_a^* =
    ratio_a T_{a^-1} (ratio_a = m(t(a))/m(s(a)) on the right, 1 on the
    left), the worst defect of sum_e T_e = I over the unit arrows, and the
    rank of the stack."""
    n, t = space.dim, space.pairs
    ops = vna.TranslationAlgebra(forms, n).basis_ops
    ratio = space.weights[t.inv] / space.weights if side == "right" else np.ones(n)
    adjoint = np.abs(ops.conj().transpose(0, 2, 1) - ratio[:, None, None] * ops[t.inv])
    units = np.unique(t.unit_arrow[t.tgt])  # the unit arrows of the positive units
    identity = np.abs(ops[units].sum(axis=0) - np.eye(n))
    rank = np.linalg.matrix_rank(ops.reshape(n, n * n)) if n else 0
    return float(adjoint.max(initial=0.0)), float(identity.max(initial=0.0)), int(rank)


_SMALL_NAMED = ("full2", "full3", "klein4", "klein4-twisted", "s3-bundle", "swap",
                "z2", "z3", "z4-translation")


def _small_cases():
    """The small named instances and seeded corpora, the twisted ones also
    moved by a random coboundary off their normalized form."""
    for name in _SMALL_NAMED:
        yield name, *mk.NAMED_INSTANCES[name]()
    for seed in range(60):
        yield f"random-{seed}", mk.random_groupoid(seed), None
        g, w = mk.random_twisted_pair(seed)
        yield f"twisted-{seed}", g, w
        rho = mk.random_coboundary(g, random.Random(seed))
        yield f"coboundary-{seed}", g, apply_coboundary(g, w, rho)


def _forms(g, w, side):
    """The entries that ``algebra`` gives, and their L2 space."""
    return algebra(g, w, side).forms, l2_space(g)


def test_adjoint_check_matches_dense_definition():
    # algebra checks no adjoint rule: validation and normalization imply it,
    # with the mass ratio on the right, so the dense stacks must satisfy it
    pmp = set()
    for (name, g, w), side in itertools.product(_small_cases(), ("left", "right")):
        forms, space = _forms(g, w, side)
        if space.dim <= 40:
            assert _structure_defects(forms, side, space)[0] <= 1e-12, (name, side)
            pmp.add(g.flags.pmp)
    assert pmp == {True, False}


def test_translations_sum_to_the_identity_and_have_full_rank():
    # algebra checks neither: the unit-arrow rows give sum_e T_e = I, and
    # n nonzero translations with disjoint supports have rank n
    checked = 0
    for (name, g, w), side in itertools.product(_small_cases(), ("left", "right")):
        forms, space = _forms(g, w, side)
        n = space.dim
        if n > 40:
            continue
        _, identity, rank = _structure_defects(forms, side, space)
        assert identity <= 1e-12 and rank == n, (name, side)
        arrow, col, row, _ = forms
        assert len(set(zip(row.tolist(), col.tolist()))) == len(arrow), (name, side)
        assert set(arrow.tolist()) == set(range(n)), (name, side)
        assert algebra(g, w, side).dim == n, (name, side)
        checked += 1
    assert checked >= 200


def _mutated(forms, target, mutation):
    """Copies of ``forms`` with the translation by arrow position ``target``
    (at least two entries) mutated in its first two columns: one phase
    flipped, the rows of the two columns swapped, or one column moved into
    the row of the other."""
    arrow, col, row, val = (a.copy() for a in forms)
    entries = np.flatnonzero(arrow == target)
    e1, e2 = entries[np.argsort(col[entries])][:2]
    if mutation == "phase":
        val[e1] = -val[e1]
    elif mutation == "swap":
        row[[e1, e2]] = row[[e2, e1]]
    else:
        row[e2] = row[e1]
    return arrow, col, row, val


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("mutation", ["phase", "swap", "merge"])
def test_structure_check_catches_mutated_stack(side, mutation):
    # the dense check of the two property tests above is not blind: each
    # mutation of one non-unit translation breaks its adjoint rule
    g, w = mk.random_twisted_pair(2)  # 4 units, uneven masses, twisted
    assert not g.flags.pmp
    forms, space = _forms(g, w, side)
    occupied = np.bincount(forms[0], minlength=space.dim)
    target = max(
        (space.pos[a] for a in space.index if a not in g.unit_arrow_set),
        key=lambda t: occupied[t],
    )
    assert occupied[target] >= 2
    adjoint, identity, rank = _structure_defects(forms, side, space)
    assert adjoint <= 1e-12 and identity <= 1e-12 and rank == space.dim
    adjoint, identity, _ = _structure_defects(_mutated(forms, target, mutation), side, space)
    assert adjoint > 0.1 and identity <= 1e-12


@pytest.mark.parametrize("side", ["left", "right"])
def test_identity_check_catches_flipped_unit_entry(side):
    # a diagonal entry of a unit translation set to -1 keeps the adjoint rule
    # (the unit is its own inverse) and the rank, but the stack loses I
    g, w = mk.random_twisted_pair(2)
    forms, space = _forms(g, w, side)
    occupied = np.bincount(forms[0], minlength=space.dim)
    target = max((space.pos[e] for e in g.unit_arrow_set if e in space.pos),
                 key=lambda t: occupied[t])
    assert occupied[target] >= 2
    arrow, col, row, val = (a.copy() for a in forms)
    val[np.flatnonzero((arrow == target) & (row == col))[0]] *= -1
    adjoint, identity, rank = _structure_defects((arrow, col, row, val), side, space)
    assert adjoint <= 1e-12 and rank == space.dim
    assert identity == pytest.approx(2.0)


def test_disjoint_span_matches_svd_span(s3_bundle):
    # projection by coefficients against the SVD of the same dense stack
    rng = np.random.default_rng(3)
    g, w = mk.random_twisted_pair(2)
    for alg in (algebra(s3_bundle), algebra(g, w), algebra(g, w, "right")):
        svd = svd_span(alg.basis_ops)
        assert alg.dim == svd.dim == alg.matrix_dim
        coeff = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        inside = alg.element(coeff)
        assert np.allclose(inside, np.einsum("j,jab->ab", coeff, alg.basis_ops))
        outside = rng.standard_normal(inside.shape)
        for mat in (inside, outside, np.eye(alg.matrix_dim), np.zeros_like(inside)):
            ok, res = alg.contains(mat)
            ok_svd, res_svd = svd.contains(mat)
            assert ok == ok_svd and res == pytest.approx(res_svd, abs=1e-12)
        assert alg.contains(inside)[0] and not alg.contains(outside)[0]
    # a stack of any shape is flattened; an empty list has no row length
    for zero in (np.zeros((2, 3, 3)), np.zeros((0, 3, 3)), np.zeros((1, 9)), []):
        span = svd_span(zero)
        assert span.dim == 0 and not span.contains(np.eye(3))[0]


def _translation_by_loop(g, w, ids, side, space):
    """The translation by an arrow set, written out column by column."""
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for h in space.index:
        col = space.pos[h]
        for a in ids:
            if side == "left" and g.src[a] == g.tgt[h]:
                mat[space.pos[g.compose[(a, h)]], col] += as_complex(w(a, h))
            elif side == "right" and g.src[a] == g.src[h]:
                ai = g.inverse[a]
                row = space.pos[g.compose[(h, ai)]]
                ratio = math.sqrt(space.weights[row] / space.weights[col])
                mat[row, col] += ratio * as_complex(w(h, ai)).conjugate()
    return mat


def test_column_forms_match_loop_definition():
    cases = [mk.random_twisted_pair(seed) for seed in range(6)]
    cases += [(mk.random_groupoid(seed), None) for seed in range(6)]
    for g, w in cases:
        space = l2_space(g)
        # the translations are defined by the normalized representative
        wn = normalize_cocycle(g, w) if w is not None else trivial_cocycle(g)
        for side in ("left", "right"):
            alg = algebra(g, w, side, space=space)
            for a, e_a in zip(space.index, np.eye(space.dim)):
                expect = _translation_by_loop(g, wn, [a], side, space)
                assert np.array_equal(alg.element(e_a), expect)


def test_rep_operator_sums_column_forms():
    # a set's translation is the sum of its arrows' translations, both sides
    g, w = mk.random_twisted_pair(2)
    wn = normalize_cocycle(g, w)
    space = l2_space(g)
    picked = list(space.index[::3])
    for side in ("left", "right"):
        alg = algebra(g, w, side, space=space)
        total = alg.element(np.isin(space.index, picked))
        singles = sum(alg.element(np.isin(space.index, [a])) for a in picked)
        assert np.array_equal(total, singles)
        assert np.allclose(total, _translation_by_loop(g, wn, picked, side, space))
    with pytest.raises(ValueError):
        algebra(g, w, "up", space=space)


def test_rep_operator_matches_algebra_element():
    # algebra normalizes the cocycle, so its elements agree arrow by arrow
    # with the loop over the normalized representative
    cases = [mk.random_twisted_pair(seed) for seed in range(4)]
    cases.append(mk.klein_four_twisted())
    for g, w in cases:
        assert not w.normalized
        wn = normalize_cocycle(g, w)
        space = l2_space(g)
        for side in ("left", "right"):
            alg = algebra(g, w, side, space=space)
            for a, e_a in zip(space.index, np.eye(space.dim)):
                assert np.array_equal(
                    _translation_by_loop(g, wn, [a], side, space), alg.element(e_a)
                ), (a, side)


def _traced_peak(call):
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_algebra_builds_no_dense_stack():
    # the entries are P-long; an n x n x n stack alone would be n^3 * 16 B
    units = [f"x{i}" for i in range(9)]
    g = mk.full_relation(units, {u: 1 / 9 for u in units})
    n = l2_space(g).dim
    algebra(g)
    peak = _traced_peak(lambda: algebra(g))
    assert peak < n ** 3 * 16 / 2, peak
    # center's K has at most 2P rows (P = 4,096 here, against n^2 = 65,536),
    # so its peak stays below one n x n complex array
    units = [f"x{i}" for i in range(16)]
    g = mk.full_relation(units, {u: 1 / 16 for u in units})
    alg = algebra(g)
    n = alg.matrix_dim
    center(g, alg=alg)
    peak = _traced_peak(lambda: center(g, alg=alg))
    assert peak < n ** 2 * 16, peak


def test_invariant_subalgebra_dims(full2, z2_bundle, null_orbit_groupoid):
    assert invariant_subalgebra(full2).dim == 1
    assert invariant_subalgebra(z2_bundle).dim == 2
    # 3 units, two orbits, one of them null
    assert invariant_subalgebra(null_orbit_groupoid).dim == 1


def test_conditional_expectation_values(full2):
    space = l2_space(full2)
    alg = algebra(full2)
    lam_units = translation(full2, None, full2.unit_arrow_set, "left", space)
    e = conditional_expectation(full2, lam_units, alg, space)
    assert e == {"x0": pytest.approx(1), "x1": pytest.approx(1)}

    lam = translation(full2, None, ["r|x0|x1"], "left", space)
    e = conditional_expectation(full2, lam, alg, space)
    assert all(v == pytest.approx(0) for v in e.values())

    prod = lam @ lam.conj().T  # range projection: indicator of t(A) = {x0}
    e = conditional_expectation(full2, prod, alg, space)
    assert e["x0"] == pytest.approx(1) and e["x1"] == pytest.approx(0)


def test_conditional_expectation_rejects_outside(full2):
    space = l2_space(full2)
    alg = algebra(full2)
    bad = np.zeros((space.dim, space.dim), dtype=complex)
    bad[0, 1] = 1.0  # e_{x0 unit <- x1 unit}: not a translation pattern
    # build a matrix orthogonal to the span: single entry at a position
    # whose arrow pattern pairs (unit, non-composable) never carries weight
    i = space.pos["r|x0|x0"]
    j = space.pos["r|x1|x1"]
    bad = np.zeros_like(bad)
    bad[i, j] = 1.0
    with pytest.raises(NotInAlgebra):
        conditional_expectation(full2, bad, alg, space)


def test_phi_and_sharp(full2):
    space = l2_space(full2)
    alg = algebra(full2)
    ident = np.eye(space.dim, dtype=complex)
    phi, sharp = phi_and_sharp(full2, ident, alg, space)
    assert phi == pytest.approx(1.0)
    assert sharp == pytest.approx(math.sqrt(2.0))

    lam = translation(full2, None, ["r|x0|x1"], "left", space)
    phi, sharp = phi_and_sharp(full2, lam, alg, space)
    m = full2.arrow_measure(["r|x0|x1"], "source")
    assert phi == pytest.approx(0.0)
    assert sharp == pytest.approx(math.sqrt(2 * m))

    # phi(a*a) = <1, a*a 1> = |a 1|^2, and sharp(a)^2 = phi(a*a) + phi(aa*)
    rng = np.random.default_rng(0)
    for name in _SMALL_NAMED:
        g, w = mk.NAMED_INSTANCES[name]()
        space = l2_space(g)
        alg, one = algebra(g, w, space=space), space.unit_vector
        for _ in range(5):
            a = random_algebra_element(alg, rng)
            phi_aa = phi_and_sharp(g, a.conj().T @ a, alg, space)[0]
            phi_aa_star = phi_and_sharp(g, a @ a.conj().T, alg, space)[0]
            _, sharp = phi_and_sharp(g, a, alg, space)
            assert math.isclose(phi_aa.real, np.vdot(a @ one, a @ one).real, rel_tol=1e-12)
            assert math.isclose(sharp ** 2, phi_aa.real + phi_aa_star.real, rel_tol=1e-12)


def test_phi_faithful(s3_bundle):
    rng = np.random.default_rng(0)
    alg = algebra(s3_bundle)
    space = l2_space(s3_bundle)
    for _ in range(10):
        a = random_algebra_element(alg, rng)
        phi, _ = phi_and_sharp(s3_bundle, a.conj().T @ a, alg, space)
        assert phi.real > 1e-12
        assert abs(phi.imag) < 1e-12


def test_j_map_values(full2):
    space = l2_space(full2)
    lam = translation(full2, None, ["r|x0|x1"], "left", space)
    vals = space.function_values(j_map(full2, lam, space))
    assert vals["r|x0|x1"] == pytest.approx(1.0)
    assert sum(abs(v) for a, v in vals.items() if a != "r|x0|x1") == pytest.approx(0.0)
    assert np.allclose(j_map(full2, np.zeros_like(lam), space), 0.0)


def test_j_injective_on_algebra(s3_bundle):
    alg = algebra(s3_bundle)
    space = l2_space(s3_bundle)
    stacked = np.array([j_map(s3_bundle, op, space) for op in alg.basis_ops])
    s = np.linalg.svd(stacked, compute_uv=False)
    assert s[-1] > 1e-9


def test_diagonal_conjugation_relation(swap_groupoid):
    # translating a diagonal by a bisection composes the point map and cuts
    # the range: L_A M_f L_A^* = M_{f o sigma_A^-1} 1_{t(A)}
    g = swap_groupoid
    space = l2_space(g)
    a_set = ["1|x0"]  # arrow x0 -> x1
    f = {"x0": 2.0, "x1": -3.0}
    lam = translation(g, None, a_set, "left", space)
    lhs = lam @ multiplication_operator(space, f) @ lam.conj().T
    rhs = multiplication_operator(space, {"x1": f["x0"]})
    assert np.allclose(lhs, rhs)


def test_expectation_bimodule_and_faithful(full3):
    rng = np.random.default_rng(1)
    g = full3
    space = l2_space(g)
    alg = algebra(g)
    f = {u: complex(rng.standard_normal()) for u in g.units}
    h = {u: complex(rng.standard_normal()) for u in g.units}
    mf = multiplication_operator(space, f)
    mh = multiplication_operator(space, h)
    a = random_algebra_element(alg, rng)
    lhs = conditional_expectation(g, mf @ a @ mh, alg, space)
    ea = conditional_expectation(g, a, alg, space)
    for u in lhs:
        assert lhs[u] == pytest.approx(f[u] * ea[u] * h[u], abs=1e-10)
    # E(a* a) >= 0, and zero only at zero
    ga = conditional_expectation(g, a.conj().T @ a, alg, space)
    assert all(v.real >= -1e-12 for v in ga.values())


def test_fourier_block_indicator(full2):
    basis = build_basis(full2, symmetric=True)
    space = l2_space(full2)
    alg = algebra(full2)
    block = basis.blocks[1]
    lam = translation(full2, None, block, "left", space)
    data = fourier(full2, None, lam, basis, alg=alg, space=space)
    assert data.residual < 1e-10
    for bi, cf in data.coefficients.items():
        expect = 1.0 if bi == 1 else 0.0
        for u, v in cf.items():
            target = expect if u in {full2.tgt[a] for a in basis.blocks[bi]} else 0.0
            assert v == pytest.approx(target if bi == 1 else 0.0, abs=1e-10)


def test_fourier_diagonal_hits_unit_block(full3):
    basis = build_basis(full3, symmetric=True)
    space = l2_space(full3)
    alg = algebra(full3)
    f = {u: complex(i + 1) for i, u in enumerate(full3.units)}
    op = multiplication_operator(space, f)
    data = fourier(full3, None, op, basis, alg=alg, space=space)
    assert data.residual < 1e-10
    for bi, cf in data.coefficients.items():
        for u, v in cf.items():
            expected = f[u] if bi == basis.unit_block else 0.0
            assert v == pytest.approx(expected, abs=1e-10)


def test_fourier_random_elements(s3_bundle, klein_twisted):
    rng = np.random.default_rng(2)
    cases = [(s3_bundle, None)]
    g, w = klein_twisted
    cases.append((g, normalize_cocycle(g, w)))
    for g, w in cases:
        basis = build_basis(g, symmetric=True)
        space = l2_space(g)
        alg = algebra(g, w, space=space)
        for _ in range(10):
            a = random_algebra_element(alg, rng)
            data = fourier(g, w, a, basis, alg=alg, space=space)
            assert data.residual < 1e-10
            assert data.parseval_gap < 1e-9


def test_fourier_parseval_on_non_pmp_groupoids():
    # |a 1|^2 weights the coefficient at arrow b by the mass of s(b), not of t(b)
    rng = np.random.default_rng(5)
    cases = [mk.random_twisted_pair(seed) for seed in range(12)]
    cases += [(mk.random_groupoid(seed), None) for seed in range(12)]
    cases = [(g, w) for g, w in cases if not g.flags.pmp]
    assert len(cases) >= 10
    for g, w in cases:
        basis = build_basis(g, symmetric=True)
        space = l2_space(g)
        alg = algebra(g, w, space=space)
        for _ in range(3):
            data = fourier(g, w, random_algebra_element(alg, rng), basis, alg=alg, space=space)
            assert data.parseval_gap < 1e-12


@pytest.mark.parametrize("family", ["full2", "full3", "klein4", "klein4-twisted", "s3-bundle",
                                    "swap"])
def test_fourier_tolerances_scale_with_the_element(family):
    # rounding grows with |op| and phi(a*a): at scale 1e6 the Parseval gap
    # of a valid element was 4.9e-4 on klein4 and swap, over an absolute 1e-9
    g, w = mk.NAMED_INSTANCES[family]()
    basis, space = build_basis(g, symmetric=True), l2_space(g)
    alg = algebra(g, w, space=space)
    rng = np.random.default_rng(0)
    c = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9):
        op = alg.element(scale * c)
        data = fourier(g, w, op, basis, alg=alg, space=space)
        assert data.residual <= 1e-10 * max(1.0, np.linalg.norm(op))
        assert data.parseval_gap <= 1e-9 * max(1.0, np.vdot(op @ space.unit_vector,
                                                            op @ space.unit_vector).real)


def test_fourier_takes_no_svd(monkeypatch):
    # the residual is the Frobenius norm of the reconstruction error, an
    # upper bound on the spectral norm, which was a full SVD of the n x n
    # error on every call (n = 576 here); np.linalg.norm finds svd in the
    # globals of its module, so it is refused there too
    g, w = mk.NAMED_INSTANCES["s4-translation"]()
    basis, space = build_basis(g, symmetric=True), l2_space(g)
    alg = algebra(g, w, space=space)
    op = random_algebra_element(alg, np.random.default_rng(0))

    def refuse(*args, **kwargs):
        raise AssertionError("an SVD was taken")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", refuse)
    data = fourier(g, w, op, basis, alg=alg, space=space)
    assert data.residual <= 1e-10 * max(1.0, np.linalg.norm(op))
    assert data.parseval_gap <= 1e-9 * max(1.0, np.vdot(op @ space.unit_vector,
                                                        op @ space.unit_vector).real)


def test_fourier_rejects_asymmetric(full2):
    space = l2_space(full2)
    alg = algebra(full2)
    basis = build_basis(full2, symmetric=True)
    crooked = basis.__class__(
        blocks=(basis.blocks[0], ("r|x0|x1",), ("r|x1|x0",)),
        symmetric=False,
        unit_block=0,
    )
    with pytest.raises(AsymmetricBasis):
        fourier(full2, None, np.eye(space.dim, dtype=complex), crooked)


def test_support_lemma_numerics(z2_bundle, klein_twisted):
    # numerically central elements have unit-space image supported on isotropy
    for g, w in ((z2_bundle, None), klein_twisted):
        wn = normalize_cocycle(g, w) if w is not None else None
        space = l2_space(g)
        alg = algebra(g, wn)
        iso = g.iso_subgroupoid()
        for op in central_matrices(alg, center(g, wn, alg=alg)):
            vals = space.function_values(j_map(g, op, space))
            off = math.fsum(
                abs(vals[a]) ** 2 * g.mass[g.src[a]]
                for a in space.index if a not in iso
            )
            total = math.fsum(
                abs(vals[a]) ** 2 * g.mass[g.src[a]] for a in space.index
            )
            assert off <= 1e-8 * max(total, 1e-30)


def test_conjugation_invariance_of_central_vectors(z2_bundle):
    g = z2_bundle
    space = l2_space(g)
    alg = algebra(g)
    for op in central_matrices(alg, center(g, alg=alg)):
        vals = space.function_values(j_map(g, op, space))
        for h in g.iso_subgroupoid():
            for a in by_source(g, g.src[h]):
                c = conjugate(g, a, h)
                if c is not None and g.mass[g.src[h]] > 0:
                    assert vals[c] == pytest.approx(vals[h], abs=1e-8)


def test_twisted_conjugation_identity(klein_twisted):
    g, w = klein_twisted
    wn = normalize_cocycle(g, w)
    space = l2_space(g)
    alg = algebra(g, wn)
    for op in central_matrices(alg, center(g, wn, alg=alg)):
        vals = space.function_values(j_map(g, op, space))
        for h in g.iso_subgroupoid():
            for a in by_source(g, g.src[h]):
                c = conjugate(g, a, h)
                lhs = as_complex(wn(c, a)) * vals[c]
                rhs = as_complex(wn(a, h)) * vals[h]
                assert lhs == pytest.approx(rhs, abs=1e-8)


def test_commutation_theorem_twisted(klein_twisted):
    g, w = klein_twisted
    wn = normalize_cocycle(g, w)
    left = algebra(g, wn, "left")
    right = algebra(g, wn.conjugate_cocycle(), "right")
    c = commutant(left.basis_ops)
    assert c.dim == right.dim
    eq, res = subspaces_equal(c, right, 1e-8)
    assert eq and res < 1e-8


def test_factoriality_reports(z2, full2, klein_twisted):
    rep = factoriality_report(full2)
    assert rep.factor and rep.icc and rep.ergodic and rep.consistent

    rep = factoriality_report(z2)
    assert not rep.factor and not rep.icc and rep.consistent

    g, w = klein_twisted
    rep = factoriality_report(g, w)
    assert rep.twisted and rep.factor and rep.icc and rep.kleppner and rep.consistent
    rep = factoriality_report(g)
    assert not rep.factor and rep.center_dim == 4 and rep.consistent


def test_report_reads_composition_table_once(monkeypatch):
    # the center and the structure check reuse what algebra read
    g, w = mk.random_twisted_pair(2)
    calls = {"_structure_constants": 0, "l2_space": 0}
    for name in calls:
        real = getattr(vna, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(vna, name, counted)
    rep = factoriality_report(g, w)
    assert rep.twisted and rep.consistent
    assert calls == {"_structure_constants": 1, "l2_space": 1}


def test_report_forms_no_operator_after_algebra(monkeypatch):
    # algebra checks its identity on the entries, and center, invariants and
    # containment see only n-vectors: a report builds no n x n operator
    s4 = mk.symmetric_group(4)
    bundle = mk.group_bundle({u: s4 for u in ("y0", "y1", "y2")},
                             {"y0": 0.2, "y1": 0.3, "y2": 0.5})
    calls = {"multiplication_operator": 0, "_scatter": 0}
    for name in calls:
        real = getattr(vna, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(vna, name, counted)
    for g, w in (mk.random_twisted_pair(2), (bundle, None)):
        calls.update(dict.fromkeys(calls, 0))
        assert factoriality_report(g, w).consistent
        assert calls == {"multiplication_operator": 0, "_scatter": 0}


def test_center_reads_only_the_algebra():
    g, w = mk.random_twisted_pair(2)
    alg = algebra(g, w)
    z, ref = center(None, None, alg=alg), center(g, w)
    assert z.dim == ref.dim and z.observed_gap == ref.observed_gap
    assert subspaces_equal(z, ref)[0]


def test_paired_row_gram_matches_the_sorted_rows(klein_twisted, s3_bundle):
    # center's Gram from one bincount of the diagonal and the paired rows'
    # products, against the row-by-row sum over K's rows found by sorting
    cases = [(s3_bundle, None), (mk.NAMED_INSTANCES["full3"]()[0], None), klein_twisted]
    cases += [mk.random_twisted_pair(seed) for seed in range(4)]  # twisted, non-pmp
    cases += [(mk.random_groupoid(seed), None) for seed in range(6)]
    assert any(not g.flags.pmp for g, _ in cases)
    for g, w in cases:
        alg = algebra(g, w)
        n = alg.matrix_dim
        norms = np.sqrt(np.bincount(alg.forms[0], minlength=n))
        row, col, term = vna._gram_entries(alg, *vna._commutator_rows(alg, norms))
        gram = np.zeros((n, n), dtype=complex)
        np.add.at(gram, (row, col), term)
        want = sorted_row_gram(alg)
        # sigma_max^2 floored at 1, as center scales its cut: K is 0 on a
        # commutative algebra, where its diagonal terms cancel to rounding
        scale = max(1.0, np.linalg.eigvalsh(want).max())
        assert np.abs(gram - want).max() <= 1e-14 * scale


def test_center_does_not_read_the_structural_side(monkeypatch, klein_twisted, s3_bundle):
    # the blocks come from K's entries alone, not from the conjugacy classes
    from factoroid import conjugacy

    cases = [klein_twisted, (s3_bundle, None), mk.random_twisted_pair(2)]
    algs = [algebra(g, w) for g, w in cases]
    refs = [center(None, None, alg=alg) for alg in algs]

    def refuse(*args, **kwargs):
        raise AssertionError("center read the structural side")

    for name in ("conjugacy_class", "is_icc"):
        monkeypatch.setattr(conjugacy, name, refuse)
    monkeypatch.setattr(vna, "is_icc", refuse)
    for alg, ref, dim in zip(algs, refs, (1, 3, 1)):
        z = center(None, None, alg=alg)
        assert z.dim == ref.dim == dim and z.observed_gap == ref.observed_gap
        assert np.array_equal(z.basis_ops, ref.basis_ops)


@pytest.mark.parametrize("build, largest, dim", [
    (lambda: mk.NAMED_INSTANCES["s4-translation"]()[0], 24, 1),  # n = 576; one block, the 24 unit arrows
    (lambda: mk.sn_bundle(5)[0], 30, 17),  # the 4-cycles of S5; classes of S2..S5
], ids=["s4-translation", "sn-bundle-5"])
def test_center_takes_the_spectrum_block_by_block(monkeypatch, build, largest, dim):
    # K^H K is block diagonal over the conjugacy classes of isotropy arrows,
    # so no eigh sees more than the largest class
    g = build()
    alg = algebra(g)
    seen = []
    real = np.linalg.eigh

    def spy(a, *args, **kwargs):
        seen.append(np.shape(a)[-1])
        return real(a, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", spy)
        z = center(g, alg=alg)
    assert seen and max(seen) <= largest < alg.matrix_dim
    assert z.dim == dim


def test_center_confirms_several_candidates_per_block(monkeypatch):
    # with the candidate cut lifted, every eigenvector of every block (up to
    # 8 in a block here, the 3-cycles of S4) is confirmed in the batched pass;
    # the verdict is unchanged, and each residual |Kv| / |x|_F is sigma / |L_a|_F,
    # as |L_a|_F is constant on a conjugacy class.  Below sigma = 1e-3 the
    # squared spectrum is rounding noise (one null vector reads 5.6e-7), and
    # the direct residual is what tells the null vectors
    g = mk.sn_bundle(4)[0]
    alg = algebra(g)
    ref = center(g, alg=alg)
    seen = []
    real = vna._null_algebra

    def spy(eigvals, confirm, tol):
        def checked(cand):
            x, res = confirm(cand)
            seen.append((eigvals[cand], x, res))
            return x, res

        return real(eigvals, checked, tol)

    monkeypatch.setattr(vna, "_CANDIDATE_CUT", np.inf)
    monkeypatch.setattr(vna, "_null_algebra", spy)
    z = center(g, alg=alg)
    assert z.dim == ref.dim == 10 and z.observed_gap == ref.observed_gap
    assert subspaces_equal(z, ref)[0]
    (eigvals, x, res), = seen
    assert len(res) == alg.matrix_dim
    norms = np.sqrt(np.bincount(alg.forms[0], minlength=alg.matrix_dim))
    sigma = np.sqrt(np.maximum(eigvals, 0.0))
    at, big = np.abs(x).argmax(axis=1), sigma > 1e-3
    assert np.allclose(res[big] * norms[at[big]], sigma[big], rtol=1e-9)
    assert (res[~big] < 1e-12).all() and (~big).sum() == z.dim


def test_report_requires_nonsingular():
    from factoroid.groupoid import GroupoidError, validate_groupoid

    g = validate_groupoid(
        from_names(
            ["x0", "x1"],
            {"x0": 1.0, "x1": 0.0},
            [("e0", "x0", "x0"), ("e1", "x1", "x1"),
             ("a", "x0", "x1"), ("b", "x1", "x0")],
            [("e0", "e0", "e0"), ("e1", "e1", "e1"), ("a", "e0", "a"), ("e1", "a", "a"),
             ("b", "e1", "b"), ("e0", "b", "b"), ("a", "b", "e1"), ("b", "a", "e0")],
            {"e0": "e0", "e1": "e1", "a": "b", "b": "a"},
            {"x0": "e0", "x1": "e1"},
        )
    )
    assert not g.flags.nonsingular
    with pytest.raises(GroupoidError):
        factoriality_report(g)


def test_report_with_no_positive_arrow():
    # every unit null: the space, the algebra and the center are all empty
    from factoroid.groupoid import validate_groupoid

    g = validate_groupoid(from_names(
        ["x"], {"x": 0.0}, [("e", "x", "x")], [("e", "e", "e")], {"e": "e"},
        {"x": "e"}, unnormalized=True,
    ))
    assert algebra(g).matrix_dim == 0
    rep = factoriality_report(g)
    assert rep.positive_arrows == rep.center_dim == rep.invariant_dim == 0
    assert rep.center_gap == (0.0, math.inf) and rep.center_equals_invariant


def test_report_with_exact_masses():
    from fractions import Fraction

    g = mk.full_relation(
        ["x0", "x1", "x2"],
        {u: float(Fraction(1, 3)) for u in ["x0", "x1", "x2"]},
        exact_mass={u: Fraction(1, 3) for u in ["x0", "x1", "x2"]},
    )
    assert g.flags.pmp and g.flags.mass_normalized
    rep = factoriality_report(g)
    assert rep.factor and rep.consistent

    uneven = mk.group_bundle(
        {"x0": mk.cyclic_group(2), "x1": mk.cyclic_group(3)},
        {"x0": 0.25, "x1": 0.75},
        exact_mass={"x0": Fraction(1, 4), "x1": Fraction(3, 4)},
    )
    rep = factoriality_report(uneven)
    assert rep.center_dim == 5 and rep.consistent


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 800))
def test_center_contains_invariants_randomly(seed):
    g = mk.random_groupoid(seed)
    z = center(g)
    inv = invariant_subalgebra(g)
    ok, res = subspace_leq(inv, z, 1e-8)
    assert ok, res
