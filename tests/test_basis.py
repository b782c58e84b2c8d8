import pytest
from hypothesis import given, settings, strategies as st

from factoroid import constructors as mk
from factoroid.basis import Basis, build_basis, check_basis, conjugate_basis, extend_iso_basis
from factoroid.groupoid import GroupoidError

from references import inv_set, mul_sets, trivial_groupoid


def block_sets(basis):
    return [frozenset(b) for b in basis.blocks]


def test_trivial_groupoid_single_block():
    g = trivial_groupoid(["x0", "x1"], {"x0": 0.5, "x1": 0.5})
    basis = build_basis(g, symmetric=True)
    assert len(basis.blocks) == 1
    assert frozenset(basis.blocks[0]) == g.unit_arrow_set


def test_z2_basis(z2):
    basis = build_basis(z2, symmetric=True)
    assert block_sets(basis) == [frozenset({"pt.0"}), frozenset({"pt.1"})]
    assert basis.symmetric and basis.unit_block == 0


def test_full2_basis_symmetric_splits(full2):
    sym = build_basis(full2, symmetric=True)
    loose = build_basis(full2, symmetric=False)
    # symmetric splitting gives singleton off-diagonal blocks, the greedy
    # asymmetric run packs both off-diagonal arrows into one bisection
    assert frozenset({"r|x0|x1"}) in block_sets(sym)
    assert frozenset({"r|x1|x0"}) in block_sets(sym)
    assert frozenset({"r|x0|x1", "r|x1|x0"}) in block_sets(loose)
    for basis in (sym, loose):
        assert frozenset().union(*block_sets(basis)) == frozenset(full2.arrow_order)


def test_basis_blocks_are_disjoint_bisections(s3_bundle):
    basis = build_basis(s3_bundle, symmetric=True)
    check_basis(s3_bundle, basis)
    seen = set()
    for block in basis.blocks:
        assert s3_bundle.is_bisection(block)
        assert not (seen & set(block))
        seen |= set(block)
    assert seen == set(s3_bundle.arrow_order)


def test_orthogonality_surrogate(full3, s3_bundle):
    # distinct blocks never produce units when one is inverted against the other
    for g in (full3, s3_bundle):
        basis = build_basis(g, symmetric=True)
        for i, b in enumerate(basis.blocks):
            for j, c in enumerate(basis.blocks):
                prod = mul_sets(g, inv_set(g, c), b)
                if i == j:
                    assert prod & g.unit_arrow_set
                else:
                    assert not (prod & g.unit_arrow_set)


def test_build_basis_deterministic(full3):
    assert build_basis(full3, True).blocks == build_basis(full3, True).blocks


def test_mass_decomposes_over_blocks(z4_translation):
    g = z4_translation
    basis = build_basis(g, symmetric=True)
    total = sum(g.arrow_measure(b, "source") for b in basis.blocks)
    assert total == pytest.approx(g.arrow_measure(g.arrow_order, "source"))


def test_conjugate_basis_identity_window(full2):
    basis = build_basis(full2, symmetric=True)
    conj = conjugate_basis(full2, basis, full2.unit_arrow_set)
    assert block_sets(conj) == block_sets(basis)


def test_conjugate_basis_abelian(z2):
    basis = build_basis(z2, symmetric=True)
    conj = conjugate_basis(z2, basis, ["pt.1"])
    assert block_sets(conj) == block_sets(basis)


def test_conjugate_basis_to_one_unit(full2):
    basis = build_basis(full2, symmetric=True)
    conj = conjugate_basis(full2, basis, ["r|x0|x1"])  # arrow x1 -> x0
    # C G C^-1 is the isotropy of x0: only its unit arrow here
    union = frozenset().union(*block_sets(conj))
    assert union == frozenset({"r|x0|x0"})
    assert conj.unit_block == 0


def test_conjugate_basis_symmetric_preserved(s3_bundle):
    basis = build_basis(s3_bundle, symmetric=True)
    window = next(b for b in basis.blocks if "pt.102" in b)
    conj = conjugate_basis(s3_bundle, basis, window)
    sets = set(block_sets(conj))
    for b in conj.blocks:
        assert frozenset(s3_bundle.inverse[a] for a in b) in sets


def test_extend_iso_basis_principal(full3):
    iso_blocks = Basis((tuple(sorted(full3.unit_arrow_set)),), True, 0)
    basis = extend_iso_basis(full3, iso_blocks)
    check_basis(full3, basis)
    assert frozenset().union(*block_sets(basis)) == frozenset(full3.arrow_order)


def test_extend_iso_basis_group_case(z3):
    iso = build_basis(z3, symmetric=True)
    ext = extend_iso_basis(z3, iso)
    assert ext.blocks == iso.blocks  # no non-isotropy arrows to add


def test_extend_iso_basis_swap(swap_groupoid):
    g = swap_groupoid
    iso_blocks = Basis((tuple(sorted(g.unit_arrow_set)),), True, 0)
    ext = extend_iso_basis(g, iso_blocks)
    check_basis(g, ext)
    off = [b for b in ext.blocks if not (set(b) & g.unit_arrow_set)]
    assert sum(len(b) for b in off) == 2


def test_extend_rejects_partial_iso_cover(s3_bundle):
    with pytest.raises(GroupoidError):
        extend_iso_basis(
            s3_bundle, Basis((tuple(sorted(s3_bundle.unit_arrow_set)),), True, 0)
        )


_UNITS3 = ("r|x0|x0", "r|x1|x1", "r|x2|x2")


@pytest.mark.parametrize("blocks, unit_block, message", [
    ((_UNITS3, ()), 0, "empty basis block"),
    ((_UNITS3, ("r|x0|x1", "r|x0|x2")), 0, "basis block is not a bisection"),
    ((_UNITS3, ("r|x0|x1",), ("r|x0|x1",)), 0, "basis blocks are not disjoint"),
    ((_UNITS3, ("r|x0|x1",)), 0, "basis blocks do not cover the arrow set"),
    ((_UNITS3, ("r|x0|x1", "r|x1|x2", "r|x2|x0"), ("r|x1|x0", "r|x2|x1", "r|x0|x2")), 1,
     "designated unit block is not the unit arrows"),
    ((_UNITS3, ("r|x0|x1", "r|x1|x0"), ("r|x1|x2", "r|x2|x0"), ("r|x2|x1",), ("r|x0|x2",)), 0,
     "symmetric basis not closed under inversion"),
])
def test_check_basis_names_each_broken_axiom(full3, blocks, unit_block, message):
    with pytest.raises(GroupoidError, match=f"^{message}$"):
        check_basis(full3, Basis(blocks, symmetric=True, unit_block=unit_block))


@pytest.mark.parametrize("window, message", [
    (["r|x0|x0", "r|x0|x1"], "conjugating set must be a bisection"),  # both into x0
    ([], "conjugation of the unit block vanished"),
])
def test_conjugate_basis_rejects(full2, window, message):
    with pytest.raises(GroupoidError, match=f"^{message}$"):
        conjugate_basis(full2, build_basis(full2, symmetric=True), window)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2000), symmetric=st.booleans())
def test_random_basis_axioms(seed, symmetric):
    g = mk.random_groupoid(seed)
    basis = build_basis(g, symmetric=symmetric)
    check_basis(g, basis)
    if symmetric:
        sets = set(frozenset(b) for b in basis.blocks)
        for b in basis.blocks:
            assert frozenset(g.inverse[a] for a in b) in sets
