"""Matrix realizations of twisted groupoid von Neumann algebras.

Operators act on the weighted sequence space over the positive-mass arrows,
in orthonormal coordinates e_g = delta_g / sqrt(mass(src(g))).  In these
coordinates the matrix adjoint is the operator adjoint, left translations
are pure-phase partial permutations, and right translations carry a
source/target mass ratio.

Every single-arrow translation is monomial: each column holds at most one
entry.  ``algebra`` reads the composition table once, into structure
constants (pairs (a, b), products ab, phases w(a, b)) taken from the
groupoid's ``PairTable``.  These P entries, one per composable pair, are
the only form of the translations: ``_column_forms`` gives them as four
P-long arrays (arrow, column, row, value), the structure constants as they
are on the left and relabelled on the right, and ``TranslationAlgebra``
keeps only these arrays and n, never an n x n array or an n x n x n stack.
The product rule L_a L_b = w(a,b) L_ab holds on these entries exactly when
(ab)h = a(bh) and w(a,b) w(ab,h) = w(b,h) w(a,bh) on every composable
triple, which ``validate_groupoid`` and ``validate_cocycle`` check on the
tables (the twisted convolution identity of Renault, LNM 793).  The same
checks, with a normalized cocycle, give the adjoint rule L_a^* = L_{a^-1}
(and its right-hand form), full rank and the identity, so ``algebra``
checks none of them again (its docstring has the arguments).  Distinct
translations have disjoint supports, so they are an orthogonal basis of
their span and membership needs no SVD.  Entry p is the p-th pair of the
composition table of the positive-mass arrows, ``L2Space.pairs``, which
the algebra keeps: the partner of an entry in ``center`` is read at its
pair position (start[y] + rank[x]) rather than found by sorting keys.

``center`` reads the commutator map c -> ([sum_a c_a L_a, L_b])_b off the
left entries as a sparse matrix K with at most 2P rows, since
[L_a, L_b] = w(a,b) L_ab - w(b,a) L_ba and distinct translations are
orthogonal.  A row of K has two entries only for a pair (a, b) with a a
loop, and its second entry is read off the pair index; the diagonal of
K^H K is one ``bincount``, and only those paired rows add products.  K^H K
is block diagonal over the conjugacy classes of isotropy arrows (the
splitting over orbits into matrix algebras over twisted isotropy group
algebras, B. Steinberg, Adv. Math. 223, 2010), and ``center`` takes its
spectrum block by block.  A report forms no n x n operator: ``center`` and
``invariant_subalgebra`` keep the coordinates y_a = |L_a|_F c_a of x =
sum_a c_a L_a over the orthonormal frame L_a / |L_a|_F, an isometry, so
``subspaces_equal`` gets the matrices' ranks and residuals from n-vectors.
Both spans are orthonormal by construction: the center's accepted vectors
are unit eigenvectors of one block each (|L_a|_F is constant on a conjugacy
class), and the orbit diagonals have disjoint supports and are divided by
their norms.  So ``MatrixStarAlgebra`` takes its rows as they are, with no
SVD, and checks once that they are orthonormal.  The dense oracle for
``center``, which builds the whole Gram matrix from dense products and also
computes full commutants, lives in ``tests/dense_oracle.py`` with the SVD
span that holds its elements; the package itself needs numpy alone.

Rank and nullspace decisions use an explicit tolerance.  Nullspaces are read
off the spectrum of a Gram matrix (its eigenvalues are the squared singular
values), and every candidate null vector is confirmed against its directly
computed commutator residual, which keeps the tolerance honest at 1e-9 even
where squaring would lose precision; the observed spectral gap is recorded.
``center`` and the dense oracle share this rule, ``_null_algebra``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .cocycle import Cocycle, _normalized, complex_array, kleppner_holds, twisted_icc
from .conjugacy import is_icc
from .groupoid import GroupoidError, MeasuredGroupoid, PairTable

if TYPE_CHECKING:
    from .basis import Basis

RANK_TOL = 1e-9
CONTAINMENT_TOL = 1e-8
FOURIER_RESIDUAL_TOL = 1e-10
PARSEVAL_TOL = 1e-9

# generous first cut when picking nullspace candidates from a Gram spectrum;
# final membership is decided by direct residuals at the caller's tolerance
_CANDIDATE_CUT = 1e-5

# entries of the arrays that subspace_leq projects in one product (4 MiB of
# complex); bounds its working arrays whatever the dimension of the span
_PROJECT_BLOCK = 1 << 18

# positions of a, b and ab and the phase w(a, b), over the composable pairs
_Constants = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class NotInAlgebra(GroupoidError):
    pass


class InternalInconsistency(GroupoidError):
    """Two computations that must agree did not: a defect, not bad input."""


class AsymmetricBasis(GroupoidError):
    pass


@dataclass(frozen=True)
class L2Space:
    """Orthonormalized coordinates on the positive-mass arrows.

    ``pairs`` is the composition table of the positive-mass arrows in these
    coordinates' positions, and ``pair_positions`` indexes its pairs in
    ``groupoid.pairs`` (a slice if all): the positive-mass arrows are the groupoid
    over the positive units, a union of orbits when it is nonsingular.
    """

    groupoid: MeasuredGroupoid
    weights: np.ndarray
    sqrt_weights: np.ndarray
    pairs: PairTable
    pair_positions: np.ndarray | slice

    @property
    def dim(self) -> int:
        return len(self.weights)

    @functools.cached_property
    def index(self) -> tuple[str, ...]:
        """The arrow id of each coordinate (``pos`` the reverse), on first read."""
        g = self.groupoid
        return tuple(compress(g.arrow_order, (g.unit_masses > 0.0)[g.pairs.src]))

    @functools.cached_property
    def unit_vector(self) -> np.ndarray:
        """The unit-space indicator: sqrt(weight) at each unit arrow, on first read."""
        t = self.pairs
        return (self.sqrt_weights * (t.unit_arrow[t.src] == np.arange(self.dim))).astype(complex)

    @functools.cached_property
    def pos(self) -> dict[str, int]:
        return dict(zip(self.index, range(len(self.index))))

    def function_values(self, vec: np.ndarray) -> dict[str, complex]:
        """Translate orthonormal coordinates back to function values."""
        vals = np.asarray(vec) / self.sqrt_weights
        return {g: complex(vals[i]) for i, g in enumerate(self.index)}

    def unit_values(self, vec: np.ndarray) -> dict[str, complex]:
        """Function values at the positive-mass unit arrows, keyed by unit."""
        vals = self.function_values(vec)
        g = self.groupoid
        return {u: vals[g.unit_arrow[u]] for u in g.units if g.unit_arrow[u] in self.pos}


def l2_space(g: MeasuredGroupoid) -> L2Space:
    if not g.flags.nonsingular:
        raise GroupoidError(
            "representation requires a nonsingular groupoid "
            "(null units must only connect to null units)"
        )
    pairs, pair_positions = g.pairs.over(g.unit_masses > 0.0)
    weights = g.unit_masses[pairs.src]
    return L2Space(g, weights, np.sqrt(weights), pairs, pair_positions)


def _column_forms(constants: _Constants, side: str, space: L2Space) -> _Constants:
    """Entries of the translations by all positive-mass arrows.

    T_a sends e_col to val e_row for each entry (arrow, col, row, val) with
    arrow a; there is one entry per composable pair.  The pair (a, h) gives
    column h of L_a: e_h -> w(a, h) e_{ah}, so the left entries are the
    structure constants as they are.  The pair (h, a^-1) gives column h of
    R_a: e_h -> conj(w(h, a^-1)) sqrt(m(t(a))/m(s(a))) e_{h a^-1}; the mass
    ratio is the price of writing the right translation on the
    source-weighted space (it is 1 in the pmp case).
    """
    i, j, k, phase = constants
    if side == "left":
        return constants
    if side != "right":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    val = phase.conj() * np.sqrt(space.weights[k] / space.weights[i])
    return space.pairs.inv[j], i, k, val


def _scatter(forms: _Constants, n: int, coef: np.ndarray) -> np.ndarray:
    """The n x n matrix sum_a coef[a] T_a of translations given by entries."""
    arrow, col, row, val = forms
    at = row * n + col
    terms = np.asarray(coef)[arrow] * val
    flat = np.bincount(at, terms.real, n * n) + 1j * np.bincount(at, terms.imag, n * n)
    return flat.reshape(n, n)


def multiplication_operator(
    space: L2Space, f: Mapping[str, complex]
) -> np.ndarray:
    """Diagonal action of a function on units: e_h -> f(tgt(h)) e_h."""
    g = space.groupoid
    diag = np.array([complex(f.get(g.tgt[h], 0.0)) for h in space.index])
    return np.diag(diag)


class _Span:
    """Membership of one array, from the batched ``residuals`` of a span."""

    tol: float

    def contains(self, mat: np.ndarray, tol: Optional[float] = None) -> tuple[bool, float]:
        """Span membership: (verdict, relative projection residual)."""
        residual = float(self.residuals(np.asarray(mat)[None])[0])
        return residual <= (self.tol if tol is None else tol), residual


class MatrixStarAlgebra(_Span):
    """The linear span of orthonormal arrays (flattened), each one a basis
    row.  ``center`` and ``invariant_subalgebra`` keep n-vectors of
    coordinates over the orthonormal frame L_a / |L_a|_F.

    The rows are orthonormal by construction, so the rank is their number
    and projection needs no SVD.  That is checked once, at ``RANK_TOL``
    whatever the containment ``tol``: a defect above it (or a NaN) is a
    broken invariant and raises ``InternalInconsistency``.
    """

    def __init__(
        self,
        rows: Sequence[np.ndarray],
        tol: float = RANK_TOL,
        observed_gap: Optional[tuple[float, float]] = None,
    ):
        self.basis_ops = ops = np.asarray(rows, dtype=complex)
        self.tol = tol
        self.observed_gap = observed_gap
        self._rows = ops.reshape(len(ops), math.prod(ops.shape[1:]))
        self.dim = len(ops)
        gram = self._rows @ self._rows.conj().T
        gram.flat[:: self.dim + 1] -= 1.0  # less the identity
        defect = float(np.abs(gram).max(initial=0.0))
        if not defect <= RANK_TOL:
            raise InternalInconsistency(f"span rows are not orthonormal (defect {defect})")

    def residuals(self, ops: np.ndarray) -> np.ndarray:
        """The relative residual of projecting each array of ``ops`` on the
        span, all in one product; 0 for a zero array."""
        flat = ops.reshape(len(ops), math.prod(ops.shape[1:]))
        # the projector is sum_i r_i <r_i, v>, with the Hermitian product
        # conjugate-linear on the left; an empty span may not know the length of v
        proj = (flat @ self._rows.conj().T) @ self._rows if self.dim else 0.0
        return _relative(flat - proj, flat)


class TranslationAlgebra(_Span):
    """The span of the translations by single arrows, kept as their entries.

    ``forms`` holds the P entries (arrow, col, row, val) of ``_column_forms``:
    translation a sends e_col to val e_row for each entry with arrow a.
    Every translation has an entry and distinct ones have disjoint supports,
    so they are an orthogonal basis of their span, of dimension n:
    membership projects by the coefficients c_a = <T_a, x> / |T_a|_F^2, and
    nothing of size n^3 is formed unless ``basis_ops`` is read.  ``pairs``
    is the composition table of the arrows (``L2Space.pairs``), entry p
    being its pair p; ``center`` reads it.
    """

    def __init__(
        self, forms: _Constants, n: int, tol: float = RANK_TOL, pairs: Optional[PairTable] = None
    ):
        self.forms = forms
        self.pairs = pairs
        self.matrix_dim = self.dim = n
        self.tol = tol

    @functools.cached_property
    def _scale(self) -> np.ndarray:  # 1 / |T_a|_F^2 by arrow, read by ``residuals`` alone
        arrow, _, _, val = self.forms
        return 1.0 / np.bincount(arrow, val.real ** 2 + val.imag ** 2, self.matrix_dim)

    @property
    def basis_ops(self) -> np.ndarray:
        """The translations as a dense n x n x n stack, built on each read."""
        arrow, col, row, val = self.forms
        ops = np.zeros((self.matrix_dim,) * 3, dtype=complex)
        ops[arrow, row, col] = val
        return ops

    def element(self, coef: np.ndarray) -> np.ndarray:
        """sum_a coef[a] T_a as an n x n matrix."""
        return _scatter(self.forms, self.matrix_dim, coef)

    def residuals(self, ops: np.ndarray) -> np.ndarray:
        """The relative residual of projecting each n x n matrix of ``ops``
        on the span; 0 for a zero matrix."""
        ops = np.asarray(ops, dtype=complex)
        arrow, col, row, val = self.forms
        # <T_a, x> pairs each entry of T_a with the entry of x at its place
        inner = np.zeros((self.matrix_dim, len(ops)), dtype=complex)
        np.add.at(inner, arrow, (val.conj() * ops[:, row, col]).T)
        proj = np.zeros(ops.shape, complex)  # entries of distinct translations never share a place
        proj[:, row, col] = (inner.T * self._scale)[:, arrow] * val
        shape = (len(ops), math.prod(ops.shape[1:]))
        return _relative((ops - proj).reshape(shape), ops.reshape(shape))


def _relative(diff: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """|diff_i| / |flat_i| for each row; 0 for a zero row, NaN for a NaN one.
    The row norms are reduced as ``np.linalg.norm(x, axis=1)`` reduces them,
    so they are its bits, without its Python wrapper."""
    residual, norm = (np.sqrt(np.add.reduce((x.conj() * x).real, axis=1)) for x in (diff, flat))
    return np.divide(residual, norm, out=np.zeros(len(residual)), where=norm != 0.0)


def subspace_leq(
    a: TranslationAlgebra | MatrixStarAlgebra,
    b: TranslationAlgebra | MatrixStarAlgebra,
    tol: float = CONTAINMENT_TOL,
) -> tuple[bool, float]:
    """Whether span(a) is contained in span(b): the basis arrays of a
    projected on span(b) a block of rows at a time, each block at most
    _PROJECT_BLOCK entries; returns the worst residual (NaN if any is)."""
    ops = a.basis_ops
    step = max(1, _PROJECT_BLOCK // max(1, math.prod(ops.shape[1:])))
    blocks = [b.residuals(ops[i : i + step]) for i in range(0, len(ops), step)]
    worst = float(np.concatenate(blocks).max(initial=0.0)) if blocks else 0.0
    return worst <= tol, worst


def subspaces_equal(
    a: TranslationAlgebra | MatrixStarAlgebra,
    b: TranslationAlgebra | MatrixStarAlgebra,
    tol: float = CONTAINMENT_TOL,
) -> tuple[bool, float]:
    ok_ab, res_ab = subspace_leq(a, b, tol)
    ok_ba, res_ba = subspace_leq(b, a, tol)
    return ok_ab and ok_ba, max(res_ab, res_ba)


def _null_algebra(
    eigvals: np.ndarray,
    confirm: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    tol: float,
) -> tuple[np.ndarray, tuple[float, float]]:
    """The confirmed null vectors of a commutator map, and the observed gap.

    ``eigvals`` is the spectrum of the map's Gram matrix, its squared
    singular values, taken whole or as the union of its diagonal blocks'
    spectra.  ``confirm(cand)`` maps the eigenvectors at the
    positions ``cand`` below the candidate cut to their elements x, matrices
    or coordinate vectors, and to their directly computed commutator
    residuals (inf drops one); x is accepted when its residual is at most
    ``tol * max(1, sigma_max)``.  The observed gap is the largest accepted
    residual against the smallest singular value not accepted.
    """
    sigmas = np.sqrt(np.maximum(eigvals, 0.0))
    scale = max(1.0, float(sigmas.max(initial=0.0)))
    cand = (sigmas <= _CANDIDATE_CUT * scale).nonzero()[0]
    elements, residuals = confirm(cand)
    ok = residuals <= tol * scale
    rejected = np.bincount(cand[ok], minlength=len(sigmas)) == 0
    gap = (float(residuals[ok].max(initial=0.0)), float(sigmas[rejected].min(initial=np.inf)))
    return elements[ok], gap


def algebra(
    g: MeasuredGroupoid,
    w: Optional[Cocycle] = None,
    side: str = "left",
    *,
    space: Optional[L2Space] = None,
    tol: float = RANK_TOL,
) -> TranslationAlgebra:
    """The span of all translation operators of single arrows.

    An unnormalized cocycle is replaced by its normalized representative, so
    w is 1 on every pair with a unit arrow and on every (a^-1, a).  At finite
    dimension the span is then a unital *-algebra of rank n, and nothing is
    left to check: validation has proved it on the tables.

    - Products.  L_a L_b = w(a,b) L_ab (on the right side with conjugated
      phases) holds on the entries exactly when (ab)h = a(bh) and w(a,b)
      w(ab,h) = w(b,h) w(a,bh), the associativity and cocycle identity that
      ``validate_groupoid`` and ``validate_cocycle`` check.
    - Adjoint rule.  L_a holds w(a,h) at (ah, h) and L_{a^-1} holds
      w(a^-1, ah) at (h, ah), over the same columns h.  The cocycle identity
      on (a^-1, a, h) gives w(a^-1, a) = w(a,h) w(a^-1, ah), so w(a^-1, ah)
      = conj(w(a,h)) and L_a^* = L_{a^-1}.  On the right, the identity on
      (h, a^-1, a) gives w(h, a^-1) w(ha^-1, a) = 1, and the mass ratios
      sqrt(m(t(a))/m(s(a))) that ``_column_forms`` takes from
      ``space.weights`` make R_a^* = (m(t(a))/m(s(a))) R_{a^-1}.
    - Rank n.  Each translation has at least one entry, at the unit arrow of
      s(a), and an entry at (row, col) names its arrow (row col^-1 on the
      left, row^-1 col on the right), so the supports are disjoint and the n
      translations are orthogonal.
    - Identity.  L_{e_u} e_h = w(e_u, h) e_h = e_h for each h with target u,
      from the unit-arrow rows that ``validate_groupoid`` checks, so the sum
      of the unit translations is I (on the right, over the sources).
    """
    if space is None:
        space = l2_space(g)
    constants = _structure_constants(g, _normalized(g, w), space)
    return TranslationAlgebra(_column_forms(constants, side, space), space.dim, tol, space.pairs)


def _structure_constants(g: MeasuredGroupoid, w: Cocycle, space: L2Space) -> _Constants:
    """Positions of a, b and ab, and the phase w(a, b), over the composable
    pairs of positive-mass arrows (ab then has positive mass too), in the
    order of ``space.pairs``."""
    t = space.pairs
    return t.left, t.right, t.prod, complex_array(w.on(g)[space.pair_positions], w.turns)


def _commutator_rows(alg: TranslationAlgebra, norms: np.ndarray) -> tuple[np.ndarray, ...]:
    """The entries of ``center``'s K, read off ``alg.pairs`` and the norms |L_a|_F.

    Pair p = (a, b) puts value[p] = |L_ab|_F w(a,b) in column a of row
    (b, ab) and -value[p] in column b of row (a, ab).  The row (b, ab) of a
    loop pair p = loop[m] also holds the second entry of the pair mate[m] =
    (b, c), in column c[m] = b^-1 a b, the product of the pair (b^-1, ab);
    every other row has one entry.  Returns (value, loop, c, mate).
    """
    pairs, (i, j, k, phase) = alg.pairs, alg.forms
    value = phase * norms[k]
    loop = (pairs.src[i] == pairs.tgt[i]).nonzero()[0]
    b = j[loop]
    c = k[pairs.start[k[loop]] + pairs.rank[pairs.inv[b]]]
    return value, loop, c, pairs.start[c] + pairs.rank[b]


def _gram_entries(
    alg: TranslationAlgebra, value: np.ndarray, loop: np.ndarray, c: np.ndarray, mate: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K^H K for the rows of ``_commutator_rows`` as (row, column, term)
    triples: each diagonal entry, the sum of |value|^2 over its column's
    entries, and on each paired row u, conj(u_a) u_c at (a, c) and its
    conjugate at (c, a)."""
    n = alg.matrix_dim
    i, j = alg.forms[:2]
    square = value.real ** 2 + value.imag ** 2
    diagonal = np.bincount(np.concatenate([i, j]), np.concatenate([square, square]), n)
    a, every = i[loop], np.arange(n)
    cross = -(value[loop].conj() * value[mate])
    return (np.concatenate([every, a, c]), np.concatenate([every, c, a]),
            np.concatenate([diagonal, cross, cross.conj()]))


def center(
    g: MeasuredGroupoid,
    w: Optional[Cocycle] = None,
    *,
    alg: Optional[TranslationAlgebra] = None,
    tol: float = RANK_TOL,
) -> MatrixStarAlgebra:
    """Elements of the translation algebra commuting with all of it.

    ``alg`` is the left translation algebra of (g, w), built when not given;
    everything is read off its entries, one per composable pair: column b of
    L_a holds w(a,b) at row ab.  In its basis, [sum_a c_a L_a, L_b] =
    sum_a c_a (w(a,b) L_ab - w(b,a) L_ba), and distinct translations are
    orthogonal, so the commutator map is the matrix K with K[(b, k), a] =
    |L_k|_F (w(a,b) [ab = k] - w(b,a) [ba = k]) and K^H K is the Gram matrix
    that the dense oracle of the tests builds from matrix products.  Row (b, k)
    of K has at most two entries, at a = k b^-1 and at a = b^-1 k: the pair
    p = (a, b) puts |L_ab|_F w(a,b) in column a of row (b, ab) and minus that
    in column b of row (a, ab), so K has at most 2P occupied rows.

    A row (b, ab) has its second entry exactly when a is a loop: it is the
    one the pair q = (b, c) puts in column c = b^-1 a b, and q is read off
    the pair index ``alg.pairs`` (c is the product of the pair (b^-1, ab)).
    Both columns are isotropy arrows, conjugate to each other, so K^H K is
    block diagonal over the components of the graph that these paired rows
    draw on the columns, the conjugacy classes of isotropy arrows (the
    blocks of Steinberg's decomposition over orbits into matrix algebras
    over C^w G_x), and every other column is a 1 x 1 block.  The components
    are found from K's entries alone, in one hop: a loop a has a paired row
    for every b with t(b) = s(a), so its columns c are its whole class.
    Every diagonal entry of K^H K is a sum of |value|^2 over the column's
    entries, taken in one ``bincount``, and only the paired rows add
    products of two entries.  The spectrum of
    K^H K is the union of its blocks' spectra, from one batched ``eigh`` per
    block size.  A candidate v lives on one block, so Kv is nonzero only on
    that block's rows, and it is accepted when |Kv| / |x|_F <= tol * max(1,
    sigma_max), where x = sum_a c_a L_a and |x|_F = |(|L_a|_F c_a)_a|.

    Each row of ``basis_ops`` is an accepted x as the unit n-vector y_a =
    |L_a|_F c_a; ``alg.element(y / |L_a|_F)`` is its matrix.
    """
    if alg is None:
        alg = algebra(g, w, "left", tol=tol)
    n = alg.matrix_dim
    i, j = alg.forms[:2]  # the composable pairs (a, b)
    norms = np.sqrt(np.bincount(i, minlength=n))  # |L_a|_F^2 counts its entries
    value, loop, c, mate = entries = _commutator_rows(alg, norms)
    a = i[loop]
    lone = np.bincount(mate, minlength=len(i)) == 0  # the rows (a, ab) with one entry
    lone_col, lone_value = j[lone], value[lone]

    # the blocks: label[a] is the least column of a's class
    label = np.arange(n)
    np.minimum.at(label, a, c)

    # the columns in order of block size, then block: a block of size s holds
    # s consecutive sorted positions, and its s x s Gram matrix lies row-major
    # in ``gram``, the row of the column at sorted position p from at[p]
    size = np.bincount(label, minlength=n)[label]
    order = np.lexsort((label, size))
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    sizes = size[order]
    at = sizes.cumsum() - sizes  # by sorted position
    local = rank - rank[label]
    gram_row, gram_col, term = _gram_entries(alg, *entries)
    cell = at[rank[gram_row]] + local[gram_col]
    total = int(sizes.sum())
    gram = np.bincount(cell, term.real, total) + 1j * np.bincount(cell, term.imag, total)

    # the eigenvalue at sorted position p has its eigenvector, over the
    # columns of its block, at vecs[at[p]:][:s], as its Gram row was
    eigvals, vecs = np.empty(n), np.empty(total, dtype=complex)
    # a run of one block size starts at position 0 (if there is one) and
    # wherever the sorted sizes change
    starts = np.concatenate([sizes[:1] > 0, sizes[1:] != sizes[:-1]]).nonzero()[0].tolist()
    for lo, hi in zip(starts, [*starts[1:], n]):
        s, cells = sizes[lo], slice(at[lo], at[lo] + (hi - lo) * sizes[lo])
        if s == 1:
            eigvals[lo:hi], vecs[cells] = gram[cells].real, 1.0
        else:
            e, v = np.linalg.eigh(gram[cells].reshape(-1, s, s))
            eigvals[lo:hi], vecs[cells] = e.ravel(), v.swapaxes(1, 2).ravel()

    def confirm(cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        first = cand - local[order[cand]]  # sorted position of the block's least column
        # entry ``step`` of the eigenvector of candidate ``own``
        own = np.arange(len(cand)).repeat(sizes[cand])
        step = np.arange(len(own)) - (sizes[cand].cumsum() - sizes[cand])[own]
        column, v = order[first[own] + step], vecs[at[cand][own] + step]
        y = norms[column] * v
        length = np.sqrt(np.bincount(own, y.real ** 2 + y.imag ** 2, len(cand)))
        # a row of K lies in one block, so candidates of distinct blocks share
        # one pass over the rows, each taking |Kv|^2 from its own block's rows
        layer = np.arange(len(cand)) - first.searchsorted(first)
        squares = np.zeros(len(cand) + 1)  # the first for the columns of no candidate
        for t in range(layer.max(initial=-1) + 1):
            mine = layer[own] == t
            coef, who = np.zeros(n, dtype=complex), np.zeros(n, dtype=np.intp)
            coef[column[mine]], who[column[mine]] = v[mine], own[mine] + 1
            kv = value * coef[i]  # the rows (b, ab), then the lone rows (a, ab)
            kv[loop] -= value[mate] * coef[c]
            lone_kv = lone_value * coef[lone_col]
            squares += np.bincount(who[i], kv.real ** 2 + kv.imag ** 2, len(cand) + 1)
            squares += np.bincount(who[lone_col], lone_kv.real ** 2 + lone_kv.imag ** 2, len(cand) + 1)
        x = np.zeros((len(cand), n), dtype=complex)
        x[own, column] = y / length[own]
        return x, np.sqrt(squares[1:]) / length

    rows, gap = _null_algebra(eigvals, confirm, tol)
    return MatrixStarAlgebra(rows, tol, gap)


def invariant_subalgebra(
    g: MeasuredGroupoid, space: Optional[L2Space] = None
) -> MatrixStarAlgebra:
    """Span of the positive-mass orbit diagonals, in ``center``'s coordinates:
    the diagonal of orbit O is sum_{u in O} L_{e_u}, so its row holds
    |L_{e_u}|_F at e_u for each u in O, and 0 elsewhere, divided by its norm.
    The rows have disjoint supports, so they are orthonormal."""
    if space is None:
        space = l2_space(g)
    t = space.pairs
    # L_{e_u} has one entry per positive arrow with target u
    norms = np.sqrt(np.bincount(t.unit_arrow[t.tgt], minlength=space.dim))
    positive = g._positive_orbits
    orbit = positive.searchsorted(g.pairs.roots[t.tgt])
    rows = norms * (orbit == np.arange(len(positive))[:, None])
    # the row norms as np.linalg.norm reduces them, without its wrapper
    return MatrixStarAlgebra(rows / np.sqrt(np.add.reduce(rows * rows, axis=1, keepdims=True)))


def j_map(
    g: MeasuredGroupoid, op: np.ndarray, space: Optional[L2Space] = None
) -> np.ndarray:
    """Image of the unit-space indicator: orthonormal coordinates of a*1."""
    if space is None:
        space = l2_space(g)
    return np.asarray(op, dtype=complex) @ space.unit_vector


def conditional_expectation(
    g: MeasuredGroupoid,
    op: np.ndarray,
    alg: TranslationAlgebra,
    space: Optional[L2Space] = None,
    tol: Optional[float] = None,
) -> dict[str, complex]:
    """Restriction of a*1 to the unit arrows, as a function on units."""
    if space is None:
        space = l2_space(g)
    ok, res = alg.contains(op, tol)
    if not ok:
        raise NotInAlgebra(f"operator is not in the algebra span ({res})")
    return space.unit_values(j_map(g, op, space))


def phi_and_sharp(
    g: MeasuredGroupoid,
    op: np.ndarray,
    alg: TranslationAlgebra,
    space: Optional[L2Space] = None,
) -> tuple[complex, float]:
    """The canonical state and the associated sharp norm.

    phi(a) = <1, a 1> integrates the conditional expectation, and
    sharp(a)^2 = phi(a*a) + phi(aa*) = |a 1|^2 + |a* 1|^2, since
    <1, a*a 1> = <a 1, a 1> exactly.
    """
    if space is None:
        space = l2_space(g)
    ok, res = alg.contains(op)
    if not ok:
        raise NotInAlgebra(f"operator is not in the algebra span ({res})")
    op = np.asarray(op, dtype=complex)
    u0 = space.unit_vector
    ja = op @ u0
    jastar = op.conj().T @ u0
    return complex(np.vdot(u0, ja)), math.sqrt(np.vdot(ja, ja).real + np.vdot(jastar, jastar).real)


class FourierData(NamedTuple):
    coefficients: dict[int, dict[str, complex]]  # block index -> unit -> value
    residual: float
    parseval_gap: float


def fourier(
    g: MeasuredGroupoid,
    w: Optional[Cocycle],
    op: np.ndarray,
    basis: Basis,
    alg: Optional[TranslationAlgebra] = None,
    space: Optional[L2Space] = None,
) -> FourierData:
    """Expand an algebra element over a symmetric basis of bisections.

    The coefficient at block B is E(a L_B^*), a function on units; the
    element is reconstructed as the sum of (coefficient as diagonal) L_B.
    Reconstruction is exact at finite dimension, so residuals beyond the
    stated tolerances are treated as internal errors.  The residual is the
    Frobenius norm of the reconstruction error, an upper bound on its
    spectral norm that needs no SVD.  Rounding grows with the element, so the
    residual is held to ``FOURIER_RESIDUAL_TOL`` times max(1, |op|_F), and the
    Parseval gap to ``PARSEVAL_TOL`` times max(1, phi(a*a)).
    """
    if not basis.symmetric:
        raise AsymmetricBasis("expansion requires a symmetric basis")
    if space is None:
        space = l2_space(g)
    if alg is None:
        alg = algebra(g, w, "left", space=space)
    ok, res = alg.contains(op)
    if not ok:
        raise NotInAlgebra(f"operator is not in the algebra span ({res})")
    op = np.asarray(op, dtype=complex)
    coeffs: dict[int, dict[str, complex]] = {}
    recon = np.zeros(op.shape, dtype=complex)
    arrow, col, row, val = alg.forms
    t, n = space.pairs, space.dim
    # the positive units, in the order of g.units, and the rows of their
    # unit arrows: E(x) reads x*1 only there, so of a L_B^* only these rows
    # are formed
    positive = (g.unit_masses > 0.0).nonzero()[0]
    units = t.unit_arrow[positive]
    op_units = op[units]
    names = [g.units[u] for u in positive.tolist()]
    coef = np.zeros(len(g.units), dtype=complex)  # the coefficient by unit
    parseval = 0.0
    for bi, block in enumerate(basis.blocks):
        # L_B sends e_col to val e_row, at most one entry in each row and
        # column: a L_B^* is a column gather of a, and f L_B a row scaling
        member = np.zeros(n, dtype=bool)
        member[[space.pos[b] for b in block if b in space.pos]] = True
        at = member[arrow]
        r, c, v = row[at], col[at], val[at]
        a_lam = np.zeros((len(units), n), dtype=complex)
        a_lam[:, r] = op_units[:, c] * v.conj()
        coef[positive] = (a_lam @ space.unit_vector) / space.sqrt_weights[units]
        coeffs[bi] = dict(zip(names, coef[positive].tolist()))
        recon[r, c] += coef[t.tgt[r]] * v
        # a*1 takes the value cf_B(t(b)) at each arrow b of block B, and
        # |delta_b|^2 is the mass of s(b), which differs from that of t(b)
        # unless g is pmp; hypot is the rounding of abs() on a complex
        b = member.nonzero()[0]
        cf = coef[t.tgt[b]]
        parseval += math.fsum((space.weights[b] * np.hypot(cf.real, cf.imag) ** 2).tolist())
    residual = float(np.linalg.norm(recon - op))
    phi_aa = float(np.real(np.vdot(op @ space.unit_vector, op @ space.unit_vector)))
    data = FourierData(
        coefficients=coeffs,
        residual=residual,
        parseval_gap=abs(parseval - phi_aa),
    )
    if (residual > FOURIER_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(op)))
            or data.parseval_gap > PARSEVAL_TOL * max(1.0, phi_aa)):
        raise InternalInconsistency(
            f"expansion failed its tolerances (residual {residual}, "
            f"parseval gap {data.parseval_gap})"
        )
    return data


class FactorialityReport(NamedTuple):
    units: int
    arrows: int
    positive_arrows: int
    nonsingular: bool
    pmp: bool
    ergodic: bool
    twisted: bool
    icc: bool
    icc_witness: Optional[tuple[str, ...]]
    kleppner: bool
    kleppner_witness: Optional[str]
    center_dim: int
    invariant_dim: int
    center_equals_invariant: bool
    containment_residual: float
    factor: bool
    center_matches_decider: bool
    factor_matches_decider: bool
    kleppner_necessity_consistent: bool
    consistent: bool
    rank_tol: float
    containment_tol: float
    center_gap: tuple[float, float]

    def to_dict(self) -> dict:
        data = self._asdict()
        data["icc_witness"] = list(self.icc_witness) if self.icc_witness else None
        data["center_gap"] = list(self.center_gap)
        return data


def factoriality_report(
    g: MeasuredGroupoid,
    w: Optional[Cocycle] = None,
    *,
    rank_tol: float = RANK_TOL,
    containment_tol: float = CONTAINMENT_TOL,
) -> FactorialityReport:
    """Cross-check the structural deciders against the numerical center.

    The structural side decides the conjugacy-class condition (twisted or
    not), ergodicity, and the phase-symmetry condition; the numerical side
    computes the center of the translation algebra and the span of invariant
    unit functions.  The report records whether the two sides agree; callers
    treat disagreement as a hard failure.
    """
    twisted = w is not None and not (np.abs(complex_array(w.on(g), w.turns) - 1.0) <= 1e-15).all()
    w = _normalized(g, w)

    erg = g.is_ergodic()
    if twisted:
        tv = twisted_icc(g, w)
        icc_flag = tv.icc
        icc_witness = (
            tuple(g.sort_arrows(tv.certificate.support)) if tv.certificate else None
        )
    else:
        verdict = is_icc(g)
        icc_flag = verdict.icc
        icc_witness = (
            tuple(g.sort_arrows(verdict.witness)) if verdict.witness else None
        )
    kv = kleppner_holds(g, w)

    space = l2_space(g)
    alg = algebra(g, w, "left", space=space, tol=rank_tol)
    z = center(g, w, alg=alg, tol=rank_tol)
    inv = invariant_subalgebra(g, space)
    equal, residual = subspaces_equal(z, inv, containment_tol)

    factor = z.dim == 1
    decider_ok = icc_flag == equal
    factor_ok = factor == (erg.ergodic and icc_flag)
    kleppner_ok = (not factor) or kv.holds
    return FactorialityReport(
        units=len(g.units),
        arrows=len(g.arrow_order),
        positive_arrows=space.dim,
        nonsingular=g.flags.nonsingular,
        pmp=g.flags.pmp,
        ergodic=erg.ergodic,
        twisted=twisted,
        icc=icc_flag,
        icc_witness=icc_witness,
        kleppner=kv.holds,
        kleppner_witness=kv.witness,
        center_dim=z.dim,
        invariant_dim=inv.dim,
        center_equals_invariant=equal,
        containment_residual=residual,
        factor=factor,
        center_matches_decider=decider_ok,
        factor_matches_decider=factor_ok,
        kleppner_necessity_consistent=kleppner_ok,
        consistent=decider_ok and factor_ok and kleppner_ok,
        rank_tol=rank_tol,
        containment_tol=containment_tol,
        center_gap=z.observed_gap or (0.0, float("inf")),
    )
