"""Matrix realizations of twisted groupoid von Neumann algebras.

Operators act on the weighted sequence space over the positive-mass arrows,
in orthonormal coordinates e_g = delta_g / sqrt(mass(src(g))).  In these
coordinates the matrix adjoint is the operator adjoint, left translations
are pure-phase partial permutations, and right translations carry a
source/target mass ratio.

Rank and nullspace decisions go through singular values with an explicit
tolerance.  Nullspaces of commutator maps are computed from the Gram matrix
of the stacked map (its eigenvalues are the squared singular values) and
every candidate null vector is confirmed against the directly computed
commutator residual, which keeps the tolerance honest at 1e-9 even where
squaring would lose precision; the observed spectral gap is recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .basis import Basis
from .cocycle import (
    Cocycle,
    as_complex,
    kleppner_holds,
    normalize_cocycle,
    trivial_cocycle,
    twisted_icc,
)
from .conjugacy import is_icc
from .groupoid import GroupoidError, MeasuredGroupoid

RANK_TOL = 1e-9
CONTAINMENT_TOL = 1e-8
FOURIER_RESIDUAL_TOL = 1e-10
PARSEVAL_TOL = 1e-9

# generous first cut when picking nullspace candidates from a Gram spectrum;
# final membership is decided by direct residuals at the caller's tolerance
_CANDIDATE_CUT = 1e-5


class NotInAlgebra(GroupoidError):
    pass


class AsymmetricBasis(GroupoidError):
    pass


@dataclass(frozen=True)
class L2Space:
    """Orthonormalized coordinates on the positive-mass arrows."""

    groupoid: MeasuredGroupoid
    index: tuple[str, ...]
    pos: dict[str, int]
    weights: np.ndarray
    sqrt_weights: np.ndarray
    unit_vector: np.ndarray  # coordinates of the unit-space indicator

    @property
    def dim(self) -> int:
        return len(self.index)

    def function_values(self, vec: np.ndarray) -> dict[str, complex]:
        """Translate orthonormal coordinates back to function values."""
        vals = np.asarray(vec) / self.sqrt_weights
        return {g: complex(vals[i]) for i, g in enumerate(self.index)}

    def unit_values(self, vec: np.ndarray) -> dict[str, complex]:
        """Function values at the positive-mass unit arrows, keyed by unit."""
        vals = self.function_values(vec)
        g = self.groupoid
        return {u: vals[g.unit_arrow[u]] for u in g.units if g.unit_arrow[u] in self.pos}

    def indicator(self, ids: Iterable[str]) -> np.ndarray:
        """Orthonormal coordinates of an arrow-set indicator function."""
        v = np.zeros(self.dim, dtype=complex)
        for g in ids:
            i = self.pos.get(g)
            if i is not None:
                v[i] = self.sqrt_weights[i]
        return v


def l2_space(g: MeasuredGroupoid) -> L2Space:
    g._require_validated()
    if not g.flags.nonsingular:
        raise GroupoidError(
            "representation requires a nonsingular groupoid "
            "(null units must only connect to null units)"
        )
    index = tuple(a for a in g.arrow_order if g.mass[g.src[a]] > 0.0)
    pos = {a: i for i, a in enumerate(index)}
    weights = np.array([g.mass[g.src[a]] for a in index], dtype=float)
    sqrt_weights = np.sqrt(weights)
    unit_vector = np.zeros(len(index), dtype=complex)
    for u in g.units:
        e = g.unit_arrow[u]
        if e in pos:
            unit_vector[pos[e]] = sqrt_weights[pos[e]]
    return L2Space(g, index, pos, weights, sqrt_weights, unit_vector)


def _normalized(g: MeasuredGroupoid, w: Optional[Cocycle]) -> Cocycle:
    """The trivial cocycle for None, else the normalized representative."""
    if w is None:
        return trivial_cocycle(g)
    return w if w.normalized else normalize_cocycle(g, w)


def rep_operator(
    g: MeasuredGroupoid,
    w: Optional[Cocycle],
    ids: Iterable[str],
    side: str = "left",
    space: Optional[L2Space] = None,
) -> np.ndarray:
    """Matrix of the (projective) translation by an arrow set.

    Left:  e_h -> w(a, h) e_{a h} summed over a in the set composing with h.
    Right: e_h -> conj(w(h, a^-1)) sqrt(m(t(a))/m(s(a))) e_{h a^-1}; the mass
    ratio is the price of writing the right translation on the source-weighted
    space (it is 1 in the pmp case).
    """
    g._require_validated()
    if space is None:
        space = l2_space(g)
    if w is None:
        w = trivial_cocycle(g)
    n = space.dim
    mat = np.zeros((n, n), dtype=complex)
    ids = list(ids)
    if side == "left":
        for h in space.index:
            col = space.pos[h]
            x = g.tgt[h]
            for a in ids:
                if g.src[a] == x:
                    mat[space.pos[g.compose[(a, h)]], col] += as_complex(
                        w.values[(a, h)]
                    )
    elif side == "right":
        for h in space.index:
            col = space.pos[h]
            x = g.src[h]
            for a in ids:
                if g.src[a] == x:
                    ai = g.inverse[a]
                    k = g.compose[(h, ai)]
                    row = space.pos[k]
                    ratio = math.sqrt(space.weights[row] / space.weights[col])
                    mat[row, col] += ratio * as_complex(
                        w.values[(h, ai)]
                    ).conjugate()
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return mat


def multiplication_operator(
    space: L2Space, f: Mapping[str, complex]
) -> np.ndarray:
    """Diagonal action of a function on units: e_h -> f(tgt(h)) e_h."""
    g = space.groupoid
    diag = np.array([complex(f.get(g.tgt[h], 0.0)) for h in space.index])
    return np.diag(diag)


def twisted_convolve(
    g: MeasuredGroupoid,
    w: Optional[Cocycle],
    f1: Mapping[str, complex],
    f2: Mapping[str, complex],
) -> dict[str, complex]:
    """Convolution (f1 * f2)(x) = sum over ab = x of w(a,b) f1(a) f2(b)."""
    g._require_validated()
    if w is None:
        w = trivial_cocycle(g)
    out: dict[str, complex] = {a: 0.0 + 0.0j for a in g.arrow_order}
    for (a, b), ab in g.compose.items():
        va = f1.get(a)
        vb = f2.get(b)
        if va and vb:
            out[ab] += as_complex(w.values[(a, b)]) * va * vb
    return out


class MatrixStarAlgebra:
    """A linear span of matrices, with SVD-backed rank and membership."""

    def __init__(
        self,
        basis_ops: Sequence[np.ndarray],
        tol: float = RANK_TOL,
        observed_gap: Optional[tuple[float, float]] = None,
    ):
        ops = np.asarray(basis_ops, dtype=complex)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError("basis_ops must be a sequence of square matrices")
        self.basis_ops = ops
        self.tol = tol
        self.observed_gap = observed_gap
        if len(ops) == 0:
            self._row_space = np.zeros((0, ops.shape[1] ** 2), dtype=complex)
            self.dim = 0
            return
        flat = ops.reshape(len(ops), -1)
        _, s, vh = np.linalg.svd(flat, full_matrices=False)
        cutoff = tol * max(1.0, s[0] if len(s) else 0.0)
        rank = int(np.sum(s > cutoff))
        self._row_space = vh[:rank]
        self.dim = rank

    @property
    def matrix_dim(self) -> int:
        return self.basis_ops.shape[1]

    def contains(self, mat: np.ndarray, tol: Optional[float] = None) -> tuple[bool, float]:
        """Span membership: (verdict, relative projection residual)."""
        tol = self.tol if tol is None else tol
        v = np.asarray(mat, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            return True, 0.0
        # rows of _row_space are orthonormal under the Hermitian product, so
        # the projector is sum_i r_i <r_i, v> with the conjugate on the left
        proj = self._row_space.T @ (self._row_space.conj() @ v)
        residual = float(np.linalg.norm(v - proj) / norm)
        return residual <= tol, residual


def subspace_leq(
    a: MatrixStarAlgebra, b: MatrixStarAlgebra, tol: float = CONTAINMENT_TOL
) -> tuple[bool, float]:
    """Whether span(a) is contained in span(b); returns the worst residual."""
    worst = 0.0
    for op in a.basis_ops:
        ok, res = b.contains(op, tol)
        worst = max(worst, res)
    return worst <= tol, worst


def subspaces_equal(
    a: MatrixStarAlgebra, b: MatrixStarAlgebra, tol: float = CONTAINMENT_TOL
) -> tuple[bool, float]:
    ok_ab, res_ab = subspace_leq(a, b, tol)
    ok_ba, res_ba = subspace_leq(b, a, tol)
    return ok_ab and ok_ba, max(res_ab, res_ba)


def _as_real_if_possible(ops: np.ndarray) -> np.ndarray:
    if np.all(np.abs(ops.imag) < 1e-300):
        return ops.real.copy()
    return ops


def _commutator_residual(x: np.ndarray, ops: np.ndarray) -> float:
    total = 0.0
    for op in ops:
        total += float(np.linalg.norm(x @ op - op @ x) ** 2)
    return math.sqrt(total)


def _null_algebra(
    gram: np.ndarray,
    to_matrix: Callable[[np.ndarray], Optional[np.ndarray]],
    ops: np.ndarray,
    tol: float,
) -> MatrixStarAlgebra:
    """Span of the confirmed null vectors of a commutator map.

    Eigenvectors of the Gram matrix below the candidate cut are mapped to
    matrices (``to_matrix`` may drop one by returning None) and accepted when
    their commutator residual with ``ops`` is below ``tol * max(1, sigma_max)``.
    """
    n = ops.shape[1]
    eigvals, eigvecs = np.linalg.eigh(gram)
    sigmas = np.sqrt(np.clip(eigvals, 0.0, None))
    smax = sigmas[-1] if len(sigmas) else 0.0
    scale = max(1.0, smax)
    cand = np.nonzero(sigmas <= _CANDIDATE_CUT * scale)[0]
    null_ops: list[np.ndarray] = []
    max_accepted = 0.0
    accepted: set[int] = set()
    for idx in cand:
        x = to_matrix(eigvecs[:, idx])
        if x is None:
            continue
        res = _commutator_residual(x, ops)
        if res <= tol * scale:
            null_ops.append(x)
            max_accepted = max(max_accepted, res)
            accepted.add(int(idx))
    min_rejected = min(
        (float(sigmas[i]) for i in range(len(sigmas)) if i not in accepted),
        default=float("inf"),
    )
    return MatrixStarAlgebra(
        np.array(null_ops).reshape(-1, n, n),
        tol=tol,
        observed_gap=(max_accepted, min_rejected),
    )


def commutant(
    ops: Sequence[np.ndarray],
    within: Optional[MatrixStarAlgebra] = None,
    tol: float = RANK_TOL,
) -> MatrixStarAlgebra:
    """Matrices commuting with every given operator, at tolerance ``tol``.

    The nullspace of the stacked map x -> ([x, op_i])_i is read off the
    spectrum of its Gram matrix (squared singular values); candidates below a
    generous cut are kept only if their directly computed commutator residual
    is below ``tol * max(1, sigma_max)``.  When ``within`` is given the
    search is performed inside that span.
    """
    ops = np.asarray(ops, dtype=complex)
    if ops.ndim != 3:
        raise ValueError("ops must be a sequence of square matrices")
    n = ops.shape[1]

    if within is None:
        ops_r = _as_real_if_possible(ops)
        gram = None
        eye = sp.identity(n, format="csr", dtype=ops_r.dtype)
        for op in ops_r:
            a = sp.csr_matrix(op)
            k = sp.kron(eye, a.T, format="csr") - sp.kron(a, eye, format="csr")
            term = (k.conj().T @ k)
            gram = term if gram is None else gram + term
        return _null_algebra(
            np.asarray(gram.todense()),
            lambda v: v.reshape(n, n).astype(complex),
            ops,
            tol,
        )

    basis = within.basis_ops
    k = len(basis)
    gram = np.zeros((k, k), dtype=complex)
    for op in ops:
        comm = basis @ op - op @ basis
        flat = comm.reshape(k, -1)
        gram += flat.conj() @ flat.T

    def to_matrix(v: np.ndarray) -> Optional[np.ndarray]:
        x = np.einsum("j,jab->ab", v, basis)
        nrm = np.linalg.norm(x)
        return None if nrm < 1e-300 else x / nrm

    return _null_algebra(0.5 * (gram + gram.conj().T), to_matrix, ops, tol)


def algebra(
    g: MeasuredGroupoid,
    w: Optional[Cocycle] = None,
    side: str = "left",
    *,
    space: Optional[L2Space] = None,
    verify: bool = True,
    tol: float = RANK_TOL,
) -> MatrixStarAlgebra:
    """The span of all translation operators of single arrows.

    At finite dimension this span is already multiplicatively closed and
    star-closed, which ``verify`` checks against the structure constants:
    for the left side  L_a L_b = w(a,b) L_{ab}  and  L_a^* = L_{a^-1}; on the
    right side products gain conjugated phases and adjoints a mass ratio.
    An unnormalized cocycle is replaced by its normalized representative.
    """
    g._require_validated()
    if space is None:
        space = l2_space(g)
    w = _normalized(g, w)
    ops = np.array(
        [rep_operator(g, w, [a], side, space) for a in space.index]
    ).reshape(len(space.index), space.dim, space.dim)
    alg = MatrixStarAlgebra(ops, tol=tol)
    if verify:
        _verify_structure(g, w, side, space, ops, tol)
        ident = np.eye(space.dim)
        ok, res = alg.contains(ident)
        if not ok:
            raise GroupoidError(f"algebra misses its identity (residual {res})")
        if alg.dim != len(space.index):
            raise GroupoidError(
                f"algebra rank {alg.dim} != arrow count {len(space.index)}"
            )
    return alg


def _verify_structure(
    g: MeasuredGroupoid,
    w: Cocycle,
    side: str,
    space: L2Space,
    ops: np.ndarray,
    tol: float,
) -> None:
    index = space.index
    for i, a in enumerate(index):
        prods = ops[i] @ ops
        expected = np.zeros_like(prods)
        for j, b in enumerate(index):
            ab = g.compose.get((a, b))
            if ab is None:
                continue
            if side == "left":
                expected[j] = as_complex(w.values[(a, b)]) * ops[space.pos[ab]]
            else:
                # R_a R_b collapses to the translation by ab with the
                # conjugated phase of the inverted pair
                expected[j] = as_complex(
                    w.values[(g.inverse[b], g.inverse[a])]
                ).conjugate() * ops[space.pos[ab]]
        err = float(np.max(np.abs(prods - expected)))
        if err > tol:
            raise GroupoidError(
                f"translation span not multiplicatively closed at {a!r} ({err})"
            )
    for i, a in enumerate(index):
        ai = g.inverse[a]
        adj = ops[i].conj().T
        if side == "left":
            expected_adj = ops[space.pos[ai]]
        else:
            ratio = g.mass[g.tgt[a]] / g.mass[g.src[a]]
            expected_adj = ratio * ops[space.pos[ai]]
        err = float(np.max(np.abs(adj - expected_adj)))
        if err > tol:
            raise GroupoidError(
                f"translation span not star-closed at {a!r} ({err})"
            )


def center(
    g: MeasuredGroupoid,
    w: Optional[Cocycle] = None,
    *,
    alg: Optional[MatrixStarAlgebra] = None,
    tol: float = RANK_TOL,
) -> MatrixStarAlgebra:
    """Elements of the translation algebra commuting with all of it."""
    if alg is None:
        alg = algebra(g, w, "left", tol=tol)
    return commutant(alg.basis_ops, within=alg, tol=tol)


def invariant_subalgebra(
    g: MeasuredGroupoid, space: Optional[L2Space] = None
) -> MatrixStarAlgebra:
    """Diagonal span of the positive-mass orbit indicator functions."""
    g._require_validated()
    if space is None:
        space = l2_space(g)
    ops = []
    for orbit in g.orbits():
        if not any(g.mass[u] > 0.0 for u in orbit):
            continue
        f = {u: 1.0 for u in orbit}
        ops.append(multiplication_operator(space, f))
    if not ops:
        ops = [np.zeros((space.dim, space.dim))]
    return MatrixStarAlgebra(np.array(ops, dtype=complex))


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
    alg: MatrixStarAlgebra,
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
    alg: MatrixStarAlgebra,
    space: Optional[L2Space] = None,
) -> tuple[complex, float]:
    """The canonical state and the associated sharp norm.

    phi(a) integrates the conditional expectation; phi(a*a) agrees with the
    squared length of a*1 (checked), and sharp(a)^2 = phi(a*a) + phi(aa*).
    """
    if space is None:
        space = l2_space(g)
    ok, res = alg.contains(op)
    if not ok:
        raise NotInAlgebra(f"operator is not in the algebra span ({res})")
    op = np.asarray(op, dtype=complex)
    u0 = space.unit_vector
    phi = complex(np.vdot(u0, op @ u0))
    ja = op @ u0
    jastar = op.conj().T @ u0
    phi_aa = float(np.real(np.vdot(u0, op.conj().T @ (op @ u0))))
    if abs(phi_aa - float(np.vdot(ja, ja).real)) > 1e-9 * max(1.0, phi_aa):
        raise GroupoidError("state/GNS mismatch: phi(a*a) != <j(a), j(a)>")
    sharp = math.sqrt(max(phi_aa, 0.0) + max(float(np.vdot(jastar, jastar).real), 0.0))
    return phi, sharp


@dataclass(frozen=True)
class FourierData:
    coefficients: dict[int, dict[str, complex]]  # block index -> unit -> value
    residual: float
    parseval_gap: float


def fourier(
    g: MeasuredGroupoid,
    w: Optional[Cocycle],
    op: np.ndarray,
    basis: Basis,
    alg: Optional[MatrixStarAlgebra] = None,
    space: Optional[L2Space] = None,
    residual_tol: float = FOURIER_RESIDUAL_TOL,
    parseval_tol: float = PARSEVAL_TOL,
) -> FourierData:
    """Expand an algebra element over a symmetric basis of bisections.

    The coefficient at block B is E(a L_B^*), a function on units; the
    element is reconstructed as the sum of (coefficient as diagonal) L_B.
    Reconstruction is exact at finite dimension, so residuals beyond the
    stated tolerances are treated as internal errors.
    """
    if not basis.symmetric:
        raise AsymmetricBasis("expansion requires a symmetric basis")
    g._require_validated()
    if space is None:
        space = l2_space(g)
    w = _normalized(g, w)
    if alg is None:
        alg = algebra(g, w, "left", space=space, verify=False)
    ok, res = alg.contains(op)
    if not ok:
        raise NotInAlgebra(f"operator is not in the algebra span ({res})")
    op = np.asarray(op, dtype=complex)
    coeffs: dict[int, dict[str, complex]] = {}
    recon = np.zeros_like(op)
    for bi, block in enumerate(basis.blocks):
        lam = rep_operator(g, w, block, "left", space)
        cf = space.unit_values((op @ lam.conj().T) @ space.unit_vector)
        coeffs[bi] = cf
        recon += multiplication_operator(space, cf) @ lam
    residual = float(np.linalg.norm(recon - op, 2))
    phi_aa = float(np.real(np.vdot(op @ space.unit_vector, op @ space.unit_vector)))
    parseval = 0.0
    for cf in coeffs.values():
        parseval += math.fsum(
            g.mass[u] * abs(v) ** 2 for u, v in cf.items()
        )
    data = FourierData(
        coefficients=coeffs,
        residual=residual,
        parseval_gap=abs(parseval - phi_aa),
    )
    if residual > residual_tol or data.parseval_gap > parseval_tol:
        raise GroupoidError(
            f"expansion failed its tolerances (residual {residual}, "
            f"parseval gap {data.parseval_gap})"
        )
    return data


@dataclass(frozen=True)
class FactorialityReport:
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
        return {
            "units": self.units,
            "arrows": self.arrows,
            "positive_arrows": self.positive_arrows,
            "nonsingular": self.nonsingular,
            "pmp": self.pmp,
            "ergodic": self.ergodic,
            "twisted": self.twisted,
            "icc": self.icc,
            "icc_witness": list(self.icc_witness) if self.icc_witness else None,
            "kleppner": self.kleppner,
            "kleppner_witness": self.kleppner_witness,
            "center_dim": self.center_dim,
            "invariant_dim": self.invariant_dim,
            "center_equals_invariant": self.center_equals_invariant,
            "containment_residual": self.containment_residual,
            "factor": self.factor,
            "center_matches_decider": self.center_matches_decider,
            "factor_matches_decider": self.factor_matches_decider,
            "kleppner_necessity_consistent": self.kleppner_necessity_consistent,
            "consistent": self.consistent,
            "rank_tol": self.rank_tol,
            "containment_tol": self.containment_tol,
            "center_gap": list(self.center_gap),
        }


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
    g._require_validated()
    twisted = w is not None and not all(
        abs(as_complex(v) - 1.0) <= 1e-15 for v in w.values.values()
    )
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
        arrows=len(g.arrows),
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
