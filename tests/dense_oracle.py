"""The dense oracle that the tests check ``vna.center`` against.

``commutant`` builds the Gram matrix of a commutator map whole, from dense
matrix products, with matrix elements; ``vna.center`` reads the same
spectrum block by block off the translations' entries.  Both accept null
vectors by the one rule ``vna._null_algebra``.  Without ``within``,
``commutant`` also computes full commutants, through a sparse Kronecker sum:
the only use of scipy, which the package itself never imports.

``svd_span`` is the span of any stack of arrays, its rank and orthonormal
rows taken from an SVD; it holds the oracle's elements, which are not
orthonormal, as ``MatrixStarAlgebra`` wants its rows.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from factoroid.vna import (
    RANK_TOL,
    MatrixStarAlgebra,
    TranslationAlgebra,
    _null_algebra,
)


def svd_span(
    ops: Sequence[np.ndarray],
    tol: float = RANK_TOL,
    observed_gap: Optional[tuple[float, float]] = None,
) -> MatrixStarAlgebra:
    """The span of arrays of one shape, kept as the leading right singular
    vectors of their flattened stack: those whose singular value exceeds
    ``tol * max(1, sigma_max)``, each reshaped to the arrays' shape."""
    ops = np.asarray(ops, dtype=complex)
    flat = ops.reshape(len(ops), math.prod(ops.shape[1:]))
    _, s, vh = np.linalg.svd(flat, full_matrices=False)
    rank = int(np.sum(s > tol * max(1.0, s.max(initial=0.0))))
    return MatrixStarAlgebra(vh[:rank].reshape(rank, *ops.shape[1:]), observed_gap)


def _as_real_if_possible(ops: np.ndarray) -> np.ndarray:
    if np.all(np.abs(ops.imag) < 1e-300):
        return ops.real.copy()
    return ops


def _commutator_residual(x: np.ndarray, ops: np.ndarray) -> float:
    total = 0.0
    for op in ops:
        total += float(np.linalg.norm(x @ op - op @ x) ** 2)
    return math.sqrt(total)


def commutant(
    ops: Sequence[np.ndarray],
    within: Optional[TranslationAlgebra | MatrixStarAlgebra] = None,
    tol: float = RANK_TOL,
) -> MatrixStarAlgebra:
    """Matrices commuting with every given operator, at tolerance ``tol``.

    The nullspace of the stacked map x -> ([x, op_i])_i is read off the
    spectrum of its Gram matrix (squared singular values); candidates below a
    generous cut are kept only if their directly computed commutator residual
    is below ``tol * max(1, sigma_max)``.  When ``within`` is given the
    search is performed inside that span.  Every product here is dense and
    the Gram matrix is taken whole, with one ``eigh``, so
    ``commutant(alg.basis_ops, within=alg)`` is the oracle for ``center``,
    which takes the same spectrum block by block.
    Without ``within`` the map is a sparse Kronecker sum.
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
        gram = np.asarray(gram.todense())

        def to_elements(vecs: np.ndarray) -> np.ndarray:
            return vecs.T.reshape(-1, n, n).astype(complex)
    else:
        basis = within.basis_ops
        k = len(basis)
        gram = np.zeros((k, k), dtype=complex)
        for op in ops:
            comm = basis @ op - op @ basis
            flat = comm.reshape(k, -1)
            gram += flat.conj() @ flat.T
        gram = 0.5 * (gram + gram.conj().T)

        def to_elements(vecs: np.ndarray) -> np.ndarray:
            return np.tensordot(vecs.T, basis, axes=1)

    eigvals, eigvecs = np.linalg.eigh(gram)

    def confirm(cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # each candidate scaled to unit Frobenius norm; a zero one is dropped
        xs = to_elements(eigvecs[:, cand])
        size = np.linalg.norm(xs.reshape(len(xs), -1), axis=1)
        keep = size >= 1e-300
        xs[keep] /= size[keep, None, None]
        res = [_commutator_residual(x, ops) if kept else np.inf for x, kept in zip(xs, keep)]
        return xs, np.array(res)

    elements, gap = _null_algebra(eigvals, confirm, tol)
    return svd_span(elements, tol, gap)
