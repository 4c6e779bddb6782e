"""Reduction of an algebra with multiplication x_ij x_kl = A_jk x_il.

Diagonalizing A = Z diag(lambda_1..lambda_p, 0..0) Z^T and passing to
y_sr = sum_ij Z_is Z_jr x_ij kills every index touching the null space,
leaves y_ij y_kl = lambda_j delta_jk y_il on the survivors, and the
rescaled f_ij = y_ij / sqrt(lambda_i lambda_j) are matrix units.  The
reduction is linear algebra on A alone: it returns Z, and the coefficients
of every f over the family x, which the caller applies, with
``OperatorStack.combine`` on the oracle or ``np.tensordot`` on arrays.
The averaged generators of the main ideal are such a family, with
x_{(a,i),(b,j)} = u_ij^ab and A = Q(alpha); the averaged matrix operators
E_ij and the f themselves obey the same law with A = I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A is assembled from exact rational data, so any asymmetry above rounding
# noise means the wrong matrix was passed.
SYMMETRY_TOL = 1e-10
# Relative to max(|lambda|, 1): the nonzero eigenvalues of Q(alpha) are the
# integers d + content, so its rounding noise sits far below the smallest.
NULL_RTOL = 1e-7


@dataclass
class ReducedBasis:
    """The eigenvectors of A and the coefficients of the f over x_ij.

    Every index is 0-based: label (s, r) is row s * rank + r of ``f``, and
    x_ij is column i * size + j, with size = len(z), so
    f_sr = sum_ij f[s * rank + r, i * size + j] x_ij.
    """

    rank: int
    eigenvalues: np.ndarray  # survivors first, descending; nulls last
    z: np.ndarray            # columns are eigenvectors, in the same order
    f: np.ndarray            # (rank^2, size^2): Z_is Z_jr / sqrt(lambda_s lambda_r)


def xa_reduce(a_matrix: np.ndarray) -> ReducedBasis:
    """The matrix-unit coefficients of a family with x_ij x_kl = A_jk x_il.

    A must be real symmetric with nonnegative eigenvalues; a genuinely
    negative eigenvalue violates the semisimplicity assumptions and raises.
    """
    a_matrix = np.asarray(a_matrix, dtype=float)
    size = a_matrix.shape[0]
    if a_matrix.shape != (size, size):
        raise ValueError("A must be square")
    if np.abs(a_matrix - a_matrix.T).max() > SYMMETRY_TOL:
        raise ValueError("A must be symmetric")
    eigenvalues, z = np.linalg.eigh(a_matrix)

    tol = NULL_RTOL * max(np.abs(eigenvalues).max(), 1.0)
    nulls = np.abs(eigenvalues) < tol
    if (eigenvalues < -tol).any():
        raise ValueError(
            f"negative nonzero eigenvalue {eigenvalues.min():g}; "
            "the family cannot come from a C*-structure"
        )

    # survivors first, null directions last
    order = np.concatenate([np.flatnonzero(~nulls)[::-1], np.flatnonzero(nulls)])
    eigenvalues, z = eigenvalues[order], z[:, order]
    rank = int((~nulls).sum())

    survivors, root = z[:, :rank], np.sqrt(eigenvalues[:rank])
    f = (np.einsum("is,jr->srij", survivors, survivors)
         / np.multiply.outer(root, root)[:, :, None, None]).reshape(rank * rank, size * size)
    return ReducedBasis(rank=rank, eigenvalues=eigenvalues, z=z, f=f)
