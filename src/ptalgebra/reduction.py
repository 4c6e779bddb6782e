"""Reduction of an algebra with multiplication x_ij x_kl = A_jk x_il.

Diagonalizing A = Z diag(lambda_1..lambda_p, 0..0) Z^{-1} and passing to
y_sr = sum_ij Z_is x_ij (Z^{-1})_rj kills every index touching the null
space, leaves y_ij y_kl = lambda_j delta_jk y_il on the survivors, and the
rescaled f_ij = y_ij / sqrt(lambda_i lambda_j) are matrix units.  The
family may be abstract algebra elements or concrete matrices; anything
supporting + and scalar * works.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np


@dataclass
class ReducedBasis:
    """Output of the reduction: survivors and their matrix-unit rescaling."""

    size: int
    rank: int
    eigenvalues: np.ndarray          # descending by magnitude of survival; nulls last
    z: np.ndarray                    # columns are eigenvectors, survivors first
    y: dict[tuple[int, int], object]  # all (s, r) pairs, 1-based indices
    f: dict[tuple[int, int], object]  # surviving pairs only


def xa_reduce(generators: dict[tuple[int, int], object],
              a_matrix: np.ndarray) -> ReducedBasis:
    """Reduce a family with x_ij x_kl = A_jk x_il to matrix units.

    ``generators`` maps 1-based (i, j) pairs to elements.  A must be
    diagonalizable with nonnegative nonzero eigenvalues (here it is always
    real symmetric); a genuinely negative eigenvalue violates the
    semisimplicity assumptions and raises.
    """
    a_matrix = np.asarray(a_matrix, dtype=float)
    size = a_matrix.shape[0]
    if a_matrix.shape != (size, size):
        raise ValueError("A must be square")
    if len(generators) != size * size:
        raise ValueError(f"expected {size * size} generators, got {len(generators)}")

    if np.abs(a_matrix - a_matrix.T).max() > 1e-10:
        raise ValueError("A must be symmetric")
    eigenvalues, z = np.linalg.eigh(a_matrix)

    scale = max(np.abs(eigenvalues).max(), 1.0)
    tol = 1e-7 * scale
    nulls = np.abs(eigenvalues) < tol
    if (eigenvalues < -tol).any():
        raise ValueError(
            f"negative nonzero eigenvalue {eigenvalues.min():g}; "
            "the family cannot come from a C*-structure"
        )

    # survivors first, null directions last
    order = np.concatenate([np.flatnonzero(~nulls)[::-1], np.flatnonzero(nulls)])
    eigenvalues = eigenvalues[order]
    z = z[:, order]
    rank = int((~nulls).sum())

    z_inv = z.T  # orthogonal from eigh

    y: dict[tuple[int, int], object] = {}
    for s in range(1, size + 1):
        for r in range(1, size + 1):
            acc = None
            for (i, j), x in generators.items():
                coeff = z[i - 1, s - 1] * z_inv[r - 1, j - 1]
                if coeff == 0.0:
                    continue
                term = coeff * x
                acc = term if acc is None else acc + term
            y[(s, r)] = acc

    f = {
        (s, r): (1.0 / sqrt(eigenvalues[s - 1] * eigenvalues[r - 1])) * y[(s, r)]
        for s in range(1, rank + 1)
        for r in range(1, rank + 1)
    }
    return ReducedBasis(
        size=size,
        rank=rank,
        eigenvalues=eigenvalues,
        z=z,
        y=y,
        f=f,
    )
