"""Induced representations of S(n-1) and the spectral data of Q(alpha).

For alpha a partition of n-2, the block matrix

    Q(alpha) = ( d^{delta_ab} phi_{ij}[(a n-1)(ab)(b n-1)] ),  a,b = 1..n-1

encodes the structure constants of the group-averaged generators of the
main ideal.  Its eigenvalues are d plus the content of the box added to
alpha (one eigenvalue per way of adding a box, with the dimension of the
grown label as multiplicity), and the reducing matrix Z is d-independent.
Branching from S(n-2) to S(n-1) is multiplicity-free, so each block of Z
is the unique intertwiner from the grown irrep into the induced
representation; in Young's orthogonal form it is written down directly
from the grown irrep's images of the coset representatives.

``InducedRep`` is given on the s_k = (k k+1) of S(n-1) by its block
formula, and reads every other image by the rule of ``yor.descent_image``,
with no cache: one Permutation by its first-descent chain from the
identity, a batch ``(k, n-1)`` of 0-based images from the stack of all of
S(n-1), built one inversion count at a time for the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .dpoly import DPoly
from .partitions import LABEL_MEMO_SIZE, Partition, add_box
from .permutations import Permutation, degree
from .yor import descent_image, irrep, transposition_character_frobenius

NULL_EIGENVALUE_TOL = 1e-7
# Exact zeros of Z come out of products of Young matrices as rounding noise
# (at most 4.7e-17 for n <= 9), while its smallest nonzero entry is 3.7e-4
# at n = 9; the block sign rule reads the first entry above this threshold.
Z_ZERO_TOL = 1e-9
# Entries of Q are products of Young matrices: for n <= 9 the integer ones
# come out within 6.1e-17 of their value and the others at least 4e-3 from
# any integer (0.02 for n <= 8); q_matrix_poly snaps those within this.
INTEGER_SNAP_TOL = 1e-12


class InducedRep:
    """Matrix form of the representation of S(n-1) induced from S(n-2).

    Coset representatives are the transpositions (a, n-1), a = 1..n-1,
    with (n-1, n-1) meaning the identity.  Blocks are (a, b) with inner
    indices from the inducing irrep.
    """

    def __init__(self, alpha: Partition, n: int):
        if alpha.weight != n - 2:
            raise ValueError(f"alpha must have weight {n - 2}")
        self.alpha = alpha
        self.n = n
        self.phi = irrep(alpha)
        self.w = self.phi.dim
        self.block_dim = (n - 1) * self.w
        self.decomposition = add_box(alpha)
        self._adjacent = [self.block_formula(Permutation.transposition(n - 1, k, k + 1))
                          for k in range(1, n - 1)]

    def coset_rep(self, a: int) -> Permutation:
        return Permutation.transposition(self.n - 1, a, self.n - 1)

    def block_formula(self, sigma: Permutation) -> np.ndarray:
        """Block matrix with (a,b) block delta_{a,sigma(b)} phi[(sigma(b) n-1) sigma (b n-1)]."""
        out = np.zeros((self.block_dim, self.block_dim))
        for b in range(1, self.n):
            a = sigma(b)
            tau = self.coset_rep(a) * sigma * self.coset_rep(b)
            block = self.phi.image(tau.restrict(self.n - 2))
            out[(a - 1) * self.w:a * self.w, (b - 1) * self.w:b * self.w] = block
        return out

    def matrix(self, sigma: Permutation | np.ndarray) -> np.ndarray:
        """Image of sigma, or the stack of a batch of 0-based images;
        multiplicative for composition (right factor first)."""
        if degree(sigma) != self.n - 1:
            raise ValueError(f"need a permutation of degree {self.n - 1}")
        return descent_image(sigma, self._adjacent, self.block_dim)


@lru_cache(maxsize=LABEL_MEMO_SIZE)
def q_matrix(alpha: Partition, d: float, n: int) -> np.ndarray:
    """Q(alpha) at numeric d: read-only, built once per (alpha, d, n) and
    shared by every caller (at most ``LABEL_MEMO_SIZE`` of them held).

    With m = n-1 the (a, b) block is phi[(a m)(a b)(b m)]; the word fixes
    m, so phi (an irrep of S(m-1)) sees its restriction.  For a = b the
    word is the identity, so the diagonal blocks are exactly d I.
    """
    phi = irrep(alpha)
    w = phi.dim
    m = n - 1
    out = d * np.eye(m * w)
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            if a != b:
                tau = (Permutation.transposition(m, a, m)
                       * Permutation.transposition(m, a, b)
                       * Permutation.transposition(m, b, m))
                block = phi.image(tau.restrict(m - 1))
                out[(a - 1) * w:a * w, (b - 1) * w:b * w] = block
    out.flags.writeable = False
    return out


def q_matrix_poly(alpha: Partition, n: int) -> np.ndarray:
    """Q(alpha) as a matrix of polynomials in d (object dtype): the entries
    of Q at d = 0, snapped to integers where they are, plus d on the diagonal."""
    at_zero = q_matrix(alpha, 0, n)
    out = np.empty(at_zero.shape, dtype=object)
    for index, value in np.ndenumerate(at_zero):
        snapped = round(value)
        out[index] = DPoly((int(snapped) if abs(value - snapped) < INTEGER_SNAP_TOL
                            else value,))
    for k in range(len(out)):
        out[k, k] = out[k, k] + DPoly.d()
    return out


def q_via_induced(alpha: Partition, d: float, n: int,
                  rep: InducedRep | None = None) -> np.ndarray:
    """Independent construction: transposition class sum of the induced rep
    (``rep``, built when not given) plus (d - F) times the identity,
    F = ((n-2)(n-3)/2) chi(12)/dim.

    Each (a b+1) = s_b (a b) s_b is two products from the one before it,
    starting at (a a+1) = s_a."""
    rep = InducedRep(alpha, n) if rep is None else rep
    m = n - 1
    adjacent = [rep.matrix(Permutation.transposition(m, k, k + 1)) for k in range(1, m)]
    total = np.zeros((rep.block_dim, rep.block_dim))
    for a in range(1, m):
        image = adjacent[a - 1]
        total += image
        for b in range(a + 1, m):
            image = adjacent[b - 1] @ image @ adjacent[b - 1]
            total += image
    pair_count = (n - 2) * (n - 3) // 2
    f_shift = 0.0
    if pair_count:
        f_shift = pair_count * transposition_character_frobenius(alpha) / rep.w
    return total + (d - f_shift) * np.eye(rep.block_dim)


def eigenvalues_closed_form(
    alpha: Partition, d: float, n: int
) -> list[tuple[Partition, float, int]]:
    """(nu, lambda, multiplicity) per added box: lambda = d + column - row."""
    if alpha.weight != n - 2:
        raise ValueError(f"alpha must have weight {n - 2}")
    out = []
    for nu, row, _extends in add_box(alpha):
        col = nu.parts[row - 1]
        out.append((nu, d + col - row, nu.hook_dimension()))
    return out


def zero_condition(alpha: Partition, d: int) -> Partition | None:
    """The unique grown label with vanishing eigenvalue, if d = row - col."""
    hits = [nu for nu, row, _e in add_box(alpha) if d == row - nu.parts[row - 1]]
    if len(hits) > 1:
        raise AssertionError("more than one vanishing eigenvalue is impossible")
    return hits[0] if hits else None


def z_matrix(alpha: Partition, n: int) -> tuple[np.ndarray, list[tuple[Partition, int]]]:
    """Orthogonal matrix reducing the induced representation.

    Columns are grouped by grown label nu (in added-box order) and indexed
    (nu, j) with j = 1..dim(nu); rows are (a, i) as in InducedRep.  With
    m = n-1 and R the rows of psi_nu whose tableaux hold m in the added
    box (alpha's tableaux, in alpha's order), the nu block is

        Z[(a, i), (nu, j)] = sqrt(dim nu / (m dim alpha)) psi_nu((a m))[R_i, j].

    Why: restricting nu to S(m-1) contains alpha once, on the rows R, so by
    Frobenius reciprocity there is exactly one intertwiner from nu into
    the induced representation up to scale, and v -> (P_R psi_nu((a m)) v)_a
    is one (P_R keeps the rows R).  Its Gram matrix commutes with psi_nu,
    hence is the scalar m dim alpha / dim nu by a trace count.  So
    Z^T InducedRep.matrix(sigma) Z is exactly the block sum of
    psi_nu(sigma).  The block sign is fixed by making the first nonzero
    entry of the leading column positive.

    Returns (Z, column labels).  Z does not depend on d; it is read-only,
    built once per (alpha, n) and shared by every caller (at most
    ``LABEL_MEMO_SIZE`` of them held).
    """
    z, labels = _reducing_matrix(alpha, n)
    return z, list(labels)


@lru_cache(maxsize=LABEL_MEMO_SIZE)
def _reducing_matrix(alpha: Partition, n: int
                     ) -> tuple[np.ndarray, tuple[tuple[Partition, int], ...]]:
    """The memo of ``z_matrix``: Z read-only, the labels a tuple."""
    if alpha.weight != n - 2:
        raise ValueError(f"alpha must have weight {n - 2}")
    m = n - 1
    blocks: list[np.ndarray] = []
    labels: list[tuple[Partition, int]] = []
    for nu, row, _extends in add_box(alpha):
        psi = irrep(nu)
        rows = [t for t, tab in enumerate(psi.tableaux) if tab[row - 1][-1] == m]
        scale = sqrt(psi.dim / (m * len(rows)))
        block = scale * np.vstack([
            psi.image(Permutation.transposition(m, a, m))[rows] for a in range(1, m + 1)
        ])
        lead = block[:, 0]
        if lead[np.flatnonzero(np.abs(lead) > Z_ZERO_TOL)[0]] < 0:
            block = -block
        blocks.append(block)
        labels.extend((nu, j) for j in range(1, psi.dim + 1))
    z = np.hstack(blocks)
    z.flags.writeable = False
    return z, tuple(labels)


@dataclass
class SpectralQ:
    """Q(alpha) with its closed-form spectrum and reducing matrix."""

    alpha: Partition
    d: int
    n: int
    matrix: np.ndarray
    eigenpairs: list[tuple[Partition, float, int]]
    z: np.ndarray
    z_labels: list[tuple[Partition, int]]
    theta: Partition | None
    rank: int

    @property
    def block_dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalue_of(self, nu: Partition) -> float:
        for label, lam, _mult in self.eigenpairs:
            if label == nu:
                return lam
        raise KeyError(f"{nu} does not label an eigenvalue")

    def to_dict(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "d": self.d,
            "n": self.n,
            "matrix": [float(x) for x in self.matrix.ravel()],
            "eigenpairs": [
                {"nu": str(nu), "lambda": float(lam), "multiplicity": mult}
                for nu, lam, mult in self.eigenpairs
            ],
            "rank": self.rank,
            "theta": None if self.theta is None else str(self.theta),
        }


def spectral_q(alpha: Partition, d: int, n: int) -> SpectralQ:
    """Assemble Q, its closed-form spectrum, Z and the rank in one record.

    The numerical spectrum is cross-checked against the closed form: any
    eigenvalue flagged zero numerically must be predicted by the exact
    zero condition, and disagreement is a hard error.
    """
    matrix = q_matrix(alpha, d, n)
    pairs = eigenvalues_closed_form(alpha, d, n)
    theta = zero_condition(alpha, d)
    z, labels = z_matrix(alpha, n)
    rank = sum(mult for nu, lam, mult in pairs if theta is None or nu != theta)

    numeric = np.linalg.eigvalsh(matrix)
    numeric_nulls = int((np.abs(numeric) < NULL_EIGENVALUE_TOL * (1 + abs(d))).sum())
    predicted_nulls = 0 if theta is None else theta.hook_dimension()
    if numeric_nulls != predicted_nulls:
        raise ArithmeticError(
            f"null-space mismatch for alpha={alpha}, d={d}: numeric rank "
            f"deficiency {numeric_nulls}, closed form predicts {predicted_nulls}"
        )
    return SpectralQ(alpha, d, n, matrix, pairs, z, labels, theta, rank)
