"""All irreducible representations of the transposed-operator algebra.

The algebra is generated by S(n-1) and the single contraction
V' = W((n-1 n))^{t_n}, so each irrep is given by two things: the image
rho(tau) of every tau in S(n-1), and the image of V'.  Kind M irreps
live in the main ideal and are labelled by partitions alpha of n-2
fitting in d rows; S(n-1) acts through the representation induced from
alpha, less the block theta on which Q(alpha) vanishes, and V' acts
through Q(alpha).  Their dimension is the rank of Q(alpha), which
loses dim(theta) compared with the induced representation exactly when
some eigenvalue vanishes.  Kind S irreps are labelled by partitions of
n-1 with height strictly below d; they restrict irreducibly to S(n-1)
and V', hence every generator that moves the last point, acts as zero.
``block_labels`` is the one place that applies these two height bounds.
The unit of M sums Q(alpha)^+ against the u terms: one einsum per alpha.

``AlgebraIrrep.image`` takes a batch ``(k, n)`` of 0-based images only.
It reads rho of all of S(n-1) once, as one batch of ``yor`` or ``induced``
(whose stacks are built one inversion count at a time for the call), reads
each T[a] off it, and multiplies the rows with sigma(a) = n by T[a].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .algebra import AlgebraContext, AlgebraElement, u_terms
from .induced import InducedRep, SpectralQ, q_matrix, spectral_q, zero_condition
from .partitions import Partition, partitions_of
from .permutations import Permutation, cycle_name, degree, image_array, lehmer_rank
from .yor import SymmetricGroupIrrep, irrep as sym_irrep


class AlgebraIrrep:
    """A matrix representation of the algebra, given on its generators.

    ``rho`` maps tau in S(n-1) to its image and ``contraction`` is the
    image of V' = W((n-1 n))^{t_n}.  A generator W(sigma) with sigma
    fixing n is rho(sigma restricted to S(n-1)).  Otherwise let
    sigma(a) = n and sigma_hat = sigma (a n), which fixes n.  Then

        W(sigma)^{t_n} = W(sigma_hat) W((a n-1)) V' W((a n-1)),

    because (a n) = (a n-1)(n-1 n)(a n-1), and the partial transpose on
    the last factor commutes with multiplying, on either side, by an
    operator A (x) 1 that acts on the first n-1 factors only.  So the image
    is rho(sigma_hat) T[a] with T[a] = rho((a n-1)) V' rho((a n-1)), all read
    off the one S(n-1) stack of each ``image`` call; the constructor reads none.
    """

    def __init__(self, kind: str, label: Partition, n: int, d: int,
                 basis_tag: str | None, rho, contraction: np.ndarray):
        self.kind = kind
        self.label = label
        self.n = n
        self.d = d
        self.dimension = contraction.shape[0]
        self.basis_tag = basis_tag
        self.rho = rho
        self.contraction = contraction

    def image(self, sigma: np.ndarray) -> np.ndarray:
        """The stack of the images of the generators W(sigma), transposed when
        sigma moves n, over a batch ``(k, n)`` of 0-based images."""
        n = self.n
        sigma = np.asarray(sigma)
        if (m := degree(sigma)) != n:
            raise ValueError(f"degree {m} != n = {n}")
        a = np.argmax(sigma == n - 1, axis=1)  # 0-based a; n - 1 when sigma fixes n
        hat = sigma.copy()  # sigma_hat = sigma (a n), which fixes n
        hat[np.arange(len(sigma)), a] = sigma[:, -1]
        group = self.rho(image_array(n - 1))
        swaps = group[lehmer_rank(np.array(
            [Permutation.transposition(n - 1, a, n - 1).images for a in range(1, n)]) - 1)]
        out = group[lehmer_rank(hat[:, :-1])]
        for point, swap in enumerate(swaps):  # T[a] = rho((a n-1)) V' rho((a n-1))
            rows = np.flatnonzero(a == point)
            out[rows] = out[rows] @ (swap @ self.contraction @ swap)
        return out

    def __repr__(self) -> str:
        tag = f", basis={self.basis_tag}" if self.basis_tag else ""
        return (f"AlgebraIrrep(kind={self.kind}, label={self.label}, "
                f"n={self.n}, d={self.d}, dim={self.dimension}{tag})")

    def head(self) -> dict:
        """The fields of ``to_dict`` before its images."""
        return {"kind": self.kind, "label": str(self.label), "n": self.n,
                "d": self.d, "dimension": self.dimension, "basis_tag": self.basis_tag}

    def named_images(self) -> tuple[list[str], np.ndarray]:
        """The cycle names of the rows of ``image_array(n)`` and the stack of
        their images, read as one batch, in that order."""
        images = image_array(self.n)
        return [cycle_name(row) for row in images.tolist()], self.image(images)

    def to_dict(self) -> dict:
        names, stack = self.named_images()
        return self.head() | {"images": {
            name: image.ravel().tolist() for name, image in zip(names, stack)}}


def _theta_filtered(spectral: SpectralQ) -> tuple[list[int], list[float], list[Partition]]:
    """Kept column indices of Z, their eigenvalues, and the kept nu labels."""
    kept = [(col, nu, j) for col, (nu, j) in enumerate(spectral.z_labels)
            if nu != spectral.theta]
    return ([col for col, _nu, _j in kept],
            [spectral.eigenvalue_of(nu) for _col, nu, _j in kept],
            [nu for _col, nu, j in kept if j == 1])


def block_labels(n: int, d: int) -> tuple[list[Partition], list[Partition]]:
    """The labels of every block at (n, d), each in ``partitions_of`` order:
    kind M, alpha of n-2 with at most d rows, and kind S, nu of n-1 with
    fewer than d rows."""
    return ([alpha for alpha in partitions_of(n - 2) if alpha.height <= d],
            [nu for nu in partitions_of(n - 1) if nu.height < d])


def _check_m_label(alpha: Partition, d: int, n: int) -> None:
    if alpha.weight != n - 2:
        raise ValueError(f"alpha must have weight {n - 2}")
    if alpha not in block_labels(n, d)[0]:
        raise ValueError(
            f"no such block: alpha of height {alpha.height} needs d >= {alpha.height}"
        )


def direct_sum(reps: list[SymmetricGroupIrrep],
               tau: Permutation | np.ndarray) -> np.ndarray:
    """The block-diagonal matrix of the images of tau under reps, or their
    stack over a batch of 0-based images."""
    blocks = [psi.image(tau) for psi in reps]
    sizes = [block.shape[-1] for block in blocks]
    out = np.zeros(blocks[0].shape[:-2] + (sum(sizes),) * 2)
    pos = 0
    for block, size in zip(blocks, sizes):
        out[..., pos:pos + size, pos:pos + size] = block
        pos += size
    return out


def irrep_M_f(alpha: Partition, d: int, n: int) -> AlgebraIrrep:
    """Kind-M irrep in the reduced matrix basis.

    S(n-1) acts block diagonally through the irreps psi_nu of the kept
    grown labels, and V' as sqrt(lambda_i lambda_j) (Z_{n-1}^T Z_{n-1})_ij,
    with Z_{n-1} the last block row of Z restricted to the non-null
    columns.  One square root per entry keeps a 1 x 1 block (n = 2) at
    exactly d.
    """
    _check_m_label(alpha, d, n)
    spectral = spectral_q(alpha, d, n)
    kept_cols, kept_lams, kept_nus = _theta_filtered(spectral)
    w = alpha.hook_dimension()
    last_row = spectral.z[-w:, kept_cols]
    contraction = np.sqrt(np.outer(kept_lams, kept_lams)) * (last_row.T @ last_row)
    assert len(kept_cols) == spectral.rank
    rho = partial(direct_sum, [sym_irrep(nu) for nu in kept_nus])
    return AlgebraIrrep("M", alpha, n, d, "f", rho, contraction)


def irrep_M_e(alpha: Partition, d: int, n: int) -> AlgebraIrrep:
    """Kind-M irrep in the group-averaged basis; needs det Q(alpha) != 0.

    The basis is indexed by (coset a, inner i): S(n-1) acts by the
    induced representation, and V' maps everything into block row n-1,
    where it acts as the last block row of Q(alpha).
    """
    _check_m_label(alpha, d, n)
    theta = zero_condition(alpha, d)
    if theta is not None:
        raise ValueError(
            f"det Q = 0 at d = {d} (vanishing block {theta}); "
            "use the reduced-basis construction irrep_M_f instead"
        )
    rep = InducedRep(alpha, n)
    q = q_matrix(alpha, d, n)
    contraction = np.zeros_like(q)
    contraction[-rep.w:] = q[-rep.w:]
    return AlgebraIrrep("M", alpha, n, d, "e", rep.matrix, contraction)


def irrep_S(nu: Partition, d: int, n: int) -> AlgebraIrrep:
    """Semi-trivial irrep: S(n-1) acts irreducibly, V' by zero."""
    if nu.weight != n - 1:
        raise ValueError(f"nu must have weight {n - 1}")
    if nu not in block_labels(n, d)[1]:
        raise ValueError(
            f"no such block: height {nu.height} >= d = {d} (strict bound)"
        )
    psi = sym_irrep(nu)
    return AlgebraIrrep("S", nu, n, d, None, psi.image, np.zeros((psi.dim, psi.dim)))


def all_irreps(n: int, d: int) -> list[AlgebraIrrep]:
    """Every irrep of the algebra at (n, d), M blocks first (reduced basis)."""
    m_labels, s_labels = block_labels(n, d)
    return ([irrep_M_f(alpha, d, n) for alpha in m_labels]
            + [irrep_S(nu, d, n) for nu in s_labels])


# -- structure ----------------------------------------------------------


@dataclass
class StructureReport:
    """Block inventory of the algebra: M sum of rank^2, S sum of dim^2."""

    n: int
    d: int
    m_blocks: list[tuple[Partition, int]]
    s_blocks: list[tuple[Partition, int]]
    dim_M: int
    dim_S: int
    dim_total: int
    oracle_dim: int | None = None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "m_blocks": [{"alpha": str(a), "rank": r} for a, r in self.m_blocks],
            "s_blocks": [{"nu": str(v), "dim": k} for v, k in self.s_blocks],
            "dim_M": self.dim_M,
            "dim_S": self.dim_S,
            "dim_total": self.dim_total,
            "oracle_dim": self.oracle_dim,
        }


def algebra_dimension_formula(n: int, d: int) -> int:
    """dim of the span of the n! operators: sum of dim^2 over mu of n with
    height at most d (identical for transposed and untransposed spans)."""
    return sum(
        mu.hook_dimension() ** 2 for mu in partitions_of(n) if mu.height <= d
    )


def rank_of_q(alpha: Partition, d: int, n: int) -> int:
    """Rank of Q(alpha) from the exact zero condition, no numerics."""
    full = (n - 1) * alpha.hook_dimension()
    theta = zero_condition(alpha, d)
    return full if theta is None else full - theta.hook_dimension()


def structure_report(n: int, d: int) -> StructureReport:
    """The blocks of ``block_labels`` with their sizes: rank Q(alpha) for
    kind M, dim nu for kind S.  It claims nothing about their sum;
    ``checks.check_dimensions`` compares it with the span dimension formula.
    ``oracle_dim`` is left for a caller that measures that span on (C^d)^n."""
    m_labels, s_labels = block_labels(n, d)
    m_blocks = [(alpha, rank_of_q(alpha, d, n)) for alpha in m_labels]
    s_blocks = [(nu, nu.hook_dimension()) for nu in s_labels]
    dim_m = sum(r * r for _a, r in m_blocks)
    dim_s = sum(k * k for _v, k in s_blocks)
    return StructureReport(n, d, m_blocks, s_blocks, dim_m, dim_s, dim_m + dim_s)


# -- the unit of the main ideal ------------------------------------------


def unit_of_M(n: int, d: int) -> AlgebraElement:
    """The idempotent acting as identity on the main ideal.

    Per label alpha the unit is sum_{J,I} Qplus[J,I] u[J,I] with Qplus the
    (pseudo)inverse of Q(alpha) built from the closed-form eigenvalues and
    the d-independent reducing matrix; the vanishing block, when present,
    is excluded by its exact label rather than numerically.  With J = (b, k)
    and I = (a, i), W(images[b, a, s]) of ``u_terms`` has one einsum of
    Qplus and the weights as coefficient, summed over alpha.
    """
    ctx, m = AlgebraContext(n, d), n - 1
    coeffs = 0.0
    for alpha in block_labels(n, d)[0]:
        spectral = spectral_q(alpha, d, n)
        kept_cols, kept_lams, _nus = _theta_filtered(spectral)
        images, weights = u_terms(alpha, n)
        z = spectral.z[:, kept_cols].reshape(m, len(weights), -1)  # rows (b, k)
        q_plus = np.einsum("bkc,aic->bkai", z / kept_lams, z)  # Q^+[(b, k), (a, i)]
        coeffs = coeffs + np.einsum("bkai,kis->bas", q_plus, weights)
    total = np.zeros(len(image_array(n)))
    total[lehmer_rank(images)] = coeffs  # the images are alike for every alpha
    keys = np.flatnonzero(total)
    perms = map(Permutation, (image_array(n)[keys] + 1).tolist())
    return AlgebraElement(ctx, dict(zip(perms, total[keys].tolist())))
