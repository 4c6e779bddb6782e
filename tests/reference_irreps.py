"""Kind-M irrep images from the paper's explicit matrix elements.

An independent reference for ``ptalgebra.irreps``, which builds every
image from the images of S(n-1) and of the one contraction
V' = W((n-1 n))^{t_n}.  Here each image is written down directly.  A
transposed generator sigma factors as sigma = sigma_hat (a n) with
(a, b) = sigma.classify() and sigma_hat fixing n; m = n-1 below.

- Reduced basis: sigma fixing n acts as the block sum of the kept psi_nu,
  and sigma_hat (a n) as psi(sigma_hat) sqrt(Lambda) Z_a^T Z_a sqrt(Lambda),
  with Z_a the a-th block row of Z on the non-null columns.
- Group-averaged basis: sigma fixing n fills the blocks
  (sigma(q), q) with phi[(sigma(q) m) sigma (q m)], and sigma_hat (a n)
  fills block row b only, its (b, q) block phi[(b m) sigma_hat (a q)(q m)],
  times d when q = a.  The basis exists only where det Q(alpha) != 0.
"""

import numpy as np

from ptalgebra.induced import spectral_q
from ptalgebra.partitions import Partition
from ptalgebra.permutations import Permutation
from ptalgebra.yor import irrep


def image_of(rep, sigma: Permutation) -> np.ndarray:
    """``rep.image`` of one generator, read as a batch of one row."""
    return rep.image(np.array([sigma.images]) - 1)[0]


def _swap(m: int, x: int, y: int) -> Permutation:
    return Permutation.transposition(m, x, y)


def _block_sum(blocks: list[np.ndarray]) -> np.ndarray:
    size = sum(len(b) for b in blocks)
    out = np.zeros((size, size))
    pos = 0
    for block in blocks:
        out[pos:pos + len(block), pos:pos + len(block)] = block
        pos += len(block)
    return out


def reference_f_images(alpha: Partition, d: int, n: int) -> list[np.ndarray]:
    """Reduced-basis image of every W(sigma), in ``Permutation.all`` order."""
    spectral = spectral_q(alpha, d, n)
    kept = [col for col, (nu, _j) in enumerate(spectral.z_labels)
            if nu != spectral.theta]
    kept_nus = [nu for nu, j in spectral.z_labels if j == 1 and nu != spectral.theta]
    sqrt_lam = np.sqrt([spectral.eigenvalue_of(spectral.z_labels[c][0]) for c in kept])
    w = alpha.hook_dimension()

    def psi(tau: Permutation) -> np.ndarray:
        return _block_sum([irrep(nu).image(tau.restrict(n - 1)) for nu in kept_nus])

    def image(sigma: Permutation) -> np.ndarray:
        if sigma.fixes_last():
            return psi(sigma)
        a, _b = sigma.classify()
        z_a = spectral.z[(a - 1) * w:a * w, kept]
        return (psi(sigma * _swap(n, a, n))
                @ (sqrt_lam[:, None] * (z_a.T @ z_a) * sqrt_lam[None, :]))

    return [image(sigma) for sigma in Permutation.all(n)]


def reference_e_images(alpha: Partition, d: int, n: int) -> list[np.ndarray]:
    """Group-averaged-basis image of every W(sigma), in ``Permutation.all`` order."""
    phi = irrep(alpha)
    w = phi.dim
    m = n - 1

    def image(sigma: Permutation) -> np.ndarray:
        out = np.zeros((m * w, m * w))

        def put(row: int, col: int, word: Permutation):
            out[(row - 1) * w:row * w, (col - 1) * w:col * w] = (
                phi.image(word.restrict(m - 1)))

        if sigma.fixes_last():
            tau = sigma.restrict(m)
            for q in range(1, m + 1):
                put(tau(q), q, _swap(m, tau(q), m) * tau * _swap(m, q, m))
            return out
        a, b = sigma.classify()
        sigma_hat = (sigma * _swap(n, a, n)).restrict(m)
        for q in range(1, m + 1):
            put(b, q, _swap(m, b, m) * sigma_hat * _swap(m, a, q) * _swap(m, q, m))
        out[(b - 1) * w:b * w, (a - 1) * w:a * w] *= d
        return out

    return [image(sigma) for sigma in Permutation.all(n)]
