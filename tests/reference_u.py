"""The u terms and the unit of M built one permutation at a time.

An independent reference for ``ptalgebra.algebra.u_terms`` and its
readers, which build every u term at once as arrays over S(n-2).  Here
u_{ij}^{ab}(alpha) composes (a n)(a n-1) sigma (b n-1) for each sigma in
S(n-2), and the unit of M adds Qplus[J, I] u[J, I] one element at a time.
"""

from math import factorial

import numpy as np

from ptalgebra.algebra import AlgebraContext, AlgebraElement
from ptalgebra.induced import spectral_q
from ptalgebra.partitions import Partition, partitions_of
from ptalgebra.permutations import Permutation
from ptalgebra.yor import irrep


def reference_u_element(alpha: Partition, a: int, b: int, i: int, j: int,
                        ctx: AlgebraContext) -> AlgebraElement:
    """(w/(n-2)!) sum_sigma phi_ji(sigma^-1) W((a n)(a n-1) sigma (b n-1))."""
    n = ctx.n
    phi = irrep(alpha)
    an = Permutation.transposition(n, a, n)
    left = Permutation.transposition(n, a, n - 1)
    right = Permutation.transposition(n, b, n - 1)
    scale = phi.dim / factorial(n - 2)
    terms: dict[Permutation, object] = {}
    for sigma in Permutation.all(n - 2):
        coeff = scale * phi.image(sigma.inverse())[j - 1, i - 1]
        key = an * left * sigma.embed(n) * right
        terms[key] = terms.get(key, 0.0) + coeff
    return AlgebraElement(ctx, terms)


def reference_unit_of_M(n: int, d: int) -> AlgebraElement:
    """sum over alpha and (J, I) of Qplus(alpha)[J, I] u[J, I], with
    J = (b, k) and I = (a, i) and u[J, I] = u_{ki}^{ba}(alpha)."""
    ctx = AlgebraContext(n, d)
    total = AlgebraElement.zero(ctx)
    for alpha in partitions_of(n - 2):
        if alpha.height > d:
            continue
        spectral = spectral_q(alpha, d, n)
        kept = [col for col, (nu, _j) in enumerate(spectral.z_labels)
                if nu != spectral.theta]
        z_kept = spectral.z[:, kept]
        lams = [spectral.eigenvalue_of(spectral.z_labels[c][0]) for c in kept]
        q_plus = z_kept @ np.diag([1.0 / lam for lam in lams]) @ z_kept.T
        w = alpha.hook_dimension()
        for jj in range(q_plus.shape[0]):
            b, k = divmod(jj, w)
            for ii in range(q_plus.shape[0]):
                a, i = divmod(ii, w)
                u = reference_u_element(alpha, b + 1, a + 1, k + 1, i + 1, ctx)
                total = total + q_plus[jj, ii] * u
    return total
