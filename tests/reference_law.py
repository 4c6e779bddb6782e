"""The composition law written pair by pair on ``Permutation`` objects.

An independent reference for ``ptalgebra.algebra.mul_generators``: it
follows the law's statement with explicit transpositions and shares no
array code with the package.
"""

from ptalgebra.permutations import Permutation


def reference_mul_generators(sigma: Permutation,
                             rho: Permutation) -> tuple[int, Permutation]:
    """W(sigma) W(rho) = d^{delta_aq} W((sigma(q) n) sigma rho (p n))."""
    n = sigma.degree
    if sigma.fixes_last() or rho.fixes_last():
        return 0, sigma * rho
    a, _b = sigma.classify()
    p, q = rho.classify()
    left = Permutation.transposition(n, sigma(q), n)
    right = Permutation.transposition(n, p, n)
    return (1 if a == q else 0), left * sigma * rho * right
