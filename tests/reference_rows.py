"""The left actions on every sigma, the x law on every pair of blocks, and
the irreps on every pair of generators.

Independent references for the generator-row forms of ``ptalgebra.checks``:
``check_u_structure`` checks the left actions on the oracle for the n-1
generators only, ``_x_claim`` the law x_IJ x_KL = A_JK x_IL on 2s left
factors, and ``check_irreps`` the homomorphism on the n-1 generator rows
and the pairs that ``law_sweep`` flags.  Here every sigma in S(n), every
left block and every pair is its own row, with no word and no pivot.  The
left action of one sigma is also written on ``Permutation`` objects, as a
reference for the array form of ``checks._left_action``, and
``word_lengths`` reads the length of every word of ``generator_words``.
"""

import numpy as np

from ptalgebra import checks
from ptalgebra.algebra import AlgebraContext, mul_generators
from ptalgebra.induced import q_matrix
from ptalgebra.oracle import OperatorStack, generator_stack
from ptalgebra.partitions import Partition
from ptalgebra.permutations import Permutation, image_array, lehmer_rank
from ptalgebra.yor import irrep


def reference_x_law(x: OperatorStack, a_matrix: np.ndarray) -> np.ndarray:
    """The ``(s^2, s^2)`` residuals of x_IJ x_KL = A_JK x_IL, row I s + J
    and column K s + L, with every block of ``x`` as a left factor."""
    s = len(a_matrix)
    i, j = np.divmod(np.arange(s * s), s)
    return x.action_residuals(x, (i[:, None] * s + j)[..., None],
                              a_matrix[j[:, None], i][..., None])


def reference_left_action(sigma: Permutation, p: int, d: int
                          ) -> tuple[int, float, Permutation]:
    """(target, scale, tau) with W(sigma) u_ij^pq = scale sum_k phi_ki(tau)
    u_kj^{target q}, for one sigma in S(n) and label p, on ``Permutation``
    objects: target 1-based and tau in S(n-2)."""
    n = sigma.degree
    m = n - 1
    if sigma.fixes_last():
        sig = sigma.restrict(m)
        target = sig(p)
        tau = (Permutation.transposition(m, target, m) * sig
               * Permutation.transposition(m, p, m))
        return target, 1.0, tau.restrict(n - 2)
    a, b = sigma.classify()
    sigma_hat = (sigma * Permutation.transposition(n, a, n)).restrict(m)
    tau = (Permutation.transposition(m, b, m) * sigma_hat
           * Permutation.transposition(m, a, p) * Permutation.transposition(m, p, m))
    return b, float(d) if a == p else 1.0, tau.restrict(n - 2)


def reference_left_actions(alpha: Partition, n: int, d: int) -> np.ndarray:
    """The ``(n!, s^2)`` residuals of W(sigma) u_kl^pq = scale sum_t
    phi_tk(tau) u_tl^{target q}, one row per sigma of the dense stack of the
    transposed generators, a product each, with (target, scale, tau) the claim of
    ``checks._left_action``, read at call time so that a planted claim
    reaches both forms."""
    m, w = n - 1, alpha.hook_dimension()
    u = checks._u_stack(alpha, AlgebraContext(n, d), None)
    phi = irrep(alpha)
    group = list(Permutation.all(n - 2))
    target, scale, tau = checks._left_action(image_array(n), d)
    index = np.zeros((len(target), len(u), w), dtype=int)
    weights = np.zeros((len(target), len(u), w))
    for sigma in range(len(target)):
        for block in range(len(u)):
            (p, k), (q, l) = (divmod(x, w) for x in divmod(block, m * w))
            image = phi.image(group[tau[sigma, p]])
            for t in range(w):
                index[sigma, block, t] = (target[sigma, p] * w + t) * m * w + q * w + l
                weights[sigma, block, t] = scale[sigma, p] * image[t, k]
    family = generator_stack(n, d, True)
    dense = family.combine(np.arange(len(family))[:, None], np.ones((len(family), 1)))
    return u.action_residuals(dense, index, weights)


def reference_u_structure(alpha: Partition, n: int, d: int) -> float:
    """The largest residual of the u products over every pair and of the
    left actions over every sigma."""
    u = checks._u_stack(alpha, AlgebraContext(n, d), None)
    products = reference_x_law(u, q_matrix(alpha, d, n))
    return float(max(products.max(), reference_left_actions(alpha, n, d).max()))


def reference_irreps(n: int, d: int, law=mul_generators) -> float:
    """The largest max |psi(sigma) psi(rho) - d^p psi(tau)| over every irrep
    of ``checks.all_irreps``, read at call time so that a planted irrep
    reaches both forms, and every pair (sigma, rho), with (p, tau) from
    ``law``: one row of n! products per sigma."""
    images = image_array(n)
    stacks = [np.concatenate([rep.image(row[None]) for row in images])
              for rep in checks.all_irreps(n, d)]
    worst = 0.0
    for s, sigma in enumerate(images):
        powers, products = law(sigma, images)
        scale = (d**powers)[:, None, None]
        index = lehmer_rank(products)
        for stack in stacks:
            worst = max(worst, np.abs(stack[s] @ stack - scale * stack[index]).max())
    return float(worst)


def word_lengths(rest: np.ndarray) -> np.ndarray:
    """The length of the word of every sigma, following ``rest`` of
    ``generator_words`` to the identity, position 0."""
    lengths, at = np.zeros(len(rest), dtype=int), np.arange(len(rest))
    for _ in range(len(rest)):
        moving = at > 0
        if not moving.any():
            return lengths
        lengths += moving
        at = np.where(moving, rest[at], 0)
    raise AssertionError("a word does not end at the identity")
