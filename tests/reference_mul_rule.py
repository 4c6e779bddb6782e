"""The composition-law check on float operators, one dense row per left factor.

An independent reference for ``ptalgebra.checks.check_mul_rule``: for each
sigma it multiplies ``transposed_perm_operator(sigma)`` into the whole
transposed generator stack and subtracts the gathered d^p W(tau), so it
shares no code with the integer index form.  ``law`` is the composition
law under test, ``mul_generators`` unless a test plants a broken one.
"""

from ptalgebra.algebra import mul_generators
from ptalgebra.oracle import generator_stack, transposed_perm_operator
from ptalgebra.permutations import Permutation, image_array, lehmer_rank


def reference_mul_rule(n: int, d: int, law=mul_generators) -> tuple[float, str]:
    """The largest max |W(sigma) W(rho) - d^p W(tau)| over all pairs, and the
    first pair that attains it, as ``"sigma * rho"``."""
    perms = list(Permutation.all(n))
    images = image_array(n)
    family = generator_stack(n, d, transposed=True)

    def rows():
        for sigma, image in zip(perms, images):
            powers, products = law(image, images)
            yield (transposed_perm_operator(sigma, d, n),
                   lehmer_rank(products)[:, None], (d**powers)[:, None])

    residuals = family.action_residuals(rows())
    s, r = divmod(int(residuals.argmax()), len(perms))
    return float(residuals[s, r]), f"{perms[s]} * {perms[r]}"
