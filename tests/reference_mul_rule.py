"""The composition-law check on float operators, one dense row per left factor.

An independent reference for ``ptalgebra.checks.check_mul_rule``: with the
dense stack of the transposed generators as both the left factors and the
family, row sigma multiplies W(sigma)^{t_n} into every block and subtracts
the gathered d^p W(tau), so it shares no code with the integer law check.  ``law`` is
the composition law under test, ``mul_generators`` unless a test plants a
broken one.
"""

import numpy as np

from ptalgebra.algebra import mul_generators
from ptalgebra.oracle import generator_stack
from ptalgebra.permutations import Permutation, image_array, lehmer_rank


def reference_mul_rule(n: int, d: int, law=mul_generators) -> tuple[float, str]:
    """The largest max |W(sigma) W(rho) - d^p W(tau)| over all pairs, and the
    first pair that attains it, as ``"sigma * rho"``."""
    perms = list(Permutation.all(n))
    images = image_array(n)
    index = generator_stack(n, d, transposed=True)
    family = index.combine(np.arange(len(index))[:, None], np.ones((len(index), 1)))
    rows = [law(image, images) for image in images]
    index = np.array([lehmer_rank(products) for _powers, products in rows])
    scale = np.array([d**powers for powers, _products in rows])
    residuals = family.action_residuals(family, index[..., None], scale[..., None])
    s, r = divmod(int(residuals.argmax()), len(perms))
    return float(residuals[s, r]), f"{perms[s]} * {perms[r]}"
