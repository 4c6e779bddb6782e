"""The reducing matrix Z(alpha) built from group-averaged projectors.

An independent reference for ``ptalgebra.induced.z_matrix``: for each
grown label nu it averages the induced representation over all of S(n-1)
against the entries of psi_nu, and reads the columns off one reference
column of the rank-one projector E_11.  It costs (n-1)! matrix sums per
column, so it is only usable up to n = 7.
"""

from math import factorial, sqrt

import numpy as np

from ptalgebra.induced import InducedRep
from ptalgebra.partitions import Partition
from ptalgebra.permutations import Permutation
from ptalgebra.yor import irrep

# A rank-one projector's diagonal is either 0 (up to rounding) or at least
# 1/((n-1) dim alpha); the reference column is the first entry above this.
DIAG_TOL = 1e-9


def reference_z_matrix(alpha: Partition,
                       n: int) -> tuple[np.ndarray, list[tuple[Partition, int]]]:
    """Z with columns (nu, j) in added-box order, leading column's first
    nonzero entry positive in each block."""
    rep = InducedRep(alpha, n)
    m = n - 1
    group = list(Permutation.all(m))
    images = {g: rep.matrix(g) for g in group}
    columns: list[np.ndarray] = []
    labels: list[tuple[Partition, int]] = []
    for nu, _row, _extends in rep.decomposition:
        psi = irrep(nu)
        scale = psi.dim / factorial(m)

        def averaged(j):
            return sum(scale * psi.image(g.inverse())[0, j] * images[g]
                       for g in group)

        projector = averaged(0)
        ref = next(t for t in range(projector.shape[0])
                   if projector[t, t] > DIAG_TOL)
        norm = sqrt(projector[ref, ref])
        block = [averaged(j)[:, ref] / norm for j in range(psi.dim)]
        lead = block[0]
        first = np.flatnonzero(np.abs(lead) > DIAG_TOL)[0]
        if lead[first] < 0:
            block = [-col for col in block]
        columns.extend(block)
        labels.extend((nu, j) for j in range(1, psi.dim + 1))
    return np.column_stack(columns), labels
