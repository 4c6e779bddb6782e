"""The cached generator families on the whole space.

The oracle builds them on the balanced weight sector.  Inside
``whole_space()`` the default sector is every basis string instead, as it
was before sectors: tests of the family arithmetic then run on all d^n
states, where V' = W((n-1 n))^{t_n} has rows of no one and of d ones, trace
claims read whole-space traces, and a run of the checks can be compared
with the same run on the sector.  The cache is cleared on the way in and out.
"""

import contextlib

import numpy as np

import ptalgebra.checks as checks
import ptalgebra.oracle as oracle


@contextlib.contextmanager
def whole_space():
    real = oracle.sector

    def everything(n, d, transposed=False, weight=None):
        return np.arange(d**n) if weight is None else real(n, d, transposed, weight)

    oracle._family.cache_clear()
    oracle.sector = checks.sector = everything
    try:
        yield
    finally:
        oracle.sector = checks.sector = real
        oracle._family.cache_clear()
