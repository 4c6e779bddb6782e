"""The cached generator families and the index form on the whole space.

The oracle builds them on the balanced weight sector.  Inside
``whole_space()`` the default sector is every basis string instead, as it
was before sectors: tests of the stack arithmetic then reach the CSR
storage at small (n, d), trace claims read whole-space traces, and a run
of the checks can be compared with the same run on the sector.  The caches
are cleared on the way in and out.
"""

import contextlib

import numpy as np

import ptalgebra.checks as checks
import ptalgebra.oracle as oracle


def _clear():
    oracle._family.cache_clear()
    oracle._generator_index.cache_clear()


@contextlib.contextmanager
def whole_space():
    real = oracle.sector

    def everything(n, d, transposed=False, weight=None):
        return np.arange(d**n) if weight is None else real(n, d, transposed, weight)

    _clear()
    oracle.sector = checks.sector = everything
    try:
        yield
    finally:
        oracle.sector = checks.sector = real
        _clear()
