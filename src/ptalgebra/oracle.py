"""Dense/sparse ground truth on (C^d)^{tensor n}.

Everything the abstract layer claims is re-checkable here: permutation
operators move tensor factors, the partial transpose swaps the last index
pair, and spans are measured by Gram-matrix rank.

Storage depends only on D = d^n.  Up to ``DENSE_MAX_DIM`` = 64 an operator
is a float64 numpy array: at that size a product costs less than the
bookkeeping of a sparse one.  Above it operators are scipy CSR matrices,
because a dense product costs D^3 and the n! dense generators of
(n, d) = (7, 2) alone would take 660 MB; with 64 the largest dense family
is the 720 generators of (6, 2), 24 MB.  ``TensorOp`` hides the choice, and
``scipy.sparse`` is imported only when a CSR operator is built.  Each
generator operator W(sigma) and its partial transpose is built once per
(sigma, d) and then shared (dense ones read-only); the size cap (default
d^n <= 4096) is checked on every call, before the cache is consulted.

Basis vectors are flattened big-endian: factor 1 is the most significant
digit, so the partial transpose acts on the least significant one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .algebra import AlgebraElement
from .partitions import Partition
from .permutations import Permutation
from .yor import SymmetricGroupIrrep

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_CAP = 4096
CAP_ENV_VAR = "PTALGEBRA_CAP"
DENSE_MAX_DIM = 64
# Both generator families of S(6), so every dense (n, d) stays cached whole.
GENERATOR_CACHE_SIZE = 2 * 720


class SizeCapError(ValueError):
    """An operator on d^n basis states larger than the oracle size cap."""


def size_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{CAP_ENV_VAR}={raw!r} is not a positive integer")
    return cap


def _check_cap(dim: int, cap: int | None):
    limit = size_cap() if cap is None else cap
    if dim > limit:
        raise SizeCapError(f"d^n = {dim} exceeds the oracle size cap {limit}; "
                           f"raise it with cap or {CAP_ENV_VAR}")


def _sparse():
    import scipy.sparse

    return scipy.sparse


def _is_dense(dim: int) -> bool:
    return dim <= DENSE_MAX_DIM


@dataclass(frozen=True)
class TensorOp:
    """An operator on (C^d)^{tensor n}.

    ``matrix`` is a float64 ndarray when d^n <= DENSE_MAX_DIM and a scipy
    CSR matrix above, so operands of + and @ always share one storage.
    """

    n: int
    d: int
    matrix: np.ndarray | sp.csr_matrix = field(compare=False)

    @property
    def dim(self) -> int:
        return self.d**self.n

    def _new(self, matrix) -> "TensorOp":
        if not isinstance(matrix, np.ndarray):
            matrix = matrix.tocsr()
        return TensorOp(self.n, self.d, matrix)

    def __add__(self, other: "TensorOp") -> "TensorOp":
        self._check(other)
        return self._new(self.matrix + other.matrix)

    def __radd__(self, other) -> "TensorOp":
        if other == 0:  # lets sum() work
            return self
        return NotImplemented

    def __sub__(self, other: "TensorOp") -> "TensorOp":
        self._check(other)
        return self._new(self.matrix - other.matrix)

    def __rmul__(self, scalar) -> "TensorOp":
        return self._new(scalar * self.matrix)

    def __matmul__(self, other: "TensorOp") -> "TensorOp":
        self._check(other)
        return self._new(self.matrix @ other.matrix)

    def adjoint(self) -> "TensorOp":
        return self._new(self.matrix.conj().T)

    def trace(self) -> float:
        return float(self.matrix.trace())

    def max_abs(self) -> float:
        m = self.matrix
        values = m if isinstance(m, np.ndarray) else m.data
        return float(np.abs(values).max(initial=0.0))

    def distance(self, other: "TensorOp") -> float:
        return (self - other).max_abs()

    def dense(self) -> np.ndarray:
        """A fresh, writable ndarray copy of the operator."""
        m = self.matrix
        return np.array(m) if isinstance(m, np.ndarray) else m.toarray()

    def _check(self, other: "TensorOp"):
        if (self.n, self.d) != (other.n, other.d):
            raise ValueError("operator shape mismatch")


def _from_entries(n: int, d: int, rows: np.ndarray, cols: np.ndarray,
                  values: np.ndarray) -> TensorOp:
    """Store the operator with the given nonzero entries in the format for d^n."""
    dim = d**n
    if _is_dense(dim):
        matrix = np.zeros((dim, dim))
        matrix[rows, cols] = values
    else:
        matrix = _sparse().csr_matrix((values, (rows, cols)), shape=(dim, dim))
    return TensorOp(n, d, matrix)


def _transpose_last_indices(rows: np.ndarray, cols: np.ndarray,
                            d: int) -> tuple[np.ndarray, np.ndarray]:
    r_low, c_low = rows % d, cols % d
    return rows - r_low + c_low, cols - c_low + r_low


@lru_cache(maxsize=GENERATOR_CACHE_SIZE)
def _generator(sigma: Permutation, d: int, transposed: bool) -> TensorOp:
    """W(sigma), or its partial transpose, built from its d^n unit entries."""
    n = sigma.degree
    dim = d**n
    # Indices in the type CSR stores: int64 temporaries interleaved with the
    # stored arrays fragment the heap, about 12 MB of extra peak memory for
    # the 720 generators of (n, d) = (6, 4).
    index = np.int32 if dim <= np.iinfo(np.int32).max else np.int64
    cols = np.arange(dim, dtype=index)
    digits = np.empty((n, dim), dtype=index)
    rest = cols
    for k in range(n - 1, -1, -1):
        digits[k] = rest % d
        rest = rest // d
    inv = sigma.inverse()
    rows = np.zeros(dim, dtype=index)
    for k in range(1, n + 1):
        rows = rows * d + digits[inv(k) - 1]
    if transposed:
        rows, cols = _transpose_last_indices(rows, cols, d)
    op = _from_entries(n, d, rows, cols, np.ones(dim))
    if isinstance(op.matrix, np.ndarray):
        op.matrix.flags.writeable = False
    return op


def _check_generator(sigma: Permutation, d: int, n: int | None, cap: int | None):
    if d < 1:
        raise ValueError("d must be >= 1")
    if n is not None and sigma.degree != n:
        raise ValueError("degree mismatch")
    _check_cap(d**sigma.degree, cap)


def perm_operator(sigma: Permutation, d: int, n: int | None = None,
                  cap: int | None = None) -> TensorOp:
    """The operator sending e_{i_1}..e_{i_n} to e_{i_{s^{-1}(1)}}..e_{i_{s^{-1}(n)}}."""
    _check_generator(sigma, d, n, cap)
    return _generator(sigma, d, False)


def partial_transpose_last(op: TensorOp) -> TensorOp:
    """Transpose the last tensor index pair; an involution."""
    d, dim = op.d, op.dim
    if isinstance(op.matrix, np.ndarray):
        blocks = op.matrix.reshape(dim // d, d, dim // d, d)
        return TensorOp(op.n, d, np.ascontiguousarray(
            blocks.transpose(0, 3, 2, 1)).reshape(dim, dim))
    coo = op.matrix.tocoo()
    rows, cols = _transpose_last_indices(coo.row, coo.col, d)
    return _from_entries(op.n, d, rows, cols, coo.data)


def transposed_perm_operator(sigma: Permutation, d: int, n: int | None = None,
                             cap: int | None = None) -> TensorOp:
    """The partial transpose of ``perm_operator(sigma, d)`` on the last factor."""
    _check_generator(sigma, d, n, cap)
    return _generator(sigma, d, True)


def element_operator(elem: AlgebraElement, cap: int | None = None) -> TensorOp:
    """Oracle image of a formal combination of transposed generators."""
    ctx = elem.ctx
    if ctx.symbolic:
        raise ValueError("symbolic elements have no tensor image; fix d first")
    total = zero_operator(ctx.n, ctx.d, cap)
    for perm, coeff in elem.terms.items():
        total = total + coeff * transposed_perm_operator(perm, ctx.d, ctx.n, cap)
    return total


def zero_operator(n: int, d: int, cap: int | None = None) -> TensorOp:
    dim = d**n
    _check_cap(dim, cap)
    if _is_dense(dim):
        return TensorOp(n, d, np.zeros((dim, dim)))
    return TensorOp(n, d, _sparse().csr_matrix((dim, dim)))


def identity_operator(n: int, d: int, cap: int | None = None) -> TensorOp:
    dim = d**n
    _check_cap(dim, cap)
    if _is_dense(dim):
        return TensorOp(n, d, np.eye(dim))
    return TensorOp(n, d, _sparse().identity(dim, format="csr"))


RANK_RTOL = 1e-8


def gram_matrix(ops: list[TensorOp]) -> np.ndarray:
    """Hilbert-Schmidt Gram matrix <A,B> = tr(A^dagger B)."""
    if not ops:
        return np.zeros((0, 0))
    dim = ops[0].dim
    if isinstance(ops[0].matrix, np.ndarray):
        stacked = np.stack([op.matrix.reshape(dim * dim) for op in ops])
        return (stacked.conj() @ stacked.T).real
    sp = _sparse()
    stacked = sp.vstack([op.matrix.conj().reshape(1, dim * dim) for op in ops]).tocsr()
    return np.asarray((stacked @ stacked.conj().T).todense()).real


def span_dimension(ops: list[TensorOp]) -> int:
    """Numerical rank of the Gram matrix, relative threshold 1e-8."""
    gram = gram_matrix(ops)
    if gram.size == 0:
        return 0
    eigs = np.linalg.eigvalsh(gram)
    top = eigs.max(initial=0.0)
    if top <= 0:
        return 0
    return int((eigs > RANK_RTOL * top).sum())


def matrix_operators_E(
    rep_images: dict[Permutation, TensorOp | np.ndarray],
    alpha: Partition,
) -> dict[tuple[int, int], TensorOp | np.ndarray]:
    """Group-averaged matrix operators of an irrep inside a representation D.

    E_{ij} = (w/|G|) sum_g phi_{ji}(g^{-1}) D(g).  The zero family is the
    legitimate outcome when alpha does not occur in D.
    """
    group = list(rep_images)
    phi = SymmetricGroupIrrep(alpha)
    inverse_images = [phi.image(g.inverse()) for g in group]
    w = phi.dim
    scale = w / len(group)
    out = {}
    for i in range(1, w + 1):
        for j in range(1, w + 1):
            acc = None
            for g, image in zip(group, inverse_images):
                coeff = scale * image[j - 1, i - 1]
                term = coeff * rep_images[g]
                acc = term if acc is None else acc + term
            out[(i, j)] = acc
    return out
