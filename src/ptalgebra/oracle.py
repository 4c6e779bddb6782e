"""Dense/sparse ground truth on (C^d)^{tensor n}.

Everything the abstract layer claims is re-checkable here: permutation
operators move tensor factors, the partial transpose swaps the last index
pair, and spans are measured by Gram-matrix rank.

Storage depends only on D = d^n.  Up to ``DENSE_MAX_DIM`` = 64 an operator
is a float64 numpy array: at that size a product costs less than the
bookkeeping of a sparse one.  Above it operators are scipy CSR matrices,
because a dense product costs D^3 and the n! dense generators of
(n, d) = (7, 2) alone would take 660 MB; with 64 the largest dense family
is the 720 generators of (6, 2), 24 MB.  ``TensorOp`` (one operator) and
``OperatorStack`` (a family) hide the choice, and ``scipy.sparse`` is
imported only when a CSR operator is built.  The size cap (default
d^n <= 4096) is checked on every call, before any cache is consulted.

An ``OperatorStack`` holds K operators as one ``(K, D, D)`` array on the
dense side and as the D x K*D CSR block row [B_1 | ... | B_K] above it.
Its operations are whole-family ones: A B_k (and B_k A) for every k in
one product, linear combinations sum_i C[j, i] B_i, every B_k^T,
per-block residuals max |X_k - Y_k|, and the Gram matrix.  A combination
whose rows each list their own blocks (a gather and a scale when C is
monomial, as in d^p W(tau), or the terms of element images) adds its terms
one at a time, so each block is bitwise the sum of its scaled terms; one
whose rows share their blocks (the averaged families, the y and f units)
is one product with the blocks read as vectors of length D^2, and is not
bitwise that sum.  ``action_residuals`` fuses them for claims of the form
"L_r B_k = sum_i C[r, k, i] B_i for every k", one call for all left
factors L_r, themselves the blocks of a stack, with C given as arrays; it
reuses two dense buffers for all rows because a fresh (K, D, D) array per
row costs more than the work in it.
The checks of the u structure constants and left actions, of the unit of
M, of the reduced matrix units, and of the averaged matrix operators
(``matrix_operators_E``, behind the dimension and appendix checks) all run
on stacks, so ``checks`` never branches on the storage; they pick the left
factors of a claim as a few blocks of a stack (generator rows, pivot rows),
not every block.

``generator_index`` gives the transposed generators as integer index
lists instead (``GeneratorIndex``): each W(sigma)^{t_n} is a 0/1 matrix
with D ones and at most d per row or column, stored as the columns of the
ones in each row and the rows of the ones in each column, padded to d.
It is built from basis digits like the stacks, never from the
composition law, and checks the law W(sigma) W(rho) = d^p W(tau) and the
associativity of sampled triples exactly, in integers, with no float
operator.  The law runs in chunks of generator pairs with at most
``LAW_CHUNK_ENTRIES`` support entries each, or one pair when D alone is
larger.  One routine, ``_largest_sums``, gives every exact entry difference
on it: of a failing law pair, of two bracketings, and in ``stack_residuals``
of the float generators, which stay tied to the form the law is checked on.

One builder, ``_generators``, makes W(sigma), or its partial transpose,
from basis digits for every row of a ``(K, n)`` batch of 0-based images.
``generator_stack`` is its cached call on all of S(n), in
``Permutation.all`` order, built once per (n, d) and read-only on the
dense side.  ``perm_operator`` and ``transposed_perm_operator`` call it
afresh, with no cache: a batch gives its stack, and a Permutation row 0
of a one-row batch, as a ``TensorOp``.
The images of algebra elements are one ``combine`` of the transposed
stack: ``element_stack`` maps a list of elements to a stack, and
``element_operator`` is its one-element case.

Basis vectors are flattened big-endian: factor 1 is the most significant
digit, so the partial transpose acts on the least significant one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

import numpy as np

from .algebra import AlgebraElement
from .partitions import Partition
from .permutations import Permutation, degree, image_array, lehmer_rank
from .yor import averaging_weights

DEFAULT_CAP = 4096
CAP_ENV_VAR = "PTALGEBRA_CAP"
DENSE_MAX_DIM = 64
# Generator stacks, plain and transposed: dense at most 24 MB each ((6, 2)).
FAMILY_CACHE_SIZE = 8


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
                           f"raise it with --cap or ${CAP_ENV_VAR}")


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
    matrix: Any = field(compare=False)

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


class OperatorStack:
    """K operators B_1..B_K on (C^d)^{tensor n}, held as one array.

    ``data`` is a float64 ``(K, D, D)`` ndarray when D = d^n <= DENSE_MAX_DIM
    and the D x K*D CSR block row [B_1 | ... | B_K] above, so one product
    or one gather covers the whole family.  Methods return new stacks and
    never write to ``data``.
    """

    def __init__(self, n: int, d: int, data):
        self.n, self.d, self.data = n, d, data
        self.dim = d**n
        self.size = (data.shape[0] if isinstance(data, np.ndarray)
                     else data.shape[1] // self.dim)

    def __len__(self) -> int:
        return self.size

    def _new(self, data) -> "OperatorStack":
        if not isinstance(data, np.ndarray):
            data = data.tocsr()
        return OperatorStack(self.n, self.d, data)

    @staticmethod
    def concat(stacks: list["OperatorStack"]) -> "OperatorStack":
        first = stacks[0]
        if isinstance(first.data, np.ndarray):
            data = np.concatenate([s.data for s in stacks])
        else:
            data = _sparse().hstack([s.data for s in stacks], format="csr")
        return OperatorStack(first.n, first.d, data)

    def op(self, k: int) -> TensorOp:
        """B_k as a TensorOp; on the dense side a view, read-only if the stack is."""
        if isinstance(self.data, np.ndarray):
            return TensorOp(self.n, self.d, self.data[k])
        return TensorOp(self.n, self.d,
                        self.data[:, k * self.dim:(k + 1) * self.dim].tocsr())

    def left_mul(self, a: TensorOp) -> "OperatorStack":
        """A B_k for every k."""
        if isinstance(self.data, np.ndarray):
            return self._new(np.matmul(a.matrix, self.data))
        return self._new(a.matrix @ self.data)

    def right_mul(self, a: TensorOp) -> "OperatorStack":
        """B_k A for every k."""
        if isinstance(self.data, np.ndarray):
            return self._new(np.matmul(self.data, a.matrix))
        sp = _sparse()
        return self._new(self.data @ sp.kron(sp.identity(self.size), a.matrix,
                                             format="csr"))

    def adjoint(self) -> "OperatorStack":
        """B_k^dagger = B_k^T for every k (the entries are real)."""
        if isinstance(self.data, np.ndarray):
            return self._new(np.ascontiguousarray(self.data.transpose(0, 2, 1)))
        coo = self.data.tocoo()
        block, col = np.divmod(coo.col, self.dim)
        return self._new(_sparse().csr_matrix(
            (coo.data, (col, block * self.dim + coo.row)), shape=self.data.shape))

    def combine(self, index, weights) -> "OperatorStack":
        """The linear combinations C_j = sum_t weights[j, t] B[index[j, t]].

        ``weights`` is ``(J, m)``: row j lists the coefficients of C_j, and
        ``index`` their blocks, either per row ``(J, m)`` or shared by every
        row ``(m,)``.  With a per-row index, terms are added in t order on
        both storages, each term a gather and scale, so C_j is bitwise the
        sum of its scaled blocks added one at a time; the gather-and-scale
        d^p W(tau) is the case m = 1.  A shared index, as in a dense
        coefficient matrix C = ``combine(arange(K), C)``, is one product of
        the weights with the blocks read as vectors of length D^2: a
        ``tensordot`` on the dense side, and on the CSR side a sparse product
        of the vectorised family, one row per entry (r, c) that some block
        stores and one column per block, with the K x J coefficients, so its
        cost follows the stack's nonzeros and not D^2.  Its sums are not added
        term by term, so they can differ from the per-term ones in the last
        bits.
        """
        index, weights = np.asarray(index), np.asarray(weights, dtype=float)
        dense = isinstance(self.data, np.ndarray)
        if index.ndim == 1 and dense:
            return self._new(np.tensordot(weights, self.data[index], axes=1))
        if index.ndim == 1:
            sp, dim = _sparse(), self.dim
            # row u of the vectorised family: the entry (r, c) of every block,
            # over the entries that some block stores, in (r, c) order
            coo = self.data.tocoo()
            block, col = np.divmod(coo.col, dim)
            entries, u = np.unique(coo.row.astype(np.int64) * dim + col,
                                   return_inverse=True)
            vectors = sp.csr_matrix((coo.data, (u, block)),
                                    shape=(len(entries), self.size))
            coefficients = np.zeros((self.size, weights.shape[0]))
            np.add.at(coefficients, index, weights.T)
            out = vectors @ sp.csr_matrix(coefficients)
            # row u of out holds entry (r, c) of every C_j, and the rows of
            # one r are consecutive: they are row r of the block row
            row, col = np.divmod(entries, dim)
            return self._new(sp.csr_matrix(
                (out.data, out.indices.astype(np.int64) * dim
                 + np.repeat(col, np.diff(out.indptr)),
                 out.indptr[np.searchsorted(row, np.arange(dim + 1))]),
                shape=(dim, weights.shape[0] * dim)))
        if dense:
            out = np.zeros((weights.shape[0],) + self.data.shape[1:])
            _accumulate(out, self.data, index, weights, np.empty_like(out))
            return self._new(out)
        # term t gathers block columns of the CSC form, so its cost follows
        # the output and not the size of the whole family
        csc, shift = self.data.tocsc(), np.arange(self.dim)
        out = _sparse().csc_matrix((self.dim, weights.shape[0] * self.dim))
        for t in range(weights.shape[1]):
            term = csc[:, (index[:, t, None] * self.dim + shift).ravel()]
            term.data *= np.repeat(np.repeat(weights[:, t], self.dim),
                                   np.diff(term.indptr))
            out = term if t == 0 else out + term
        return self._new(out)

    def residuals(self, other: "OperatorStack | None" = None) -> np.ndarray:
        """max |X_k - Y_k| for every block k (against zero without ``other``)."""
        if other is None:
            diff = self.data.copy()
        else:
            diff = self.data - other.data
        return self._block_max(diff)

    def action_residuals(self, left: "OperatorStack", index, weights) -> np.ndarray:
        """Residuals of the left actions of the R blocks L_r of ``left``.

        ``index`` and ``weights`` broadcast to ``(R, K, m)``: row r claims
        L_r B_k = sum_t weights[r, k, t] B[index[r, k, t]] for every k, each
        row in the form of ``combine``.  Returns the ``(R, K)`` array of
        max |L_r B_k - sum_t weights[r, k, t] B[index[r, k, t]]|.  On the
        dense side every row reuses the same two ``(K, D, D)`` buffers,
        because a fresh array of that size per row costs more than the work
        in it.  On the CSR side L_r is a block column of one CSC copy of
        ``left``, turned back to CSR: a slice of the block row would scan
        the whole family, and a CSC left factor multiplies more slowly.
        """
        count = len(left)
        shape = np.broadcast_shapes(np.shape(index), np.shape(weights),
                                    (count, self.size, 1))
        index = np.broadcast_to(index, shape)
        weights = np.broadcast_to(np.asarray(weights, dtype=float), shape)
        out = np.empty((count, self.size))
        if isinstance(self.data, np.ndarray):
            product, scratch = np.empty_like(self.data), np.empty_like(self.data)
            for r in range(count):
                np.matmul(left.data[r], self.data, out=product)
                _accumulate(product, self.data, index[r], weights[r], scratch,
                            subtract=True)
                out[r] = self._block_max(product)
            return out
        columns, dim = left.data.tocsc(), self.dim
        for r in range(count):
            a = columns[:, r * dim:(r + 1) * dim].tocsr()
            out[r] = self._block_max(
                a @ self.data - self.data @ self._combination(index[r], weights[r]))
        return out

    def nonzeros(self) -> tuple[np.ndarray, ...]:
        """(block, row, col, value) of every stored nonzero entry."""
        if isinstance(self.data, np.ndarray):
            where = np.nonzero(self.data)
            return (*where, self.data[where])
        coo = self.data.tocoo()
        block, col = np.divmod(coo.col, self.dim)
        return block, coo.row, col, coo.data

    def holds_ones(self, rows: np.ndarray, cols: np.ndarray) -> bool:
        """Whether every block B_k is exactly the 0/1 matrix with ones at
        ``(rows[k], cols[k])``, two ``(K, m)`` arrays of distinct positions."""
        count, width = rows.shape
        if isinstance(self.data, np.ndarray):
            values = self.data[np.arange(count)[:, None], rows, cols]
            stored = np.count_nonzero(self.data.reshape(count, -1), axis=1)
        else:
            offset = np.arange(count)[:, None] * self.dim
            values = np.asarray(self.data[rows.ravel(), (cols + offset).ravel()])
            stored = np.bincount(self.data.indices // self.dim,
                                 self.data.data != 0, minlength=count)
        return bool(np.all(values == 1.0) and np.all(stored == width))

    def gram(self) -> np.ndarray:
        """Hilbert-Schmidt Gram matrix <B_j, B_k> = tr(B_j^T B_k)."""
        if isinstance(self.data, np.ndarray):
            flat = self.data.reshape(self.size, self.dim * self.dim)
            return flat @ flat.T
        # G = V^T V, where V has one row per position (r, c) that some block
        # occupies and one column per block, built by sorting the entries of
        # the block row by position: no array of size D^2 is ever made.
        dim, data = self.dim, self.data
        block, col = np.divmod(data.indices, dim)
        row = np.repeat(np.arange(dim, dtype=np.int64), np.diff(data.indptr))
        position = row * dim + col
        order = np.argsort(position)
        position = position[order]
        starts = np.flatnonzero(np.r_[True, position[1:] != position[:-1]])
        v = _sparse().csr_matrix(
            (data.data[order], block[order], np.r_[starts, position.size]),
            shape=(starts.size, self.size))
        return (v.T @ v).toarray()

    def _combination(self, index: np.ndarray, weights: np.ndarray):
        """The K*D x J*D CSR matrix that maps the block row to
        [C_1 | ... | C_J], C_j = sum_t weights[j, t] B[index[j, t]] with a
        per-row index, by right multiplication (see ``action_residuals``)."""
        dim = self.dim
        row, term = np.nonzero(weights)
        shift = np.arange(dim)
        return _sparse().csr_matrix(
            (np.repeat(weights[row, term], dim),
             ((index[row, term][:, None] * dim + shift).ravel(),
              (row[:, None] * dim + shift).ravel())),
            shape=(self.size * dim, weights.shape[0] * dim))

    def _block_max(self, diff) -> np.ndarray:
        """max |entry| of every block of a difference the stack may overwrite."""
        if isinstance(diff, np.ndarray):
            np.abs(diff, out=diff)
            return diff.reshape(len(diff), self.dim**2).max(axis=1, initial=0.0)
        diff = diff.tocsr()
        out = np.zeros(diff.shape[1] // self.dim)
        np.maximum.at(out, diff.indices // self.dim, np.abs(diff.data))
        return out


def _accumulate(out: np.ndarray, data: np.ndarray, index: np.ndarray,
                weights: np.ndarray, scratch: np.ndarray, subtract: bool = False):
    """Add (or subtract) sum_t weights[j, t] data[index[j, t]] into out[j],
    one term t at a time, through ``scratch``."""
    for t in range(weights.shape[1]):
        np.take(data, index[:, t], axis=0, out=scratch)
        scratch *= weights[:, t, None, None]
        if subtract:
            out -= scratch
        else:
            out += scratch


def _transpose_last_indices(rows: np.ndarray, cols: np.ndarray,
                            d: int) -> tuple[np.ndarray, np.ndarray]:
    r_low, c_low = rows % d, cols % d
    return rows - r_low + c_low, cols - c_low + r_low


def _generator_entries(images: np.ndarray, d: int,
                       transposed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the d^n unit entries of W(sigma), or of its
    partial transpose, for each row sigma of a ``(K, n)`` array of 0-based
    images: two ``(K, d^n)`` arrays."""
    count, n = images.shape
    dim = d**n
    # Indices in the type CSR stores: int64 temporaries interleaved with the
    # stored arrays fragment the heap, about 12 MB of extra peak memory for
    # the 720 generators of (n, d) = (6, 4).
    index = np.int32 if count * dim <= np.iinfo(np.int32).max else np.int64
    cols = np.arange(dim, dtype=index)
    digits = np.empty((n, dim), dtype=index)
    rest = cols
    for k in range(n - 1, -1, -1):
        digits[k] = rest % d
        rest = rest // d
    inverse = np.argsort(images, axis=1)  # 0-based sigma^-1
    rows = np.zeros((count, dim), dtype=index)
    for k in range(n):
        rows = rows * d + digits[inverse[:, k]]
    cols = np.broadcast_to(cols, rows.shape)
    if transposed:
        rows, cols = _transpose_last_indices(rows, cols, d)
    return rows, cols


def _generators(images: np.ndarray, d: int, transposed: bool) -> "OperatorStack":
    """W(sigma), or its partial transpose, for each row sigma of a ``(K, n)``
    array of 0-based images, built afresh from their d^n unit entries: a
    new stack, shared with nothing."""
    count, n = images.shape
    dim = d**n
    rows, cols = _generator_entries(images, d, transposed)
    if not _is_dense(dim):
        offset = np.arange(count, dtype=rows.dtype)[:, None] * dim
        data = _sparse().csr_matrix(
            (np.ones(rows.size), (rows.ravel(), (cols + offset).ravel())),
            shape=(dim, count * dim))
        return OperatorStack(n, d, data)
    data = np.zeros((count, dim, dim))
    data[np.arange(count)[:, None], rows, cols] = 1.0
    return OperatorStack(n, d, data)


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _family(n: int, d: int, transposed: bool) -> "OperatorStack":
    """All of W(S(n)), or all their partial transposes, in ``Permutation.all``
    order; read-only on the dense side."""
    family = _generators(image_array(n), d, transposed)
    if isinstance(family.data, np.ndarray):
        family.data.flags.writeable = False
    return family


def _check_family(n: int, d: int, cap: int | None):
    if d < 1:
        raise ValueError("d must be >= 1")
    _check_cap(d**n, cap)


def _fresh(sigma: Permutation | np.ndarray, d: int, n: int | None, cap: int | None,
           transposed: bool) -> "TensorOp | OperatorStack":
    """``perm_operator`` or ``transposed_perm_operator``: the cap, checked before
    the input is read, then ``_generators`` of a batch or of a Permutation's row."""
    single = isinstance(sigma, Permutation)
    images = np.asarray(sigma.images)[None] - 1 if single else np.asarray(sigma)
    _check_family(images.shape[-1], d, cap)
    m = degree(images)
    if n is not None and m != n:
        raise ValueError(f"degree mismatch: {m} != n = {n}")
    stack = _generators(images, d, transposed)
    return stack.op(0) if single else stack


def perm_operator(sigma: Permutation | np.ndarray, d: int, n: int | None = None,
                  cap: int | None = None) -> "TensorOp | OperatorStack":
    """The operator sending e_{i_1}..e_{i_n} to e_{i_{s^{-1}(1)}}..e_{i_{s^{-1}(n)}},
    built afresh: a TensorOp for a Permutation, and for a batch ``(k, n)`` of
    0-based images the stack of its k operators."""
    return _fresh(sigma, d, n, cap, False)


def transposed_perm_operator(sigma: Permutation | np.ndarray, d: int, n: int | None = None,
                             cap: int | None = None) -> "TensorOp | OperatorStack":
    """The partial transpose of ``perm_operator(sigma, d)`` on the last factor."""
    return _fresh(sigma, d, n, cap, True)


def partial_transpose_last(op: TensorOp) -> TensorOp:
    """Transpose the last tensor index pair; an involution."""
    d, dim = op.d, op.dim
    if isinstance(op.matrix, np.ndarray):
        blocks = op.matrix.reshape(dim // d, d, dim // d, d)
        return TensorOp(op.n, d, np.ascontiguousarray(
            blocks.transpose(0, 3, 2, 1)).reshape(dim, dim))
    coo = op.matrix.tocoo()
    rows, cols = _transpose_last_indices(coo.row, coo.col, d)
    return TensorOp(op.n, d, _sparse().csr_matrix((coo.data, (rows, cols)),
                                                  shape=(dim, dim)))


def generator_stack(n: int, d: int, transposed: bool = False,
                    cap: int | None = None) -> "OperatorStack":
    """W(sigma), or its partial transpose, for every sigma in S(n), in
    ``Permutation.all`` order.  Shared and cached: never write to it."""
    _check_family(n, d, cap)
    return _family(n, d, transposed)


# Support entries (pairs times D) that ``GeneratorIndex.law_mismatches``
# examines per call: under 8 MB of temporaries at d = 2.  On the failure
# path ``law_residuals`` lists d + 1 signed entries per support entry, so
# while D <= 2^18 a chunk sorts at most (d + 1) 2^18 entries.
# ``checks.law_sweep`` and ``checks._law_at`` read the same number in
# another unit: as pairs (sigma, rho), a block of rows of n! pairs each,
# whose ``algebra.law_rows`` temporaries are a few arrays of one number per
# pair, 7 MB in all at n = 7; with the two word levels it holds, the
# sweep's peak is 33 MB at n = 7 (tracemalloc).
LAW_CHUNK_ENTRIES = 2**18


def _slot_lists(keys: np.ndarray, values: np.ndarray, d: int, pad: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Group ``values`` by ``keys`` in each row k of two ``(K, D)`` arrays of
    indices below D: the ``(d, K, D)`` array whose ``[i, k, g]`` is the i-th
    value of group g (``pad`` past the last), in the type of ``values``,
    and the ``(K, D)`` group sizes, in the smallest unsigned type that
    holds d."""
    count, dim = keys.shape
    order = np.argsort(keys, axis=1)
    keys = np.take_along_axis(keys, order, axis=1)
    line = np.arange(count)[:, None]
    sizes = np.bincount((keys + line * dim).ravel(),
                        minlength=count * dim).reshape(count, dim)
    starts = np.cumsum(sizes, axis=1) - sizes
    slots = np.full((d, count, dim), pad, dtype=values.dtype)
    slots[np.arange(dim) - np.take_along_axis(starts, keys, axis=1), line, keys] = (
        np.take_along_axis(values, order, axis=1))
    return slots, sizes.astype(np.min_scalar_type(d))


@dataclass(frozen=True, eq=False)
class GeneratorIndex:
    """The transposed generators W(sigma)^{t_n} of S(n), in ``Permutation.all``
    order, as integer index lists: no float operator is built.

    Each W(sigma)^{t_n} is a 0/1 matrix with exactly D = d^n ones and at
    most d in any row or column.  For generator k, ``rows[k]`` and
    ``cols[k]`` hold the positions of its D ones; ``row_cols[i, k, r]`` is
    the column of the i-th one in row r and ``col_rows[i, k, c]`` the row of
    the i-th one in column c, padded with -1 and -2 so that pads never
    match; ``row_count`` and ``col_count`` count the ones of every row and
    column.  The positions and slot lists share the smallest signed type
    that holds -D, so offsets past D are formed in intp.  All of it comes
    from ``_generator_entries``, that is from basis digits, and never from
    the composition law it is used to check.
    """

    d: int
    rows: np.ndarray
    cols: np.ndarray
    row_cols: np.ndarray
    col_rows: np.ndarray
    row_count: np.ndarray
    col_count: np.ndarray

    @classmethod
    def from_entries(cls, d: int, rows: np.ndarray, cols: np.ndarray
                     ) -> "GeneratorIndex":
        """The index form of the 0/1 matrices with ones at ``(rows[k], cols[k])``."""
        kind = np.min_scalar_type(-rows.shape[1])
        rows, cols = rows.astype(kind), cols.astype(kind)
        row_cols, row_count = _slot_lists(rows, cols, d, -1)
        col_rows, col_count = _slot_lists(cols, rows, d, -2)
        arrays = (rows, cols, row_cols, col_rows, row_count, col_count)
        for array in arrays:
            array.flags.writeable = False
        return cls(d, *arrays)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return self.rows.shape[0]

    def derived(self) -> np.ndarray:
        """Whether the slot lists and counts of each generator are the ones
        ``from_entries`` derives from its ``rows`` and ``cols``: a bool
        array, all true for an index built by ``from_entries``."""
        fresh = GeneratorIndex.from_entries(self.d, self.rows, self.cols)
        same = np.ones(len(self), dtype=bool)
        for mine, theirs in ((self.row_cols, fresh.row_cols), (self.col_rows, fresh.col_rows)):
            same &= (mine == theirs).all(axis=(0, 2))
        for mine, theirs in ((self.row_count, fresh.row_count),
                             (self.col_count, fresh.col_count)):
            same &= (mine == theirs).all(axis=1)
        return same

    def law_chunk(self) -> int:
        """Generator pairs per ``law_mismatches`` call: ``LAW_CHUNK_ENTRIES``
        support entries, or one pair when D alone exceeds that."""
        return max(1, LAW_CHUNK_ENTRIES // self.dim)

    def law_mismatches(self, left: np.ndarray, right: np.ndarray,
                       scale: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Whether W(left[p]) W(right[p]) != scale[p] W(target[p]) for each
        pair p: a bool array.

        Exact integer work.  On each of the D ones (i, j) of W(target) the
        product entry is the number of shared indices of row i of the left
        factor and column j of the right one, which must equal the scale.
        The total of the product, sum_m col_count[left](m) row_count[right](m),
        must equal scale * D.  Every entry is nonnegative, so together the
        two conditions are equality.
        """
        dim = self.dim
        left, right, scale = (np.asarray(a, dtype=np.intp) for a in (left, right, scale))
        left_rows = self.rows[target] + (left * dim)[:, None]
        right_cols = self.cols[target] + (right * dim)[:, None]
        theirs = [slots.ravel().take(right_cols) for slots in self.col_rows]
        shared = np.zeros(left_rows.shape, dtype=np.min_scalar_type(self.d))
        for slots in self.row_cols:
            mine = slots.ravel().take(left_rows)
            for other in theirs:
                shared += mine == other
        total = np.einsum("pm,pm->p", self.col_count[left], self.row_count[right],
                          dtype=np.int64)
        return (shared != scale[:, None]).any(axis=1) | (total != scale * dim)

    def law_residuals(self, left: np.ndarray, right: np.ndarray,
                      scale: np.ndarray, target: np.ndarray) -> np.ndarray:
        """max |W(left[p]) W(right[p]) - scale[p] W(target[p])| for each pair
        p, exact, through ``_largest_sums``: the D d ones (i, j) of the
        product, one for each one (i, m) of the left factor (``rows``,
        ``cols``) and each one (m, j) of the right one (``row_cols``), and
        -scale[p] at the D ones of W(target[p])."""
        line = np.arange(len(left))[:, None]
        rows, middle = self.rows[left], self.cols[left]
        product = [(line, rows, slots[right[:, None], middle], 1)
                   for slots in self.row_cols]
        return _largest_sums(len(left), self.dim, product + [
            (line, self.rows[target], self.cols[target], -np.asarray(scale)[:, None])])

    def distances(self, scale_a, target_a, scale_b, target_b) -> np.ndarray:
        """max |scale_a[t] W(target_a[t]) - scale_b[t] W(target_b[t])| for
        every t, exact, through ``_largest_sums`` over the two sets of D ones."""
        line = np.arange(len(target_a))[:, None]
        return _largest_sums(len(target_a), self.dim, [
            (line, self.rows[target_a], self.cols[target_a], np.asarray(scale_a)[:, None]),
            (line, self.rows[target_b], self.cols[target_b], -np.asarray(scale_b)[:, None])])

    def stack_residuals(self, stack: OperatorStack, first: int = 0) -> np.ndarray:
        """max |B_j - W(first + j)^{t_n}| for every block j of a float stack,
        exact, through ``_largest_sums`` over the stored nonzeros of the stack
        and -1 at the D ones of each generator: this ties the float operators
        to the index form.  A stack that ``holds_ones`` of the index form
        reads 0 at once."""
        count = len(stack)
        rows, cols = self.rows[first:first + count], self.cols[first:first + count]
        if stack.holds_ones(rows, cols):
            return np.zeros(count)
        return _largest_sums(count, self.dim, [
            stack.nonzeros(), (np.arange(count)[:, None], rows, cols, -1)])


def _largest_sums(count: int, dim: int, entries) -> np.ndarray:
    """The largest |sum of the values at one position| in each of ``count``
    D x D blocks, given signed entries: ``entries`` lists ``(block, row,
    col, value)`` arrays that broadcast together, and an entry whose column
    is negative is a pad of the slot lists and dropped.  Integer and
    power-of-d values sum exactly in float64; a float stack entry and -1
    round once, as in any difference."""
    keys, values = [], []
    for block, row, col, value in entries:
        block, row, col, value = np.broadcast_arrays(block, row, col, value)
        keep = col >= 0
        keys.append((block[keep].astype(np.int64) * dim + row[keep]) * dim + col[keep])
        values.append(value[keep])
    unique, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    sums = np.bincount(inverse, np.concatenate(values).astype(float))
    out = np.zeros(count)
    np.maximum.at(out, unique // (dim * dim), np.abs(sums))
    return out


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _generator_index(n: int, d: int) -> GeneratorIndex:
    return GeneratorIndex.from_entries(d, *_generator_entries(image_array(n), d, True))


def generator_index(n: int, d: int, cap: int | None = None) -> GeneratorIndex:
    """The index form of W(sigma)^{t_n} for every sigma in S(n), in
    ``Permutation.all`` order.  Shared and cached: never write to it."""
    _check_family(n, d, cap)
    return _generator_index(n, d)


def element_stack(elems: list[AlgebraElement], cap: int | None = None
                  ) -> "OperatorStack":
    """Oracle images of formal combinations of transposed generators, one
    block per element, as one ``combine`` of the transposed generator stack.

    Row j of the combination lists the terms of element j in dict order,
    padded with zero weights on block 0, so on the dense side each block is
    bitwise the sum of its scaled generators added one at a time.
    """
    ctx = elems[0].ctx
    if ctx.symbolic:
        raise ValueError("symbolic elements have no tensor image; fix d first")
    if any(elem.ctx != ctx for elem in elems):
        raise ValueError("elements of different contexts")
    width = max(len(elem.terms) for elem in elems)
    images = np.zeros((len(elems), width, ctx.n), dtype=np.intp)
    weights = np.zeros((len(elems), width))
    for j, elem in enumerate(elems):
        for t, (perm, coeff) in enumerate(elem.terms.items()):
            images[j, t] = perm.images
            weights[j, t] = coeff
    index = lehmer_rank(images - 1)  # a padding row is constant: rank 0
    return generator_stack(ctx.n, ctx.d, True, cap).combine(index, weights)


def element_operator(elem: AlgebraElement, cap: int | None = None) -> TensorOp:
    """Oracle image of a formal combination of transposed generators."""
    return element_stack([elem], cap).op(0)


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


def span_dimension(family: OperatorStack) -> int:
    """Numerical rank of the Gram matrix, relative threshold ``RANK_RTOL``."""
    eigs = np.linalg.eigvalsh(family.gram())
    top = eigs.max(initial=0.0)
    if top <= 0:
        return 0
    return int((eigs > RANK_RTOL * top).sum())


def matrix_operators_E(rep_images: OperatorStack, alpha: Partition) -> OperatorStack:
    """Group-averaged matrix operators of an irrep inside a representation D.

    E_{ij} = (w/|G|) sum_g phi_{ji}(g^{-1}) D(g), over G = S(|alpha|).  The
    zero family is the legitimate outcome when alpha does not occur in D.
    Given a stack whose block k is D(g) for the k-th g of G in
    ``Permutation.all`` order, this returns the stack E_11, E_12, ..., E_ww
    as one shared-index ``combine``: one product of the weights with the
    family.
    """
    weights = averaging_weights(alpha)
    count = weights.shape[-1]
    return rep_images.combine(np.arange(count), weights.reshape(-1, count))
