"""Dense/sparse ground truth on (C^d)^{tensor n}, on one faithful weight sector.

Everything the abstract layer claims is re-checkable here: permutation
operators move tensor factors, the partial transpose swaps the last index
pair, and spans are measured by Gram-matrix rank.

Every W(sigma) commutes with U^{tensor n} and every W(sigma)^{t_n} with
U^{tensor (n-1)} (x) conj(U), so each keeps the span of the basis strings x
of one weight: count(x_1..x_n), or count(x_1..x_{n-1}) - e_{x_n} for the
transposed family.  ``sector`` lists such a basis as sorted digit-string
indices, by default of the balanced weight, with entries floor(m/d) or one
more (m = n or n - 2).  It is dominated by the highest weight of every
block of the algebra (Kostka), so the restriction is faithful: a linear
claim holds there iff it holds on the whole space (``check_dimensions``
proves it by rank).  The cached families and the index form live on the
balanced sectors, with s = 10 of d^n = 32 states at (5, 2);
``perm_operator`` and its kin take a basis, the whole space by default.
Every operator carries its basis (None: the whole space), and combining
two on different bases raises ``ValueError``.

Only built generators may be sparse.  Every operator is a float64 numpy
array, except the generators that ``_generators`` builds on more than
``DENSE_MAX_DIM`` = 64 states, which are scipy CSR matrices, imported only
then: a generator has at most d ones in a row or column, while the
combinations that the checks read fill from a tenth (the u stacks) to all
(the f units) of their s^2 entries, where a dense product costs less than
the bookkeeping of a sparse one.  ``TensorOp`` (one operator) and
``OperatorStack`` (a family) hide the choice; arithmetic on a CSR
generator gives a plain ndarray.  The size cap
(default d^n <= 4096) bounds the whole space and is checked on every call,
before any cache is consulted.

An ``OperatorStack`` holds K operators as one ``(K, s, s)`` array, and CSR
generators as the (K s) x s block column [B_1; ...; B_K].  Its operations
are whole-family ones: B_k A for every k in one product, linear
combinations sum_i C[j, i] B_i, every B_k^T, per-block residuals
max |X_k - Y_k|, and the Gram matrix.  Every combination is a dense stack.
One whose rows each list their own blocks (a gather and a scale when C is
monomial, as in d^p W(tau), or the terms of element images) adds its terms
one at a time, so each block is bitwise the sum of its scaled terms; one
whose rows share their blocks (the averaged families, the y and f units)
is one product with the blocks read as vectors of length s^2, and is not
bitwise that sum.  ``action_residuals`` fuses them for claims of the form
"L_r B_k = sum_i C[r, k, i] B_i for every k", one call for all left
factors L_r, themselves the blocks of a stack, with C given as arrays.
The checks pick those left factors as a few blocks of a stack (generator
rows, pivot rows) and never branch on the storage.

``generator_index`` gives the transposed generators as integer index
lists instead (``GeneratorIndex``), built from basis digits like the
stacks, never from the composition law.  It checks the law
W(sigma) W(rho) = d^p W(tau) and the associativity of sampled triples
exactly, in integers, in chunks of at most ``LAW_CHUNK_ENTRIES`` listed
ones.  One routine, ``_largest_sums``, gives every exact entry difference
on it: of a failing law pair, of two bracketings, and in
``stack_residuals`` of the float generators, which stay tied to the form
the law is checked on.

One builder, ``_generators``, makes W(sigma), or its partial transpose,
on a basis, for every row of a ``(K, n)`` batch of 0-based images.
``generator_stack`` is its cached call on all of S(n), in
``Permutation.all`` order, read-only on the dense side; ``perm_operator``
and ``transposed_perm_operator`` call it afresh: a batch gives its stack,
and a Permutation row 0 of a one-row batch, as a ``TensorOp``.  Element
images are one ``combine`` of the transposed stack (``element_stack``).

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
# Generator stacks, plain and transposed: dense at most 49 MB each ((7, 2)).
FAMILY_CACHE_SIZE = 8
# Entries of the dense product of a chunk of CSR generators that
# ``OperatorStack.action_residuals`` forms at once.
PRODUCT_CHUNK_ENTRIES = 2**22


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


def _check_family(n: int, d: int, cap: int | None):
    if d < 1:
        raise ValueError("d must be >= 1")
    limit = size_cap() if cap is None else cap
    if d**n > limit:
        raise SizeCapError(f"d^n = {d**n} exceeds the oracle size cap {limit}; "
                           f"raise it with --cap or ${CAP_ENV_VAR}")


def _sparse():
    import scipy.sparse

    return scipy.sparse


def _check(a: "TensorOp | OperatorStack", b: "TensorOp | OperatorStack"):
    """Refuse to combine two operators of different shapes or bases."""
    if (a.n, a.d, a.dim) != (b.n, b.d, b.dim):
        raise ValueError("operator shape mismatch")
    if a.basis is not b.basis and not np.array_equal(a.basis, b.basis):
        raise ValueError("operators on different bases")


@dataclass(frozen=True)
class TensorOp:
    """An operator on the span of ``basis``, sorted indices of basis strings
    of (C^d)^{tensor n} (None: the whole space), of size ``dim``.

    ``matrix`` is a float64 ndarray, or a scipy CSR matrix for a generator
    built on more than ``DENSE_MAX_DIM`` states.  Every result of arithmetic
    is a plain ndarray, never ``np.matrix``.
    """

    n: int
    d: int
    matrix: Any = field(compare=False)
    basis: Any = field(default=None, compare=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def _new(self, matrix) -> "TensorOp":
        matrix = np.asarray(matrix) if isinstance(matrix, np.ndarray) else matrix.toarray()
        return TensorOp(self.n, self.d, matrix, self.basis)

    def __add__(self, other: "TensorOp") -> "TensorOp":
        _check(self, other)
        return self._new(self.matrix + other.matrix)

    def __radd__(self, other) -> "TensorOp":
        if other == 0:  # lets sum() work
            return self
        return NotImplemented

    def __sub__(self, other: "TensorOp") -> "TensorOp":
        _check(self, other)
        return self._new(self.matrix - other.matrix)

    def __rmul__(self, scalar) -> "TensorOp":
        return self._new(scalar * self.matrix)

    def __matmul__(self, other: "TensorOp") -> "TensorOp":
        _check(self, other)
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


class OperatorStack:
    """K operators B_1..B_K on the span of s states ``basis``, held as one array.

    ``data`` is a float64 ``(K, s, s)`` ndarray, except for the generators
    that ``_generators`` builds on more than ``DENSE_MAX_DIM`` states: those
    are the (K s) x s CSR block column [B_1; ...; B_K], whose rows k s to
    (k + 1) s are block k, and so are the ``op`` and ``adjoint`` of such a
    stack.  Every other result is a dense stack.  Methods return new stacks
    and never write to ``data``.
    """

    def __init__(self, n: int, d: int, data, basis=None):
        self.n, self.d, self.data = n, d, data
        self.basis = None if basis is None or len(basis) == d**n else basis
        self.dim = data.shape[-1]
        self.size = len(data) if isinstance(data, np.ndarray) else data.shape[0] // self.dim

    def __len__(self) -> int:
        return self.size

    def _new(self, data) -> "OperatorStack":
        return OperatorStack(self.n, self.d, data, self.basis)

    @staticmethod
    def concat(stacks: list["OperatorStack"]) -> "OperatorStack":
        """The blocks of dense stacks, one after the other."""
        first = stacks[0]
        for stack in stacks[1:]:
            _check(first, stack)
        return first._new(np.concatenate([s.data for s in stacks]))

    def op(self, k: int) -> TensorOp:
        """B_k as a TensorOp; on the dense side a view, read-only if the stack is."""
        rows = self.data.reshape(-1, self.dim)  # [B_1; ...; B_K] on both storages
        return TensorOp(self.n, self.d, rows[k * self.dim:(k + 1) * self.dim], self.basis)

    def right_mul(self, a: TensorOp) -> "OperatorStack":
        """B_k A for every k: one product of the block column with A."""
        _check(self, a)
        return self._new(np.reshape(self.data @ a.dense(), (self.size, self.dim, self.dim)))

    def adjoint(self) -> "OperatorStack":
        """B_k^dagger = B_k^T for every k (the entries are real)."""
        if isinstance(self.data, np.ndarray):
            return self._new(np.ascontiguousarray(self.data.transpose(0, 2, 1)))
        block, row, col, value = self.nonzeros()
        return self._new(_sparse().csr_matrix(
            (value, (block * self.dim + col, row)), shape=self.data.shape))

    def combine(self, index, weights) -> "OperatorStack":
        """The linear combinations C_j = sum_t weights[j, t] B[index[j, t]], a dense stack.

        ``weights`` is ``(J, m)``: row j lists the coefficients of C_j, and
        ``index`` their blocks, either per row ``(J, m)`` or shared by every
        row ``(m,)``.  With a per-row index, terms are added in t order, each
        term a gather and scale of dense blocks, or the stored entries of CSR
        ones scattered into C_j, so C_j is bitwise the sum of its scaled
        blocks added one at a time; the gather-and-scale d^p W(tau) is the
        case m = 1.  A shared index, as in a dense coefficient matrix
        C = ``combine(arange(K), C)``, is one product of the weights with
        the m blocks it names, read as vectors of length s^2 (sparse ones
        for CSR blocks); an index of every block in order, ``arange(K)``,
        takes the stack's own vectors, with no gathered copy.  Its sums are
        not added term by term, so they can differ from the per-term ones
        in the last bits.
        """
        index, weights = np.asarray(index), np.asarray(weights, dtype=float)
        dim = self.dim
        if index.ndim == 1:
            vectors = self.data.reshape(self.size, dim * dim)  # block k as row k
            if not isinstance(vectors, np.ndarray):
                vectors = vectors.tocsr()
            if not np.array_equal(index, np.arange(self.size)):
                vectors = vectors[index]
            return self._new(np.reshape(weights @ vectors, (-1, dim, dim)))
        out = np.zeros((weights.shape[0], dim, dim))
        if isinstance(self.data, np.ndarray):
            _accumulate(out, self.data, index, weights, np.empty_like(out))
        else:
            _scatter(out, self.data, index, weights)
        return self._new(out)

    def residuals(self, other: "OperatorStack | None" = None) -> np.ndarray:
        """max |X_k - Y_k| for every block k of dense stacks (against zero
        without ``other``)."""
        if other is None:
            diff = self.data.copy()
        else:
            _check(self, other)
            diff = self.data - other.data
        return self._block_max(diff)

    def action_residuals(self, left: "OperatorStack", index, weights) -> np.ndarray:
        """Residuals of the left actions of the R blocks L_r of ``left``.

        ``index`` and ``weights`` broadcast to ``(R, K, m)``: row r claims
        L_r B_k = sum_t weights[r, k, t] B[index[r, k, t]] for every k, each
        row in the form of ``combine``.  Returns the ``(R, K)`` array of
        max |L_r B_k - sum_t weights[r, k, t] B[index[r, k, t]]|.  Each L_r
        is multiplied as a dense s x s array.  On a dense stack every row
        reuses the same two ``(K, s, s)`` buffers, because a fresh array of
        that size per row costs more than the work in it.  A generator
        family held as CSR is read through its adjoint, in chunks of
        ``PRODUCT_CHUNK_ENTRIES`` / s^2 blocks: each chunk is one sparse
        product B_k^T L_r^T = (L_r B_k)^T, from which the claim, transposed,
        is subtracted entry by entry.  e W(sigma) is full, and at (7, 3) the
        unit check peaks at 0.6 GB in chunks, 1.9 GB without.
        """
        _check(self, left)
        count = len(left)
        shape = np.broadcast_shapes(np.shape(index), np.shape(weights),
                                    (count, self.size, 1))
        index = np.broadcast_to(index, shape)
        weights = np.broadcast_to(np.asarray(weights, dtype=float), shape)
        out = np.empty((count, self.size))
        if isinstance(self.data, np.ndarray):
            product, scratch = np.empty_like(self.data), np.empty_like(self.data)
            for r in range(count):
                np.matmul(left.op(r).dense(), self.data, out=product)
                _accumulate(product, self.data, index[r], weights[r], scratch,
                            subtract=True)
                out[r] = self._block_max(product)
            return out
        adjoint, dim = self.adjoint().data, self.dim
        step = max(1, PRODUCT_CHUNK_ENTRIES // dim**2)
        for r, k in np.ndindex(count, -(-self.size // step)):
            part = slice(k * step, min((k + 1) * step, self.size))
            product = np.reshape(adjoint[part.start * dim:part.stop * dim]
                                 @ left.op(r).dense().T, (-1, dim, dim))
            _scatter(product, adjoint, index[r, part], weights[r, part], subtract=True)
            out[r, part] = self._block_max(product)
        return out

    def nonzeros(self) -> tuple[np.ndarray, ...]:
        """(block, row, col, value) of every stored nonzero entry."""
        if isinstance(self.data, np.ndarray):
            where = np.nonzero(self.data)
            return (*where, self.data[where])
        coo = self.data.tocoo()
        block, row = np.divmod(coo.row, self.dim)
        return block, row, coo.col, coo.data

    def gram(self) -> np.ndarray:
        """Hilbert-Schmidt Gram matrix <B_j, B_k> = tr(B_j^T B_k) = V^T V."""
        v = self._vectors()
        gram = v.T @ v
        return gram if isinstance(gram, np.ndarray) else gram.toarray()

    def _vectors(self):
        """V, whose column k is block k read as a vector: of all s^2 entries
        on the dense side, and on the CSR side of the positions (r, c) that
        some block occupies, built by sorting the entries of the block
        column by position, so that no array of size s^2 is ever made."""
        if isinstance(self.data, np.ndarray):
            return self.data.reshape(self.size, self.dim * self.dim).T
        block, row, col, value = self.nonzeros()
        position = row.astype(np.int64) * self.dim + col
        order = np.argsort(position)
        position = position[order]
        starts = np.flatnonzero(np.r_[True, position[1:] != position[:-1]])
        return _sparse().csr_matrix(
            (value[order], block[order], np.r_[starts, position.size]),
            shape=(starts.size, self.size))

    def _block_max(self, diff: np.ndarray) -> np.ndarray:
        """max |entry| of every block of a dense difference the stack may overwrite."""
        np.abs(diff, out=diff)
        return diff.reshape(len(diff), self.dim**2).max(axis=1, initial=0.0)


def _accumulate(out: np.ndarray, data: np.ndarray, index: np.ndarray,
                weights: np.ndarray, scratch: np.ndarray, subtract: bool = False):
    """Add (or subtract) sum_t weights[j, t] data[index[j, t]] into out[j],
    one term t at a time, through ``scratch``."""
    for t in range(weights.shape[1]):
        np.take(data, index[:, t], axis=0, out=scratch, mode="wrap")  # unbuffered
        scratch *= weights[:, t, None, None]
        if subtract:
            out -= scratch
        else:
            out += scratch


def _scatter(out: np.ndarray, data, index: np.ndarray, weights: np.ndarray,
             subtract: bool = False):
    """``_accumulate`` from the CSR block column of a stack: term t adds (or
    subtracts) the stored entries of rows index[j, t] s to (index[j, t] + 1) s,
    scaled, into out[j], so only the entries of the blocks it names are read."""
    dim, flat, indptr = data.shape[1], out.reshape(-1), data.indptr
    for t in range(weights.shape[1]):
        start, stop = indptr[index[:, t] * dim], indptr[(index[:, t] + 1) * dim]
        count = stop - start
        at = np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)
        row = np.searchsorted(indptr, at, side="right") - 1
        target = (np.repeat(np.arange(len(out)), count) * dim + row % dim) * dim
        value = np.repeat(weights[:, t], count) * data.data[at]
        flat[target + data.indices[at]] += -value if subtract else value


def _digits(n: int, d: int, indices: np.ndarray) -> np.ndarray:
    """The base-d digits of basis indices, an ``(n, len)`` array, factor 1 first."""
    digits = np.empty((n, len(indices)), dtype=indices.dtype)
    for k in range(n - 1, -1, -1):
        indices, digits[k] = np.divmod(indices, d)
    return digits


@lru_cache(maxsize=4 * FAMILY_CACHE_SIZE)
def sector(n: int, d: int, transposed: bool = False,
           weight: tuple[int, ...] | None = None) -> np.ndarray:
    """The sorted indices of the basis strings x of weight count(x_1..x_n),
    or count(x_1..x_{n-1}) - e_{x_n} when ``transposed`` (a d-tuple; by
    default the balanced one, larger entries first).  Read-only.  A weight
    that is not d entries long, or that no basis string has, is refused."""
    if weight is None:
        q, r = divmod(n - 2 if transposed else n, d)
        weight = (q + 1,) * r + (q,) * (d - r)
    if len(weight) != d:
        raise ValueError(f"weight {weight} does not have d = {d} entries")
    digits = _digits(n, d, np.arange(d**n))
    counts = (digits[..., None] == np.arange(d)).sum(axis=0)
    counts -= 2 * transposed * (digits[-1, :, None] == np.arange(d))  # - e_{x_n}
    basis = np.flatnonzero((counts == weight).all(axis=1))
    if not basis.size:
        raise ValueError(f"weight {weight} has no basis string of (n, d) = ({n}, {d})")
    basis.flags.writeable = False
    return basis


def _generator_entries(images: np.ndarray, d: int, transposed: bool,
                       basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ones of W(sigma), or of its partial transpose, on the span of
    ``basis``, for each row sigma of a ``(K, n)`` array of 0-based images:
    two ``(K, P)`` arrays of the positions in ``basis`` of their rows and
    columns, padded with -1.  Column c of W(sigma) has its one at sigma c,
    and of the partial transpose at (sigma x)_1..(sigma x)_{n-1} t for each
    x = c_1..c_{n-1} t with (sigma x)_n = c_n."""
    count, n = images.shape
    dim = len(basis)
    digits = _digits(n, d, basis)
    inverse = np.argsort(images, axis=1)  # 0-based sigma^-1
    rows, kept = [], []
    for last in range(d) if transposed else [digits[-1]]:
        x = digits.copy()
        x[-1] = last
        row = np.zeros((count, dim), dtype=np.intp)
        for k in range(n - 1):
            row = row * d + x[inverse[:, k]]
        moved = x[inverse[:, -1]]  # (sigma x)_n
        rows.append(row * d + (last if transposed else moved))
        kept.append(moved == digits[-1] if transposed else np.ones(moved.shape, bool))
    rows, kept = (np.stack(a, axis=1).reshape(count, -1) for a in (rows, kept))
    at = np.searchsorted(basis, rows)
    if (kept & (basis.take(at, mode="clip") != rows)).any():
        raise ValueError("the basis does not span an invariant subspace")
    order = np.argsort(~kept, axis=1, kind="stable")[:, :kept.sum(axis=1).max(initial=0)]
    kept = np.take_along_axis(kept, order, axis=1)
    # the type CSR stores: int64 temporaries among its arrays fragment the heap
    index = np.int32 if count * dim <= np.iinfo(np.int32).max else np.int64
    return (np.where(kept, np.take_along_axis(at, order, axis=1), -1).astype(index),
            np.where(kept, order % dim, -1).astype(index))


def _generators(images: np.ndarray, d: int, transposed: bool,
                basis: np.ndarray) -> "OperatorStack":
    """W(sigma), or its partial transpose, on the span of ``basis``, for each
    row sigma of a ``(K, n)`` array of 0-based images: a new stack."""
    count, n = images.shape
    dim = len(basis)
    rows, cols = _generator_entries(images, d, transposed, basis)
    keep = cols >= 0
    block = np.broadcast_to(np.arange(count, dtype=rows.dtype)[:, None], rows.shape)[keep]
    rows, cols = rows[keep], cols[keep]
    if dim > DENSE_MAX_DIM:
        data = _sparse().csr_matrix((np.ones(rows.size), (block * dim + rows, cols)),
                                    shape=(count * dim, dim))
        return OperatorStack(n, d, data, basis)
    data = np.zeros((count, dim, dim))
    data[block, rows, cols] = 1.0
    return OperatorStack(n, d, data, basis)


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _family(n: int, d: int, transposed: bool) -> "OperatorStack":
    """All of W(S(n)), or all their partial transposes, on the balanced
    sector, in ``Permutation.all`` order; read-only on the dense side."""
    family = _generators(image_array(n), d, transposed, sector(n, d, transposed))
    if isinstance(family.data, np.ndarray):
        family.data.flags.writeable = False
    return family


def _basis(n: int, d: int, basis: np.ndarray | None) -> np.ndarray:
    """A basis argument, checked: the whole space by default."""
    basis = np.arange(d**n) if basis is None else np.asarray(basis)
    if basis.ndim != 1 or (np.diff(basis) <= 0).any() or ((basis < 0) | (basis >= d**n)).any():
        raise ValueError(f"a basis lists strictly increasing indices below d^n = {d**n}")
    return basis


def _fresh(sigma: Permutation | np.ndarray, d: int, n: int | None, cap: int | None,
           transposed: bool, basis: np.ndarray | None) -> "TensorOp | OperatorStack":
    """``perm_operator`` or ``transposed_perm_operator``: the cap, checked before
    the input is read, then ``_generators`` of a batch or of a Permutation's row."""
    single = isinstance(sigma, Permutation)
    images = np.asarray(sigma.images)[None] - 1 if single else np.asarray(sigma)
    _check_family(images.shape[-1], d, cap)
    m = degree(images)
    if n is not None and m != n:
        raise ValueError(f"degree mismatch: {m} != n = {n}")
    stack = _generators(images, d, transposed, _basis(m, d, basis))
    return stack.op(0) if single else stack


def perm_operator(sigma: Permutation | np.ndarray, d: int, n: int | None = None,
                  cap: int | None = None, basis: np.ndarray | None = None
                  ) -> "TensorOp | OperatorStack":
    """The operator sending e_{i_1}..e_{i_n} to e_{i_{s^{-1}(1)}}..e_{i_{s^{-1}(n)}},
    built afresh on the span of ``basis`` (the whole space by default): a
    TensorOp for a Permutation, the stack of a ``(k, n)`` batch of images."""
    return _fresh(sigma, d, n, cap, False, basis)


def transposed_perm_operator(sigma: Permutation | np.ndarray, d: int, n: int | None = None,
                             cap: int | None = None, basis: np.ndarray | None = None
                             ) -> "TensorOp | OperatorStack":
    """The partial transpose of ``perm_operator(sigma, d)`` on the last factor."""
    return _fresh(sigma, d, n, cap, True, basis)


def partial_transpose_last(op: TensorOp) -> TensorOp:
    """Transpose the last tensor index pair of an operator on the whole
    space; an involution."""
    d, dim = op.d, op.dim
    if op.basis is not None or dim != d**op.n:
        raise ValueError("the partial transpose needs the whole space")
    if isinstance(op.matrix, np.ndarray):
        blocks = op.matrix.reshape(dim // d, d, dim // d, d)
        return TensorOp(op.n, d, np.ascontiguousarray(
            blocks.transpose(0, 3, 2, 1)).reshape(dim, dim))
    coo = op.matrix.tocoo()
    r_low, c_low = coo.row % d, coo.col % d
    return TensorOp(op.n, d, _sparse().csr_matrix(
        (coo.data, (coo.row - r_low + c_low, coo.col - c_low + r_low)), shape=(dim, dim)))


def generator_stack(n: int, d: int, transposed: bool = False,
                    cap: int | None = None) -> "OperatorStack":
    """W(sigma), or its partial transpose, for every sigma in S(n), in
    ``Permutation.all`` order, on the balanced ``sector(n, d, transposed)``,
    its basis.  Shared and cached: never write to it."""
    _check_family(n, d, cap)
    return _family(n, d, transposed)


# Listed ones (pairs times the width of ``GeneratorIndex.rows``) that
# ``GeneratorIndex.law_mismatches`` examines per call: under 8 MB of
# temporaries at d = 2; ``law_residuals`` sorts at most d + 1 entries per
# listed one.  ``checks.law_sweep`` and ``checks._law_at`` read it as pairs
# (sigma, rho): their ``algebra.law_rows`` temporaries are a few numbers
# per pair, and the sweep's peak is 33 MB at n = 7 (tracemalloc).
LAW_CHUNK_ENTRIES = 2**18


def _slot_lists(keys: np.ndarray, values: np.ndarray, d: int, dim: int, pad: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Group ``values`` by ``keys`` (below ``dim``; a negative key is a pad)
    in each row k of two ``(K, P)`` arrays: the ``(d, K, dim)`` array whose
    ``[i, k, g]`` is the i-th value of group g (``pad`` past the last), in
    the type of ``values``, and the ``(K, dim)`` group sizes, in the
    smallest unsigned type that holds d."""
    keep = keys >= 0
    count, group = len(keys), (np.nonzero(keep)[0] * dim + keys[keep])
    order = np.argsort(group, kind="stable")
    group = group[order]
    sizes = np.bincount(group, minlength=count * dim)
    slots = np.full((d, count * dim), pad, dtype=values.dtype)
    slots[np.arange(group.size) - (np.cumsum(sizes) - sizes)[group], group] = (
        values[keep][order])
    return (slots.reshape(d, count, dim),
            sizes.reshape(count, dim).astype(np.min_scalar_type(d)))


@dataclass(frozen=True, eq=False)
class GeneratorIndex:
    """The transposed generators W(sigma)^{t_n} of S(n), in ``Permutation.all``
    order, on the span of ``dim`` basis states, as integer index lists.

    Each W(sigma)^{t_n} is a 0/1 matrix with at most d ones in any row or
    column.  For generator k, ``rows[k]`` and ``cols[k]`` hold the positions
    of its ones, padded with -1 in both; ``row_cols[i, k, r]`` is the column
    of the i-th one in row r and ``col_rows[i, k, c]`` the row of the i-th
    one in column c, padded with -1 and -2 so that pads never match;
    ``row_count`` and ``col_count`` count the ones of every row and column.
    The positions and slot lists share the smallest signed type that holds
    -dim, so offsets past dim are formed in intp.  All of it comes from
    basis digits, never from the composition law it is used to check.
    """

    d: int
    dim: int
    rows: np.ndarray
    cols: np.ndarray
    row_cols: np.ndarray
    col_rows: np.ndarray
    row_count: np.ndarray
    col_count: np.ndarray

    @classmethod
    def from_entries(cls, d: int, rows: np.ndarray, cols: np.ndarray, dim: int
                     ) -> "GeneratorIndex":
        """The index form of the dim x dim 0/1 matrices with ones at
        ``(rows[k], cols[k])``, padded with -1."""
        kind = np.min_scalar_type(-dim)
        rows, cols = rows.astype(kind), cols.astype(kind)
        row_cols, row_count = _slot_lists(rows, cols, d, dim, -1)
        col_rows, col_count = _slot_lists(cols, rows, d, dim, -2)
        arrays = (rows, cols, row_cols, col_rows, row_count, col_count)
        for array in arrays:
            array.flags.writeable = False
        return cls(d, dim, *arrays)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def derived(self) -> np.ndarray:
        """Whether the slot lists and counts of each generator are the ones
        ``from_entries`` derives from its ``rows`` and ``cols`` (bool array)."""
        fresh = GeneratorIndex.from_entries(self.d, self.rows, self.cols, self.dim)
        same = np.ones(len(self), dtype=bool)
        for mine, theirs in ((self.row_cols, fresh.row_cols), (self.col_rows, fresh.col_rows)):
            same &= (mine == theirs).all(axis=(0, 2))
        for mine, theirs in ((self.row_count, fresh.row_count),
                             (self.col_count, fresh.col_count)):
            same &= (mine == theirs).all(axis=1)
        return same

    def law_chunk(self) -> int:
        """Generator pairs per ``law_mismatches`` call: ``LAW_CHUNK_ENTRIES``
        listed ones, or one pair when one generator lists more."""
        return max(1, LAW_CHUNK_ENTRIES // self.rows.shape[1])

    def law_mismatches(self, left: np.ndarray, right: np.ndarray,
                       scale: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Whether W(left[p]) W(right[p]) != scale[p] W(target[p]) for each
        pair p: a bool array.

        Exact integer work.  On each of the ones (i, j) of W(target) the
        product entry is the number of shared indices of row i of the left
        factor and column j of the right one, which must equal the scale.
        The total of the product, sum_m col_count[left](m) row_count[right](m),
        must equal the scale times the number of ones.  Every entry is
        nonnegative, so together the two conditions are equality.
        """
        dim = self.dim
        left, right, scale = (np.asarray(a, dtype=np.intp) for a in (left, right, scale))
        ones = self.cols[target] >= 0  # a pad reads a stray slot, never judged
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
        return (((shared != scale[:, None]) & ones).any(axis=1)
                | (total != scale * ones.sum(axis=1)))

    def law_residuals(self, left: np.ndarray, right: np.ndarray,
                      scale: np.ndarray, target: np.ndarray) -> np.ndarray:
        """max |W(left[p]) W(right[p]) - scale[p] W(target[p])| for each pair
        p, exact, through ``_largest_sums``: the ones (i, j) of the
        product, one for each one (i, m) of the left factor (``rows``,
        ``cols``) and each one (m, j) of the right one (``row_cols``), and
        -scale[p] at the ones of W(target[p])."""
        line = np.arange(len(left))[:, None]
        rows, middle = self.rows[left], self.cols[left]
        product = [(line, rows, slots[right[:, None], middle], 1)
                   for slots in self.row_cols]
        return _largest_sums(len(left), self.dim, product + [
            (line, self.rows[target], self.cols[target], -np.asarray(scale)[:, None])])

    def distances(self, scale_a, target_a, scale_b, target_b) -> np.ndarray:
        """max |scale_a[t] W(target_a[t]) - scale_b[t] W(target_b[t])| for
        every t, exact, through ``_largest_sums`` over the two sets of ones."""
        line = np.arange(len(target_a))[:, None]
        return _largest_sums(len(target_a), self.dim, [
            (line, self.rows[target_a], self.cols[target_a], np.asarray(scale_a)[:, None]),
            (line, self.rows[target_b], self.cols[target_b], -np.asarray(scale_b)[:, None])])

    def stack_residuals(self, stack: OperatorStack, first: int = 0) -> np.ndarray:
        """max |B_j - W(first + j)^{t_n}| for every block j of a float stack,
        exact, through ``_largest_sums`` over the stored nonzeros of the stack
        and -1 at the ones of each generator: this ties the float operators
        to the index form."""
        count = len(stack)
        rows, cols = self.rows[first:first + count], self.cols[first:first + count]
        return _largest_sums(count, self.dim, [
            stack.nonzeros(), (np.arange(count)[:, None], rows, cols, -1)])


def _largest_sums(count: int, dim: int, entries) -> np.ndarray:
    """The largest |sum of the values at one position| in each of ``count``
    dim x dim blocks, given signed entries: ``entries`` lists ``(block, row,
    col, value)`` arrays that broadcast together, and an entry whose row or
    column is negative is a pad and dropped.  Integer and
    power-of-d values sum exactly in float64; a float stack entry and -1
    round once, as in any difference."""
    keys, values = [], []
    for block, row, col, value in entries:
        block, row, col, value = np.broadcast_arrays(block, row, col, value)
        keep = (row >= 0) & (col >= 0)
        keys.append((block[keep].astype(np.int64) * dim + row[keep]) * dim + col[keep])
        values.append(value[keep])
    unique, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    sums = np.bincount(inverse, np.concatenate(values).astype(float))
    out = np.zeros(count)
    np.maximum.at(out, unique // (dim * dim), np.abs(sums))
    return out


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _generator_index(n: int, d: int) -> GeneratorIndex:
    basis = sector(n, d, True)
    return GeneratorIndex.from_entries(
        d, *_generator_entries(image_array(n), d, True, basis), len(basis))


def generator_index(n: int, d: int, cap: int | None = None) -> GeneratorIndex:
    """The index form of W(sigma)^{t_n} for every sigma in S(n), in
    ``Permutation.all`` order, on the balanced sector of ``generator_stack``.
    Shared and cached: never write to it."""
    _check_family(n, d, cap)
    return _generator_index(n, d)


def element_stack(elems: list[AlgebraElement], cap: int | None = None
                  ) -> "OperatorStack":
    """Oracle images of formal combinations of transposed generators, one
    block per element, as one ``combine`` of the transposed generator stack,
    on its basis ``sector(n, d, True)``, not on the whole space.

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
    """Oracle image of a formal combination of transposed generators, on the
    balanced transposed sector ``sector(n, d, True)`` (see ``element_stack``)."""
    return element_stack([elem], cap).op(0)


def zero_operator(n: int, d: int, cap: int | None = None) -> TensorOp:
    """0 on the whole space, dense."""
    _check_family(n, d, cap)
    return TensorOp(n, d, np.zeros((d**n, d**n)))


def identity_operator(n: int, d: int, cap: int | None = None,
                      basis: np.ndarray | None = None) -> TensorOp:
    """1 on the span of ``basis``, the whole space by default, dense."""
    _check_family(n, d, cap)
    basis = _basis(n, d, basis)
    return OperatorStack(n, d, np.eye(len(basis))[None], basis).op(0)


RANK_RTOL = 1e-8


def span_dimension(family: OperatorStack) -> int:
    """``gram_rank`` of the blocks B_k: with V the blocks as columns
    (``OperatorStack.gram``), of the smaller of V^T V and V V^T, which share
    their nonzero eigenvalues."""
    v = family._vectors()
    small = v @ v.T if v.shape[0] < family.size else v.T @ v
    return gram_rank(small if isinstance(small, np.ndarray) else small.toarray())


def gram_rank(gram: np.ndarray) -> int:
    """Numerical rank of a Gram matrix, relative threshold ``RANK_RTOL``."""
    eigs = np.linalg.eigvalsh(gram)
    top = eigs.max(initial=0.0)
    return int((eigs > RANK_RTOL * top).sum()) if top > 0 else 0


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
