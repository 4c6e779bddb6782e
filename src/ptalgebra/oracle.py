"""Ground truth on (C^d)^{tensor n}, on one faithful weight sector.

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
proves it by rank).  The cached families live on the balanced sectors, with
s = 10 of d^n = 32 states at (5, 2); ``perm_operator`` and its kin take a
basis, the whole space by default.  Every operator carries its basis (None:
the whole space), and combining two on different bases raises
``ValueError``.  The size cap (default d^n <= 4096) bounds the whole space
and is checked on every call, before any cache is consulted.

One storage per kind of operator.  A family of generators, W(sigma) or its
partial transpose for every row of a ``(K, n)`` batch of 0-based images, is
a ``GeneratorIndex``: the integer index lists of its ones, at most d in a
row or column, made from basis digits by one builder, ``_generators``, and
never from the composition law; ``generator_stack`` caches the family of all
of S(n), in ``Permutation.all`` order.  Every other operator is a float64
array: ``TensorOp`` one, ``OperatorStack`` K of them as one ``(K, s, s)``
array.  Both families answer the same whole-family operations, so the
checks never ask which they hold: combinations sum_i C[j, i] B_i (a dense
stack), B_k A, B_k^T, a sub-family, the nonzero entries, the Gram matrix,
and the left factors of ``OperatorStack.action_residuals``.  On the index
lists these are scatters and gathers: W B is at most d row gathers of B,
and the Gram matrix counts the ones two generators share.

The transposed family (``generator_index``) also checks the law
W(sigma) W(rho) = d^p W(tau) and the associativity of sampled triples
exactly, in integers, in chunks of at most ``LAW_CHUNK_ENTRIES`` listed
ones.  One routine, ``_largest_sums``, gives every exact entry difference
on it: of a failing law pair, of two bracketings, and in
``stack_residuals`` of a family given apart.

Basis vectors are flattened big-endian: factor 1 is the most significant
digit, so the partial transpose acts on the least significant one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any

import numpy as np

from .algebra import AlgebraElement
from .partitions import Partition
from .permutations import Permutation, degree, image_array, lehmer_rank
from .yor import averaging_weights

DEFAULT_CAP = 4096
CAP_ENV_VAR = "PTALGEBRA_CAP"
# Generator families, plain and transposed: 23 MB each at (7, 3).
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


def _check_family(n: int, d: int, cap: int | None):
    if d < 1:
        raise ValueError("d must be >= 1")
    limit = size_cap() if cap is None else cap
    if d**n > limit:
        raise SizeCapError(f"d^n = {d**n} exceeds the oracle size cap {limit}; "
                           f"raise it with --cap or ${CAP_ENV_VAR}")


def _check(a, b):
    """Refuse to combine two operators or families of different shapes or bases."""
    if (a.n, a.d, a.dim) != (b.n, b.d, b.dim):
        raise ValueError("operator shape mismatch")
    if a.basis is not b.basis and not np.array_equal(a.basis, b.basis):
        raise ValueError("operators on different bases")


@dataclass(frozen=True)
class TensorOp:
    """An operator on the span of ``basis``, sorted indices of basis strings
    of (C^d)^{tensor n} (None: the whole space), of size ``dim``: a float64
    ndarray ``matrix``.  Every result of arithmetic is a plain ndarray."""

    n: int
    d: int
    matrix: np.ndarray = field(compare=False)
    basis: Any = field(default=None, compare=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def _new(self, matrix: np.ndarray) -> "TensorOp":
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
        return float(np.abs(self.matrix).max(initial=0.0))

    def distance(self, other: "TensorOp") -> float:
        return (self - other).max_abs()

    def dense(self) -> np.ndarray:
        """A fresh, writable ndarray copy of the operator."""
        return np.array(self.matrix)


class OperatorStack:
    """K operators B_1..B_K on the span of s states ``basis``, held as one
    float64 ``(K, s, s)`` array ``data``.  Methods return new stacks and
    never write to ``data``.
    """

    def __init__(self, n: int, d: int, data: np.ndarray, basis=None):
        self.n, self.d, self.data = n, d, data
        self.basis = None if basis is None or len(basis) == d**n else basis
        self.size, self.dim = len(data), data.shape[-1]

    def __len__(self) -> int:
        return self.size

    def _new(self, data) -> "OperatorStack":
        return OperatorStack(self.n, self.d, data, self.basis)

    @staticmethod
    def concat(stacks: list["OperatorStack"]) -> "OperatorStack":
        """The blocks of the stacks, one after the other."""
        first = stacks[0]
        for stack in stacks[1:]:
            _check(first, stack)
        return first._new(np.concatenate([s.data for s in stacks]))

    def op(self, k: int) -> TensorOp:
        """B_k as a TensorOp: a view, read-only if the stack is."""
        return TensorOp(self.n, self.d, self.data[k], self.basis)

    def take(self, index) -> "OperatorStack":
        """The blocks B[index], in that order."""
        return self._new(self.data[np.asarray(index)])

    def right_mul(self, a: TensorOp) -> "OperatorStack":
        """B_k A for every k: one product of the block column [B_1; ...; B_K] with A."""
        _check(self, a)
        column = self.data.reshape(-1, self.dim)
        return self._new(np.reshape(column @ a.matrix, (self.size, self.dim, self.dim)))

    def adjoint(self) -> "OperatorStack":
        """B_k^dagger = B_k^T for every k (the entries are real)."""
        return self._new(np.ascontiguousarray(self.data.transpose(0, 2, 1)))

    def combine(self, index, weights) -> "OperatorStack":
        """The linear combinations C_j = sum_t weights[j, t] B[index[j, t]].

        ``weights`` is ``(J, m)``: row j lists the coefficients of C_j, and
        ``index`` their blocks, either per row ``(J, m)`` or shared by every
        row ``(m,)``.  With a per-row index, terms are added in t order, each
        a gather and scale of blocks, so C_j is bitwise the sum of its scaled
        blocks added one at a time.  A shared index is one product of the
        weights with the blocks it names, read as vectors of length s^2 (the
        stack's own vectors for ``arange(K)``, with no gathered copy), and
        can differ from the per-term sums in the last bits.
        """
        index, weights = np.asarray(index), np.asarray(weights, dtype=float)
        dim = self.dim
        if index.ndim == 1:
            vectors = self.data.reshape(self.size, dim * dim)  # block k as row k
            if not np.array_equal(index, np.arange(self.size)):
                vectors = vectors[index]
            return self._new(np.reshape(weights @ vectors, (-1, dim, dim)))
        out = np.zeros((weights.shape[0], dim, dim))
        _accumulate(out, self.data, index, weights, np.empty_like(out))
        return self._new(out)

    def residuals(self, other: "OperatorStack | None" = None) -> np.ndarray:
        """max |X_k - Y_k| for every block k (against zero without ``other``)."""
        if other is None:
            return self._block_max(self.data)
        _check(self, other)
        return self._block_max(self.data - other.data)

    def action_residuals(self, left: "OperatorStack | GeneratorIndex", index,
                         weights) -> np.ndarray:
        """Residuals of the left actions of the R blocks L_r of ``left``.

        ``index`` and ``weights`` broadcast to ``(R, K, m)``: row r claims
        L_r B_k = sum_t weights[r, k, t] B[index[r, k, t]] for every k, in
        the per-row form of ``combine``.  With ``index`` None, ``weights`` is
        ``(R, o, o)`` and acts on the blocks read as an o x (K/o) grid, block
        a K/o + b at (a, b): L_r B_(a,b) = sum_a' weights[r, a, a'] B_(a',b),
        one product with the grid.  Returns the ``(R, K)`` array of
        max |L_r B_k - claim_k|.  ``left`` forms every L_r B_k
        (``_left_mul``): a dense L_r as one product, a generator as at most d
        row gathers.  Every row reuses the same two ``(K, s, s)`` buffers,
        because a fresh array of that size per row costs more than the work.
        """
        _check(self, left)
        count = len(left)
        out = np.empty((count, self.size))
        product, scratch = np.empty_like(self.data), np.empty_like(self.data)
        if index is None:
            weights = np.broadcast_to(np.asarray(weights, dtype=float),
                                      (count,) + np.shape(weights)[-2:])
            grid, claim = (a.reshape(weights.shape[1], -1) for a in (self.data, scratch))
        else:
            shape = np.broadcast_shapes(np.shape(index), np.shape(weights),
                                        (count, self.size, 1))
            index = np.broadcast_to(index, shape)
            weights = np.broadcast_to(np.asarray(weights, dtype=float), shape)
        for r in range(count):
            left._left_mul(r, self.data, product, scratch)
            if index is None:
                np.matmul(weights[r], grid, out=claim)
                product -= scratch
            else:  # x - w B is x + (-w) B, bit for bit
                _accumulate(product, self.data, index[r], -weights[r], scratch)
            out[r] = self._block_max(product)
        return out

    def right_mul_max(self, a: TensorOp) -> np.ndarray:
        """max |B_k A| for every k."""
        return self.right_mul(a).residuals()

    def _left_mul(self, r: int, data: np.ndarray, out: np.ndarray, scratch: np.ndarray):
        """B_r X_k into out[k] for every block X_k of ``data``: one product."""
        np.matmul(self.data[r], data, out=out)

    def nonzeros(self) -> tuple[np.ndarray, ...]:
        """(block, row, col, value) of every nonzero entry."""
        where = np.nonzero(self.data)
        return (*where, self.data[where])

    def gram(self, by_position: bool = False) -> np.ndarray:
        """Hilbert-Schmidt Gram matrix <B_j, B_k> = tr(B_j^T B_k) = V^T V, with
        V the blocks as columns of length s^2; ``by_position``: the s^2 x s^2
        V V^T instead, which has the same nonzero eigenvalues."""
        v = self.data.reshape(self.size, self.dim**2)  # V^T
        return v.T @ v if by_position else v @ v.T

    def _block_max(self, data: np.ndarray) -> np.ndarray:
        """max |entry| of every block, as the larger of its max and -min (made
        +0.0 where both are zero, as -min can be -0.0)."""
        blocks = data.reshape(len(data), self.dim**2)
        return np.abs(np.maximum(blocks.max(axis=1, initial=0.0),
                                 -blocks.min(axis=1, initial=0.0)))


def _accumulate(out: np.ndarray, data: np.ndarray, index: np.ndarray,
                weights: np.ndarray, scratch: np.ndarray):
    """Add sum_t weights[j, t] data[index[j, t]] into out[j], one term t at a
    time, through ``scratch``."""
    for t in range(weights.shape[1]):
        np.take(data, index[:, t], axis=0, out=scratch, mode="wrap")  # unbuffered
        scratch *= weights[:, t, None, None]
        out += scratch


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
    return (np.where(kept, np.take_along_axis(at, order, axis=1), -1),
            np.where(kept, order % dim, -1))


def _generators(images: np.ndarray, d: int, transposed: bool,
                basis: np.ndarray) -> "GeneratorIndex":
    """W(sigma), or its partial transpose, on the span of ``basis``, for each
    row sigma of a ``(K, n)`` array of 0-based images: a new index family."""
    rows, cols = _generator_entries(images, d, transposed, basis)
    return GeneratorIndex.from_entries(d, rows, cols, len(basis), images.shape[1], basis)


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _family(n: int, d: int, transposed: bool) -> "GeneratorIndex":
    """All of W(S(n)), or all their partial transposes, on the balanced
    sector, in ``Permutation.all`` order."""
    return _generators(image_array(n), d, transposed, sector(n, d, transposed))


def _basis(n: int, d: int, basis: np.ndarray | None) -> np.ndarray:
    """A basis argument, checked: the whole space by default."""
    basis = np.arange(d**n) if basis is None else np.asarray(basis)
    if basis.ndim != 1 or (np.diff(basis) <= 0).any() or ((basis < 0) | (basis >= d**n)).any():
        raise ValueError(f"a basis lists strictly increasing indices below d^n = {d**n}")
    return basis


def _fresh(sigma: Permutation | np.ndarray, d: int, n: int | None, cap: int | None,
           transposed: bool, basis: np.ndarray | None) -> "TensorOp | GeneratorIndex":
    """``perm_operator`` or ``transposed_perm_operator``: the cap, checked before
    the input is read, then ``_generators`` of a batch or of a Permutation's row."""
    single = isinstance(sigma, Permutation)
    images = np.asarray(sigma.images)[None] - 1 if single else np.asarray(sigma)
    _check_family(images.shape[-1], d, cap)
    m = degree(images)
    if n is not None and m != n:
        raise ValueError(f"degree mismatch: {m} != n = {n}")
    family = _generators(images, d, transposed, _basis(m, d, basis))
    return family.op(0) if single else family


def perm_operator(sigma: Permutation | np.ndarray, d: int, n: int | None = None,
                  cap: int | None = None, basis: np.ndarray | None = None
                  ) -> "TensorOp | GeneratorIndex":
    """The operator sending e_{i_1}..e_{i_n} to e_{i_{s^{-1}(1)}}..e_{i_{s^{-1}(n)}},
    built afresh on the span of ``basis`` (the whole space by default): a
    TensorOp for a Permutation, the index family of a ``(k, n)`` batch of images."""
    return _fresh(sigma, d, n, cap, False, basis)


def transposed_perm_operator(sigma: Permutation | np.ndarray, d: int, n: int | None = None,
                             cap: int | None = None, basis: np.ndarray | None = None
                             ) -> "TensorOp | GeneratorIndex":
    """The partial transpose of ``perm_operator(sigma, d)`` on the last factor."""
    return _fresh(sigma, d, n, cap, True, basis)


def partial_transpose_last(op: TensorOp) -> TensorOp:
    """Transpose the last tensor index pair of an operator on the whole
    space; an involution."""
    d, dim = op.d, op.dim
    if op.basis is not None or dim != d**op.n:
        raise ValueError("the partial transpose needs the whole space")
    blocks = op.matrix.reshape(dim // d, d, dim // d, d)
    return TensorOp(op.n, d, np.ascontiguousarray(
        blocks.transpose(0, 3, 2, 1)).reshape(dim, dim))


def generator_stack(n: int, d: int, transposed: bool = False,
                    cap: int | None = None) -> "GeneratorIndex":
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
# ``GeneratorIndex.gram`` counts shared ones, and the per-row
# ``GeneratorIndex.combine`` scatters listed ones, in chunks of about as many.
LAW_CHUNK_ENTRIES = 2**18


def _slot_lists(keys: np.ndarray, values: np.ndarray, most: int, dim: int, pad: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Group ``values`` by ``keys`` (below ``dim``; a negative key is a pad)
    in each row k of two ``(K, P)`` arrays: the ``(w, K, dim)`` array whose
    ``[i, k, g]`` is the i-th value of group g (``pad`` past the last), in
    the type of ``values``, with w the size of the largest group (at least
    1), and the ``(K, dim)`` group sizes, in the smallest unsigned type that
    holds ``most``."""
    keep = keys >= 0
    count, group = len(keys), (np.nonzero(keep)[0] * dim + keys[keep])
    order = np.argsort(group, kind="stable")
    group = group[order]
    sizes = np.bincount(group, minlength=count * dim)
    slots = np.full((max(1, sizes.max(initial=0)), count * dim), pad, dtype=values.dtype)
    slots[np.arange(group.size) - (np.cumsum(sizes) - sizes)[group], group] = (
        values[keep][order])
    return (slots.reshape(-1, count, dim),
            sizes.reshape(count, dim).astype(np.min_scalar_type(most)))


def _shared_counts(lists: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """C[a, b] = the number of groups that hold both a and b, as floats.

    Row a of ``lists`` names the groups of a, padded with G, and row g of
    ``groups`` the members of group g, padded with A = len(lists); its last
    row, G, is all pads.  Exact integer counts, in chunks of rows of C of
    about ``LAW_CHUNK_ENTRIES`` member pairs."""
    count = len(lists)
    out = np.empty((count, count))
    step = max(1, LAW_CHUNK_ENTRIES // (lists.shape[1] * groups.shape[1] + count))
    for start in range(0, count, step):
        keys = groups[lists[start:start + step]]  # the members of the groups of a
        keys += (np.arange(len(keys)) * (count + 1))[:, None, None]
        out[start:start + len(keys)] = np.bincount(
            keys.ravel(), minlength=len(keys) * (count + 1)).reshape(-1, count + 1)[:, :count]
    return out


@dataclass(frozen=True, eq=False)
class GeneratorIndex:
    """K 0/1 operators on the span of ``dim`` basis states, with at most d
    ones in any row or column, as integer index lists: a family of
    generators W(sigma), or of their partial transposes.

    For operator k, ``rows[k]`` and ``cols[k]`` hold the positions of its
    ones, padded with -1 in both; ``row_cols[i, k, r]`` is the column of the
    i-th one in row r and ``col_rows[i, k, c]`` the row of the i-th one in
    column c, padded with -1 and -2 (the other way round on an adjoint) so
    that pads never match, with a slot i for each one of the fullest row or
    column; ``row_count`` and ``col_count`` count the ones of every row and
    column.  The positions and slot lists share the smallest signed type
    that holds -dim, so offsets past dim are formed in intp.  ``n`` and
    ``basis`` (None: the whole space) place the family as in an
    ``OperatorStack``.
    """

    d: int
    dim: int
    rows: np.ndarray
    cols: np.ndarray
    row_cols: np.ndarray
    col_rows: np.ndarray
    row_count: np.ndarray
    col_count: np.ndarray
    n: int | None = None
    basis: Any = None

    @classmethod
    def from_entries(cls, d: int, rows: np.ndarray, cols: np.ndarray, dim: int,
                     n: int | None = None, basis: np.ndarray | None = None
                     ) -> "GeneratorIndex":
        """The index form of the dim x dim 0/1 matrices with ones at
        ``(rows[k], cols[k])``, padded with -1, on the span of ``basis``."""
        kind = np.min_scalar_type(-dim)
        rows, cols = rows.astype(kind), cols.astype(kind)
        row_cols, row_count = _slot_lists(rows, cols, d, dim, -1)
        col_rows, col_count = _slot_lists(cols, rows, d, dim, -2)
        arrays = (rows, cols, row_cols, col_rows, row_count, col_count)
        for array in arrays:
            array.flags.writeable = False
        if basis is not None and len(basis) == d**n:
            basis = None
        return cls(d, dim, *arrays, n, basis)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def op(self, k: int) -> TensorOp:
        """W_k as a dense TensorOp."""
        return self.combine([[k]], [[1.0]]).op(0)

    def take(self, index) -> "GeneratorIndex":
        """The operators W[index], in that order, with the slots they use."""
        index = np.asarray(index)
        row_count, col_count = self.row_count[index], self.col_count[index]
        return replace(self, rows=self.rows[index], cols=self.cols[index],
                       row_cols=self.row_cols[:max(1, row_count.max(initial=0)), index],
                       col_rows=self.col_rows[:max(1, col_count.max(initial=0)), index],
                       row_count=row_count, col_count=col_count)

    def adjoint(self) -> "GeneratorIndex":
        """W_k^T for every k: the rows and the columns swap."""
        return replace(self, rows=self.cols, cols=self.rows, row_cols=self.col_rows,
                       col_rows=self.row_cols, row_count=self.col_count,
                       col_count=self.row_count)

    def combine(self, index, weights) -> OperatorStack:
        """``OperatorStack.combine`` of the 0/1 operators, a dense stack.

        With a per-row index, one unbuffered ``np.add.at`` per chunk of rows
        scatters the scaled ones of their terms in term order, so C_j is
        bitwise the sum of its scaled operators added one at a time.  A
        shared index is the product of the weights with the 0/1 vectors.
        """
        index, weights = np.asarray(index), np.asarray(weights, dtype=float)
        if index.ndim == 1:
            ones = self.combine(index[:, None], np.ones((len(index), 1)))
            return ones.combine(np.arange(len(index)), weights)
        out = np.zeros((len(weights), self.dim, self.dim))
        step = max(1, LAW_CHUNK_ENTRIES // (index.shape[1] * self.rows.shape[1]))
        for start in range(0, len(index), step):
            part = index[start:start + step]
            j, t, at = np.nonzero(self.cols[part] >= 0)  # row by row, term by term
            k, j = part[j, t], j + start
            np.add.at(out.reshape(-1), (j * self.dim + self.rows[k, at]) * self.dim
                      + self.cols[k, at], weights[j, t])
        return OperatorStack(self.n, self.d, out, self.basis)

    def _row_sums(self, a: TensorOp) -> tuple[np.ndarray, np.ndarray]:
        """Row i of W_k A sums the rows of A that row i of W_k lists: the sum
        of every distinct list of the family, formed once, and for each row
        i of each W_k the position of its list among them."""
        _check(self, a)
        lists = np.sort(np.maximum(self.row_cols, -1).reshape(len(self.row_cols), -1).T,
                        axis=1)  # pads -1 first
        order = np.lexsort(lists.T)
        lists = lists[order]
        first = np.append(True, (lists[1:] != lists[:-1]).any(axis=1))
        at = np.empty(len(lists), dtype=np.intp)
        at[order] = np.cumsum(first) - 1
        padded = np.zeros((self.dim + 1, self.dim))  # a pad reads the zero row
        padded[:self.dim] = a.matrix
        return padded[lists[first]].sum(axis=1), at

    def right_mul(self, a: TensorOp) -> OperatorStack:
        """W_k A for every k, a dense stack of sums of rows of A."""
        sums, at = self._row_sums(a)
        return OperatorStack(self.n, self.d, sums[at].reshape(len(self), self.dim, self.dim),
                             self.basis)

    def right_mul_max(self, a: TensorOp) -> np.ndarray:
        """max |W_k A| for every k, with no product held."""
        sums, at = self._row_sums(a)
        return np.abs(sums).max(axis=1)[at].reshape(len(self), self.dim).max(axis=1)

    def _left_mul(self, r: int, data: np.ndarray, out: np.ndarray, scratch: np.ndarray):
        """W_r X_k into out[k] for every block X_k of ``data``: one gather of
        rows of every block per slot that a row of W_r fills (at least one),
        the rows that a slot leaves empty set to zero."""
        for i, cols in enumerate(self.row_cols[:max(1, self.row_count[r].max()), r]):
            target = scratch if i else out
            np.take(data, cols, axis=1, out=target, mode="wrap")  # unbuffered
            target[:, np.flatnonzero(cols < 0)] = 0.0
            if i:
                out += scratch

    def nonzeros(self) -> tuple[np.ndarray, ...]:
        """(block, row, col, value) of every one."""
        ones = self.cols >= 0
        return np.nonzero(ones)[0], self.rows[ones], self.cols[ones], np.ones(ones.sum())

    def gram(self, by_position: bool = False) -> np.ndarray:
        """``OperatorStack.gram``, exact: <W_j, W_k> counts the positions
        (r, c) at which both have a one, and the entry of V V^T at two
        positions (``by_position``) the operators with a one at both."""
        count, square = len(self), self.dim**2
        ones = np.where(self.cols >= 0, self.rows.astype(np.intp) * self.dim + self.cols, -1)
        owner = np.arange(count).repeat(ones.shape[1])
        # the operators with a one at each position, padded with count
        members = _slot_lists(ones.reshape(1, -1), owner[None], count, square, count)[0][:, 0].T
        ones[ones < 0] = square
        if by_position:
            return _shared_counts(members, np.vstack([ones, np.full(ones.shape[1], square)]))
        return _shared_counts(ones, np.vstack([members, np.full(members.shape[1], count)]))

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

    def stack_residuals(self, stack: "OperatorStack | GeneratorIndex",
                        first: int = 0) -> np.ndarray:
        """max |B_j - W(first + j)| for every block j of a family given
        apart, exact, through ``_largest_sums`` over its nonzero entries and
        -1 at the ones of each generator: this ties that family to the index
        form."""
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


def generator_index(n: int, d: int, cap: int | None = None) -> GeneratorIndex:
    """The transposed family ``generator_stack(n, d, True)``, on which the
    law is checked.  Shared and cached: never write to it."""
    return generator_stack(n, d, True, cap)


def element_stack(elems: list[AlgebraElement], cap: int | None = None
                  ) -> OperatorStack:
    """Oracle images of formal combinations of transposed generators, one
    block per element, as one ``combine`` of the transposed generator family,
    on its basis ``sector(n, d, True)``, not on the whole space.

    Row j of the combination lists the terms of element j in dict order,
    padded with zero weights on block 0, so each block is bitwise the sum of
    its scaled generators added one at a time.
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


def span_dimension(family: "OperatorStack | GeneratorIndex") -> int:
    """``gram_rank`` of the blocks B_k, read off the smaller of V^T V and
    V V^T (``gram``), which share their nonzero eigenvalues."""
    return gram_rank(family.gram(by_position=family.dim**2 < len(family)))


def gram_rank(gram: np.ndarray) -> int:
    """Numerical rank of a Gram matrix, relative threshold ``RANK_RTOL``."""
    eigs = np.linalg.eigvalsh(gram)
    top = eigs.max(initial=0.0)
    return int((eigs > RANK_RTOL * top).sum()) if top > 0 else 0


def matrix_operators_E(rep_images: "OperatorStack | GeneratorIndex",
                       alpha: Partition) -> OperatorStack:
    """Group-averaged matrix operators of an irrep inside a representation D.

    E_{ij} = (w/|G|) sum_g phi_{ji}(g^{-1}) D(g), over G = S(|alpha|).  The
    zero family is the legitimate outcome when alpha does not occur in D.
    Given a family whose block k is D(g) for the k-th g of G in
    ``Permutation.all`` order, this returns the stack E_11, E_12, ..., E_ww
    as one shared-index ``combine``: one product of the weights with the
    family.
    """
    weights = averaging_weights(alpha)
    count = weights.shape[-1]
    return rep_images.combine(np.arange(count), weights.reshape(-1, count))
