"""The abstract algebra spanned by the transposed generators.

An element is a formal combination sum_sigma c_sigma * W(sigma) over
sigma in S(n), where W(sigma) denotes the permutation operator on n
tensor factors transposed on the last one.  The product of two
generators is again d^0 or d^1 times a generator:

  * both factors fix n: plain composition, untransposed;
  * exactly one factor fixes n: plain composition, transposed;
  * neither fixes n, with labels (a,b) = classify(sigma) and
    (p,q) = classify(rho):
        W(sigma) W(rho) = d^{delta_aq} W((sigma(q) n) sigma rho (p n)),
    where a transposition (x n) with x = n denotes the identity.

A whole row of the law, W(sigma) against every rho, needs the three cases
on n columns only.  Every rho is (q n) rho^ with q = rho(n) and rho^ =
(q n) rho fixing n, and W(rho) = W((q n)) W(rho^) is plain composition with
power 0, since one factor fixes n.  So W(sigma) W(rho) = d^P W(sigma'_q rho^)
with (P, sigma'_q) the product of W(sigma) and W((q n)): ``law_rows`` takes
those n coset columns from ``mul_generators`` and the rest is plain
composition with all of S(n-1).

The formal span is kept purely syntactic: for d < n the generators are
linearly dependent as operators, and only the tensor oracle may decide
linear (in)dependence.  Coefficients are floats at fixed d or DPoly in
symbolic mode.  ``u_terms`` gives every averaged generator u_ij^ab(alpha)
of the main ideal at once as arrays; ``u_element`` is one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from math import factorial

import numpy as np

from .dpoly import DPoly
from .partitions import LABEL_MEMO_SIZE, Partition
from .permutations import Permutation, image_array, lehmer_rank
from .yor import averaging_weights

PRUNE_TOL = 1e-12


@dataclass(frozen=True)
class AlgebraContext:
    """n tensor factors of local dimension d; d = None means symbolic."""

    n: int
    d: int | None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.d is not None and self.d < 1:
            raise ValueError("fixed d must be >= 1")

    @property
    def symbolic(self) -> bool:
        return self.d is None

    def one(self):
        return DPoly((1,)) if self.symbolic else 1.0

    def d_power(self, power: int):
        if self.symbolic:
            return DPoly.d(1) ** power
        return float(self.d**power)


def mul_generators(sigma, rho):
    """Product of two generators as (power of d, resulting permutation).

    Called with two ``Permutation``s it returns ``(int, Permutation)``.
    Called with integer arrays of 0-based one-line images whose shapes
    ``(..., n)`` broadcast, it returns the arrays ``(power, images)`` of
    shapes ``(...)`` and ``(..., n)``: one product per broadcast position,
    so a whole row of a product table is a single call.
    """
    single = isinstance(sigma, Permutation) and isinstance(rho, Permutation)
    if single:
        sigma, rho = np.array(sigma.images) - 1, np.array(rho.images) - 1
    sigma, rho = np.asarray(sigma), np.asarray(rho)
    if sigma.shape[-1] != rho.shape[-1]:
        raise ValueError(f"degree mismatch: {sigma.shape[-1]} != {rho.shape[-1]}")
    n = sigma.shape[-1]
    last = n - 1
    # (a, b) = classify(sigma) and (p, q) = classify(rho), 0-based, each
    # read from its own factor before the two broadcast.
    q = rho[..., last]
    a = np.argmax(sigma == last, axis=-1)
    p = np.argmax(rho == last, axis=-1)[..., None]
    # rho (p n) sends p to rho(n) = q and fixes n; it is rho when rho fixes n.
    points = np.arange(n)
    shifted = np.where(points == p, q[..., None], np.where(points == last, last, rho))
    sigma_moves = sigma[..., last] != last
    neither_fixes = sigma_moves & (q != last)
    power = (neither_fixes & (a == q)).astype(np.intp)
    # Where a factor fixes n, both transpositions below are (n n) = identity.
    right = np.where(sigma_moves[..., None], shifted, rho)
    sigma = np.broadcast_to(sigma, right.shape)
    product = np.take_along_axis(sigma, right, axis=-1)
    x = np.take_along_axis(sigma, np.broadcast_to(q, right.shape[:-1])[..., None], axis=-1)
    x = np.where(neither_fixes[..., None], x, last)
    # (sigma(q) n) sigma rho (p n): exchange the values sigma(q) and n.
    product = np.where(product == x, last, np.where(product == last, x, product))
    if single:
        return int(power), Permutation((product + 1).tolist())
    return power, product


@cache
def _row_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What ``law_rows`` reads at degree n, built on first use: the
    ``(n, n)`` images of the coset representatives (q n), q = 1..n; the
    ``(n, (n-1)!)`` weights n^{rho^^-1(m)} of every rho^ in S(n-1), 0 at
    m = n, so that images(sigma') @ weights is the base-n code of every
    sigma' rho^ over its first n-1 images; the ``(n!,)`` position in that
    (q, rho^) grid of every rho, in ``Permutation.all`` order; and the
    int32 table of n^{n-1} entries from a code to its position."""
    last = n - 1
    # float64 holds the codes exactly: 8^7 at n = 8
    assert n**last < 2**53, f"base-{n} codes of S({n}) exceed float64's integers"
    images = image_array(n)
    points = np.arange(n)
    swaps = np.where(points == points[:, None], last,
                     np.where(points == last, points[:, None], points))
    weights = np.zeros((n, factorial(last)))
    weights[:last] = (n ** np.argsort(image_array(last), axis=1)).T
    q = images[:, last]
    hat = swaps[q[:, None], images]  # (q n) rho swaps the values q and n
    columns = q * factorial(last) + lehmer_rank(hat[:, :last])
    table = np.full(n**last, -1, dtype=np.int32)
    table[images[:, :last] @ n ** np.arange(last)] = np.arange(len(images))
    return swaps, weights, columns, table


def law_rows(n: int, rows) -> tuple[np.ndarray, np.ndarray]:
    """The law of W(sigma) against every rho, for each sigma at the
    positions ``rows``: the ``(len(rows), n!)`` arrays of the powers of d
    and of the positions of the products, columns in ``Permutation.all``
    order, so that W(sigma) W(rho) = d^powers[i, j] W(positions[i, j]).

    By the row identity of the module docstring, one ``mul_generators``
    call on the n coset columns (q n) gives (P, sigma'_q); every product
    is then sigma'_q rho^, whose base-n codes for a block of rows are one
    exact float64 product images(sigma'_q) @ weights (``_row_tables``).
    """
    swaps, weights, columns, table = _row_tables(n)
    sigma = image_array(n)[np.asarray(rows, dtype=np.intp)]
    powers, primed = mul_generators(sigma[:, None], swaps)
    codes = primed.reshape(-1, n) @ weights  # row i n + q, column rho^
    codes = codes.reshape(len(sigma), len(columns))[:, columns]
    return powers[:, image_array(n)[:, -1]], table[codes.astype(np.intp)]


@cache
def generator_words(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A fixed word in the algebra's generators for every sigma in S(n).

    The algebra is generated by the n-1 transposed generators s_1 ... s_{n-2}
    and V' = W((n-1 n))^{t_n}; ``generators`` holds their positions in
    ``Permutation.all`` order, in that order.  For the sigma at position
    k > 0, W(sigma) = W(g) W(sigma') with power 0, where g = ``first[k]`` is
    one of the generators and sigma' = ``rest[k]`` has a word one letter
    shorter; the identity, position 0, has the empty word and
    ``first[0] = rest[0] = -1``.  A breadth-first search from the identity
    builds it, one gather per level of the frontier's columns from the
    generator rows of ``law_rows``; among the products of one level the
    first new one, generator by generator, fixes the word.  Read-only
    arrays, cached by n.
    """
    count = factorial(n)
    gens = np.array([Permutation.transposition(n, i, i + 1).images
                     for i in range(1, n)], dtype=np.intp) - 1
    generators = lehmer_rank(gens)
    step_powers, step = law_rows(n, generators)
    first = np.full(count, -1, dtype=np.intp)
    rest = first.copy()
    seen = np.zeros(count, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        powers, ranks = step_powers[:, frontier], step[:, frontier]
        g, k = np.nonzero((powers == 0) & ~seen[ranks])
        fresh, where = np.unique(ranks[g, k], return_index=True)
        first[fresh], rest[fresh] = generators[g[where]], frontier[k[where]]
        seen[fresh] = True
        frontier = fresh
    if not seen.all():
        raise RuntimeError(f"the generators reach {seen.sum()} of {len(seen)} "
                           f"permutations of S({n}) with power 0")
    for array in (generators, first, rest):
        array.flags.writeable = False
    return generators, first, rest


class AlgebraElement:
    """Formal combination of generators with nonzero coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: AlgebraContext, terms: dict[Permutation, object]):
        pruned = {}
        for perm, coeff in terms.items():
            if perm.degree != ctx.n:
                raise ValueError(f"term degree {perm.degree} != n = {ctx.n}")
            if ctx.symbolic:
                if not isinstance(coeff, DPoly):
                    coeff = DPoly(coeff)
                if coeff:
                    pruned[perm] = coeff
            else:
                coeff = float(coeff)
                if abs(coeff) > PRUNE_TOL:
                    pruned[perm] = coeff
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", pruned)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def generator(ctx: AlgebraContext, sigma: Permutation) -> "AlgebraElement":
        return AlgebraElement(ctx, {sigma: ctx.one()})

    @staticmethod
    def one(ctx: AlgebraContext) -> "AlgebraElement":
        return AlgebraElement.generator(ctx, Permutation.identity(ctx.n))

    @staticmethod
    def zero(ctx: AlgebraContext) -> "AlgebraElement":
        return AlgebraElement(ctx, {})

    # -- linear structure -------------------------------------------------

    def _check(self, other: "AlgebraElement"):
        if self.ctx != other.ctx:
            raise ValueError(f"context mismatch: {self.ctx} != {other.ctx}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        terms = dict(self.terms)
        for perm, coeff in other.terms.items():
            terms[perm] = terms.get(perm, 0) + coeff
        return AlgebraElement(self.ctx, terms)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.ctx, {p: -c for p, c in self.terms.items()})

    def scale(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.ctx, {p: scalar * c for p, c in self.terms.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, float, DPoly)):
            return self.scale(scalar)
        return NotImplemented

    # -- ring structure ----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, float, DPoly)):
            return self.scale(other)
        self._check(other)
        n = self.ctx.n
        left, right = (np.array([perm.images for perm in elem.terms], dtype=np.intp
                                ).reshape(len(elem.terms), n) - 1 for elem in (self, other))
        # every (sigma, rho) pair in one call, sigma by sigma and rho by rho
        powers, images = mul_generators(left[:, None], right[None])
        pairs = ((c1, c2) for c1 in self.terms.values() for c2 in other.terms.values())
        terms: dict[Permutation, object] = {}
        for (c1, c2), power, row in zip(pairs, powers.ravel().tolist(),
                                        (images.reshape(-1, n) + 1).tolist()):
            result = Permutation(row)
            coeff = c1 * c2 * self.ctx.d_power(power)
            terms[result] = terms.get(result, 0) + coeff
        return AlgebraElement(self.ctx, terms)

    def adjoint(self) -> "AlgebraElement":
        """Term-wise inverse of the permutations; coefficients are real."""
        return AlgebraElement(self.ctx, {p.inverse(): c for p, c in self.terms.items()})

    # -- comparisons and rendering -----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement) or self.ctx != other.ctx:
            return False
        if self.ctx.symbolic:
            return self.terms == other.terms
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) <= PRUNE_TOL
            for k in keys
        )

    def __hash__(self):
        raise TypeError("AlgebraElement is not hashable")

    def __repr__(self) -> str:
        return f"AlgebraElement({self.ctx}, {self.format()})"

    def __str__(self) -> str:
        return self.format()

    def format(self) -> str:
        """Text form ``c1*perm1 + c2*perm2`` with ^t marking transposed terms."""
        if not self.terms:
            return "0"
        chunks = []
        for perm in sorted(self.terms):
            coeff = self.terms[perm]
            name = perm.cycle_string()
            if not perm.fixes_last():
                name += "^t"
            if isinstance(coeff, DPoly):
                coeff_str = str(coeff)
                if coeff_str.lstrip("-").count("d") + coeff_str.count("+") > 1:
                    coeff_str = f"({coeff_str})"
            else:
                coeff_str = f"{coeff:g}"
            chunks.append(f"{coeff_str}*{name}")
        return " + ".join(chunks)


@lru_cache(maxsize=LABEL_MEMO_SIZE)
def u_terms(alpha: Partition, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every u term of alpha as arrays over sigma_s in S(n-2), in
    ``Permutation.all`` order: u_{ij}^{ab} = sum_s weights[i-1, j-1, s]
    W(images[a-1, b-1, s]), where ``images`` (shape (n-1, n-1, (n-2)!, n))
    holds the 0-based images of (a n)(a n-1) sigma_s (b n-1) and ``weights``
    is ``averaging_weights`` over S(n-2).  The images do not depend on
    alpha; they are the permutations that move n, each once, one array per
    n shared by every alpha.  Both are read-only, built once per (alpha, n)
    and shared by every caller (at most ``LABEL_MEMO_SIZE`` labels held)."""
    if alpha.weight != n - 2:
        raise ValueError(f"alpha must have weight {n - 2}")
    weights = averaging_weights(alpha)
    weights.flags.writeable = False
    return _u_images(n), weights


@lru_cache(maxsize=LABEL_MEMO_SIZE)
def _u_images(n: int) -> np.ndarray:
    """The images of ``u_terms``, read-only."""
    points, x = np.arange(n), np.arange(n - 1)[:, None]

    def swaps(y):  # row x: the 0-based transposition (x y)
        return np.where(points == x, y, np.where(points == y, x, points))

    left = np.take_along_axis(swaps(n - 1), swaps(n - 2), axis=1)  # (a n)(a n-1)
    sigma = np.hstack([image_array(n - 2), np.full((factorial(n - 2), 2), [n - 2, n - 1])])
    images = left[x[:, :, None, None], sigma[:, swaps(n - 2)].transpose(1, 0, 2)]
    images.flags.writeable = False
    return images


def u_element(alpha: Partition, a: int, b: int, i: int, j: int,
              ctx: AlgebraContext) -> AlgebraElement:
    """Group-averaged generator of the main ideal.

    u_{ij}^{ab}(alpha) = (w/(n-2)!) W(an) sum_{sigma in S(n-2)}
    phi_{ji}(sigma^{-1}) V[(a n-1) sigma (b n-1)], a formal combination of
    (n-2)! generators: one ``(a, b, i, j)`` slice of ``u_terms``.  Nonzero
    as a tensor operator exactly when alpha fits in d rows.
    """
    images, weights = u_terms(alpha, ctx.n)
    if not (1 <= a <= ctx.n - 1 and 1 <= b <= ctx.n - 1):
        raise ValueError("labels a, b must lie in 1..n-1")
    if not (1 <= i <= len(weights) and 1 <= j <= len(weights)):
        raise ValueError("matrix indices outside the representation")
    perms = map(Permutation, (images[a - 1, b - 1] + 1).tolist())
    return AlgebraElement(ctx, dict(zip(perms, weights[i - 1, j - 1].tolist())))
