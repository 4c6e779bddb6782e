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

The formal span is kept purely syntactic: for d < n the generators are
linearly dependent as operators, and only the tensor oracle may decide
linear (in)dependence.  Coefficients are floats at fixed d or DPoly in
symbolic mode.  ``u_terms`` gives every averaged generator u_ij^ab(alpha)
of the main ideal at once as arrays; ``u_element`` is one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .dpoly import DPoly
from .partitions import Partition
from .permutations import Permutation, image_array
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
    sigma, rho = np.broadcast_arrays(sigma, rho)
    # (a, b) = classify(sigma) and (p, q) = classify(rho), 0-based.
    q = rho[..., last]
    neither_fixes = (sigma[..., last] != last) & (q != last)
    a = np.argmax(sigma == last, axis=-1)
    power = (neither_fixes & (a == q)).astype(np.intp)
    # Where a factor fixes n, both transpositions below are (n n) = identity.
    p = np.where(neither_fixes, np.argmax(rho == last, axis=-1), last)[..., None]
    x = np.take_along_axis(sigma, q[..., None], axis=-1)
    x = np.where(neither_fixes[..., None], x, last)
    # rho (p n) sends p to rho(n) = q and fixes n.
    points = np.arange(n)
    rho = np.where(points == p, q[..., None], np.where(points == last, last, rho))
    product = np.take_along_axis(sigma, rho, axis=-1)
    # (sigma(q) n) sigma rho (p n): exchange the values sigma(q) and n.
    product = np.where(product == x, last, np.where(product == last, x, product))
    if single:
        return int(power), Permutation((product + 1).tolist())
    return power, product


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
        right = list(other.terms.items())
        right_images = np.array([rho.images for rho, _c in right],
                                dtype=np.intp).reshape(len(right), self.ctx.n) - 1
        terms: dict[Permutation, object] = {}
        for sigma, c1 in self.terms.items():
            powers, images = mul_generators(np.array(sigma.images) - 1, right_images)
            for (_rho, c2), power, row in zip(right, powers.tolist(),
                                              (images + 1).tolist()):
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


def u_terms(alpha: Partition, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every u term of alpha as arrays over sigma_s in S(n-2), in
    ``Permutation.all`` order: u_{ij}^{ab} = sum_s weights[i-1, j-1, s]
    W(images[a-1, b-1, s]), where ``images`` (shape (n-1, n-1, (n-2)!, n))
    holds the 0-based images of (a n)(a n-1) sigma_s (b n-1) and ``weights``
    is ``averaging_weights`` over S(n-2).  The images do not depend on
    alpha; they are the permutations that move n, each once."""
    if alpha.weight != n - 2:
        raise ValueError(f"alpha must have weight {n - 2}")
    points, x = np.arange(n), np.arange(n - 1)[:, None]

    def swaps(y):  # row x: the 0-based transposition (x y)
        return np.where(points == x, y, np.where(points == y, x, points))

    left = np.take_along_axis(swaps(n - 1), swaps(n - 2), axis=1)  # (a n)(a n-1)
    sigma = np.hstack([image_array(n - 2), np.full((factorial(n - 2), 2), [n - 2, n - 1])])
    images = left[x[:, :, None, None], sigma[:, swaps(n - 2)].transpose(1, 0, 2)]
    return images, averaging_weights(alpha, list(Permutation.all(n - 2)))


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
