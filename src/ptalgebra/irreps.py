"""All irreducible representations of the transposed-operator algebra.

Kind M irreps live in the main ideal and are labelled by partitions of
n-2 fitting in d rows; their dimension is the rank of Q(alpha), which
loses dim(theta) compared with the induced representation exactly when
some eigenvalue vanishes.  Kind S irreps are labelled by partitions of
n-1 with height strictly below d; they restrict irreducibly to S(n-1)
and kill every generator that moves the last point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .algebra import AlgebraContext, AlgebraElement, u_element
from .induced import (InducedRep, SpectralQ, coset_image, spectral_q,
                      zero_condition)
from .partitions import Partition, partitions_of
from .permutations import Permutation
from .yor import irrep as sym_irrep


class AlgebraIrrep:
    """A matrix representation of the algebra, defined on its generators."""

    def __init__(self, kind: str, label: Partition, n: int, d: int,
                 dimension: int, basis_tag: str | None, image_fn):
        self.kind = kind
        self.label = label
        self.n = n
        self.d = d
        self.dimension = dimension
        self.basis_tag = basis_tag
        self._image_fn = image_fn
        self._images: dict[Permutation, np.ndarray] = {}

    def image(self, sigma: Permutation) -> np.ndarray:
        """Image of the generator W(sigma); memoized."""
        if sigma.degree != self.n:
            raise ValueError(f"degree {sigma.degree} != n = {self.n}")
        cached = self._images.get(sigma)
        if cached is None:
            cached = self._image_fn(sigma)
            self._images[sigma] = cached
        return cached

    def __repr__(self) -> str:
        tag = f", basis={self.basis_tag}" if self.basis_tag else ""
        return (f"AlgebraIrrep(kind={self.kind}, label={self.label}, "
                f"n={self.n}, d={self.d}, dim={self.dimension}{tag})")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "label": str(self.label),
            "n": self.n,
            "d": self.d,
            "dimension": self.dimension,
            "basis_tag": self.basis_tag,
            "images": {
                sigma.cycle_string(): [float(x) for x in self.image(sigma).ravel()]
                for sigma in Permutation.all(self.n)
            },
        }


def _theta_filtered(spectral: SpectralQ) -> tuple[list[int], list[float], list[Partition]]:
    """Kept column indices of Z, their eigenvalues, and the kept nu labels."""
    kept_cols, kept_lams = [], []
    kept_nus: list[Partition] = []
    for col, (nu, j) in enumerate(spectral.z_labels):
        if spectral.theta is not None and nu == spectral.theta:
            continue
        kept_cols.append(col)
        kept_lams.append(spectral.eigenvalue_of(nu))
        if j == 1:
            kept_nus.append(nu)
    return kept_cols, kept_lams, kept_nus


def irrep_M_f(alpha: Partition, d: int, n: int) -> AlgebraIrrep:
    """Kind-M irrep in the reduced matrix basis.

    The transposed transposition (a n) acts as sqrt(Lambda) Za^T Za
    sqrt(Lambda), with Za the a-th block row of Z restricted to the
    non-null columns; S(n-1) acts block diagonally through its irreps.
    A general generator factors as sigma = sigma_hat (a n) with
    sigma_hat in S(n-1).
    """
    if n < 3:
        raise ValueError("n >= 3 required; use n2_special_case for n = 2")
    if alpha.weight != n - 2:
        raise ValueError(f"alpha must have weight {n - 2}")
    if d < alpha.height:
        raise ValueError(
            f"no such block: alpha of height {alpha.height} needs d >= {alpha.height}"
        )
    spectral = spectral_q(alpha, d, n)
    kept_cols, kept_lams, kept_nus = _theta_filtered(spectral)
    w = alpha.hook_dimension()
    z_kept = spectral.z[:, kept_cols]
    sqrt_lam = np.sqrt(kept_lams)
    dimension = len(kept_cols)
    assert dimension == spectral.rank

    psi_reps = [sym_irrep(nu) for nu in kept_nus]

    def image_sn1(sigma: Permutation) -> np.ndarray:
        reduced = sigma.restrict(n - 1)
        out = np.zeros((dimension, dimension))
        pos = 0
        for psi in psi_reps:
            out[pos:pos + psi.dim, pos:pos + psi.dim] = psi.image(reduced)
            pos += psi.dim
        return out

    def image_an(a: int) -> np.ndarray:
        block_rows = z_kept[(a - 1) * w:a * w, :]
        return (sqrt_lam[:, None] * (block_rows.T @ block_rows)) * sqrt_lam[None, :]

    def image_fn(sigma: Permutation) -> np.ndarray:
        if sigma.fixes_last():
            return image_sn1(sigma)
        a, _b = sigma.classify()
        sigma_hat = sigma * Permutation.transposition(n, a, n)
        return image_sn1(sigma_hat) @ image_an(a)

    return AlgebraIrrep("M", alpha, n, d, dimension, "f", image_fn)


def irrep_M_e(alpha: Partition, d: int, n: int) -> AlgebraIrrep:
    """Kind-M irrep in the group-averaged basis; needs det Q(alpha) != 0.

    Images are written directly through the inducing irrep: the basis is
    indexed by (coset a, inner i), S(n-1) acts by the induced representation,
    and a transposed generator with labels (a, b) occupies block row b only.
    """
    if n < 3:
        raise ValueError("n >= 3 required; use n2_special_case for n = 2")
    if alpha.weight != n - 2:
        raise ValueError(f"alpha must have weight {n - 2}")
    if d < alpha.height:
        raise ValueError(
            f"no such block: alpha of height {alpha.height} needs d >= {alpha.height}"
        )
    theta = zero_condition(alpha, d)
    if theta is not None:
        raise ValueError(
            f"det Q = 0 at d = {d} (vanishing block {theta}); "
            "use the reduced-basis construction irrep_M_f instead"
        )
    rep = InducedRep(alpha, n)
    phi = rep.phi
    w = rep.w
    dimension = rep.block_dim
    m = n - 1

    def image_fn(sigma: Permutation) -> np.ndarray:
        if sigma.fixes_last():
            return rep.matrix(sigma.restrict(m))
        a, b = sigma.classify()
        sigma_hat = (sigma * Permutation.transposition(n, a, n)).restrict(m)
        out = np.zeros((dimension, dimension))
        for q in range(1, m + 1):
            block = coset_image(phi, b, sigma_hat, a, q)
            if a == q:
                block = d * block
            out[(b - 1) * w:b * w, (q - 1) * w:q * w] = block
        return out

    return AlgebraIrrep("M", alpha, n, d, dimension, "e", image_fn)


def irrep_S(nu: Partition, d: int, n: int) -> AlgebraIrrep:
    """Semi-trivial irrep: S(n-1) acts irreducibly, the main ideal by zero."""
    if nu.weight != n - 1:
        raise ValueError(f"nu must have weight {n - 1}")
    if nu.height >= d:
        raise ValueError(
            f"no such block: height {nu.height} >= d = {d} (strict bound)"
        )
    psi = sym_irrep(nu)
    zero = np.zeros((psi.dim, psi.dim))

    def image_fn(sigma: Permutation) -> np.ndarray:
        if sigma.fixes_last():
            return psi.image(sigma.restrict(n - 1))
        return zero

    return AlgebraIrrep("S", nu, n, d, psi.dim, None, image_fn)


def all_irreps(n: int, d: int) -> list[AlgebraIrrep]:
    """Every irrep of the algebra at (n, d), M blocks first (reduced basis)."""
    if n == 2:
        _report, irreps = n2_special_case(d)
        return irreps
    out = [
        irrep_M_f(alpha, d, n)
        for alpha in partitions_of(n - 2)
        if alpha.height <= d
    ]
    out.extend(
        irrep_S(nu, d, n) for nu in partitions_of(n - 1) if nu.height < d
    )
    return out


# -- structure ----------------------------------------------------------


@dataclass
class StructureReport:
    """Block inventory of the algebra: M sum of rank^2, S sum of dim^2."""

    n: int
    d: int
    m_blocks: list[tuple[Partition, int]]
    s_blocks: list[tuple[Partition, int]]
    dim_M: int
    dim_S: int
    dim_total: int
    oracle_dim: int | None = None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "m_blocks": [{"alpha": str(a), "rank": r} for a, r in self.m_blocks],
            "s_blocks": [{"nu": str(v), "dim": k} for v, k in self.s_blocks],
            "dim_M": self.dim_M,
            "dim_S": self.dim_S,
            "dim_total": self.dim_total,
            "oracle_dim": self.oracle_dim,
        }


def algebra_dimension_formula(n: int, d: int) -> int:
    """dim of the span of the n! operators: sum of dim^2 over mu of n with
    height at most d (identical for transposed and untransposed spans)."""
    return sum(
        mu.hook_dimension() ** 2 for mu in partitions_of(n) if mu.height <= d
    )


def rank_of_q(alpha: Partition, d: int, n: int) -> int:
    """Rank of Q(alpha) from the exact zero condition, no numerics."""
    full = (n - 1) * alpha.hook_dimension()
    theta = zero_condition(alpha, d)
    return full if theta is None else full - theta.hook_dimension()


def structure_report(n: int, d: int, with_oracle: bool = False,
                     cap: int | None = None) -> StructureReport:
    if n == 2:
        report, _irreps = n2_special_case(d)
        if with_oracle:
            report.oracle_dim = _measure_span(n, d, cap)
        return report
    m_blocks = [
        (alpha, rank_of_q(alpha, d, n))
        for alpha in partitions_of(n - 2)
        if alpha.height <= d
    ]
    s_blocks = [
        (nu, nu.hook_dimension()) for nu in partitions_of(n - 1) if nu.height < d
    ]
    dim_m = sum(r * r for _a, r in m_blocks)
    dim_s = sum(k * k for _v, k in s_blocks)
    total = dim_m + dim_s
    expected = algebra_dimension_formula(n, d)
    if total != expected:
        raise AssertionError(
            f"block inventory sums to {total}, but the span dimension "
            f"formula gives {expected}"
        )
    report = StructureReport(n, d, m_blocks, s_blocks, dim_m, dim_s, total)
    if with_oracle:
        report.oracle_dim = _measure_span(n, d, cap)
    return report


def _measure_span(n: int, d: int, cap: int | None) -> int:
    from .oracle import generator_stack, span_dimension

    return span_dimension(generator_stack(n, d, transposed=True, cap=cap))


def n2_special_case(d: int) -> tuple[StructureReport, list[AlgebraIrrep]]:
    """n = 2: a commutative two-dimensional algebra, two one-dim irreps.

    The single transposed generator is an essential projector of weight d;
    it acts as d in the M irrep and as 0 in the S irrep.
    """
    if d < 2:
        raise ValueError("the n = 2 split needs d >= 2")
    n = 2
    swap = Permutation.transposition(2, 1, 2)

    def image_m(sigma: Permutation) -> np.ndarray:
        return np.array([[float(d)]]) if sigma == swap else np.array([[1.0]])

    def image_s(sigma: Permutation) -> np.ndarray:
        return np.array([[0.0]]) if sigma == swap else np.array([[1.0]])

    irreps = [
        AlgebraIrrep("M", Partition(()), n, d, 1, "f", image_m),
        AlgebraIrrep("S", Partition((1,)), n, d, 1, None, image_s),
    ]
    report = StructureReport(
        n=2,
        d=d,
        m_blocks=[(Partition(()), 1)],
        s_blocks=[(Partition((1,)), 1)],
        dim_M=1,
        dim_S=1,
        dim_total=2,
    )
    return report, irreps


# -- the unit of the main ideal ------------------------------------------


def unit_of_M(n: int, d: int) -> AlgebraElement:
    """The idempotent acting as identity on the main ideal.

    Per label alpha the unit is sum_{J,I} Qplus[J,I] u[J,I] with Qplus the
    (pseudo)inverse of Q(alpha) built from the closed-form eigenvalues and
    the d-independent reducing matrix; the vanishing block, when present,
    is excluded by its exact label rather than numerically.
    """
    if n < 3:
        raise ValueError("n >= 3 required; for n = 2 the unit of M is W(12)/d")
    ctx = AlgebraContext(n, d)
    total = AlgebraElement.zero(ctx)
    for alpha in partitions_of(n - 2):
        if alpha.height > d:
            continue
        spectral = spectral_q(alpha, d, n)
        kept_cols, kept_lams, _nus = _theta_filtered(spectral)
        z_kept = spectral.z[:, kept_cols]
        q_plus = z_kept @ np.diag([1.0 / lam for lam in kept_lams]) @ z_kept.T
        w = alpha.hook_dimension()
        unit_alpha = AlgebraElement.zero(ctx)
        for jj in range(q_plus.shape[0]):
            b, k = divmod(jj, w)
            for ii in range(q_plus.shape[0]):
                a, i = divmod(ii, w)
                coeff = q_plus[jj, ii]
                if abs(coeff) < 1e-15:
                    continue
                u = u_element(alpha, b + 1, a + 1, k + 1, i + 1, ctx)
                unit_alpha = unit_alpha + coeff * u
        total = total + unit_alpha
    return total
