"""Verification suites: every abstract-layer claim against the oracle.

Each check returns a report record {check, params, passed, max_residual,
details}; the CLI turns failures into a nonzero exit code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraContext, AlgebraElement, mul_generators, u_element
from .induced import (InducedRep, eigenvalues_closed_form, q_matrix,
                      q_via_induced, z_matrix)
from .irreps import (algebra_dimension_formula, all_irreps, rank_of_q,
                     structure_report, unit_of_M)
from .oracle import (SizeCapError, element_operator, identity_operator,
                     matrix_operators_E, perm_operator, span_dimension,
                     transposed_perm_operator)
from .partitions import Partition, partitions_of
from .permutations import Permutation, image_array, lehmer_rank
from .yor import irrep as sym_irrep
from .yor import multiplicity_in_V

HOM_TOL = 1e-8
ORACLE_TOL = 1e-10
SPECTRA_TOL = 1e-8
APPC_TOL = 1e-9


@dataclass
class CheckReport:
    check: str
    params: dict
    passed: bool
    max_residual: float
    details: str = ""

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "details": self.details,
        }

    @staticmethod
    def from_dict(data: dict) -> "CheckReport":
        return CheckReport(
            check=data["check"],
            params=data["params"],
            passed=data["passed"],
            max_residual=data["max_residual"],
            details=data["details"],
        )


def _report(check: str, params: dict, residual: float, tol: float,
            details: str = "") -> CheckReport:
    return CheckReport(check, params, bool(residual < tol), float(residual), details)


# -- multiplication law ---------------------------------------------------


def check_mul_rule(n: int, d: int, cap: int | None = None) -> CheckReport:
    """Every generator pair: the abstract product equals the operator product."""
    perms = list(Permutation.all(n))
    images = image_array(n)
    ops = [transposed_perm_operator(s, d, n, cap) for s in perms]
    worst, culprit = 0.0, ""
    for s, left in enumerate(ops):
        powers, products = mul_generators(images[s], images)
        for r, (power, index) in enumerate(
                zip(powers.tolist(), lehmer_rank(products).tolist())):
            residual = (left @ ops[r]).distance((d**power) * ops[index])
            if residual > worst:
                worst, culprit = residual, f"{perms[s]} * {perms[r]}"
    return _report("mul_rule", {"n": n, "d": d}, worst, ORACLE_TOL,
                   f"worst pair {culprit}" if worst else "")


def check_associativity(n: int, d: int, triples: int = 200,
                        seed: int = 0, cap: int | None = None) -> CheckReport:
    """Random generator triples associate after mapping through the oracle."""
    rng = np.random.default_rng(seed)
    perms = list(Permutation.all(n))
    ctx = AlgebraContext(n, d)
    worst = 0.0
    for _ in range(triples):
        x, y, z = (AlgebraElement.generator(ctx, perms[rng.integers(len(perms))])
                   for _ in range(3))
        left = element_operator((x * y) * z, cap)
        right = element_operator(x * (y * z), cap)
        worst = max(worst, left.distance(right))
    return _report("associativity", {"n": n, "d": d, "triples": triples}, worst, 1e-9)


def check_u_structure(alpha: Partition, beta: Partition, n: int, d: int,
                      cap: int | None = None) -> CheckReport:
    """Products and left actions of the averaged generators of the main ideal.

    Checks, through the oracle, the structure constants
    u_ij^ab(alpha) u_kl^pq(beta) = delta_ab Q_jk^bp(alpha) u_il^aq(alpha)
    and the left-action rules for transposed and untransposed generators.
    """
    ctx = AlgebraContext(n, d)
    w_a, w_b = alpha.hook_dimension(), beta.hook_dimension()
    m = n - 1
    q_alpha = q_matrix(alpha, d, n)
    u_ops_a = {}
    u_ops_b = {}
    for a in range(1, n):
        for b in range(1, n):
            for i in range(1, w_a + 1):
                for j in range(1, w_a + 1):
                    u_ops_a[(a, b, i, j)] = element_operator(
                        u_element(alpha, a, b, i, j, ctx), cap)
            for i in range(1, w_b + 1):
                for j in range(1, w_b + 1):
                    u_ops_b[(a, b, i, j)] = element_operator(
                        u_element(beta, a, b, i, j, ctx), cap)

    worst, culprit = 0.0, ""
    same = alpha == beta
    for (a, b, i, j), left in u_ops_a.items():
        for (p, q, k, l), right in u_ops_b.items():
            product = left @ right
            if not same:
                residual = product.max_abs()
            else:
                coeff = q_alpha[(b - 1) * w_a + (j - 1), (p - 1) * w_a + (k - 1)]
                residual = product.distance(coeff * u_ops_a[(a, q, i, l)])
            if residual > worst:
                worst = residual
                culprit = f"u^{a}{b}_{i}{j} * u^{p}{q}_{k}{l}"

    if same:
        phi = sym_irrep(alpha)
        for sigma in Permutation.all(n):
            if sigma.fixes_last():
                sig = sigma.restrict(m)
                for (p, q, i, j), right in u_ops_a.items():
                    target = sig(p)
                    tau = (Permutation.transposition(m, target, m) * sig
                           * Permutation.transposition(m, p, m)).restrict(n - 2)
                    acc = sum(
                        phi.image(tau)[k - 1, i - 1] * u_ops_a[(target, q, k, j)]
                        for k in range(1, w_a + 1)
                    )
                    residual = (transposed_perm_operator(sigma, d, n, cap) @ right
                                ).distance(acc)
                    worst = max(worst, residual)
            else:
                a, b = sigma.classify()
                sigma_hat = (sigma * Permutation.transposition(n, a, n)).restrict(m)
                for (p, q, i, j), right in u_ops_a.items():
                    tau = (Permutation.transposition(m, b, m) * sigma_hat
                           * Permutation.transposition(m, a, p)
                           * Permutation.transposition(m, p, m)).restrict(n - 2)
                    scale = float(d) if a == p else 1.0
                    acc = sum(
                        scale * phi.image(tau)[k - 1, i - 1] * u_ops_a[(b, q, k, j)]
                        for k in range(1, w_a + 1)
                    )
                    residual = (transposed_perm_operator(sigma, d, n, cap) @ right
                                ).distance(acc)
                    worst = max(worst, residual)

    return _report(
        "u_structure",
        {"alpha": str(alpha), "beta": str(beta), "n": n, "d": d},
        worst, HOM_TOL,
        f"first violation near {culprit}" if worst >= HOM_TOL else "",
    )


def check_unit_of_m(n: int, d: int, cap: int | None = None) -> CheckReport:
    """e^2 = e, em = me = m on the main ideal, and M annihilates S."""
    e_op = element_operator(unit_of_M(n, d), cap)
    ident = identity_operator(n, d, cap)
    worst = (e_op @ e_op).distance(e_op)
    complement = ident - e_op
    s_gens = []
    for sigma in Permutation.all(n):
        op = transposed_perm_operator(sigma, d, n, cap)
        if sigma.fixes_last():
            s_gens.append(op @ complement)
        else:
            worst = max(worst, (e_op @ op).distance(op), (op @ e_op).distance(op))
    for sigma in Permutation.all(n):
        if sigma.fixes_last():
            continue
        m_op = transposed_perm_operator(sigma, d, n, cap)
        for s_gen in s_gens:
            worst = max(worst, (m_op @ s_gen).max_abs())
    return _report("unit_of_M", {"n": n, "d": d}, worst, HOM_TOL)


# -- spectra ---------------------------------------------------------------


def check_spectra(n: int, d: int) -> CheckReport:
    """Closed-form eigenvalues, the two Q constructions, and the reduction."""
    worst, details = 0.0, []
    for alpha in partitions_of(n - 2):
        q_num = q_matrix(alpha, d, n)
        worst = max(worst, np.abs(q_num - q_num.T).max())
        worst = max(worst, np.abs(q_num - q_via_induced(alpha, d, n)).max())
        closed = np.sort(np.concatenate([
            np.full(mult, lam) for _nu, lam, mult in
            eigenvalues_closed_form(alpha, d, n)
        ]))
        numeric = np.sort(np.linalg.eigvalsh(q_num))
        worst = max(worst, np.abs(closed - numeric).max())
        z, labels = z_matrix(alpha, n)
        worst = max(worst, np.abs(z.T @ z - np.eye(z.shape[0])).max())
        lam_by_label = dict(
            (nu, lam) for nu, lam, _m in eigenvalues_closed_form(alpha, d, n))
        diag = np.array([lam_by_label[nu] for nu, _j in labels])
        worst = max(worst, np.abs(z.T @ q_num @ z - np.diag(diag)).max())
        rep = InducedRep(alpha, n)
        for sigma in Permutation.all(n - 1):
            reduced = z.T @ rep.matrix(sigma) @ z
            expected = np.zeros_like(reduced)
            pos = 0
            for nu, _row, _e in rep.decomposition:
                dim_nu = nu.hook_dimension()
                expected[pos:pos + dim_nu, pos:pos + dim_nu] = sym_irrep(nu).image(sigma)
                pos += dim_nu
            worst = max(worst, np.abs(reduced - expected).max())
        details.append(str(alpha))
    return _report("spectra", {"n": n, "d": d}, worst, SPECTRA_TOL,
                   "alphas " + "; ".join(details))


# -- irreps ----------------------------------------------------------------


def check_irreps(n: int, d: int) -> CheckReport:
    """Homomorphism property of every irrep, plus kind-specific claims.

    Each irrep's generator images are stacked in ``Permutation.all``
    order.  One ``mul_generators`` call per left factor sigma gives the
    products W(sigma) W(rho) = d^power W(tau) for every rho, and one
    batched matmul compares both sides of the whole row.
    """
    perms = list(Permutation.all(n))
    images = image_array(n)
    transposed = images[:, -1] != n - 1
    reps = all_irreps(n, d)
    stacks = [np.stack([rep.image(p) for p in perms]) for rep in reps]
    for rep, stack in zip(reps, stacks):
        if rep.kind == "S" and stack[transposed].any():
            return CheckReport("irreps", {"n": n, "d": d}, False, 1.0,
                               f"kind-S block {rep.label} not exactly zero on M")
        if rep.kind == "M" and n >= 3:
            expected = rank_of_q(rep.label, d, n)
            if rep.dimension != expected:
                return CheckReport("irreps", {"n": n, "d": d}, False, 1.0,
                                   f"dimension {rep.dimension} != rank {expected}")
    worst = 0.0
    for s, sigma in enumerate(images):
        powers, products = mul_generators(sigma, images)
        scale = (d**powers)[:, None, None]
        index = lehmer_rank(products)
        for stack in stacks:
            residual = np.abs(stack[s] @ stack - scale * stack[index]).max()
            worst = max(worst, residual)
    details = [f"{rep.kind}:{rep.label}(dim {rep.dimension})" for rep in reps]
    return _report("irreps", {"n": n, "d": d}, worst, HOM_TOL, "; ".join(details))


# -- dimensions --------------------------------------------------------------


def check_dimensions(n: int, d: int, with_oracle: bool = True,
                     cap: int | None = None) -> CheckReport:
    """Block inventory vs the partition-sum formula, and the measured span.

    When the oracle fits under the cap this also confirms that the
    group-averaged operator families span exactly what the permutation
    operators span, so one family is linearly independent iff the other is.
    """
    report = structure_report(n, d)
    expected = algebra_dimension_formula(n, d)
    passed = report.dim_total == expected
    details = f"blocks {report.dim_M}+{report.dim_S} = formula {expected}"
    if with_oracle:
        try:
            group = {s: perm_operator(s, d, n, cap) for s in Permutation.all(n)}
            ops = [transposed_perm_operator(s, d, n, cap)
                   for s in Permutation.all(n)]
        except SizeCapError:
            details += "; oracle skipped (size cap)"
        else:
            measured_t = span_dimension(ops)
            plain = span_dimension(list(group.values()))
            averaged = [op for mu in partitions_of(n)
                        for op in matrix_operators_E(group, mu).values()]
            e_span = span_dimension(averaged)
            passed = (passed and measured_t == expected and plain == expected
                      and e_span == expected)
            details += (f"; oracle transposed {measured_t}, plain {plain}, "
                        f"averaged families {e_span}")
    return CheckReport("dimensions", {"n": n, "d": d}, passed,
                       0.0 if passed else 1.0, details)


# -- appendix machinery -------------------------------------------------------


def check_matrix_operators(n: int, d: int, cap: int | None = None) -> CheckReport:
    """Group-averaged operator family for the tensor action of S(n-2).

    Exercises the four claims: recovery of D(g) from the family, the
    orthogonality/multiplicity relation, the composition rule, and column
    covariance.
    """
    m = n - 2
    if m < 1:
        raise ValueError("needs n >= 3")
    group = {g: perm_operator(g.embed(n), d, n, cap) for g in Permutation.all(m)}
    worst = 0.0
    families = {}
    for alpha in partitions_of(m):
        families[alpha] = matrix_operators_E(group, alpha)

    # (I) D(g) = sum phi_ij(g) E_ij
    for g, op in group.items():
        acc = None
        for alpha, family in families.items():
            phi = sym_irrep(alpha)
            mat = phi.image(g)
            for (i, j), e_op in family.items():
                term = mat[i - 1, j - 1] * e_op
                acc = term if acc is None else acc + term
        worst = max(worst, op.distance(acc))

    # (II) orthogonality with the multiplicity as norm; here D restricted to
    # S(n-2) contains each alpha with multiplicity d^2 * (its multiplicity
    # in the action on n-2 factors).
    flat = [(alpha, ij, op) for alpha, family in families.items()
            for ij, op in family.items()]
    for idx, (alpha, (i, j), left) in enumerate(flat):
        k_alpha = (d * d * multiplicity_in_V(alpha, d)
                   if alpha.height <= d else 0)
        for beta, (k, l), right in flat:
            inner = (left.adjoint() @ right).trace()
            expected = float(k_alpha) if (alpha == beta and (i, j) == (k, l)) else 0.0
            worst = max(worst, abs(inner - expected))

    # (III) composition rule within a family
    for alpha, family in families.items():
        w = sym_irrep(alpha).dim
        for (i, j), left in family.items():
            for (k, l), right in family.items():
                expected = family[(i, l)] if j == k else None
                product = left @ right
                residual = (product.distance(expected) if expected is not None
                            else product.max_abs())
                worst = max(worst, residual)

    # (IV) covariance: D(h) E_ij = sum_k phi_ki(h) E_kj
    for alpha, family in families.items():
        phi = sym_irrep(alpha)
        for h, h_op in group.items():
            mat = phi.image(h)
            for (i, j), e_op in family.items():
                acc = None
                for k in range(1, phi.dim + 1):
                    term = mat[k - 1, i - 1] * family[(k, j)]
                    acc = term if acc is None else acc + term
                worst = max(worst, (h_op @ e_op).distance(acc))

    return _report("matrix_operators", {"n": n, "d": d}, worst, APPC_TOL)


def check_reduced_matrix_units(n: int, d: int, cap: int | None = None) -> CheckReport:
    """Matrix units for every main-ideal block, through the oracle."""
    from .reduction import xa_reduce

    ctx = AlgebraContext(n, d)
    worst = 0.0
    details = []
    for alpha in partitions_of(n - 2):
        if alpha.height > d:
            u_norm = max(
                element_operator(u_element(alpha, 1, 1, 1, 1, ctx), cap).max_abs(),
                element_operator(
                    u_element(alpha, n - 1, n - 1, 1, 1, ctx), cap).max_abs(),
            )
            worst = max(worst, u_norm)
            details.append(f"{alpha}: absent (vanishing family, norm {u_norm:.1e})")
            continue
        w = alpha.hook_dimension()
        size = (n - 1) * w
        generators = {}
        for a in range(1, n):
            for i in range(1, w + 1):
                for b in range(1, n):
                    for j in range(1, w + 1):
                        generators[((a - 1) * w + i, (b - 1) * w + j)] = (
                            element_operator(u_element(alpha, a, b, i, j, ctx), cap))
        reduced = xa_reduce(generators, q_matrix(alpha, d, n))
        for (s, r), y_op in reduced.y.items():
            if s > reduced.rank or r > reduced.rank:
                worst = max(worst, y_op.max_abs())
        for (s, r), left in reduced.f.items():
            for (t, u), right in reduced.f.items():
                product = left @ right
                expected = reduced.f.get((s, u)) if r == t else None
                residual = (product.distance(expected) if expected is not None
                            else product.max_abs())
                worst = max(worst, residual)
        details.append(f"{alpha}: rank {reduced.rank}")
    return _report("reduced_matrix_units", {"n": n, "d": d}, worst, HOM_TOL,
                   "; ".join(details))


def check_adjoint_transport(n: int, d: int, seed: int = 1,
                            cap: int | None = None) -> CheckReport:
    """Oracle image of the adjoint equals the conjugate transpose."""
    rng = np.random.default_rng(seed)
    perms = list(Permutation.all(n))
    ctx = AlgebraContext(n, d)
    worst = 0.0
    for _ in range(20):
        terms = {perms[rng.integers(len(perms))]: float(rng.standard_normal())
                 for _ in range(3)}
        elem = AlgebraElement(ctx, terms)
        worst = max(worst, element_operator(elem.adjoint(), cap).distance(
            element_operator(elem, cap).adjoint()))
        product = elem * AlgebraElement(ctx, {
            perms[rng.integers(len(perms))]: 1.0})
        worst = max(worst, element_operator(product.adjoint(), cap).distance(
            element_operator(product, cap).adjoint()))
    return _report("adjoint_transport", {"n": n, "d": d}, worst, ORACLE_TOL)


# -- suite driver -------------------------------------------------------------


SUITES = ("all", "mul", "spectra", "irreps", "dims", "appc")
# Suites that cannot run without the oracle; "dims" skips it above the cap.
ORACLE_SUITES = ("all", "mul", "appc")


def run_suite(n: int, d: int, suite: str = "all",
              cap: int | None = None) -> list[CheckReport]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {SUITES}")
    reports: list[CheckReport] = []
    want = (lambda name: suite in ("all", name))
    if want("mul"):
        reports.append(check_mul_rule(n, d, cap))
        reports.append(check_associativity(n, d, cap=cap))
        reports.append(check_adjoint_transport(n, d, cap=cap))
    if want("spectra") and n >= 3:
        reports.append(check_spectra(n, d))
    if want("irreps"):
        reports.append(check_irreps(n, d))
    if want("dims"):
        reports.append(check_dimensions(n, d, cap=cap))
    if want("appc") and n >= 3:
        reports.append(check_matrix_operators(n, d, cap))
        reports.append(check_reduced_matrix_units(n, d, cap))
    if suite == "all" and n >= 3:
        for alpha in partitions_of(n - 2):
            if alpha.height <= d:
                reports.append(check_u_structure(alpha, alpha, n, d, cap))
        reports.append(check_unit_of_m(n, d, cap))
    return reports
