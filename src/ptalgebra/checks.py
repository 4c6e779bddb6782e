"""Verification suites: every abstract-layer claim against the oracle.

Each check returns a report record {check, params, passed, max_residual,
tol, details}; the CLI turns failures into a nonzero exit code.  A check
that fails names its worst block (generator pair, u label, left factor)
in ``details``.  Checks build operator families with the oracle's stacks
and never branch on how the oracle stores them: a claim about left
factors is one ``action_residuals`` call whose left factors are the blocks
of a stack the check already holds and whose right-hand sides are arrays.
Single generators are built only by the adjoint check and once for the
contraction V' of the unit check.  The composition law and
associativity are checked exactly on the oracle's integer index form of
the transposed generators instead, not on the stacks, so their residuals
are integers (0 on a pass) judged against the same tolerances; the
adjoint check ties that index form to the float generators, as stacked
and as built one by one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraContext, AlgebraElement, mul_generators, u_element, u_terms
from .induced import (InducedRep, eigenvalues_closed_form, q_matrix,
                      q_via_induced, z_matrix)
from .irreps import (algebra_dimension_formula, all_irreps, block_labels, direct_sum,
                     rank_of_q, structure_report, unit_of_M)
from .oracle import (OperatorStack, SizeCapError, element_operator,
                     element_stack, generator_index, generator_stack,
                     identity_operator, matrix_operators_E, span_dimension,
                     transposed_perm_operator)
from .partitions import Partition, partitions_of
from .permutations import Permutation, image_array, lehmer_rank
from .yor import irrep as sym_irrep
from .yor import multiplicity_in_V

HOM_TOL = 1e-8
ORACLE_TOL = 1e-10
ASSOCIATIVITY_TOL = 1e-9
SPECTRA_TOL = 1e-8
APPC_TOL = 1e-9
# Fixed samples of the randomized oracle checks, so that reports reproduce.
ASSOCIATIVITY_TRIPLES = 200
ASSOCIATIVITY_SEED = 0
ADJOINT_SEED = 1


@dataclass
class CheckReport:
    """One check's verdict: ``passed`` is ``max_residual < tol``, except
    where ``tol`` is None (an exact structural comparison)."""

    check: str
    params: dict
    passed: bool
    max_residual: float
    details: str = ""
    tol: float | None = None

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "details": self.details,
        }


def _report(check: str, params: dict, residual: float, tol: float,
            details: str = "", culprit: str = "") -> CheckReport:
    """A report judged by residual < tol; a failure names its worst block."""
    passed = bool(residual < tol)
    if not passed and culprit:
        details = f"worst at {culprit}" + (f"; {details}" if details else "")
    return CheckReport(check, params, passed, float(residual), details, tol)


def _worst(residuals: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """The largest residual and its position (0 at the origin when empty)."""
    if residuals.size == 0:
        return 0.0, (0,) * residuals.ndim
    where = np.unravel_index(np.argmax(residuals), residuals.shape)
    return float(residuals[where]), tuple(int(k) for k in where)


# -- multiplication law ---------------------------------------------------


def check_mul_rule(n: int, d: int, cap: int | None = None) -> CheckReport:
    """Every generator pair: the abstract product equals the operator product.

    For a chunk of generator pairs (sigma, rho), one ``mul_generators``
    call gives W(sigma) W(rho) = d^power W(tau), and the integer index form
    of the transposed generators checks all of these exactly, without a
    float operator; ``check_adjoint_transport`` ties that form to the float
    operators.  Only flagged pairs get their exact max entry difference,
    from the index form's one entry-sum routine, so a pass reads 0.
    """
    index = generator_index(n, d, cap)  # first: above the cap, build no S(n)
    perms = list(Permutation.all(n))
    images = image_array(n)
    worst, culprit, chunk = 0.0, "", index.law_chunk()
    for start in range(0, len(perms) ** 2, chunk):
        left, right = np.divmod(np.arange(start, min(start + chunk, len(perms) ** 2)),
                                len(perms))
        powers, products = mul_generators(images[left], images[right])
        scale, tau = d**powers, lehmer_rank(products)
        flagged = np.flatnonzero(index.law_mismatches(left, right, scale, tau))
        if flagged.size:
            value, (p,) = _worst(index.law_residuals(
                left[flagged], right[flagged], scale[flagged], tau[flagged]))
            if value > worst:
                pair = flagged[p]
                worst, culprit = value, f"{perms[left[pair]]} * {perms[right[pair]]}"
    return _report("mul_rule", {"n": n, "d": d}, worst, ORACLE_TOL, culprit=culprit)


def check_associativity(n: int, d: int, cap: int | None = None) -> CheckReport:
    """``ASSOCIATIVITY_TRIPLES`` random generator triples associate on the oracle.

    Four ``mul_generators`` calls on the stacked triples give both
    bracketings, (xy)z = d^p W(tau_L) and x(yz) = d^p' W(tau_R); the index
    form of the transposed generators compares the two exactly, entry by
    entry over their D ones each.
    """
    images = image_array(n)
    picks = np.random.default_rng(ASSOCIATIVITY_SEED).integers(
        len(images), size=(ASSOCIATIVITY_TRIPLES, 3))
    x, y, z = (images[picks[:, k]] for k in range(3))
    (p_xy, xy), (p_yz, yz) = mul_generators(x, y), mul_generators(y, z)
    (p_l, tau_l), (p_r, tau_r) = mul_generators(xy, z), mul_generators(x, yz)
    distances = generator_index(n, d, cap).distances(
        d ** (p_xy + p_l), lehmer_rank(tau_l), d ** (p_yz + p_r), lehmer_rank(tau_r))
    worst, (t,) = _worst(distances)
    culprit = " * ".join(str(Permutation((images[k] + 1).tolist())) for k in picks[t])
    params = {"n": n, "d": d, "triples": ASSOCIATIVITY_TRIPLES}
    return _report("associativity", params, worst, ASSOCIATIVITY_TOL, culprit=culprit)


def _u_stack(alpha: Partition, ctx: AlgebraContext, cap: int | None) -> OperatorStack:
    """The u operators of alpha, one ``combine`` of the ``u_terms``, as the
    family x of ``reduction``: x_IJ = u_ij^ab at block I s + J, with
    I = (a-1) w + i-1, J = (b-1) w + j-1 and s = (n-1) w."""
    images, weights = u_terms(alpha, ctx.n)
    m, w, count = len(images), len(weights), weights.shape[-1]
    shape = (m, w, m, w, count)
    index = np.broadcast_to(lehmer_rank(images)[:, None, :, None], shape)
    return generator_stack(ctx.n, ctx.d, True, cap).combine(
        index.reshape(-1, count),
        np.broadcast_to(weights[None, :, None], shape).reshape(-1, count))


def _u_name(block: int, w: int, m: int) -> str:
    """The 1-based label u^ab_ij of a block of a u stack (see ``_u_stack``)."""
    (a, i), (b, j) = (divmod(x, w) for x in divmod(int(block), m * w))
    return f"u^{a + 1}{b + 1}_{i + 1}{j + 1}"


def _x_claim(a_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``action_residuals`` arrays of the law x_IJ x_KL = A_JK x_IL on a
    stack of s^2 blocks, x_IJ at block I s + J, with the stack itself as
    the left factors: ``(s^2, s^2, 1)`` index and weights."""
    s = len(a_matrix)
    i, j = np.divmod(np.arange(s * s), s)
    return (i[:, None] * s + j)[..., None], a_matrix[j[:, None], i][..., None]


def _left_action(sigma: Permutation, p: int, d: int
                 ) -> tuple[int, float, Permutation]:
    """(target, scale, tau) with W(sigma) u_ij^pq = scale sum_k phi_ki(tau)
    u_kj^{target q}, for sigma in S(n) and tau in S(n-2)."""
    n = sigma.degree
    m = n - 1
    if sigma.fixes_last():
        sig = sigma.restrict(m)
        target = sig(p)
        tau = (Permutation.transposition(m, target, m) * sig
               * Permutation.transposition(m, p, m))
        return target, 1.0, tau.restrict(n - 2)
    a, b = sigma.classify()
    sigma_hat = (sigma * Permutation.transposition(n, a, n)).restrict(m)
    tau = (Permutation.transposition(m, b, m) * sigma_hat
           * Permutation.transposition(m, a, p) * Permutation.transposition(m, p, m))
    return b, float(d) if a == p else 1.0, tau.restrict(n - 2)


def check_u_structure(alpha: Partition, beta: Partition, n: int, d: int,
                      cap: int | None = None) -> CheckReport:
    """Products and left actions of the averaged generators of the main ideal.

    Checks, through the oracle, the structure constants
    u_ij^ab(alpha) u_kl^pq(beta) = delta_{alpha beta} Q_jk^bp u_il^aq(alpha),
    with Q_jk^bp = Q(alpha)[(b, j), (p, k)] and no delta over the cosets
    a, b: on the u stacks, held as the family x of ``reduction``, this is
    the law of ``_x_claim`` with A = Q(alpha) (one row per left u).  Then the
    left-action rules for transposed and untransposed generators (one row
    per left sigma, the blocks of the transposed generator stack), each row
    a linear combination of the u family itself.
    """
    ctx = AlgebraContext(n, d)
    m, w = n - 1, alpha.hook_dimension()
    same = alpha == beta
    u_a = _u_stack(alpha, ctx, cap)
    if same:
        products = u_a.action_residuals(u_a, *_x_claim(q_matrix(alpha, d, n)))
    else:
        products = _u_stack(beta, ctx, cap).action_residuals(
            u_a, np.zeros(0, int), np.zeros(0))
    worst, (s, r) = _worst(products)
    culprit = f"{_u_name(s, w, m)} * {_u_name(r, beta.hook_dimension(), m)}"

    if same:
        perms = list(Permutation.all(n))
        phi = sym_irrep(alpha)
        target, scale, taus = zip(*(_left_action(sigma, label, d)
                                    for sigma in perms for label in range(1, n)))
        shape = (len(perms), m)
        # 0-based (p, k, q, l) of every block u_kl^pq
        (p, k), (q, l) = (np.divmod(x, w) for x in np.divmod(np.arange(len(u_a)), m * w))
        # row sigma, block u_kl^pq: scale sum_t phi_tk(tau) u_tl^{target q},
        # with (target, scale, tau) of label p
        target = np.reshape(target, shape)[:, p, None] - 1
        transposed = np.reshape([phi.image(tau).T for tau in taus], shape + (w, w))
        index = (target * w + np.arange(w)) * m * w + (q * w + l)[:, None]
        weights = np.reshape(scale, shape)[:, p, None] * transposed[:, p, k]
        actions = u_a.action_residuals(generator_stack(n, d, True, cap), index, weights)
        worst_action, (g, r) = _worst(actions)
        if worst_action > worst:
            worst = worst_action
            culprit = f"{perms[g]} * {_u_name(r, w, m)}"

    return _report(
        "u_structure",
        {"alpha": str(alpha), "beta": str(beta), "n": n, "d": d},
        worst, HOM_TOL, culprit=culprit,
    )


def check_unit_of_m(n: int, d: int, cap: int | None = None) -> CheckReport:
    """e^2 = e, em = me = m on the main ideal, and M annihilates S(1 - e).

    The generator stack gives e W(sigma) and W(sigma) e for every sigma at
    once.  M is the two-sided ideal generated by V' = W((n-1 n))^{t_n}, and
    every transposed generator of M factors as W(sigma)^{t_n} =
    W(sigma^) W((a n-1)) V' W((a n-1)) with sigma^ and (a n-1) in S(n-1),
    by the composition law that ``check_mul_rule`` checks; S is spanned by
    the W(s) with s in S(n-1), and W((a n-1)) W(s) (1 - e) is again one of
    the W(s') (1 - e).  So M S(1 - e) = 0 holds iff V' W(s) (1 - e) = 0
    for every s in S(n-1): one row, with V' built on its own.
    """
    perms = list(Permutation.all(n))
    e_op = element_operator(unit_of_M(n, d), cap)
    family = generator_stack(n, d, transposed=True, cap=cap)
    fixes_last = image_array(n)[:, -1] == n - 1
    in_m, in_s = np.flatnonzero(~fixes_last), np.flatnonzero(fixes_last)
    worst, culprit = (e_op @ e_op).distance(e_op), "e * e"
    for residuals, name in (
            (family.left_mul(e_op).residuals(family), "e * {}"),
            (family.right_mul(e_op).residuals(family), "{} * e")):
        value, (g,) = _worst(residuals[in_m])
        if value > worst:
            worst, culprit = value, name.format(perms[in_m[g]])
    complement = identity_operator(n, d, cap) - e_op
    s_part = family.combine(in_s[:, None], np.ones((len(in_s), 1))).right_mul(complement)
    contraction = Permutation.transposition(n, n - 1, n)
    v_prime = OperatorStack.of(transposed_perm_operator(contraction, d, n, cap))
    value, (_, r) = _worst(s_part.action_residuals(v_prime, np.zeros(0, int), np.zeros(0)))
    if value > worst:
        worst, culprit = value, f"{contraction} * {perms[in_s[r]]}(1 - e)"
    return _report("unit_of_M", {"n": n, "d": d}, worst, HOM_TOL, culprit=culprit)


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
        psis = [sym_irrep(nu) for nu, _row, _e in rep.decomposition]
        for sigma in Permutation.all(n - 1):
            reduced = z.T @ rep.matrix(sigma) @ z
            worst = max(worst, np.abs(reduced - direct_sum(psis, sigma)).max())
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
                               f"kind-S block {rep.label} not exactly zero on M",
                               HOM_TOL)
        if rep.kind == "M":
            expected = rank_of_q(rep.label, d, n)
            if rep.dimension != expected:
                return CheckReport("irreps", {"n": n, "d": d}, False, 1.0,
                                   f"dimension {rep.dimension} != rank {expected}",
                                   HOM_TOL)
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


def check_dimensions(n: int, d: int, cap: int | None = None) -> CheckReport:
    """Block inventory vs the partition-sum formula, and the measured span.

    The one place that compares the sum of squared block sizes of
    ``structure_report`` with ``algebra_dimension_formula``; a mismatch
    reads ``blocks M+S != formula F``.  When the oracle fits under the cap
    this also measures the transposed and plain spans, and confirms that the
    group-averaged operator families span exactly what the permutation
    operators span, so one family is linearly independent iff the other is.
    Above the cap the oracle part is skipped and said so in the details.
    """
    report = structure_report(n, d)
    expected = algebra_dimension_formula(n, d)
    passed = report.dim_total == expected
    details = (f"blocks {report.dim_M}+{report.dim_S} {'=' if passed else '!='} "
               f"formula {expected}")
    try:
        plain = generator_stack(n, d, cap=cap)
        transposed = generator_stack(n, d, transposed=True, cap=cap)
    except SizeCapError:
        details += "; oracle skipped (size cap)"
    else:
        measured_t = span_dimension(transposed)
        plain_dim = span_dimension(plain)
        averaged = OperatorStack.concat(
            [matrix_operators_E(plain, mu) for mu in partitions_of(n)])
        e_span = span_dimension(averaged)
        passed = (passed and measured_t == expected and plain_dim == expected
                  and e_span == expected)
        details += (f"; oracle transposed {measured_t}, plain {plain_dim}, "
                    f"averaged families {e_span}")
    return CheckReport("dimensions", {"n": n, "d": d}, passed,
                       0.0 if passed else 1.0, details)


# -- appendix machinery -------------------------------------------------------


def check_matrix_operators(n: int, d: int, cap: int | None = None) -> CheckReport:
    """Group-averaged operator family for the tensor action of S(n-2).

    Exercises the four claims: recovery of D(g) from the family, the
    orthogonality/multiplicity relation, the composition rule, and column
    covariance.  The families E^alpha are stacks of w^2 operators E_ij,
    block (i-1) w + j-1, so the composition rule E_ij E_kl = delta_jk E_il
    is the law of ``_x_claim`` with A = I_w; each claim is one product or
    one combination per row.
    """
    plain = generator_stack(n, d, cap=cap)  # first: above the cap, build no S(n-2)
    m = n - 2
    group = list(Permutation.all(m))
    ranks = lehmer_rank(np.array([g.embed(n).images for g in group]) - 1)
    images = plain.combine(ranks[:, None], np.ones((len(group), 1)))
    alphas = list(partitions_of(m))
    families = [matrix_operators_E(images, alpha) for alpha in alphas]
    phis = [sym_irrep(alpha) for alpha in alphas]
    # (alpha, i, j) of every block of the concatenated families, 1-based
    labels = [(alpha, i, j) for alpha, phi in zip(alphas, phis)
              for i in range(1, phi.dim + 1) for j in range(1, phi.dim + 1)]

    def e_name(label):
        alpha, i, j = label
        return f"E^{alpha}_{i}{j}"

    # (I) D(g) = sum phi_ij(g) E_ij, over every family at once
    everything = OperatorStack.concat(families)
    weights = np.array([np.concatenate([phi.image(g).ravel() for phi in phis])
                        for g in group])
    recovered = everything.combine(np.arange(len(labels)), weights)
    worst, (g,) = _worst(recovered.residuals(images))
    culprit = f"D({group[g]}) = sum phi_ij(g) E_ij"

    # (II) orthogonality with the multiplicity as norm; here D restricted to
    # S(n-2) contains each alpha with multiplicity d^2 * (its multiplicity
    # in the action on n-2 factors).
    mults = [multiplicity_in_V(alpha, d) for alpha in alphas]  # 0 above d rows
    norms = np.repeat(d * d * np.array(mults, float), [phi.dim**2 for phi in phis])
    value, (r, c) = _worst(np.abs(everything.gram() - np.diag(norms)))
    if value > worst:
        worst, culprit = value, f"<{e_name(labels[r])}, {e_name(labels[c])}>"

    for alpha, phi, family in zip(alphas, phis, families):
        w = phi.dim
        i, j = np.divmod(np.arange(w * w), w)  # 0-based (i, j) of each block
        # E_ij E_kl = delta_jk E_il
        value, (s, r) = _worst(family.action_residuals(family, *_x_claim(np.eye(w))))
        if value > worst:
            worst, culprit = value, (f"{e_name((alpha, i[s] + 1, j[s] + 1))} "
                                     f"{e_name((alpha, i[r] + 1, j[r] + 1))}")
        # D(h) E_ij = sum_k phi_ki(h) E_kj, one row per block D(h) of images
        covariance = family.action_residuals(
            images, np.arange(w) * w + j[:, None],
            np.array([phi.image(h)[:, i].T for h in group]))
        value, (h, r) = _worst(covariance)
        if value > worst:
            worst, culprit = value, (f"D({group[h]}) "
                                     f"{e_name((alpha, i[r] + 1, j[r] + 1))}")

    return _report("matrix_operators", {"n": n, "d": d}, worst, APPC_TOL,
                   culprit=culprit)


def check_reduced_matrix_units(n: int, d: int, cap: int | None = None) -> CheckReport:
    """Matrix units for every main-ideal block, through the oracle.

    The u stack of alpha is the family x_IJ = u_ij^ab of ``reduction``, with
    x_IJ x_KL = Q_JK x_IL, so ``xa_reduce(Q(alpha))`` gives the coefficients
    of every y and f over its blocks as they stand.  The null y are one
    combination of the u stack, checked to vanish, and the f another,
    checked to satisfy f_sr f_tu = delta_rt f_su: the law of ``_x_claim``
    with A = I_rank, one ``action_residuals`` row per left f.  A failure
    names its worst null y label or f pair (1-based).
    """
    from .reduction import xa_reduce

    ctx = AlgebraContext(n, d)
    m = n - 1
    worst, culprit, details = 0.0, "", []
    m_labels = block_labels(n, d)[0]
    for alpha in partitions_of(n - 2):
        if alpha not in m_labels:
            corners = element_stack([u_element(alpha, a, a, 1, 1, ctx)
                                     for a in (1, m)], cap).residuals()
            value, (k,) = _worst(corners)
            if value > worst:
                worst, culprit = value, f"{alpha}: u^{(1, m)[k]}{(1, m)[k]}_11"
            details.append(f"{alpha}: absent (vanishing family, norm {value:.1e})")
            continue
        w = alpha.hook_dimension()
        size = m * w
        u, x = _u_stack(alpha, ctx, cap), np.arange(size * size)
        reduced = xa_reduce(q_matrix(alpha, d, n))
        nulls = reduced.null_rows
        value, (k,) = _worst(u.combine(x, reduced.y[nulls]).residuals())
        if value > worst:
            s, r = np.divmod(nulls[k], size)
            worst, culprit = value, f"{alpha}: y_({s + 1},{r + 1})"
        units = u.combine(x, reduced.f)
        rank = reduced.rank
        value, (left, right) = _worst(
            units.action_residuals(units, *_x_claim(np.eye(rank))))
        if value > worst:
            (s, r), (t, v) = divmod(left, rank), divmod(right, rank)
            worst, culprit = value, (f"{alpha}: f_({s + 1},{r + 1}) * "
                                     f"f_({t + 1},{v + 1})")
        details.append(f"{alpha}: rank {rank}")
    return _report("reduced_matrix_units", {"n": n, "d": d}, worst, HOM_TOL,
                   "; ".join(details), culprit=culprit)


def check_adjoint_transport(n: int, d: int, cap: int | None = None) -> CheckReport:
    """Oracle images of elements: their generators, and the adjoint.

    Every W(sigma)^{t_n}, as the block of the transposed generator stack
    that element images combine and as ``transposed_perm_operator`` builds
    it apart from that stack, must equal the 0/1 matrix of the index form
    on which ``check_mul_rule`` checks the composition law; a failure names
    the generator.  Twenty random elements and their products with a random
    generator are one element stack, and their adjoints another, whose
    image must be the conjugate transpose.
    """
    rng = np.random.default_rng(ADJOINT_SEED)
    perms = list(Permutation.all(n))
    ctx = AlgebraContext(n, d)
    elems = []
    for _ in range(20):
        terms = {perms[rng.integers(len(perms))]: float(rng.standard_normal())
                 for _ in range(3)}
        elem = AlgebraElement(ctx, terms)
        elems += [elem, elem * AlgebraElement(ctx, {
            perms[rng.integers(len(perms))]: 1.0})]
    images = element_stack(elems, cap)
    adjoints = element_stack([elem.adjoint() for elem in elems], cap)
    worst, culprit = adjoints.residuals(images.adjoint()).max(), ""
    index = generator_index(n, d, cap)
    generators = np.maximum(
        index.stack_residuals(generator_stack(n, d, transposed=True, cap=cap)),
        [index.stack_residuals(OperatorStack.of(
            transposed_perm_operator(sigma, d, n, cap)), k)[0]
         for k, sigma in enumerate(perms)])
    value, (k,) = _worst(generators)
    if value > worst:
        worst, culprit = value, f"W{perms[k]}^t"
    return _report("adjoint_transport", {"n": n, "d": d}, worst, ORACLE_TOL,
                   culprit=culprit)


# -- suite driver -------------------------------------------------------------


SUITES = ("all", "mul", "spectra", "irreps", "dims", "appc")


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
    if want("spectra"):
        reports.append(check_spectra(n, d))
    if want("irreps"):
        reports.append(check_irreps(n, d))
    if want("dims"):
        reports.append(check_dimensions(n, d, cap=cap))
    if want("appc"):
        reports.append(check_matrix_operators(n, d, cap))
        reports.append(check_reduced_matrix_units(n, d, cap))
    if suite == "all":
        for alpha in block_labels(n, d)[0]:
            reports.append(check_u_structure(alpha, alpha, n, d, cap))
        reports.append(check_unit_of_m(n, d, cap))
    return reports
