"""Verification suites: every abstract-layer claim against the oracle.

Each check returns a report record {check, params, passed, max_residual,
tol, details}; the CLI turns failures into a nonzero exit code.  A check
that fails names its worst block (generator pair, u label, left factor)
in ``details``.  Checks build operator families with the oracle and never
branch on how it stores them: a claim about left factors is one
``action_residuals`` call whose left factors are the blocks of a family
the check already holds, a dense stack or generators as index lists, and
whose right-hand sides are arrays.
Such a claim needs no row per left factor: the left actions of the u
family run on the n-1 generators of the algebra, and compose along the
word of every sigma on the abstract side, and the law
x_IJ x_KL = A_JK x_IL of the u, E and f families on 2s pivot rows of its
s^2 left factors (``_x_claim``).  The families live on the oracle's balanced
sectors.  Only the adjoint check (all of S(n), one batch), the unit check
(V', one row) and the norms of the matrix operators (S(n-2) on a sector per
weight orbit) build generators apart from the cached families.  The law and
associativity are checked exactly on the oracle's integer index form,
so their residuals are integers (0 on a pass, at least 1 on a fail) judged
against ``ORACLE_TOL``; the adjoint check ties that form to the generator
families, as cached and as built apart.  The law on the oracle and the
homomorphism of every irrep run on the n-1 generator rows (g, rho) only,
plus the pairs that ``law_sweep`` flags: its one integer sweep of the law
along the words of ``generator_words`` is the premise of the induction
that extends them to every pair.  All three read the law off whole rows
of ``algebra.law_rows``, a flagged pair off the row of its left factor,
so the sweep and the checks it vouches for read one law.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod

import numpy as np

from .algebra import (AlgebraContext, AlgebraElement, generator_words, law_rows,
                      mul_generators, u_element, u_terms)
from .induced import (InducedRep, eigenvalues_closed_form, q_matrix,
                      q_via_induced, z_matrix)
from .irreps import (algebra_dimension_formula, all_irreps, block_labels, direct_sum,
                     rank_of_q, structure_report, unit_of_M)
from .oracle import (LAW_CHUNK_ENTRIES, OperatorStack, SizeCapError, element_stack,
                     generator_index, generator_stack, gram_rank, identity_operator,
                     matrix_operators_E, perm_operator, sector, span_dimension,
                     transposed_perm_operator)
from .partitions import Partition, partitions_of
from .permutations import Permutation, image_array, lehmer_rank
from .yor import averaging_weights, multiplicity_in_V
from .yor import irrep as sym_irrep

HOM_TOL = 1e-8
ORACLE_TOL = 1e-10
SPECTRA_TOL = 1e-8
APPC_TOL = 1e-9
# Fixed samples of the sampled oracle checks, so that reports reproduce.
ASSOCIATIVITY_TRIPLES = 200
ASSOCIATIVITY_SEED = 1
ADJOINT_SEED = 2
LEHMER_MODULUS = 2**31 - 1


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


def _perm(image: np.ndarray) -> Permutation:
    """The permutation with the given 0-based images."""
    return Permutation((image + 1).tolist())


def _picks(count: int, seed: int) -> np.ndarray:
    """``count`` terms of the Lehmer sequence x -> 48271 x mod
    ``LEHMER_MODULUS`` after ``seed``: fixed samples without numpy.random."""
    x, step = np.array([seed], dtype=np.int64), 48271
    while len(x) <= count:
        x, step = np.append(x, x * step % LEHMER_MODULUS), step * step % LEHMER_MODULUS
    return x[1:count + 1]


def _union(*arrays: np.ndarray) -> np.ndarray:
    """``np.union1d`` of integer arrays, without its import of numpy.ma."""
    joined = np.sort(np.concatenate(arrays))
    return joined[np.append(True, joined[1:] != joined[:-1])[:len(joined)]]


# -- multiplication law ---------------------------------------------------


@lru_cache(maxsize=1)
def law_sweep(n: int, law) -> np.ndarray:
    """The pairs of S(n) at which ``law`` differs from its value along the words.

    ``law(n, rows)`` gives whole rows of the law, as ``algebra.law_rows``
    does.  For every pair (sigma, rho), the direct value (p, tau) of the
    row of sigma is compared, in integers, with its value along the word
    W(sigma) = W(g_1) ... W(g_k) of ``generator_words``: rho, then g_k rho,
    ..., up to g_1, each step a gather through the generator rows
    law(g, .), the powers added.  The rows are built level by level of
    word length and compared in blocks of rows with at most
    ``LAW_CHUNK_ENTRIES`` pairs.  The identity has the empty word, so its
    row compares law(1, rho) with (0, rho).  Returns sorted positions
    sigma n! + rho: every pair that differs, and every pair of a row whose
    word does not give (0, sigma) at rho = 1.  Read-only; the last
    (n, law) is cached, so that ``run_suite`` sweeps once for
    ``check_mul_rule`` and ``check_irreps``.

    This is the premise of the induction by which those checks test a
    representation W, the oracle or an irrep, on the generator rows
    (g, rho) only, plus the flagged pairs.  Let W(1) = 1 and
    W(g) W(rho) = d^p W(tau) hold with (p, tau) = law(g, rho) on every
    generator row.  Applied letter by letter, these give
    W(g_1) ... W(g_k) W(rho) = d^p W(tau) with (p, tau) the value along the
    word, by induction on its length.  At rho = 1 that is W(sigma), since
    the row is not flagged; so every pair that is not flagged holds:
    W(sigma) W(rho) = W(g_1) ... W(g_k) W(rho) = d^p W(tau) = law(sigma, rho).
    """
    count = factorial(n)
    generators, first, rest = generator_words(n)
    kind = np.min_scalar_type(count - 1)  # a power is at most a word length
    step_power, step = (x.astype(kind) for x in law(n, generators))
    slot = np.zeros(count, dtype=np.intp)
    slot[generators] = np.arange(len(generators))
    level = np.zeros(1, dtype=np.intp)  # the identity
    value, power = np.arange(count, dtype=kind)[None], np.zeros((1, count), kind)
    block, flagged = max(1, LAW_CHUNK_ENTRIES // count), []
    while level.size:
        for start in range(0, len(level), block):
            rows = level[start:start + block]
            v, w = value[start:start + block], power[start:start + block]
            p, tau = law(n, rows)
            bad = (p != w) | (tau != v)
            bad |= ((v[:, 0] != rows) | (w[:, 0] != 0))[:, None]
            r, c = np.nonzero(bad)
            flagged.append(rows[r] * count + c)
        # the next level: sigma = g sigma' for every sigma' of this one
        below, level = level, np.flatnonzero(np.isin(rest, level))
        at, g = np.searchsorted(below, rest[level]), slot[first[level]][:, None]
        value, power = step[g, value[at]], power[at] + step_power[g, value[at]]
    flagged = np.sort(np.concatenate(flagged))
    flagged.flags.writeable = False
    return flagged


def _law_at(n: int, pairs: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(sigma, rho, p, tau) of ``law_rows`` at sorted positions
    sigma n! + rho, read off the rows of their sigma, a block of at most
    ``LAW_CHUNK_ENTRIES`` row entries at a time."""
    count = factorial(n)
    left, right = np.divmod(pairs, count)
    rows, starts = np.unique(left, return_index=True)
    ends = np.append(starts[1:], len(pairs))
    powers, taus = np.empty(len(pairs), np.intp), np.empty(len(pairs), np.intp)
    block = max(1, LAW_CHUNK_ENTRIES // count)
    for s in range(0, len(rows), block):
        part = slice(starts[s], ends[min(s + block, len(rows)) - 1])
        p, tau = law_rows(n, rows[s:s + block])
        at = (np.searchsorted(rows, left[part]) - s, right[part])
        powers[part], taus[part] = p[at], tau[at]
    return left, right, powers, taus


def check_mul_rule(n: int, d: int, cap: int | None = None) -> CheckReport:
    """The composition law on the oracle, on the generator rows.

    The pairs are the n-1 generator rows (g, rho) of ``generator_words``
    and the pairs that ``law_sweep`` flags, with the identity row when
    W(1) is not the identity on the index form; by the induction of
    ``law_sweep`` they give W(sigma) W(rho) = d^p W(tau) for every pair.
    Those rows read the row lists of a left factor for the generators
    only, so the row and the column of every sigma whose lists are not
    the ones its entries give (``GeneratorIndex.derived``) join as well:
    every pair that reads its lists, as when all pairs were checked.
    For a chunk of them, the rows of ``law_rows``, the one law that the
    sweep also reads, give d^p W(tau), and the integer index form of the
    transposed generators checks these exactly, without a float operator;
    ``check_adjoint_transport`` ties that form to the float operators.
    Only mismatched pairs get their exact max entry difference, from the
    index form's one entry-sum routine, so a pass reads 0.
    """
    index = generator_index(n, d, cap)  # first: above the cap, build no S(n)
    images = image_array(n)
    count = len(images)
    rows, everyone = generator_words(n)[0], np.arange(count)
    if not ((index.rows[0] == index.cols[0]).all() and (index.row_count[0] == 1).all()):
        rows = np.append(rows, 0)
    stray = np.flatnonzero(~index.derived())
    rows = _union(rows, stray)
    pairs = _union(np.append(rows[:, None] * count + everyone,
                             everyone[:, None] * count + stray), law_sweep(n, law_rows))
    worst, culprit, chunk = 0.0, "", index.law_chunk()
    for start in range(0, len(pairs), chunk):
        left, right, powers, tau = _law_at(n, pairs[start:start + chunk])
        scale = d**powers
        flagged = np.flatnonzero(index.law_mismatches(left, right, scale, tau))
        if flagged.size:
            value, (p,) = _worst(index.law_residuals(
                left[flagged], right[flagged], scale[flagged], tau[flagged]))
            if value > worst:
                sigma, rho = (_perm(images[x[flagged[p]]]) for x in (left, right))
                worst, culprit = value, f"{sigma} * {rho}"
    return _report("mul_rule", {"n": n, "d": d}, worst, ORACLE_TOL, culprit=culprit)


def check_associativity(n: int, d: int, cap: int | None = None) -> CheckReport:
    """``ASSOCIATIVITY_TRIPLES`` sampled generator triples associate on the oracle.

    Four ``mul_generators`` calls on the stacked triples give both
    bracketings, (xy)z = d^p W(tau_L) and x(yz) = d^p' W(tau_R); the index
    form of the transposed generators compares the two exactly, entry by
    entry over their D ones each.
    """
    images = image_array(n)
    picks = (_picks(3 * ASSOCIATIVITY_TRIPLES, ASSOCIATIVITY_SEED)
             % len(images)).reshape(-1, 3)
    x, y, z = (images[picks[:, k]] for k in range(3))
    (p_xy, xy), (p_yz, yz) = mul_generators(x, y), mul_generators(y, z)
    (p_l, tau_l), (p_r, tau_r) = mul_generators(xy, z), mul_generators(x, yz)
    distances = generator_index(n, d, cap).distances(
        d ** (p_xy + p_l), lehmer_rank(tau_l), d ** (p_yz + p_r), lehmer_rank(tau_r))
    worst, (t,) = _worst(distances)
    culprit = " * ".join(str(_perm(images[k])) for k in picks[t])
    params = {"n": n, "d": d, "triples": ASSOCIATIVITY_TRIPLES}
    return _report("associativity", params, worst, ORACLE_TOL, culprit=culprit)


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


def _x_claim(x: OperatorStack, a_matrix: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the law x_IJ x_KL = A_JK x_IL on a stack of s^2 blocks,
    x_IJ at block I s + J, on 2s left factors: the ``(2s,)`` blocks of the
    left factors and their ``(2s, s^2)`` ``action_residuals``.

    The left factors are x_IJ0 for every I and x_J0J for every J, with
    the pivot J0 = 0, each against every block; a = A_00 must be nonzero,
    as it is for every caller (A = Q(alpha) has diagonal d, the E and f
    families have A = 1).  These rows give the whole law:
    x_IJ0 x_J0J = a x_IJ writes every block as a product, so
    x_IJ x_KL = x_IJ0 (x_J0J x_KJ0) x_J0L / a^2 = A_JK x_IJ0 x_J0J0 x_J0L / a^2
    = A_JK x_IJ0 x_J0L / a = A_JK x_IL, by the rows of x_J0J, then x_IJ0.
    """
    s = len(a_matrix)
    if a_matrix[0, 0] == 0:
        raise ValueError("the law x_IJ x_KL = A_JK x_IL needs a nonzero A_00")
    k = np.arange(s)
    rows = np.concatenate([k * s, k])
    i, j = np.divmod(rows, s)
    ks, ls = np.divmod(np.arange(s * s), s)
    index = (i[:, None] * s + ls)[..., None]
    weights = a_matrix[j[:, None], ks][..., None]
    left = x.take(rows)
    return rows, x.action_residuals(left, index, weights)


def _left_action(images: np.ndarray, d: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(target, scale, tau) with W(sigma) u_ij^pq = scale sum_k phi_ki(tau)
    u_kj^{target q}, for every row sigma of an ``(N, n)`` array of 0-based
    images and every label p = 1..n-1: three ``(N, n-1)`` arrays, of the
    0-based targets, of the scales, and of the positions of tau in S(n-2)
    in ``Permutation.all`` order.

    For sigma fixing n: target sigma(p), scale 1 and
    tau = (target n-1) sigma (p n-1).  Otherwise, with (a, b) =
    classify(sigma) and sigma^ = sigma (a n): target b, scale d when a = p
    (else 1) and tau = (b n-1) sigma^ (a p) (p n-1).  Both tau fix n-1 and n.
    """
    n = images.shape[-1]
    points, last, penult = np.arange(n), n - 1, n - 2  # 0-based n and n-1
    sigma = images[:, None, :]
    p = np.arange(n - 1)[None, :, None]

    def swap(x, y):  # the transposition (x y), broadcast over (sigma, p)
        return np.where(points == x, y, np.where(points == y, x, points))

    def compose(f, g):  # f g, the right factor first
        return np.take_along_axis(f, g, axis=-1)

    fixes = sigma[..., last:] == last
    a = np.argmax(sigma == last, axis=-1)[..., None]  # n itself when sigma fixes n
    target = np.where(fixes, compose(sigma, p), sigma[..., last:])
    right = np.where(fixes, swap(p, penult), compose(swap(a, p), swap(p, penult)))
    tau = compose(swap(target, penult), compose(compose(sigma, swap(a, last)), right))
    scale = np.where(a == p, float(d), 1.0)
    return target[..., 0], scale[..., 0], lehmer_rank(tau[..., :penult])


def check_u_structure(alpha: Partition, beta: Partition, n: int, d: int,
                      cap: int | None = None) -> CheckReport:
    """Products and left actions of the averaged generators of the main ideal.

    Checks, through the oracle, the structure constants
    u_ij^ab(alpha) u_kl^pq(beta) = delta_{alpha beta} Q_jk^bp u_il^aq(alpha),
    with Q_jk^bp = Q(alpha)[(b, j), (p, k)] and no delta over the cosets
    a, b: on the u stacks, held as the family x of ``reduction``, this is
    the law of ``_x_claim`` with A = Q(alpha), on 2s left u.

    Then the left actions W(sigma) x_IJ = sum_I' L_sigma[I', I] x_I'J, where
    ``_left_action`` gives the s x s map L_sigma on the left index
    I = (p, k), that is W(sigma) U = U L_sigma on the row U of the x_.J.
    The oracle checks W(g) U = U L_g only for the n-1 generators g of
    ``generator_words``, one ``action_residuals`` row each; the abstract
    side checks L_e = 1 and L_sigma = L_g L_sigma' for every other sigma,
    along its word W(sigma) = W(g) W(sigma') with power 0, and names the
    sigma with the worst residual.  Together they give the claim for every
    sigma by induction on the length of its word:
    W(sigma) U = W(g) W(sigma') U = W(g) U L_sigma' = U L_g L_sigma'
    = U L_sigma.  The step W(sigma) = W(g) W(sigma') on the operators of the
    transposed generator stack rests on ``check_mul_rule``, which checks the
    composition law on the integer index form, and on
    ``check_adjoint_transport``, which ties every block of the stack to that
    form; ``run_suite`` runs both before this check.
    """
    ctx = AlgebraContext(n, d)
    m, w = n - 1, alpha.hook_dimension()
    same = alpha == beta
    u_a = _u_stack(alpha, ctx, cap)
    if same:
        rows, products = _x_claim(u_a, q_matrix(alpha, d, n))
    else:
        rows = np.arange(len(u_a))
        products = _u_stack(beta, ctx, cap).action_residuals(
            u_a, np.zeros(0, int), np.zeros(0))
    worst, (s, r) = _worst(products)
    culprit = f"{_u_name(rows[s], w, m)} * {_u_name(r, beta.hook_dimension(), m)}"

    if same:
        images = image_array(n)
        target, scale, tau = _left_action(images, d)
        # phi(tau)^T of every (sigma, p): [sigma, p, k, t] = phi_tk(tau)
        transposed = sym_irrep(alpha).image(image_array(n - 2)).transpose(0, 2, 1)[tau]
        scaled = scale[..., None, None] * transposed
        generators, first, rest = generator_words(n)
        # L_sigma[(target, t), (p, k)] = scale phi_tk(tau), over every sigma
        maps = np.zeros((len(images), m, w, m, w))
        maps[np.arange(len(images))[:, None], target, :, np.arange(m), :] = (
            scaled.transpose(0, 1, 3, 2))
        maps = maps.reshape(len(images), m * w, m * w)
        # row g: W(g) x_IJ = sum_I' L_g[I', I] x_I'J, L_g^T on the index I
        left = generator_stack(n, d, True, cap).take(generators)
        value, (g, r) = _worst(
            u_a.action_residuals(left, None, maps[generators].transpose(0, 2, 1)))
        if value > worst:
            worst, culprit = value, f"{_perm(images[generators[g]])} * {_u_name(r, w, m)}"
        composed = np.concatenate([np.eye(m * w)[None],
                                   maps[first[1:]] @ maps[rest[1:]]])
        value, (c,) = _worst(np.abs(maps - composed).max(axis=(1, 2)))
        if value > worst:
            worst, culprit = value, f"left action of {_perm(images[c])}"

    return _report(
        "u_structure",
        {"alpha": str(alpha), "beta": str(beta), "n": n, "d": d},
        worst, HOM_TOL, culprit=culprit,
    )


def check_unit_of_m(n: int, d: int, cap: int | None = None) -> CheckReport:
    """e^2 = e, em = me = m on the main ideal, and M annihilates S(1 - e).

    For every generator of M, W(sigma) e = W(sigma) is W(sigma) (1 - e) = 0
    and e W(sigma) = W(sigma) its transpose (``right_mul_max``).  M is the
    two-sided ideal generated by V' = W((n-1 n))^{t_n}, and every transposed
    generator of M factors as W(sigma)^{t_n} =
    W(sigma^) W((a n-1)) V' W((a n-1)) with sigma^ and (a n-1) in S(n-1),
    by the composition law that ``check_mul_rule`` checks; S is spanned by
    the W(s) with s in S(n-1), and W((a n-1)) W(s) (1 - e) is again one of
    the W(s') (1 - e).  So M S(1 - e) = 0 holds iff V' W(s) (1 - e) = 0
    for every s in S(n-1): one row, with V' built on its own as one row.
    """
    e_op = element_stack([unit_of_M(n, d)], cap).op(0)
    family = generator_stack(n, d, transposed=True, cap=cap)
    images = image_array(n)
    fixes_last = images[:, -1] == n - 1
    in_m, in_s = np.flatnonzero(~fixes_last), np.flatnonzero(fixes_last)
    worst, culprit = (e_op @ e_op).distance(e_op), "e * e"
    complement = identity_operator(n, d, cap, family.basis) - e_op
    m_part = family.take(in_m)
    for residuals, name in (
            (m_part.adjoint().right_mul_max(complement.adjoint()), "e * {}"),
            (m_part.right_mul_max(complement), "{} * e")):
        value, (g,) = _worst(residuals)
        if value > worst:
            worst, culprit = value, name.format(_perm(images[in_m[g]]))
    s_part = family.take(in_s).right_mul(complement)
    contraction = Permutation.transposition(n, n - 1, n)
    v_prime = transposed_perm_operator(np.array([contraction.images]) - 1, d, n, cap,
                                       family.basis)
    value, (_, r) = _worst(s_part.action_residuals(v_prime, np.zeros(0, int), np.zeros(0)))
    if value > worst:
        worst, culprit = value, f"{contraction} * {_perm(images[in_s[r]])}(1 - e)"
    return _report("unit_of_M", {"n": n, "d": d}, worst, HOM_TOL, culprit=culprit)


# -- spectra ---------------------------------------------------------------


def check_spectra(n: int, d: int) -> CheckReport:
    """Closed-form eigenvalues, the two Q constructions, and the reduction.

    Z^T Ind(sigma) Z is compared with the block sum of psi_nu(sigma) at 1
    and the s_k only: both sides multiply along the chains of
    ``yor.descent_image`` and Z is square, so Z^T Z = 1 carries agreement
    there to all of S(n-1).  A failure names its alpha and worst claim."""
    m = n - 1
    elements = [("1", Permutation.identity(m))] + [
        (f"s_{k}", Permutation.transposition(m, k, k + 1)) for k in range(1, m)]
    worst, culprit = 0.0, ""
    for alpha in partitions_of(n - 2):
        q_num, (z, labels) = q_matrix(alpha, d, n), z_matrix(alpha, n)
        pairs = eigenvalues_closed_form(alpha, d, n)
        closed = np.sort([lam for _nu, lam, mult in pairs for _ in range(mult)])
        lam_of = {nu: lam for nu, lam, _mult in pairs}
        rep = InducedRep(alpha, n)
        psis = [sym_irrep(nu) for nu, _row, _e in rep.decomposition]
        residuals = {
            "Q symmetric": np.abs(q_num - q_num.T).max(),
            "Q vs induced": np.abs(q_num - q_via_induced(alpha, d, n, rep)).max(),
            "closed-form eigenvalues": np.abs(closed - np.linalg.eigvalsh(q_num)).max(),
            "Z^T Z": np.abs(z.T @ z - np.eye(len(z))).max(),
            "Z^T Q Z diagonal": np.abs(
                z.T @ q_num @ z - np.diag([lam_of[nu] for nu, _j in labels])).max(),
        } | {f"Z^T Ind({name}) Z": np.abs(z.T @ rep.matrix(sigma) @ z
                                          - direct_sum(psis, sigma)).max()
             for name, sigma in elements}
        claim = max(residuals, key=residuals.get)
        if residuals[claim] > worst:
            worst, culprit = residuals[claim], f"alpha {alpha}: {claim}"
    return _report("spectra", {"n": n, "d": d}, worst, SPECTRA_TOL,
                   "alphas " + "; ".join(map(str, partitions_of(n - 2))), culprit)


# -- irreps ----------------------------------------------------------------


def check_irreps(n: int, d: int) -> CheckReport:
    """Homomorphism property of every irrep, plus kind-specific claims.

    Each irrep's generator images are one batch ``image`` of all of S(n),
    in ``Permutation.all`` order, held while that irrep is checked.
    psi(sigma) psi(rho) = d^p psi(tau), with (p, tau) read off the
    rows of ``law_rows``, is checked on the rows (g, rho) of the n-1
    generators g of ``generator_words``, one batched matmul per row, and
    on the pairs that ``law_sweep`` flags, in blocks of n! pairs; the
    identity row joins them when psi(1) is not exactly the identity.  By
    the induction of ``law_sweep`` that is every pair.
    A failure names the irrep and the pair of the worst residual.
    """
    images = image_array(n)
    count = len(images)
    transposed = images[:, -1] != n - 1
    everyone = np.arange(count)

    def generator_rows(generators):  # one left factor, and every rho on the right
        return [(g, slice(None), (d**p)[:, None, None], tau)
                for g, p, tau in zip(generators, *law_rows(n, generators))]

    rows = generator_rows(generator_words(n)[0])
    left, right, powers, tau = _law_at(n, law_sweep(n, law_rows))
    rows += [(left[s:s + count], right[s:s + count],
              (d**powers[s:s + count])[:, None, None], tau[s:s + count])
             for s in range(0, len(left), count)]
    reps = all_irreps(n, d)
    worst, culprit = 0.0, ""
    for rep in reps:
        stack = rep.image(images)
        if rep.kind == "S" and stack[transposed].any():
            first = np.flatnonzero(transposed & stack.any(axis=(1, 2)))[0]
            return CheckReport("irreps", {"n": n, "d": d}, False, 1.0,
                               f"kind-S block {rep.label} not exactly zero on M, "
                               f"first at W{_perm(images[first])}^t", HOM_TOL)
        if rep.kind == "M":
            expected = rank_of_q(rep.label, d, n)
            if rep.dimension != expected:
                return CheckReport("irreps", {"n": n, "d": d}, False, 1.0,
                                   f"dimension {rep.dimension} != rank {expected}",
                                   HOM_TOL)
        unit = np.array_equal(stack[0], np.eye(rep.dimension))
        for left, right, scale, tau in rows if unit else generator_rows([0]) + rows:
            residual = stack[left] @ stack[right]  # stack[:] is a view, not a copy
            residual -= scale * stack[tau]
            value, (k,) = _worst(np.abs(residual).max(axis=(1, 2)))
            if value > worst:
                sigma, rho = (_perm(images[np.broadcast_to(x, len(residual))[k]])
                              for x in (left, everyone[right]))
                worst, culprit = value, f"{rep.kind}:{rep.label} {sigma} * {rho}"
        del stack  # before the next irrep builds its own
    details = [f"{rep.kind}:{rep.label}(dim {rep.dimension})" for rep in reps]
    return _report("irreps", {"n": n, "d": d}, worst, HOM_TOL, "; ".join(details),
                   culprit=culprit)


# -- dimensions --------------------------------------------------------------


def check_dimensions(n: int, d: int, cap: int | None = None) -> CheckReport:
    """Block inventory vs the partition-sum formula, and the measured span.

    The one place that compares the sum of squared block sizes of
    ``structure_report`` with ``algebra_dimension_formula``; a mismatch
    reads ``blocks M+S != formula F``.  When the oracle fits under the cap
    this also measures the transposed and plain spans, and confirms that the
    group-averaged operator families span exactly what the permutation
    operators span, so one family is linearly independent iff the other is.
    Those families are C times the K = n! plain blocks; they are built only
    when their K s^2 entries are fewer than the K^2 of their Gram C G C^T,
    and then their span is the rank of V V^T, with V their blocks as
    columns: a sum of one s^2 x s^2 product per family, built one at a time.
    On the sectors of the stacks, a rank equal to the formula proves the
    restriction faithful, and a shortfall is named.  Above the cap the
    oracle part is skipped and said so in the details.
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
        if plain.dim**2 < len(plain):
            every = np.arange(len(plain))[:, None]
            images = plain.combine(every, np.ones(every.shape))  # once for every family
            e_span = gram_rank(sum(matrix_operators_E(images, mu).gram(by_position=True)
                                   for mu in partitions_of(n)))
        else:
            weights = np.concatenate([averaging_weights(mu).reshape(-1, len(plain))
                                      for mu in partitions_of(n)])
            e_span = gram_rank(weights @ plain.gram() @ weights.T)
        passed = (passed and measured_t == expected and plain_dim == expected
                  and e_span == expected)
        details += (f"; oracle transposed {measured_t}, plain {plain_dim}, "
                    f"averaged families {e_span}")
        shortfall = expected - min(measured_t, plain_dim, e_span)
        if shortfall > 0:
            details += f"; rank short of the formula by {shortfall}"
    return CheckReport("dimensions", {"n": n, "d": d}, passed,
                       0.0 if passed else 1.0, details)


# -- appendix machinery -------------------------------------------------------


def check_matrix_operators(n: int, d: int, cap: int | None = None) -> CheckReport:
    """Group-averaged operator family for the tensor action of S(n-2).

    Exercises the four claims: recovery of D(g) from the family, the
    orthogonality/multiplicity relation, the composition rule, and column
    covariance.  The families E^alpha are stacks of w^2 operators E_ij,
    block (i-1) w + j-1, so the composition rule E_ij E_kl = delta_jk E_il
    is the law of ``_x_claim`` with A = I_w, on 2w pivot rows; each other
    claim is one product or one combination per row.
    """
    plain = generator_stack(n, d, cap=cap)  # first: above the cap, build no S(n-2)
    m = n - 2
    group = image_array(m)  # embedded in S(n), fixing n-1 and n
    ranks = lehmer_rank(np.concatenate([group, np.broadcast_to([m, m + 1], (len(group), 2))],
                                       axis=1))
    generators, every = plain.take(ranks), np.arange(len(group))[:, None]
    images = generators.combine(every, np.ones(every.shape))
    alphas = list(partitions_of(m))
    families = [matrix_operators_E(images, alpha) for alpha in alphas]
    phis = [sym_irrep(alpha) for alpha in alphas]
    stacks = [phi.image(group) for phi in phis]  # [g, i, j] = phi_ij(g)
    # (alpha, i, j) of every block of the concatenated families, 1-based
    labels = [(alpha, i, j) for alpha, phi in zip(alphas, phis)
              for i in range(1, phi.dim + 1) for j in range(1, phi.dim + 1)]

    def e_name(label):
        alpha, i, j = label
        return f"E^{alpha}_{i}{j}"

    # (I) D(g) = sum phi_ij(g) E_ij, over every family at once
    everything = OperatorStack.concat(families)
    weights = np.concatenate([stack.reshape(len(group), -1) for stack in stacks], axis=1)
    recovered = everything.combine(np.arange(len(labels)), weights)
    worst, (g,) = _worst(recovered.residuals(images))
    culprit = f"D({_perm(group[g])}) = sum phi_ij(g) E_ij"

    # (II) orthogonality with the multiplicity as norm; here D restricted to
    # S(n-2) contains each alpha with multiplicity d^2 * (its multiplicity
    # in the action on n-2 factors).  The norm is a trace over the whole
    # space: the Gram of one plain weight sector per S(d)-orbit (a partition
    # mu of n), times the orbit size, as relabelling digits commutes with D.
    mults = [multiplicity_in_V(alpha, d) for alpha in alphas]  # 0 above d rows
    norms = np.repeat(d * d * np.array(mults, float), [phi.dim**2 for phi in phis])
    gram = 0.0
    for weight in (tuple(mu) + (0,) * (d - mu.height) for mu in partitions_of(n)
                   if mu.height <= d):
        orbit = factorial(d) // prod(factorial(weight.count(v)) for v in set(weight))
        on_sector = perm_operator(image_array(n)[ranks], d, n, cap,
                                  sector(n, d, weight=weight)).combine(every, np.ones(every.shape))
        gram = gram + orbit * OperatorStack.concat(
            [matrix_operators_E(on_sector, alpha) for alpha in alphas]).gram()
    value, (r, c) = _worst(np.abs(gram - np.diag(norms)))
    if value > worst:
        worst, culprit = value, f"<{e_name(labels[r])}, {e_name(labels[c])}>"

    for alpha, phi, stack, family in zip(alphas, phis, stacks, families):
        w = phi.dim
        i, j = np.divmod(np.arange(w * w), w)  # 0-based (i, j) of each block
        # E_ij E_kl = delta_jk E_il
        rows, products = _x_claim(family, np.eye(w))
        value, (s, r) = _worst(products)
        s = rows[s]
        if value > worst:
            worst, culprit = value, (f"{e_name((alpha, i[s] + 1, j[s] + 1))} "
                                     f"{e_name((alpha, i[r] + 1, j[r] + 1))}")
        # D(h) E_ij = sum_k phi_ki(h) E_kj, phi(h)^T on the index i, one row
        # per generator D(h)
        covariance = family.action_residuals(generators, None, stack.transpose(0, 2, 1))
        value, (h, r) = _worst(covariance)
        if value > worst:
            worst, culprit = value, (f"D({_perm(group[h])}) "
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
    with A = I_rank, on the 2 rank pivot rows f_s1 and f_1r.  A failure
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
        rows, products = _x_claim(units, np.eye(rank))
        value, (left, right) = _worst(products)
        if value > worst:
            (s, r), (t, v) = divmod(rows[left], rank), divmod(right, rank)
            worst, culprit = value, (f"{alpha}: f_({s + 1},{r + 1}) * "
                                     f"f_({t + 1},{v + 1})")
        details.append(f"{alpha}: rank {rank}")
    return _report("reduced_matrix_units", {"n": n, "d": d}, worst, HOM_TOL,
                   "; ".join(details), culprit=culprit)


def check_adjoint_transport(n: int, d: int, cap: int | None = None) -> CheckReport:
    """Oracle images of elements: their generators, and the adjoint.

    Every W(sigma)^{t_n}, in the cached transposed family that element
    images combine and in the family of S(n) that ``transposed_perm_operator``
    builds apart from it, must list exactly the ones of the index form on
    which ``check_mul_rule`` checks the law, one ``stack_residuals`` per
    family; a failure names the generator.  Twenty sampled elements, with
    coefficients in [-1, 1), and their products with a sampled generator are
    one element stack, and their adjoints another, whose image must be the
    conjugate transpose.
    """
    ctx, table = AlgebraContext(n, d), image_array(n)
    elems = []
    for draw in _picks(20 * 7, ADJOINT_SEED).reshape(20, 7):
        terms = {_perm(table[k % len(table)]): 2 * float(x) / LEHMER_MODULUS - 1
                 for k, x in draw[:6].reshape(3, 2)}
        elem = AlgebraElement(ctx, terms)
        elems += [elem, elem * AlgebraElement(ctx, {_perm(table[draw[6] % len(table)]): 1.0})]
    images = element_stack(elems, cap)
    adjoints = element_stack([elem.adjoint() for elem in elems], cap)
    worst, culprit = adjoints.residuals(images.adjoint()).max(), ""
    index = generator_index(n, d, cap)
    generators = np.maximum(
        index.stack_residuals(generator_stack(n, d, transposed=True, cap=cap)),
        index.stack_residuals(transposed_perm_operator(table, d, n, cap,
                                                       sector(n, d, True))))
    value, (k,) = _worst(generators)
    if value > worst:
        worst, culprit = value, f"W{_perm(table[k])}^t"
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
