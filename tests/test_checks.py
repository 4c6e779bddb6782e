import json

import numpy as np
import pytest
from reference_rows import (reference_irreps, reference_left_action,
                            reference_left_actions, reference_u_structure,
                            reference_x_law, word_lengths)

from ptalgebra.checks import (HOM_TOL, CheckReport, check_adjoint_transport,
                              check_dimensions, check_irreps,
                              check_matrix_operators, check_mul_rule,
                              check_reduced_matrix_units, check_spectra,
                              check_u_structure, check_unit_of_m, run_suite)
from ptalgebra.induced import InducedRep
from ptalgebra.irreps import (AlgebraIrrep, all_irreps, block_labels, direct_sum,
                              irrep_M_f, irrep_S, structure_report)
from ptalgebra.partitions import Partition, partitions_of
from ptalgebra.permutations import Permutation
from ptalgebra.yor import irrep as sym_irrep


def test_individual_checks_pass():
    assert check_mul_rule(3, 2).passed
    assert check_spectra(3, 2).passed
    assert check_irreps(3, 2).passed
    assert check_dimensions(3, 2).passed
    assert check_matrix_operators(3, 2).passed
    assert check_reduced_matrix_units(3, 2).passed
    assert check_adjoint_transport(3, 2).passed
    assert check_unit_of_m(3, 2).passed


def test_u_structure_same_and_cross_labels():
    assert check_u_structure(Partition([1]), Partition([1]), 3, 2).passed
    assert check_u_structure(Partition([2]), Partition([1, 1]), 4, 3).passed
    assert check_u_structure(Partition([1, 1]), Partition([1, 1]), 4, 3).passed


def test_check_irreps_covers_every_block():
    for n, d in [(3, 2), (4, 2), (3, 3)]:
        report = check_irreps(n, d)
        assert report.passed is True, report
        assert report.max_residual < HOM_TOL
        assert report.details == "; ".join(
            f"{rep.kind}:{rep.label}(dim {rep.dimension})"
            for rep in all_irreps(n, d))


def test_run_suite_all_green():
    reports = run_suite(3, 2, "all")
    assert reports and all(r.passed for r in reports)
    names = {r.check for r in reports}
    assert {"mul_rule", "spectra", "irreps", "dimensions",
            "matrix_operators", "reduced_matrix_units",
            "u_structure", "unit_of_M"} <= names


def test_run_suite_subset():
    reports = run_suite(4, 2, "dims")
    assert len(reports) == 1 and reports[0].check == "dimensions"
    assert reports[0].passed
    with pytest.raises(ValueError):
        run_suite(3, 2, "bogus")


def test_run_suite_n2():
    # n = 2 runs the general construction: alpha = () and Q(()) = [[d]]
    names = ["mul_rule", "associativity", "adjoint_transport", "spectra", "irreps",
             "dimensions", "matrix_operators", "u_structure", "reduced_matrix_units",
             "unit_of_M"]
    for d in range(1, 5):
        reports = run_suite(2, d, "all")
        assert [r.check for r in reports] == names
        assert all(r.passed for r in reports), [r for r in reports if not r.passed]


def _builds(construct, label, d, n) -> bool:
    try:
        construct(label, d, n)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("d", range(1, 6))
def test_every_consumer_follows_block_labels(n, d):
    # the paper's rule: kind M for l(alpha) <= d, kind S for l(nu) < d
    m_labels, s_labels = block_labels(n, d)
    assert m_labels == [a for a in partitions_of(n - 2) if len(a.parts) <= d]
    assert s_labels == [v for v in partitions_of(n - 1) if len(v.parts) < d]
    assert [(rep.kind, rep.label) for rep in all_irreps(n, d)] == (
        [("M", a) for a in m_labels] + [("S", v) for v in s_labels])
    report = structure_report(n, d)
    assert [a for a, _rank in report.m_blocks] == m_labels
    assert [v for v, _dim in report.s_blocks] == s_labels
    for alpha in partitions_of(n - 2):
        assert _builds(irrep_M_f, alpha, d, n) == (alpha in m_labels)
    for nu in partitions_of(n - 1):
        assert _builds(irrep_S, nu, d, n) == (nu in s_labels)
    if n <= 4:
        reports = run_suite(n, d, "all")
        assert [r.params["alpha"] for r in reports if r.check == "u_structure"] \
            == [str(a) for a in m_labels]


def test_report_roundtrip():
    report = check_dimensions(3, 2)
    record = json.loads(json.dumps(report.to_dict()))
    assert record == report.to_dict()
    assert CheckReport(**record) == report


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_associativity_invariant_grid(n, d):
    from ptalgebra.checks import check_associativity

    report = check_associativity(n, d)
    assert report.passed and report.max_residual < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_check_spectra_at_n8(d):
    report = check_spectra(8, d)
    assert report.passed, report
    assert report.details == "alphas " + "; ".join(map(str, partitions_of(6)))


def test_check_spectra_names_a_planted_q_via_induced(monkeypatch):
    import ptalgebra.checks as checks

    n, d, planted = 5, 2, Partition([2, 1])
    real = checks.q_via_induced

    def perturbed(alpha, d_, n_, rep=None):
        out = real(alpha, d_, n_, rep)
        if alpha == planted:
            out[0, -1] += 0.5
        return out

    monkeypatch.setattr(checks, "q_via_induced", perturbed)
    report = check_spectra(n, d)
    assert report.passed is False and report.max_residual == pytest.approx(0.5)
    assert report.details.startswith(f"worst at alpha {planted}: Q vs induced;")


@pytest.mark.parametrize("k", [1, 3])
def test_check_spectra_names_a_planted_adjacent_image(monkeypatch, k):
    # 1.5 Ind(s_k) for one alpha: the reduction at s_k sees it, and so does
    # Q via the induced rep, which reads the same rep; the worst is named
    import ptalgebra.checks as checks
    from ptalgebra.induced import q_matrix, q_via_induced

    n, d, planted = 5, 2, Partition([2, 1])

    class Planted(InducedRep):
        def __init__(self, alpha, n_):
            super().__init__(alpha, n_)
            if alpha == planted:
                self._adjacent[k - 1] = 1.5 * self._adjacent[k - 1]

    monkeypatch.setattr(checks, "InducedRep", Planted)
    report = check_spectra(n, d)
    rep = InducedRep(planted, n)
    psis = [sym_irrep(nu) for nu, _row, _e in rep.decomposition]
    s_k = Permutation.transposition(n - 1, k, k + 1)
    residuals = {  # in the order of the check, which names the first of a tie
        "Q vs induced": np.abs(q_matrix(planted, d, n) - q_via_induced(
            planted, d, n, Planted(planted, n))).max(),
        f"Z^T Ind(s_{k}) Z": 0.5 * np.abs(direct_sum(psis, s_k)).max()}
    claim = max(residuals, key=residuals.get)
    assert report.passed is False
    assert report.max_residual == pytest.approx(residuals[claim])
    assert report.details.startswith(f"worst at alpha {planted}: {claim};")


def test_check_irreps_reads_one_batch_of_images_per_irrep(monkeypatch):
    n, d = 5, 3
    calls = []
    real = AlgebraIrrep.image

    def spy(self, sigma):
        calls.append((self.kind, self.label, type(sigma)))
        return real(self, sigma)

    monkeypatch.setattr(AlgebraIrrep, "image", spy)
    assert check_irreps(n, d).passed
    assert calls == [(rep.kind, rep.label, np.ndarray) for rep in all_irreps(n, d)]


@pytest.mark.parametrize("d", range(1, 4))
def test_check_irreps_passes_at_n7(d):
    report = check_irreps(7, d)
    assert report.passed is True, report
    assert report.details == "; ".join(
        f"{rep.kind}:{rep.label}(dim {rep.dimension})" for rep in all_irreps(7, d))


def test_check_irreps_reports_a_broken_image(monkeypatch):
    import ptalgebra.checks as checks

    def broken(n, d):
        reps = all_irreps(n, d)
        rep = reps[0]
        reps[0] = AlgebraIrrep(rep.kind, rep.label, n, d, rep.basis_tag,
                               rep.rho, 1.5 * rep.contraction)
        return reps

    monkeypatch.setattr(checks, "all_irreps", broken)
    report = check_irreps(4, 2)
    assert report.passed is False and report.max_residual > 0.1


def test_check_irreps_names_the_first_transposed_generator_of_a_kind_s_block_off_zero(
        monkeypatch):
    # a kind-S irrep with V' = 1 sends every W(sigma)^t to a nonzero image;
    # the first sigma that moves n, in Permutation.all order, is (34)
    import ptalgebra.checks as checks

    n, d = 4, 3

    def planted(n_, d_):
        reps = all_irreps(n_, d_)
        k = [rep.kind for rep in reps].index("S")
        rep = reps[k]
        reps[k] = AlgebraIrrep("S", rep.label, n_, d_, None, rep.rho,
                               np.eye(rep.dimension))
        return reps

    monkeypatch.setattr(checks, "all_irreps", planted)
    label = block_labels(n, d)[1][0]
    report = check_irreps(n, d)
    assert report.passed is False and report.max_residual == 1.0
    assert report.details == f"kind-S block {label} not exactly zero on M, first at W(34)^t"


def test_check_irreps_refuses_a_kind_m_irrep_off_the_rank_of_q(monkeypatch):
    import ptalgebra.checks as checks
    from ptalgebra.irreps import rank_of_q

    n, d = 4, 2
    alpha = block_labels(n, d)[0][0]
    rank = rank_of_q(alpha, d, n)

    def planted(n_, d_):
        reps = all_irreps(n_, d_)
        reps[0].dimension = rank + 1
        return reps

    monkeypatch.setattr(checks, "all_irreps", planted)
    report = check_irreps(n, d)
    assert report.passed is False and report.max_residual == 1.0
    assert report.details == f"dimension {rank + 1} != rank {rank}"


def _plant_image(monkeypatch, n, d, planted, factor, which=0):
    """Let ``checks.all_irreps`` serve irrep ``which`` with the image of
    ``planted`` scaled by ``factor`` in every batch that holds it, as the
    reference and ``check_irreps`` read it; the others are real."""
    import ptalgebra.checks as checks

    class Planted(AlgebraIrrep):
        def image(self, sigma):
            out = super().image(sigma)
            out[(sigma + 1 == planted.images).all(axis=1)] *= factor
            return out

    def serve(n_, d_):
        reps = all_irreps(n_, d_)
        rep = reps[which]
        reps[which] = Planted(rep.kind, rep.label, n_, d_, rep.basis_tag,
                              rep.rho, rep.contraction)
        return reps

    monkeypatch.setattr(checks, "all_irreps", serve)
    return all_irreps(n, d)[which]


def _named_pair(report) -> tuple[str, Permutation, Permutation]:
    """The block and the generator pair of ``worst at <kind>:<label> g * rho``."""
    block, pair = report.details.split("; ")[0].removeprefix("worst at ").split(" ", 1)
    sigma, rho = (Permutation.parse(text, report.params["n"]) for text in pair.split(" * "))
    return block, sigma, rho


def test_check_irreps_names_the_pair_of_a_planted_image_off_the_generators(monkeypatch):
    # 1.5 psi(sigma) for a sigma of a longest word: no generator row has it
    # on the left, but the rows g * rho with rho = sigma, or with sigma as
    # their product, read it
    from ptalgebra.algebra import generator_words, mul_generators

    n, d = 5, 2
    perms = list(Permutation.all(n))
    generators, _first, rest = generator_words(n)
    planted = perms[int(np.argmax(word_lengths(rest)))]
    assert perms.index(planted) not in generators
    rep = _plant_image(monkeypatch, n, d, planted, 1.5)
    report = check_irreps(n, d)
    assert report.passed is False and report.max_residual > 0.1
    block, sigma, rho = _named_pair(report)
    assert block == f"{rep.kind}:{rep.label}"
    assert perms.index(sigma) in generators
    assert planted in (sigma, rho, mul_generators(sigma, rho)[1])
    assert reference_irreps(n, d) >= report.max_residual


def test_check_irreps_checks_the_identity_row_when_psi_of_1_is_not_1(monkeypatch):
    # At n = 2 the kind-S irrep S:1 sends V', the one generator, to 0, so
    # both generator rows pass whatever psi(1) is; psi(1) = 1.5 fails only
    # on the identity row, at 1 * 1
    n, d = 2, 2
    identity = Permutation.identity(n)
    rep = _plant_image(monkeypatch, n, d, identity, 1.5, which=1)
    assert rep.kind == "S"
    report = check_irreps(n, d)
    assert report.passed is False and report.max_residual == pytest.approx(0.75)
    assert _named_pair(report) == (f"{rep.kind}:{rep.label}", identity, identity)


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("d", range(1, 4))
def test_irreps_on_generator_rows_agree_with_every_pair(n, d):
    report = check_irreps(n, d)
    residual = reference_irreps(n, d)
    assert report.passed == (residual < HOM_TOL)
    assert report.max_residual <= residual < HOM_TOL


# -- larger suites, exact where the oracle is exact ---------------------------


@pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (5, 3)])
def test_run_suite_all_passes_with_exact_zeros(n, d):
    reports = run_suite(n, d, "all")
    assert all(r.passed for r in reports), [r for r in reports if not r.passed]
    residual = {r.check: r.max_residual for r in reports}
    for check in ("mul_rule", "associativity", "adjoint_transport", "dimensions"):
        assert residual[check] == 0.0, check


# -- tolerances ----------------------------------------------------------------


def test_reports_carry_their_tolerance():
    from ptalgebra import checks

    expected = {"mul_rule": checks.ORACLE_TOL,
                "associativity": checks.ORACLE_TOL,
                "adjoint_transport": checks.ORACLE_TOL,
                "spectra": checks.SPECTRA_TOL, "irreps": HOM_TOL,
                "dimensions": None, "matrix_operators": checks.APPC_TOL,
                "reduced_matrix_units": HOM_TOL, "u_structure": HOM_TOL,
                "unit_of_M": HOM_TOL}
    reports = run_suite(3, 2, "all")
    assert {r.check: r.tol for r in reports} == expected
    for report in reports:
        record = report.to_dict()
        assert record["tol"] == expected[report.check]
        assert json.loads(json.dumps(record)) == record
        assert CheckReport(**record) == report


# -- planted defects: a failure names its worst block --------------------------


def _scale_generator(monkeypatch, n, d, transposed, planted):
    """Let ``checks.generator_stack`` serve the plain or transposed family of
    (n, d) as a dense stack with the block of ``planted`` scaled by 1.5; the
    other is real."""
    import numpy as np

    import ptalgebra.checks as checks
    from ptalgebra.permutations import Permutation

    real = checks.generator_stack
    family = real(n, d, transposed)
    weights = np.ones((len(family), 1))
    weights[list(Permutation.all(n)).index(planted)] = 1.5
    scaled = family.combine(np.arange(len(family))[:, None], weights)

    planted_side = transposed

    def serve(n_, d_, transposed=False, cap=None):
        return scaled if transposed == planted_side else real(n_, d_, transposed, cap)

    monkeypatch.setattr(checks, "generator_stack", serve)


def test_mul_rule_names_the_planted_pair(monkeypatch):
    import dataclasses

    import numpy as np

    import ptalgebra.checks as checks
    from ptalgebra.oracle import generator_index
    from ptalgebra.permutations import Permutation, lehmer_rank

    # Move a one of W((1 3))^{t_n} in its row lists only: the check reads
    # those for the left factor, so exactly the pairs (1 3) * rho fail.
    planted = Permutation.from_cycles(3, [(1, 3)])
    real = generator_index(3, 2)
    k = lehmer_rank(np.array(planted.images) - 1)
    row_cols = real.row_cols.copy()
    assert row_cols[0, k, 0] == 0 and 1 not in row_cols[:, k, 0]
    row_cols[0, k, 0] = 1
    monkeypatch.setattr(checks, "generator_index", lambda n, d, cap=None:
                        dataclasses.replace(real, row_cols=row_cols))
    report = check_mul_rule(3, 2)
    assert report.passed is False and report.max_residual >= 0.5
    assert report.details.startswith(f"worst at {planted} * ")


def test_associativity_names_a_planted_non_associative_triple(monkeypatch):
    import numpy as np

    import ptalgebra.checks as checks
    from ptalgebra.permutations import Permutation

    # a law that treats (1 2 4) as a right identity is not associative
    real = checks.mul_generators
    planted = np.array(Permutation.from_cycles(4, [(1, 2, 4)]).images) - 1

    def broken(sigma, rho):
        power, product = real(sigma, rho)
        hit = (np.asarray(rho) == planted).all(axis=-1)
        return (np.where(hit, 0, power),
                np.where(hit[..., None], sigma, product))

    monkeypatch.setattr(checks, "mul_generators", broken)
    report = checks.check_associativity(4, 2)
    assert report.passed is False and report.max_residual >= 1
    x, y, z = (np.array(Permutation.parse(text, 4).images) - 1
               for text in report.details.removeprefix("worst at ").split(" * "))
    left = broken(broken(x, y)[1], z)[1]
    right = broken(x, broken(y, z)[1])[1]
    assert not np.array_equal(left, right)


def test_u_structure_names_the_planted_left_action(monkeypatch):
    from ptalgebra.algebra import AlgebraContext, u_element
    from ptalgebra.oracle import element_operator
    from ptalgebra.permutations import Permutation

    # no u term reads the block of (12) in S(n-1), so only its action row
    # fails; u^11_11 misses by half its largest entry, and is named first
    planted = Permutation.from_cycles(4, [(1, 2)])
    u_11 = element_operator(u_element(Partition([2]), 1, 1, 1, 1, AlgebraContext(4, 2)))
    _scale_generator(monkeypatch, 4, 2, True, planted)
    report = check_u_structure(Partition([2]), Partition([2]), 4, 2)
    assert report.passed is False and report.max_residual == 0.5 * u_11.max_abs()
    assert report.details == f"worst at {planted} * u^11_11"


def test_u_structure_names_a_product_of_the_planted_u(monkeypatch):
    import numpy as np

    import ptalgebra.checks as checks
    from ptalgebra.algebra import AlgebraContext, u_element
    from ptalgebra.induced import q_matrix
    from ptalgebra.oracle import OperatorStack, element_operator

    # 1.5 u^23_12 (block ((2-1) w + 0) (n-1) w + (3-1) w + 1 with w = 2)
    # breaks every law pair that reads it, as a factor or on the right-hand
    # side; the named product, whichever pivot pair it is, misses by the
    # reported residual
    n, d, alpha, block = 5, 2, Partition([2, 1]), 21
    planted_label, w = (2, 3, 1, 2), alpha.hook_dimension()
    real = checks._u_stack

    def planted(beta, ctx, cap):
        stack = real(beta, ctx, cap)
        data = stack.data.copy()
        data[block] *= 1.5
        return OperatorStack(n, d, data, stack.basis)

    monkeypatch.setattr(checks, "_u_stack", planted)
    report = check_u_structure(alpha, alpha, n, d)
    assert report.passed is False
    left, right = [tuple(int(c) for c in name[2:4] + name[5:7]) for name in
                   report.details.removeprefix("worst at ").split(" * ")]
    ctx = AlgebraContext(n, d)

    def u(a, b, i, j):
        op = element_operator(u_element(alpha, a, b, i, j, ctx))
        return 1.5 * op if (a, b, i, j) == planted_label else op

    (a, b, i, j), (p, q, k, l) = left, right
    coeff = q_matrix(alpha, d, n)[(b - 1) * w + j - 1, (p - 1) * w + k - 1]
    expected = coeff * u(a, q, i, l)
    assert (u(*left) @ u(*right)).distance(expected) == \
        pytest.approx(report.max_residual)
    # the all-pairs reference fails too
    assert reference_u_structure(alpha, n, d) >= HOM_TOL


def _scaled_block(stack, block):
    """A copy of an OperatorStack with one block scaled by 1.5."""
    from ptalgebra.oracle import OperatorStack

    data = stack.data.copy()
    data[block] *= 1.5
    return OperatorStack(stack.n, stack.d, data, stack.basis)


@pytest.mark.parametrize("family", ["u", "E", "f"])
def test_a_planted_off_pivot_block_is_named_by_the_pivot_pair_that_targets_it(
        monkeypatch, family):
    # 1.5 x_IJ with I, J != 0: no pivot pair holds x_IJ as a factor, and the
    # left actions and the covariance read the pivot column x_.0 only, so
    # only x_I0 x_0J = A_00 x_IJ fails, by 0.5 A_00 max |x_IJ|
    import dataclasses

    import ptalgebra.checks as checks
    import ptalgebra.reduction as reduction
    from ptalgebra.algebra import AlgebraContext
    from ptalgebra.induced import q_matrix

    if family == "u":  # s = 8; x_25 = u^23_12, as in the test above
        n, d, alpha, (i, j) = 5, 2, Partition([2, 1]), (2, 5)
        size, real = 8, checks._u_stack
        x = real(alpha, AlgebraContext(n, d), None).data[i * size + j]
        monkeypatch.setattr(checks, "_u_stack", lambda beta, ctx, cap: _scaled_block(
            real(beta, ctx, cap), i * size + j))
        report, scale = check_u_structure(alpha, alpha, n, d), d
        pair = "u^21_11 * u^13_12"
    elif family == "E":  # E^(3,1)_23: no phi_23(g) is +-1, so (I) misses by less
        n, d, alpha, (i, j) = 6, 2, Partition([3, 1]), (1, 2)
        size, real, built = 3, checks.matrix_operators_E, []

        def planted(images, beta):
            family = real(images, beta)
            if beta != alpha or built:  # the family of the check, not a norm's
                return family
            built.append(family.data[i * size + j])
            return _scaled_block(family, i * size + j)

        monkeypatch.setattr(checks, "matrix_operators_E", planted)
        report, scale = check_matrix_operators(n, d), 1
        x, pair = built[0], "E^3,1_21 E^3,1_13"
    else:  # f_(2,3) of alpha = (2, 1), rank 5, as its coefficients over the u
        n, d, alpha, (i, j) = 5, 2, Partition([2, 1]), (1, 2)
        real, reduced_q = reduction.xa_reduce, q_matrix(alpha, d, n)
        size = real(reduced_q).rank
        x = real(reduced_q).f[i * size + j]

        def planted(a_matrix):
            out = real(a_matrix)
            if not np.array_equal(a_matrix, reduced_q):
                return out
            f = out.f.copy()
            f[i * size + j] *= 1.5
            return dataclasses.replace(out, f=f)

        monkeypatch.setattr(reduction, "xa_reduce", planted)
        report, scale = check_reduced_matrix_units(n, d), 1
        pair = f"{alpha}: f_(2,1) * f_(1,3)"
    assert report.passed is False
    assert report.details.startswith(f"worst at {pair}")
    assert report.max_residual == pytest.approx(0.5 * scale * np.abs(x).max())


def test_u_structure_fails_a_planted_left_action_on_the_pivot_column(monkeypatch):
    # every tau conjugated by c = (12) in S(n-2): L'_sigma = C L_sigma C with
    # C = 1 (x) phi(c), still L'_1 = 1 and L'_sigma = L'_g L'_sigma', so the
    # abstract side passes; the oracle rows of the generators fail, and they
    # read the pivot column u^a1_i1 only
    import ptalgebra.checks as checks
    from ptalgebra.algebra import generator_words
    from ptalgebra.permutations import image_array, lehmer_rank

    n, d, alpha = 5, 2, Partition([2, 1])
    real, c = checks._left_action, np.array([1, 0, 2])

    def conjugated(images, d_):
        target, scale, tau = real(images, d_)
        return target, scale, lehmer_rank(c[image_array(n - 2)[tau][..., c]])

    monkeypatch.setattr(checks, "_left_action", conjugated)
    report = check_u_structure(alpha, alpha, n, d)
    assert report.passed is False and report.max_residual > 0.1
    sigma, u = report.details.removeprefix("worst at ").split(" * ")
    perms = list(Permutation.all(n))
    assert perms.index(Permutation.parse(sigma, n)) in generator_words(n)[0]
    assert u[3] == u[6] == "1"  # u^a1_i1


def test_u_structure_names_the_sigma_of_a_planted_left_action(monkeypatch):
    import ptalgebra.checks as checks
    from ptalgebra.algebra import generator_words

    # a wrong claim for a sigma of the longest word: the oracle rows of the
    # generators do not read it, and no other word runs through it, so only
    # its own step L_sigma = L_g L_sigma' fails, by half of L_sigma
    n, d, alpha = 5, 2, Partition([2, 1])
    perms = list(Permutation.all(n))
    generators, _first, rest = generator_words(n)
    planted = perms[int(np.argmax(word_lengths(rest)))]
    assert perms.index(planted) not in generators
    real = checks._left_action

    def wrong(images, d_):
        target, scale, tau = real(images, d_)
        hit = (images + 1 == planted.images).all(axis=1)
        return target, np.where(hit[:, None], 1.5 * scale, scale), tau

    monkeypatch.setattr(checks, "_left_action", wrong)
    report = check_u_structure(alpha, alpha, n, d)
    assert report.passed is False and report.max_residual >= 0.5
    assert report.details == f"worst at left action of {planted}"
    # the all-sigma reference fails on the row of the planted sigma alone
    rows = reference_left_actions(alpha, n, d).max(axis=1)
    assert list(np.flatnonzero(rows >= HOM_TOL)) == [perms.index(planted)]


def _planted_unit_check(monkeypatch, n, d, side):
    """``check_unit_of_m`` on the dense transposed stack of (n, d) with a
    defect planted on a generator row: V' + eN ("right") breaks V'(1 - e)
    = 0 and keeps (1 - e)V' = 0, V' + Ne ("left") the other way round, and
    noise on s_1 ("commutator") breaks s_1 e = e s_1 alone."""
    import ptalgebra.checks as checks
    from ptalgebra.irreps import unit_of_M
    from ptalgebra.oracle import OperatorStack, element_operator, generator_stack

    perms = list(Permutation.all(n))
    planted = Permutation.transposition(n, *((1, 2) if side == "commutator" else (n - 1, n)))
    e_op = element_operator(unit_of_M(n, d))
    family = generator_stack(n, d, transposed=True)
    every = np.arange(len(family))[:, None]
    data = family.combine(every, np.ones((len(family), 1))).data
    noise = np.random.default_rng(0).standard_normal(data.shape[1:])
    data[perms.index(planted)] += 0.5 * {"right": e_op.matrix @ noise,
                                         "left": noise @ e_op.matrix,
                                         "commutator": noise}[side]
    monkeypatch.setattr(checks, "generator_stack",
                        lambda *args, **kwargs: OperatorStack(n, d, data, family.basis))
    report = check_unit_of_m(n, d)
    assert report.passed is False
    return planted, report


@pytest.mark.parametrize("side", ["left", "right", "commutator"])
def test_unit_of_m_names_the_planted_generator(monkeypatch, side):
    planted, report = _planted_unit_check(monkeypatch, 4, 2, side)
    expected = {"right": f"{planted} * (1 - e)", "left": f"(1 - e) * {planted}",
                "commutator": f"{planted} * e = e * {planted}"}[side]
    assert report.details == f"worst at {expected}"


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("side", ["left", "right"])
def test_unit_of_m_at_n2_reads_v_prime_alone(monkeypatch, d, side):
    # at n = 2, V' = W((12))^t is the only generator row (at d = 1 the
    # sector holds one state and e = 1, so there is nothing to plant)
    from ptalgebra.algebra import generator_words

    assert len(generator_words(2)[0]) == 1
    _planted, report = _planted_unit_check(monkeypatch, 2, d, side)
    assert report.details == {"right": "worst at (12) * (1 - e)",
                              "left": "worst at (1 - e) * (12)"}[side]


@pytest.mark.parametrize("n,d,residual", [(4, 2, 1 / 2), (5, 2, 2 / 3), (5, 3, 1 / 6),
                                          (6, 3, 1 / 4)])
def test_a_unit_without_its_last_label_fails_on_v_prime(monkeypatch, n, d, residual):
    # e minus the block unit of one label is still a central idempotent, so
    # e^2 = e and every s_k e = e s_k hold, and only V', which has a part in
    # every block of M, misses it; the residuals are those of the all-sigma
    # check that this one replaced
    import ptalgebra.irreps as irreps

    real = irreps.block_labels
    monkeypatch.setattr(irreps, "block_labels",
                        lambda n_, d_: (real(n_, d_)[0][:-1], real(n_, d_)[1]))
    report = check_unit_of_m(n, d)
    v_prime = Permutation.transposition(n, n - 1, n)
    assert report.passed is False
    assert report.max_residual == pytest.approx(residual, abs=1e-12)
    assert report.details in (f"worst at {v_prime} * (1 - e)",
                              f"worst at (1 - e) * {v_prime}")


def test_matrix_operators_names_the_planted_generator(monkeypatch):
    from ptalgebra.permutations import Permutation

    # a scaled D((12)) changes every family built from the images, in the
    # cached stack and in the images that the norms build on every weight
    # sector; the norm of E^2_11 moves most
    import ptalgebra.checks as checks

    n, d = 4, 2
    planted = Permutation.from_cycles(n - 2, [(1, 2)])
    _scale_generator(monkeypatch, n, d, False, planted.embed(n))
    real = checks.perm_operator

    def build(images, *args, **kwargs):
        stack = real(images, *args, **kwargs)
        weights = np.ones((len(stack), 1))
        weights[list(Permutation.all(n - 2)).index(planted)] = 1.5
        return stack.combine(np.arange(len(stack))[:, None], weights)

    monkeypatch.setattr(checks, "perm_operator", build)
    report = check_matrix_operators(n, d)
    assert report.passed is False
    assert report.details == "worst at <E^2_11, E^2_11>", report.details


@pytest.mark.parametrize("direction", ["null", "unit"])
def test_reduced_matrix_units_names_the_planted_label(monkeypatch, direction):
    # "null": adding Z_Is N to the pivot column x_I0 = u^a1_i1 along a null
    # column s of Z changes v_s = sum_I Z_Is x_I0 alone (Z is orthogonal),
    # which must vanish, so the check names y_(s,*) and misses by max |N|.
    # "unit": adding Z_I1 Z_J2 N to every x_IJ changes y_12 alone, a
    # surviving label.  The check reads the f law off the u law in
    # coefficient space, so this plant reaches it only through its premise:
    # the u law fails, and the suite fails at u_structure.
    import numpy as np

    import ptalgebra.checks as checks
    from ptalgebra.induced import q_matrix
    from ptalgebra.oracle import OperatorStack
    from ptalgebra.reduction import xa_reduce

    n, d, alpha = 5, 2, Partition([2, 1])
    size = (n - 1) * alpha.hook_dimension()
    reduced = xa_reduce(q_matrix(alpha, d, n))
    s, r = (reduced.rank, None) if direction == "null" else (0, 1)
    dim = checks.generator_stack(n, d, True).dim  # the sector of the u stacks
    noise = 1e-3 * np.random.default_rng(1).standard_normal((dim, dim))
    real = checks._u_stack

    def planted(beta, ctx, cap, blocks=None):
        stack = real(beta, ctx, cap, blocks)
        if beta != alpha:
            return stack
        # x_IJ is block I size + J
        rows, cols = np.divmod(np.arange(size**2) if blocks is None else blocks, size)
        if r is None:
            scale = np.where(cols == 0, reduced.z[rows, s], 0.0)
        else:
            scale = reduced.z[rows, s] * reduced.z[cols, r]
        return OperatorStack(n, d, stack.data + scale[:, None, None] * noise, stack.basis)

    monkeypatch.setattr(checks, "_u_stack", planted)
    if direction == "null":
        report = check_reduced_matrix_units(n, d)
        assert report.passed is False
        assert report.details.startswith(f"worst at {alpha}: y_({s + 1},*); ")
        assert report.max_residual == pytest.approx(np.abs(noise).max())
        return
    reports = run_suite(n, d, "appc")
    failed = [(report.check, report.params.get("alpha")) for report in reports
              if not report.passed]
    assert failed == [("u_structure", str(alpha))]


def test_adjoint_transport_sees_a_planted_asymmetry(monkeypatch):
    import numpy as np

    import ptalgebra.checks as checks
    from ptalgebra.oracle import OperatorStack

    real, calls = checks.element_stack, []

    def planted(elems, cap=None):
        # the first stack holds the images, the second their adjoints
        stack = real(elems, cap)
        calls.append(len(elems))
        if len(calls) > 1:
            return stack
        data = stack.data.copy()
        data[3, 0, 1] += 1e-3
        return OperatorStack(stack.n, stack.d, data, stack.basis)

    monkeypatch.setattr(checks, "element_stack", planted)
    report = check_adjoint_transport(3, 2)
    assert calls == [40, 40]
    assert report.passed is False and report.max_residual == pytest.approx(1e-3)


def test_suite_builds_single_generators_only_for_adjoint_and_trace_sectors(monkeypatch):
    # every other claim takes its left factors from a stack that it holds;
    # the cached families are built before the spy, so it sees fresh builds
    # only: the S(5) batch of the adjoint check and the S(3) images of the
    # trace claim on one plain weight sector per orbit, (5, 0), (4, 1) and
    # (3, 2)
    import ptalgebra.oracle as oracle
    from ptalgebra.oracle import generator_stack, sector

    n, d = 5, 2
    for transposed in (False, True):
        generator_stack(n, d, transposed)
    built, real = [], oracle._generators

    def spy(images, d_, transposed, basis):
        built.append((images.shape, transposed, len(basis)))
        return real(images, d_, transposed, basis)

    monkeypatch.setattr(oracle, "_generators", spy)
    assert all(report.passed for report in run_suite(n, d, "all"))
    s = len(sector(n, d, True))
    assert built == [((120, n), True, s), ((6, n), False, 1), ((6, n), False, 5),
                     ((6, n), False, 10)]


def test_a_planted_non_generator_block_fails_the_suite_by_adjoint_transport(
        monkeypatch):
    # the u actions and the unit check read only the generator blocks of
    # the transposed stack; every other block is tied to the index form by
    # adjoint_transport
    from ptalgebra.algebra import generator_words

    n, d = 4, 2
    planted = Permutation.from_cycles(n, [(1, 3)])
    assert list(Permutation.all(n)).index(planted) not in generator_words(n)[0]
    _scale_generator(monkeypatch, n, d, True, planted)
    reports = {r.check: r for r in run_suite(n, d, "all")}
    adjoint = reports["adjoint_transport"]
    assert adjoint.passed is False and adjoint.max_residual == 0.5
    assert adjoint.details == f"worst at W{planted}^t"
    assert reports["u_structure"].passed
    assert reports["unit_of_M"].passed


# -- the averaged families of check_dimensions -----------------------------------


def _planted_irrep(monkeypatch, label, plant):
    """Serve check_dimensions a fresh irrep of ``label``, changed by ``plant``,
    in place of the cached one."""
    import ptalgebra.checks as checks
    from ptalgebra.yor import SymmetricGroupIrrep

    def served(mu):
        if mu != label:
            return sym_irrep(mu)
        phi = SymmetricGroupIrrep(mu)
        plant(phi)
        return phi

    monkeypatch.setattr(checks, "sym_irrep", served)


def test_a_broken_adjacent_image_fails_the_averaged_families_by_name(monkeypatch):
    # 1.5 times one diagonal entry of psi_(3,2)(s_2): s_2 stays symmetric,
    # but neither an involution nor a braid with s_1 or s_3; the cube of
    # s_1 s_2 moves most, and the ranks do not see the plant
    def plant(phi):
        phi._adjacent[1][0, 0] *= 1.5

    _planted_irrep(monkeypatch, Partition([3, 2]), plant)
    report = check_dimensions(5, 2)
    assert report.passed is False and report.max_residual == 1.0 and report.tol is None
    assert report.details == ("blocks 41+1 = formula 42; oracle transposed 42, plain 42, "
                              "averaged families: psi_(3,2) fails (s_1 s_2)^3 = 1")


def test_a_reducible_image_fails_the_averaged_families_by_its_sum_of_squares(
        monkeypatch):
    # psi_(5) doubled, 1 + 1 on every s_k: every relation holds, and only the
    # sum of (dim mu)^2, 120 - 1 + 4 and not 5! = 120, shows that C is not
    # square
    def plant(phi):
        phi.dim, phi._adjacent = 2, [np.eye(2)] * 4

    _planted_irrep(monkeypatch, Partition([5]), plant)
    report = check_dimensions(5, 2)
    assert report.passed is False
    assert report.details.endswith("averaged families: sum of (dim mu)^2 is 123, not 5!")


@pytest.mark.parametrize("n,d", [(5, 2), (3, 5)])  # s^2 = 100 < 5!, s^2 = 81 > 3!
def test_check_dimensions_builds_no_averaged_family(monkeypatch, n, d):
    # on either side of the old size-chosen fork: no averaging weights, no
    # averaged family, and no image of all of S(n)
    import ptalgebra.checks as checks
    import ptalgebra.oracle as oracle
    import ptalgebra.yor as yor
    from ptalgebra.permutations import degree

    calls, image = [], yor.SymmetricGroupIrrep.image
    for module in (checks, oracle, yor):
        monkeypatch.setattr(module, "averaging_weights",
                            lambda *args: calls.append("averaging_weights"))
    for module in (checks, oracle):
        monkeypatch.setattr(module, "matrix_operators_E",
                            lambda *args: calls.append("matrix_operators_E"))

    def spy(self, p):
        if degree(p) == n:
            calls.append(f"image of S({n})")
        return image(self, p)

    monkeypatch.setattr(yor.SymmetricGroupIrrep, "image", spy)
    report = check_dimensions(n, d)
    assert report.passed and "averaged families" in report.details
    assert calls == []


def test_a_planted_averaging_weight_fails_the_suite_by_matrix_operators(monkeypatch):
    # check_dimensions reads no weights; the families E^alpha of S(n-2) do,
    # in their recovery, norms, law and covariance
    import ptalgebra.checks as checks
    import ptalgebra.oracle as oracle
    from ptalgebra.yor import averaging_weights

    planted = Partition([2, 1])

    def weights(alpha):
        out = averaging_weights(alpha)
        if alpha == planted:
            out[0, 0, 0] += 0.1
        return out

    for module in (checks, oracle):
        monkeypatch.setattr(module, "averaging_weights", weights)
    reports = run_suite(5, 2, "all")
    assert [r.check for r in reports if not r.passed] == ["matrix_operators"]


# -- generator rows ------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 7))
def test_left_action_matches_the_permutation_form(n):
    import ptalgebra.checks as checks
    from ptalgebra.permutations import image_array, lehmer_rank

    d = 3
    target, scale, tau = checks._left_action(image_array(n), d)
    for s_, sigma in enumerate(Permutation.all(n)):
        for p in range(1, n):
            want_target, want_scale, want_tau = reference_left_action(sigma, p, d)
            assert target[s_, p - 1] == want_target - 1
            assert scale[s_, p - 1] == want_scale
            assert tau[s_, p - 1] == lehmer_rank(np.array(want_tau.images) - 1)


class _Reads(np.ndarray):
    """An array that records the keys it is read with."""

    keys: list = []

    def __getitem__(self, key):
        _Reads.keys.append(key)
        return np.asarray(self)[key]


@pytest.mark.parametrize("budget", [1, 20, 63, 2**18])
def test_law_residuals_agree_with_every_pair_in_any_chunks(monkeypatch, budget):
    # 9 entries a product: a budget of 20 splits a full row into columns
    # and packs two rows of width 1, 63 packs two rows of 3 columns, and
    # 2^18 takes every row at once; each pair is bitwise its own product
    import ptalgebra.checks as checks

    monkeypatch.setattr(checks, "LAW_CHUNK_ENTRIES", budget)
    noise = np.random.default_rng(4)
    data = noise.standard_normal((6, 3, 3))

    def pairs(rows, cols, right):
        left, target = noise.integers(6, size=rows), noise.integers(6, size=(rows, cols))
        return left, right, noise.standard_normal((rows, cols)), target

    for left, right, scale, target in [
            pairs(3, 6, np.arange(6)),  # full rows, every right factor a view
            pairs(5, 1, noise.integers(6, size=(5, 1))),  # one flagged pair a row
            pairs(4, 3, noise.integers(6, size=(4, 3)))]:
        _Reads.keys = []
        got = checks.law_residuals(data.view(_Reads), left, right, scale, target)
        every = np.broadcast_to(right, target.shape)
        assert np.array_equal(got, [[np.abs(data[a] @ data[b] - c * data[t]).max()
                                     for b, c, t in zip(*row)]
                                    for a, *row in zip(left, every, scale, target)])
        views = [key for key in _Reads.keys if isinstance(key, slice)]
        assert bool(views) == (np.ndim(right) == 1)


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("d", range(1, 4))
def test_generator_rows_agree_with_every_row(n, d):
    # the pivot pairs of the law are entries of the all-pairs reference,
    # bitwise, for the u and E families and the coefficients of the f:
    # x_I0 x_0J for every (I, J) and x_0J x_K0 for every (J, K); the u
    # verdicts agree with every sigma, and the f law holds on every pair
    import ptalgebra.checks as checks
    from ptalgebra.algebra import AlgebraContext
    from ptalgebra.induced import q_matrix
    from ptalgebra.oracle import generator_stack, matrix_operators_E
    from ptalgebra.reduction import xa_reduce

    def same_rows(x, a_matrix, factors=None):
        s = len(a_matrix)
        pairs, residuals = checks._x_claim(x, a_matrix, factors)
        i, j = np.divmod(np.arange(s * s), s)
        assert np.array_equal(pairs, np.concatenate([np.stack([i * s, j], axis=1),
                                                     np.stack([i, j * s], axis=1)]))
        every = reference_x_law(x, a_matrix, factors)
        assert np.array_equal(residuals, every[tuple(pairs.T)])
        return every.max()

    for alpha in block_labels(n, d)[0]:
        report = check_u_structure(alpha, alpha, n, d)
        assert report.passed == (reference_u_structure(alpha, n, d) < HOM_TOL)
        assert report.passed
        u = checks._u_stack(alpha, AlgebraContext(n, d), None)
        q = q_matrix(alpha, d, n)
        same_rows(u.data, q)
        reduced = xa_reduce(q)
        # the f law on the coefficients M_sr: M_sr Q M_tu = delta_rt M_su
        size = len(q)
        units = reduced.f.reshape(-1, size, size)
        assert same_rows(units, np.eye(reduced.rank), units @ q) < HOM_TOL
    for mu in partitions_of(n):
        family = matrix_operators_E(generator_stack(n, d), mu)
        same_rows(family.data, np.eye(mu.hook_dimension()))


def test_claims_are_checked_on_generator_rows(monkeypatch):
    # each law x_IJ x_KL = A_JK x_IL on its 2s^2 pivot pairs, one
    # law_residuals call on 2s rows of s pairs; the n-1 generator rows of
    # the u actions and the S(n-2) rows of the covariance on the pivot
    # column x_.0 of s blocks: no check goes back to every row or every block
    import math

    import ptalgebra.checks as checks
    from ptalgebra.induced import q_matrix
    from ptalgebra.oracle import OperatorStack
    from ptalgebra.reduction import xa_reduce

    calls, real = [], OperatorStack.action_residuals
    laws, real_law = [], checks.law_residuals

    def spy(self, left, index, weights):
        calls.append((len(left), len(self)))
        return real(self, left, index, weights)

    def law_spy(data, left, right, scale, target, factors=None):
        assert np.shape(target) == (len(left), len(left) // 2)
        laws.append((np.size(target), len(data)))
        return real_law(data, left, right, scale, target, factors)

    monkeypatch.setattr(OperatorStack, "action_residuals", spy)
    monkeypatch.setattr(checks, "law_residuals", law_spy)
    n, d = 5, 2
    alphas = block_labels(n, d)[0]
    for alpha in alphas:
        calls.clear()
        laws.clear()
        assert check_u_structure(alpha, alpha, n, d).passed
        s = (n - 1) * alpha.hook_dimension()
        assert calls == [(n - 1, s)]
        assert laws == [(2 * s * s, s * s)]
    calls.clear()
    laws.clear()
    assert check_reduced_matrix_units(n, d).passed
    ranks = [xa_reduce(q_matrix(alpha, d, n)).rank for alpha in alphas]
    assert calls == []
    assert laws == [(2 * rank * rank, rank * rank) for rank in ranks]
    calls.clear()
    laws.clear()
    assert check_matrix_operators(n, d).passed
    group = math.factorial(n - 2)
    ws = [alpha.hook_dimension() for alpha in partitions_of(n - 2)]
    assert calls == [(group, w) for w in ws]
    assert laws == [(2 * w * w, w * w) for w in ws]
