import json

import numpy as np
import pytest

import goldens
from reference_irreps import image_of, reference_e_images, reference_f_images
from ptalgebra.algebra import AlgebraContext, AlgebraElement, mul_generators
from ptalgebra.induced import eigenvalues_closed_form, zero_condition
from ptalgebra.irreps import (algebra_dimension_formula, all_irreps, block_labels,
                              direct_sum, irrep_M_e, irrep_M_f, irrep_S,
                              rank_of_q, structure_report, unit_of_M)
from ptalgebra.oracle import (OperatorStack, element_operator, generator_stack,
                              identity_operator, span_dimension,
                              transposed_perm_operator)
from ptalgebra.partitions import Partition, add_box, partitions_of
from ptalgebra.permutations import Permutation, image_array
from ptalgebra.yor import irrep


def cyc(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


# -- golden data, n = 3 --------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_mf_golden_n3(d):
    rep = irrep_M_f(Partition([1]), d, 3)
    adapter = goldens.SIGN_ADAPTER_N3
    published = goldens.mf_n3(d)
    for code, expected in published.items():
        ours = image_of(rep, Permutation.parse(f"({code})", 3))
        assert np.abs(adapter @ ours @ adapter - expected).max() < 1e-9
    # untransposed subgroup: diagonal trivial + sign blocks
    assert np.abs(image_of(rep, cyc(3, (1, 2)))
                  - goldens.mf_n3_untransposed(-1.0)).max() < 1e-12
    assert np.abs(image_of(rep, Permutation.identity(3)) - np.eye(2)).max() < 1e-12
    # the remaining transposed three-cycle is the adjoint of (123)
    ours_132 = image_of(rep, cyc(3, (1, 3, 2)))
    assert np.abs(adapter @ ours_132 @ adapter
                  - goldens.mf_n3(d)["123"].T).max() < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4])
def test_me_golden_n3(d):
    rep = irrep_M_e(Partition([1]), d, 3)
    adapter = goldens.REVERSAL_ADAPTER_N3
    for code, expected in goldens.phi_n3(d).items():
        perm = Permutation.identity(3) if not code else Permutation.parse(
            f"({code})", 3)
        ours = image_of(rep, perm)
        assert np.abs(adapter @ ours @ adapter - expected).max() < 1e-12


def test_semi_trivial_golden_n3():
    for d in (3, 4):
        triv = irrep_S(Partition([2]), d, 3)
        sign = irrep_S(Partition([1, 1]), d, 3)
        for p in Permutation.all(3):
            if p.fixes_last():
                expected = 1.0 if p.is_identity() else p.restrict(2).sign()
                assert image_of(triv, p)[0, 0] == pytest.approx(1.0)
                assert image_of(sign, p)[0, 0] == pytest.approx(expected)
            else:
                assert image_of(triv, p)[0, 0] == 0.0
                assert image_of(sign, p)[0, 0] == 0.0


def test_semi_trivial_sign_requires_d3():
    irrep_S(Partition([1, 1]), 3, 3)
    with pytest.raises(ValueError, match="height"):
        irrep_S(Partition([1, 1]), 2, 3)


# -- golden data, n = 4 --------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_me_golden_n4(d):
    rep_id = irrep_M_e(Partition([2]), d, 4)
    for code, expected in goldens.me_n4_id(d).items():
        assert np.abs(image_of(rep_id, Permutation.parse(f"({code})", 4))
                      - expected).max() < 1e-12
    # untransposed action is the natural permutation representation
    for sigma in Permutation.all(3):
        mat = image_of(rep_id, sigma.embed(4))
        expected = np.zeros((3, 3))
        for a in range(1, 4):
            expected[sigma(a) - 1, a - 1] = 1.0
        assert np.abs(mat - expected).max() < 1e-12

    if d == 2:
        return  # the sign-label e-basis needs det Q != 0
    rep_sgn = irrep_M_e(Partition([1, 1]), d, 4)
    for code, expected in goldens.me_n4_sgn(d).items():
        assert np.abs(image_of(rep_sgn, Permutation.parse(f"({code})", 4))
                      - expected).max() < 1e-12
    # untransposed action carries the sign twist
    sign_rep = Partition([1, 1])
    for sigma in Permutation.all(3):
        mat = image_of(rep_sgn, sigma.embed(4))
        expected = np.zeros((3, 3))
        for a in range(1, 4):
            twist = (Permutation.transposition(3, sigma(a), 3) * sigma
                     * Permutation.transposition(3, a, 3)).restrict(2).sign()
            expected[sigma(a) - 1, a - 1] = twist
        assert np.abs(mat - expected).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_d_matrices_golden_n4(d):
    """Diagonal sqrt-eigenvalue factors match after the recorded reordering."""
    for alpha, published, order in [
        (Partition([2]), goldens.d_n4_id, goldens.D_N4_ID_COLUMN_ORDER),
        (Partition([1, 1]), goldens.d_n4_sgn, goldens.D_N4_SGN_COLUMN_ORDER),
    ]:
        lam_of = dict((nu, lam) for nu, lam, _m in
                      eigenvalues_closed_form(alpha, d, 4))
        ours = []
        for nu, _row, _e in add_box(alpha):
            ours.extend([lam_of[nu]] * nu.hook_dimension())
        if alpha == Partition([1, 1]) and d == 2:
            continue  # vanishing eigenvalue: no D factor in the published sense
        reordered = np.diag([np.sqrt(ours[k]) for k in order])
        assert np.abs(reordered - published(d)).max() < 1e-9


@pytest.mark.parametrize("d", [3, 4, 5])
def test_mf_equivalence_to_published_complex_basis_n4(d):
    """Traces, spectra and pair-product traces match the published complex form."""
    for alpha, published in [(Partition([2]), goldens.mf_n4_id(d)),
                             (Partition([1, 1]), goldens.mf_n4_sgn(d))]:
        rep = irrep_M_f(alpha, d, 4)
        ours = {code: image_of(rep, Permutation.parse(f"({code})", 4))
                for code in published}
        for code, theirs in published.items():
            assert np.trace(ours[code]) == pytest.approx(np.trace(theirs).real,
                                                         abs=1e-9)
            ours_spec = np.sort(np.linalg.eigvals(ours[code]).real)
            theirs_spec = np.sort(np.linalg.eigvals(theirs).real)
            assert np.abs(ours_spec - theirs_spec).max() < 1e-9
        for code_a, mat_a in published.items():
            for code_b, mat_b in published.items():
                lhs = np.trace(ours[code_a] @ ours[code_b])
                rhs = np.trace(mat_a @ mat_b).real
                assert lhs == pytest.approx(rhs, abs=1e-9)


def test_mf_rank_deficient_block_n4_d2():
    rep = irrep_M_f(Partition([1, 1]), 2, 4)
    assert rep.dimension == 2
    published = goldens.mf_n4_sgn_d2()
    ours = {code: image_of(rep, Permutation.parse(f"({code})", 4))
            for code in published}
    for code, theirs in published.items():
        assert np.trace(ours[code]) == pytest.approx(np.trace(theirs).real,
                                                     abs=1e-9)
        ours_spec = np.sort(np.linalg.eigvals(ours[code]).real)
        theirs_spec = np.sort(np.linalg.eigvals(theirs).real)
        assert np.abs(ours_spec - theirs_spec).max() < 1e-9
    for code_a, mat_a in published.items():
        for code_b, mat_b in published.items():
            assert np.trace(ours[code_a] @ ours[code_b]) == pytest.approx(
                np.trace(mat_a @ mat_b).real, abs=1e-9)


def test_me_refuses_singular_q():
    with pytest.raises(ValueError, match="irrep_M_f"):
        irrep_M_e(Partition([1, 1]), 2, 4)


def test_m_blocks_absent_below_height():
    with pytest.raises(ValueError, match="no such block"):
        irrep_M_f(Partition([1, 1, 1]), 2, 5)


# -- structural invariants ------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_homomorphism_suite(n, d):
    perms = list(Permutation.all(n))
    for rep in all_irreps(n, d):
        image = {sigma: image_of(rep, sigma) for sigma in perms}
        for sigma in perms:
            for rho in perms:
                power, result = mul_generators(sigma, rho)
                residual = np.abs(image[sigma] @ image[rho]
                                  - (d**power) * image[result]).max()
                assert residual < 1e-8


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("d", range(1, 4))
def test_a_batch_of_images_is_the_stack_of_the_single_images(n, d):
    perms = list(Permutation.all(n))
    reps = all_irreps(n, d) + [irrep_M_e(alpha, d, n) for alpha in partitions_of(n - 2)
                               if alpha.height <= d and zero_condition(alpha, d) is None]
    for rep in reps:
        single = np.stack([image_of(rep, sigma) for sigma in perms])
        assert np.array_equal(rep.image(image_array(n)), single), rep
        assert np.array_equal(rep.image(image_array(n)[1::2]), single[1::2]), rep


@pytest.mark.parametrize("build", [irrep_M_f, irrep_M_e])
def test_an_irrep_reads_its_images_only_in_image(build):
    # T[a] = rho((a n-1)) V' rho((a n-1)) comes off the one S(n-1) stack
    # that each image call reads, so the constructor reads none
    from ptalgebra.irreps import AlgebraIrrep

    n, d = 5, 3
    real = build(Partition([2, 1]), d, n)
    calls = []

    def rho(batch):
        calls.append(batch.shape)
        return real.rho(batch)

    rep = AlgebraIrrep(real.kind, real.label, n, d, real.basis_tag, rho, real.contraction)
    assert calls == []
    assert np.array_equal(rep.image(image_array(n)), real.image(image_array(n)))
    assert calls == [(24, 4)]


@pytest.mark.parametrize("build", [irrep_M_f, irrep_M_e])
@pytest.mark.parametrize("batch,row", [([[0, 0, 1]], 0), ([[0, 1, 3]], 0),
                                       ([[2, 1, 0], [1, 1, 1]], 1)])
def test_a_malformed_batch_of_algebra_images_is_refused(build, batch, row):
    rep = build(Partition([1]), 3, 3)
    with pytest.raises(ValueError, match=f"row {row} of the batch"):
        rep.image(np.array(batch))


def test_algebra_images_take_batches_only():
    rep = irrep_S(Partition([2]), 3, 3)
    with pytest.raises(ValueError, match="2-D integer array"):
        rep.image(Permutation.identity(3))
    with pytest.raises(ValueError, match="degree 2 != n = 3"):
        rep.image(np.array([[1, 0]]))


def test_a_malformed_batch_of_a_direct_sum_is_refused():
    reps = [irrep(Partition([2, 1])), irrep(Partition([3]))]
    assert direct_sum(reps, image_array(3)).shape == (6, 3, 3)
    with pytest.raises(ValueError, match="row 1 of the batch"):
        direct_sum(reps, np.array([[0, 1, 2], [0, 2, 2]]))


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 3), (4, 4), (5, 3)])
def test_f_and_e_bases_have_equal_traces(n, d):
    for alpha in partitions_of(n - 2):
        if alpha.height > d or zero_condition(alpha, d) is not None:
            continue
        rep_f = irrep_M_f(alpha, d, n)
        rep_e = irrep_M_e(alpha, d, n)
        for sigma in Permutation.all(n):
            assert np.trace(image_of(rep_f, sigma)) == pytest.approx(
                np.trace(image_of(rep_e, sigma)), abs=1e-8)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_images_match_the_explicit_matrix_elements(n):
    # the kind-M images built from rho and the contraction V' equal the
    # paper's direct formulas for every generator, in both bases
    for d in range(1, 5):
        for alpha in partitions_of(n - 2):
            if alpha.height > d:
                continue
            pairs = [(irrep_M_f(alpha, d, n), reference_f_images(alpha, d, n))]
            if zero_condition(alpha, d) is None:
                pairs.append((irrep_M_e(alpha, d, n), reference_e_images(alpha, d, n)))
            for rep, expected in pairs:
                assert np.abs(rep.image(image_array(n)) - expected).max() < 1e-12


def test_kind_s_annihilates_main_ideal_exactly():
    for n, d in [(3, 3), (4, 3)]:
        for rep in all_irreps(n, d):
            if rep.kind != "S":
                continue
            for sigma in Permutation.all(n):
                if not sigma.fixes_last():
                    assert not image_of(rep, sigma).any()


def test_restriction_branching():
    # the untransposed blocks of a full-rank kind-M irrep are exactly the
    # grown labels: check via characters of the restriction
    for alpha, d, n in [(Partition([1]), 3, 3), (Partition([2]), 4, 4),
                        (Partition([1, 1]), 3, 4)]:
        rep = irrep_M_f(alpha, d, n)
        for sigma in Permutation.all(n - 1):
            expected = sum(np.trace(irrep(nu).image(sigma)) for nu, _i, _e in add_box(alpha))
            assert np.trace(image_of(rep, sigma.embed(n))) == pytest.approx(
                expected, abs=1e-9)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("d", range(1, 7))
def test_dimension_sum_identity(n, d):
    expected = algebra_dimension_formula(n, d)
    report = structure_report(n, d)
    assert report.dim_M + report.dim_S == report.dim_total == expected


def test_strict_inequality_for_s_blocks():
    # non-strict eligibility would overcount: n = 3, d = 2 would give 6, not 5
    report = structure_report(3, 2)
    assert report.dim_total == 5
    assert [nu.parts for nu, _k in report.s_blocks] == [(2,)]


@pytest.mark.parametrize("n,d,total", [
    (3, 2, 5), (3, 3, 6), (4, 2, 14), (4, 3, 23), (4, 4, 24)])
def test_structure_report_oracle_anchors(n, d, total):
    report = structure_report(n, d)
    assert report.dim_total == total
    assert span_dimension(generator_stack(n, d, True)) == total


def test_structure_report_examples():
    r33 = structure_report(3, 3)
    assert [(a.parts, r) for a, r in r33.m_blocks] == [((1,), 2)]
    assert sorted(k for _v, k in r33.s_blocks) == [1, 1]
    r42 = structure_report(4, 2)
    assert [(a.parts, r) for a, r in r42.m_blocks] == [((2,), 3), ((1, 1), 2)]
    assert [(v.parts, k) for v, k in r42.s_blocks] == [((3,), 1)]
    r43 = structure_report(4, 3)
    assert sorted(k for _v, k in r43.s_blocks) == [1, 2]
    assert r43.dim_total == 23


def test_structure_report_roundtrip():
    report = structure_report(4, 2)
    report.oracle_dim = span_dimension(generator_stack(4, 2, True))
    record = json.loads(json.dumps(report.to_dict()))
    assert record == report.to_dict()
    assert (record["n"], record["d"]) == (report.n, report.d)
    assert [(Partition.parse(e["alpha"]), e["rank"])
            for e in record["m_blocks"]] == report.m_blocks
    assert [(Partition.parse(e["nu"]), e["dim"])
            for e in record["s_blocks"]] == report.s_blocks
    assert (record["dim_M"], record["dim_S"], record["dim_total"],
            record["oracle_dim"]) == (report.dim_M, report.dim_S,
                                      report.dim_total, report.oracle_dim)


def test_rank_of_q_examples():
    assert rank_of_q(Partition([1, 1]), 2, 4) == 2
    assert rank_of_q(Partition([1, 1]), 3, 4) == 3
    assert rank_of_q(Partition([2, 1]), 2, 5) == 5


# -- n = 2 ----------------------------------------------------------------------


def test_all_irreps_n2():
    # the general construction gives the two one-dimensional blocks exactly:
    # M sends the transposed swap to d, S sends it to 0; at d = 1 only M exists
    swap, one = Permutation.transposition(2, 1, 2), Permutation.identity(2)
    power, result = mul_generators(swap, swap)
    assert power == 1 and result == swap
    for d in range(1, 12):
        irreps = all_irreps(2, d)
        assert [(rep.kind, rep.label, rep.dimension) for rep in irreps] == (
            [("M", Partition(()), 1)] + [("S", Partition((1,)), 1)] * (d > 1))
        assert [image_of(rep, swap).tolist() for rep in irreps] == (
            [[[float(d)]]] + [[[0.0]]] * (d > 1))
        assert all(image_of(rep, one).tolist() == [[1.0]] for rep in irreps)
        assert structure_report(2, d).dim_total == len(irreps)


def test_n2_oracle_split():
    d = 2
    swap = Permutation.transposition(2, 1, 2)
    swap_op = transposed_perm_operator(swap, d)
    ident = identity_operator(2, d)
    m_unit = (1.0 / d) * swap_op
    s_part = ident - m_unit
    assert (swap_op @ s_part).max_abs() < 1e-12
    assert (m_unit @ m_unit).distance(m_unit) < 1e-12
    pair = np.stack([swap_op.matrix, s_part.matrix])
    assert span_dimension(OperatorStack(2, d, pair)) == 2


# -- the unit of the main ideal ---------------------------------------------------


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 2)])
def test_unit_of_m_oracle(n, d):
    e_op = element_operator(unit_of_M(n, d))
    ident = identity_operator(n, d)
    assert (e_op @ e_op).distance(e_op) < 1e-8
    complement = ident - e_op
    assert (complement @ complement).distance(complement) < 1e-8
    for sigma in Permutation.all(n):
        op = transposed_perm_operator(sigma, d)
        if sigma.fixes_last():
            continue
        assert (e_op @ op).distance(op) < 1e-8
        assert (op @ e_op).distance(op) < 1e-8
        assert (op @ complement).max_abs() < 1e-8


def test_unit_of_m_spans_s_complement():
    # the complement generators span a space of dimension dim S
    n, d = 3, 2
    e_op = element_operator(unit_of_M(n, d))
    complement = identity_operator(n, d) - e_op
    s_gens = np.stack([(transposed_perm_operator(p, d) @ complement).matrix
                       for p in Permutation.all(n) if p.fixes_last()])
    assert span_dimension(OperatorStack(n, d, s_gens)) == structure_report(n, d).dim_S


def test_unit_of_m_matches_q_inverse_route():
    # full-rank case: the unit restricted to one label is sum Qinv[J, I] u[J, I]
    from ptalgebra.algebra import u_element
    from ptalgebra.induced import q_matrix

    n, d = 3, 3
    ctx = AlgebraContext(n, d)
    q_inv = np.linalg.inv(q_matrix(Partition([1]), d, n))
    acc = AlgebraElement.zero(ctx)
    for jj in range(2):
        for ii in range(2):
            acc = acc + q_inv[jj, ii] * u_element(
                Partition([1]), jj + 1, ii + 1, 1, 1, ctx)
    direct = unit_of_M(n, d)
    assert element_operator(acc).distance(element_operator(direct)) < 1e-10


# -- serialization -----------------------------------------------------------------


def test_irrep_to_dict_shape():
    rep = irrep_M_e(Partition([1]), 2, 3)
    record = rep.to_dict()
    assert record["kind"] == "M" and record["dimension"] == 2
    assert set(record["images"].keys()) == {
        p.cycle_string() for p in Permutation.all(3)}
    mat = np.array(record["images"]["(13)"]).reshape(2, 2)
    assert np.abs(mat - image_of(rep, cyc(3, (1, 3)))).max() < 1e-15


@pytest.mark.parametrize("n,d", [(3, 3), (4, 3), (5, 3)])
def test_to_dict_lists_every_generator_in_order_as_its_one_row_batch(n, d):
    m_labels, s_labels = block_labels(n, d)
    reps = ([irrep_M_f(alpha, d, n) for alpha in m_labels]
            + [irrep_M_e(alpha, d, n) for alpha in m_labels
               if zero_condition(alpha, d) is None]
            + [irrep_S(nu, d, n) for nu in s_labels])
    assert {(rep.kind, rep.basis_tag) for rep in reps} == {("M", "f"), ("M", "e"), ("S", None)}
    for rep in reps:
        images = rep.to_dict()["images"]
        perms = list(Permutation.all(n))
        assert list(images) == [sigma.cycle_string() for sigma in perms]
        for sigma, flat in zip(perms, images.values()):
            assert np.array(flat).tobytes() == image_of(rep, sigma).tobytes(), (rep, sigma)


def test_irrep_json_roundtrip():
    rep = irrep_M_f(Partition([1]), 3, 3)
    record = json.loads(json.dumps(rep.to_dict()))
    assert record == rep.to_dict()
    assert (record["kind"], Partition.parse(record["label"]),
            record["dimension"]) == ("M", rep.label, 2)
    for sigma in Permutation.all(3):
        image = np.array(record["images"][sigma.cycle_string()]).reshape(2, 2)
        assert np.abs(image - image_of(rep, sigma)).max() < 1e-15
