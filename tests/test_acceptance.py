"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

import goldens
from reference_irreps import image_of
from ptalgebra.algebra import mul_generators
from ptalgebra.checks import (check_matrix_operators,
                              check_reduced_matrix_units)
from ptalgebra.cli import main
from ptalgebra.dpoly import DPoly
from ptalgebra.induced import (InducedRep, eigenvalues_closed_form, q_matrix,
                               q_matrix_poly, z_matrix, zero_condition)
from ptalgebra.irreps import (algebra_dimension_formula, all_irreps,
                              irrep_M_e, irrep_M_f, rank_of_q, unit_of_M)
from ptalgebra.oracle import (element_operator, generator_stack,
                              identity_operator, sector, span_dimension,
                              transposed_perm_operator)
from ptalgebra.partitions import Partition, partitions_of
from ptalgebra.permutations import Permutation
from ptalgebra.yor import irrep as sym_irrep


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def _perm_of(code):
    if not code:
        return Permutation.identity(3)
    return Permutation.from_cycles(3, [tuple(int(c) for c in code)])


def test_criterion_1_multiplication_table():
    with criterion(1, "symbolic 6x6 product table"):
        start = time.perf_counter()
        table = json.loads(CliRunner().invoke(
            main, ["mul-table", "--n", "3", "--symbolic", "--format", "json"]).output)
        order = [Permutation.parse(s) for s in table["order"]]
        cells = {}
        for i, sigma in enumerate(order):
            for j, rho in enumerate(order):
                cell = table["entries"][i][j]
                cells[(sigma, rho)] = (DPoly(cell["coeff"]),
                                       Permutation.parse(cell["perm"]))
        assert len(cells) == 36
        for (row, col), (power, res) in goldens.TABLE_N3.items():
            coeff, perm = cells[(_perm_of(row), _perm_of(col))]
            assert coeff == DPoly.d() ** power      # exact polynomial equality
            assert perm == _perm_of(res)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_q_matrix_goldens():
    with criterion(2, "Q goldens and closed-form spectra"):
        one, dd = DPoly([1]), DPoly.d()

        def poly_matrix(rows):
            return np.array([[{1: one, -1: -one, "d": dd}[x] for x in row]
                             for row in rows], dtype=object)

        expected_n3 = poly_matrix([["d", 1], [1, "d"]])
        assert np.array_equal(q_matrix_poly(Partition([1]), 3), expected_n3)
        expected_id = poly_matrix([["d", 1, 1], [1, "d", 1], [1, 1, "d"]])
        assert np.array_equal(q_matrix_poly(Partition([2]), 4), expected_id)
        expected_sgn = poly_matrix([["d", -1, 1], [-1, "d", 1], [1, 1, "d"]])
        assert np.array_equal(q_matrix_poly(Partition([1, 1]), 4), expected_sgn)

        for alpha, n in [(Partition([1]), 3), (Partition([2]), 4),
                         (Partition([1, 1]), 4)]:
            for d in (2, 3, 4, 5):
                closed = np.sort(np.concatenate([
                    np.full(mult, lam) for _nu, lam, mult in
                    eigenvalues_closed_form(alpha, d, n)]))
                numeric = np.sort(np.linalg.eigvalsh(q_matrix(alpha, d, n)))
                assert np.abs(closed - numeric).max() < 1e-8


def test_criterion_3_irrep_goldens():
    with criterion(3, "published irrep matrices"):
        for d in (2, 3, 4):
            # n = 3 reduced basis, entrywise through the recorded sign adapter
            rep_f = irrep_M_f(Partition([1]), d, 3)
            adapter = goldens.SIGN_ADAPTER_N3
            for code, expected in goldens.mf_n3(d).items():
                ours = adapter @ image_of(rep_f, _perm_of(code)) @ adapter
                assert np.abs(ours - expected).max() < 1e-9
            assert np.abs(image_of(rep_f, _perm_of("12"))
                          - np.diag([1.0, -1.0])).max() < 1e-9

            # n = 3 averaged basis, entrywise through the recorded reversal
            rep_e = irrep_M_e(Partition([1]), d, 3)
            flip = goldens.REVERSAL_ADAPTER_N3
            for code, expected in goldens.phi_n3(d).items():
                ours = flip @ image_of(rep_e, _perm_of(code)) @ flip
                assert np.abs(ours - expected).max() < 1e-9

            # n = 3 semi-trivial blocks
            from ptalgebra.irreps import irrep_S
            triv = irrep_S(Partition([2]), max(d, 2), 3)
            for p in Permutation.all(3):
                expected = 1.0 if p.fixes_last() else 0.0
                assert image_of(triv, p)[0, 0] == pytest.approx(expected, abs=1e-12)
            if d >= 3:
                sign = irrep_S(Partition([1, 1]), d, 3)
                for p in Permutation.all(3):
                    expected = p.restrict(2).sign() if p.fixes_last() else 0.0
                    assert image_of(sign, p)[0, 0] == pytest.approx(expected,
                                                                    abs=1e-12)

            # n = 4 averaged basis, entrywise with no adapter
            rep4 = irrep_M_e(Partition([2]), d, 4)
            for code, expected in goldens.me_n4_id(d).items():
                ours = image_of(rep4, Permutation.parse(f"({code})", 4))
                assert np.abs(ours - expected).max() < 1e-9
            if d >= 3:
                rep4s = irrep_M_e(Partition([1, 1]), d, 4)
                for code, expected in goldens.me_n4_sgn(d).items():
                    ours = image_of(rep4s, Permutation.parse(f"({code})", 4))
                    assert np.abs(ours - expected).max() < 1e-9

            # n = 4 diagonal sqrt-eigenvalue factors, recorded column order
            for alpha, published, order in [
                    (Partition([2]), goldens.d_n4_id,
                     goldens.D_N4_ID_COLUMN_ORDER),
                    (Partition([1, 1]), goldens.d_n4_sgn,
                     goldens.D_N4_SGN_COLUMN_ORDER)]:
                lams = []
                for nu, lam, mult in eigenvalues_closed_form(alpha, d, 4):
                    lams.extend([lam] * mult)
                ours = np.diag([np.sqrt(lams[k]) for k in order])
                assert np.abs(ours - published(d)).max() < 1e-9

            # n = 4 reduced basis in the published complex form: equivalence
            # through the documented adapter data (traces, spectra, pairwise
            # product traces)
            published_pairs = [(Partition([2]), goldens.mf_n4_id(d))]
            if d >= 3:
                published_pairs.append((Partition([1, 1]), goldens.mf_n4_sgn(d)))
            else:
                published_pairs.append((Partition([1, 1]),
                                        goldens.mf_n4_sgn_d2()))
            for alpha, published in published_pairs:
                rep = irrep_M_f(alpha, d, 4)
                ours = {code: image_of(rep, Permutation.parse(f"({code})", 4))
                        for code in published}
                for code, theirs in published.items():
                    assert np.trace(ours[code]) == pytest.approx(
                        np.trace(theirs).real, abs=1e-9)
                    spec_ours = np.sort(np.linalg.eigvals(ours[code]).real)
                    spec_theirs = np.sort(np.linalg.eigvals(theirs).real)
                    assert np.abs(spec_ours - spec_theirs).max() < 1e-9
                for code_a, mat_a in published.items():
                    for code_b, mat_b in published.items():
                        assert np.trace(ours[code_a] @ ours[code_b]) == \
                            pytest.approx(np.trace(mat_a @ mat_b).real,
                                          abs=1e-9)


def test_criterion_4_homomorphism_suite():
    with criterion(4, "generator-pair homomorphism suite"):
        start = time.perf_counter()
        for n in (3, 4):
            perms = list(Permutation.all(n))
            pairs = [(s, r, *mul_generators(s, r)) for s in perms for r in perms]
            for d in (2, 3, 4):
                for rep in all_irreps(n, d):
                    image = {sigma: image_of(rep, sigma) for sigma in perms}
                    for sigma, rho, power, result in pairs:
                        residual = np.abs(image[sigma] @ image[rho]
                                          - (d**power) * image[result]).max()
                        assert residual < 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_5_dimension_identities():
    with criterion(5, "dimension identities and span anchors"):
        for n in range(2, 7):
            for d in range(1, 7):
                m_total = sum(
                    rank_of_q(alpha, d, n) ** 2
                    for alpha in partitions_of(n - 2) if alpha.height <= d)
                s_total = sum(
                    nu.hook_dimension() ** 2
                    for nu in partitions_of(n - 1) if nu.height < d)
                assert m_total + s_total == algebra_dimension_formula(n, d)
        anchors = {(3, 2): 5, (3, 3): 6, (4, 2): 14, (4, 3): 23, (4, 4): 24}
        for (n, d), expected in anchors.items():
            family = generator_stack(n, d, transposed=True)
            assert span_dimension(family) == expected
            assert algebra_dimension_formula(n, d) == expected


def test_criterion_6_rank_deficient_block():
    with criterion(6, "rank-deficient block at n=4, d=2"):
        alpha, d, n = Partition([1, 1]), 2, 4
        assert zero_condition(alpha, d) == Partition([1, 1, 1])
        assert rank_of_q(alpha, d, n) == 2
        rep = irrep_M_f(alpha, d, n)
        assert rep.dimension == 2
        perms = list(Permutation.all(n))
        image = {sigma: image_of(rep, sigma) for sigma in perms}
        for sigma in perms:
            for rho in perms:
                power, result = mul_generators(sigma, rho)
                assert np.abs(image[sigma] @ image[rho]
                              - (d**power) * image[result]).max() < 1e-8


def test_criterion_7_appendix_suites():
    with criterion(7, "averaged operators, matrix units, reduction residuals"):
        for n in (3, 4):
            for d in (1, 2, 3):
                report = check_matrix_operators(n, d)
                assert report.passed and report.max_residual < 1e-9, report
                report = check_reduced_matrix_units(n, d)
                assert report.passed and report.max_residual < 1e-8, report
        for weight in (0, 1, 2, 3):
            n = weight + 2
            for alpha in partitions_of(weight):
                rep = InducedRep(alpha, n)
                z, labels = z_matrix(alpha, n)
                for sigma in Permutation.all(n - 1):
                    reduced = z.T @ rep.matrix(sigma) @ z
                    expected = np.zeros_like(reduced)
                    pos = 0
                    for nu, _row, _e in rep.decomposition:
                        dim = nu.hook_dimension()
                        expected[pos:pos + dim, pos:pos + dim] = \
                            sym_irrep(nu).image(sigma)
                        pos += dim
                    assert np.abs(reduced - expected).max() < 1e-8
                for d in range(1, 6):
                    lam_of = dict((nu, lam) for nu, lam, _m in
                                  eigenvalues_closed_form(alpha, d, n))
                    diag = np.diag([lam_of[nu] for nu, _j in labels])
                    assert np.abs(z.T @ q_matrix(alpha, d, n) @ z
                                  - diag).max() < 1e-8


def test_criterion_8_unit_idempotent():
    with criterion(8, "unit idempotent of the main ideal"):
        for n, d in [(3, 2), (3, 3), (4, 2)]:
            e_op = element_operator(unit_of_M(n, d))
            assert (e_op @ e_op).distance(e_op) < 1e-8
            basis = sector(n, d, True)  # the faithful sector of element images
            complement = identity_operator(n, d, basis=basis) - e_op
            s_gens = []
            for sigma in Permutation.all(n):
                op = transposed_perm_operator(sigma, d, basis=basis)
                if sigma.fixes_last():
                    s_gens.append(op @ complement)
                    continue
                assert (e_op @ op).distance(op) < 1e-8
                assert (op @ e_op).distance(op) < 1e-8
            for sigma in Permutation.all(n):
                if sigma.fixes_last():
                    continue
                m_op = transposed_perm_operator(sigma, d, basis=basis)
                for s_gen in s_gens:
                    assert (m_op @ s_gen).max_abs() < 1e-8
