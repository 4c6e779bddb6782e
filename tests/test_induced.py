import json

import numpy as np
import pytest

from goldens import q_n3, q_n4_id, q_n4_sgn, z_n3
from reference_z import reference_z_matrix
from ptalgebra.dpoly import DPoly
from ptalgebra.induced import (InducedRep, eigenvalues_closed_form, q_matrix,
                               q_matrix_poly, q_via_induced,
                               spectral_q, z_matrix, zero_condition)
from ptalgebra.partitions import Partition, add_box, partitions_of
from ptalgebra.permutations import Permutation, image_array
from ptalgebra.yor import irrep


def test_induced_identity_is_identity():
    rep = InducedRep(Partition([2]), 4)
    assert np.array_equal(rep.matrix(Permutation.identity(3)), np.eye(3))


def test_induced_swap_at_n3():
    rep = InducedRep(Partition([1]), 3)
    assert np.array_equal(rep.matrix(Permutation.from_cycles(2, [(1, 2)])),
                          np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_induced_is_representation():
    for alpha, n in [(Partition([1]), 3), (Partition([2]), 4),
                     (Partition([1, 1]), 4), (Partition([2, 1]), 5)]:
        rep = InducedRep(alpha, n)
        perms = list(Permutation.all(n - 1))
        for p in perms:
            mat = rep.matrix(p)
            assert np.abs(mat.T @ mat - np.eye(rep.block_dim)).max() < 1e-12
        for p in perms[:8]:
            for q in perms[:8]:
                assert np.abs(rep.matrix(p * q)
                              - rep.matrix(p) @ rep.matrix(q)).max() < 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_induced_images_are_the_block_formula(n):
    for alpha in partitions_of(n - 2):
        rep = InducedRep(alpha, n)
        for sigma in Permutation.all(n - 1):
            assert np.abs(rep.matrix(sigma) - rep.block_formula(sigma)).max() < 1e-12


@pytest.mark.parametrize("n", range(2, 8))
def test_a_batch_of_induced_images_is_the_stack_of_the_single_images(n):
    for alpha in partitions_of(n - 2):
        single = np.stack([InducedRep(alpha, n).matrix(p) for p in Permutation.all(n - 1)])
        batch = image_array(n - 1)[::-1]
        assert np.array_equal(InducedRep(alpha, n).matrix(batch), single[::-1])


@pytest.mark.parametrize("batch,row", [([[0, 0, 1]], 0), ([[0, 1, 2], [0, 1, 3]], 1)])
def test_a_malformed_batch_of_induced_images_is_refused(batch, row):
    with pytest.raises(ValueError, match=f"row {row} of the batch"):
        InducedRep(Partition([1, 1]), 4).matrix(np.array(batch))


def test_induced_characters_branch():
    # traces over S(3) equal the summed characters of the grown labels
    rep = InducedRep(Partition([2]), 4)
    for sigma in Permutation.all(3):
        total = sum(np.trace(irrep(nu).image(sigma))
                    for nu, _i, _e in add_box(Partition([2])))
        assert np.trace(rep.matrix(sigma)) == pytest.approx(total)


def test_q_golden_matrices():
    for d in (2, 3, 4, 5):
        assert np.array_equal(q_matrix(Partition([1]), d, 3), q_n3(d))
        assert np.array_equal(q_matrix(Partition([2]), d, 4), q_n4_id(d))
        assert np.array_equal(q_matrix(Partition([1, 1]), d, 4), q_n4_sgn(d))


def test_q_poly_golden():
    poly = q_matrix_poly(Partition([1]), 3)
    one, dd = DPoly([1]), DPoly.d()
    assert poly[0, 0] == dd and poly[1, 1] == dd
    assert poly[0, 1] == one and poly[1, 0] == one
    poly_sgn = q_matrix_poly(Partition([1, 1]), 4)
    assert poly_sgn[0, 1] == DPoly([-1])
    assert poly_sgn[0, 2] == one
    for d in (2, 3, 7):
        evaluated = np.array([[c(d) for c in row] for row in poly_sgn])
        assert np.array_equal(evaluated, q_matrix(Partition([1, 1]), d, 4))


def test_q_blocks_are_the_coset_word():
    # Q's (a, b) block is phi[(a m)(a b)(b m)] (times d on the diagonal),
    # read bit for bit from the cached images of phi
    for n in (3, 4, 5, 6):
        m = n - 1
        for alpha in partitions_of(n - 2):
            phi = irrep(alpha)
            w = phi.dim
            q = q_matrix(alpha, 3, n)
            for a in range(1, n):
                for b in range(1, n):
                    tau = (Permutation.transposition(m, a, m)
                           * Permutation.transposition(m, a, b)
                           * Permutation.transposition(m, b, m))
                    block = phi.image(tau.restrict(m - 1))
                    expected = 3 * block if a == b else block
                    assert np.array_equal(
                        q[(a - 1) * w:a * w, (b - 1) * w:b * w], expected)


def test_q_is_symmetric():
    for alpha in partitions_of(3):
        q = q_matrix(alpha, 2, 5)
        assert np.abs(q - q.T).max() < 1e-12


def test_q_via_induced_equals_q_matrix():
    cases = [(Partition([1]), 3), (Partition([2]), 4), (Partition([1, 1]), 4),
             (Partition([2, 1]), 5), (Partition([3]), 5), (Partition([1, 1, 1]), 5)]
    for alpha, n in cases:
        for d in (1, 2, 3, 5):
            assert np.abs(q_matrix(alpha, d, n)
                          - q_via_induced(alpha, d, n)).max() < 1e-10


def test_closed_form_eigenvalues_match_numerics():
    for weight in (0, 1, 2, 3):
        n = weight + 2
        for alpha in partitions_of(weight):
            for d in range(1, 6):
                closed = np.sort(np.concatenate([
                    np.full(mult, lam)
                    for _nu, lam, mult in eigenvalues_closed_form(alpha, d, n)]))
                numeric = np.sort(np.linalg.eigvalsh(q_matrix(alpha, d, n)))
                assert np.abs(closed - numeric).max() < 1e-8


def test_closed_form_trivial_and_sign_patterns():
    for n in (4, 5, 6):
        triv = dict((nu.parts, (lam, mult)) for nu, lam, mult in
                    eigenvalues_closed_form(Partition([n - 2]), 7, n))
        assert triv[(n - 1,)] == (7 + n - 2, 1)
        assert triv[(n - 2, 1)] == (7 - 1, n - 2)
        sign = dict((nu.parts, (lam, mult)) for nu, lam, mult in
                    eigenvalues_closed_form(Partition([1] * (n - 2)), 7, n))
        assert sign[(1,) * (n - 1)] == (7 - (n - 2), 1)
        assert sign[(2,) + (1,) * (n - 3)] == (7 + 1, n - 2)


def test_closed_form_hook_pattern():
    # alpha = (n-3, 1): eigenvalues d + n - 3, d, d - 2
    n = 6
    lams = {lam for _nu, lam, _m in
            eigenvalues_closed_form(Partition([n - 3, 1]), 4, n)}
    assert lams == {4 + n - 3, 4, 4 - 2}


def test_multiplicities_sum_to_block_dimension():
    for weight in (1, 2, 3):
        n = weight + 2
        for alpha in partitions_of(weight):
            pairs = eigenvalues_closed_form(alpha, 2, n)
            assert sum(m for _nu, _l, m in pairs) == (n - 1) * alpha.hook_dimension()


def test_trace_identity():
    # tr Q = (n-1) w d, equivalently the eigenvalue sum weighted by dims
    for alpha, n in [(Partition([2]), 4), (Partition([2, 1]), 5)]:
        for d in (2, 3):
            w = alpha.hook_dimension()
            assert np.trace(q_matrix(alpha, d, n)) == pytest.approx((n - 1) * w * d)
            weighted = sum(lam * mult for _nu, lam, mult in
                           eigenvalues_closed_form(alpha, d, n))
            assert weighted == pytest.approx((n - 1) * w * d)


def test_zero_condition():
    # column of ones: theta appears exactly at d = height
    for k in (1, 2, 3):
        alpha = Partition([1] * k)
        theta = zero_condition(alpha, k)
        assert theta == Partition([1] * (k + 1))
        assert zero_condition(alpha, k + 1) is None
    assert zero_condition(Partition([1, 1]), 2) == Partition([1, 1, 1])
    # strictly positive spectrum whenever d > weight
    for weight in (1, 2, 3):
        for alpha in partitions_of(weight):
            for d in range(weight + 1, weight + 4):
                assert zero_condition(alpha, d) is None
                lams = [l for _nu, l, _m in eigenvalues_closed_form(alpha, d, weight + 2)]
                assert min(lams) > 0


def test_z_golden_n3():
    z, labels = z_matrix(Partition([1]), 3)
    assert labels == [(Partition([2]), 1), (Partition([1, 1]), 1)]
    # published matrix differs by the recorded sign of the second column
    assert np.abs(z @ np.diag([1.0, -1.0]) - z_n3()).max() < 1e-12


def test_z_golden_n4():
    # the published matrix is complex; the basis-independent content is the
    # uniform-magnitude trivial column plus the isotypic projector split
    z, labels = z_matrix(Partition([2]), 4)
    triv_col = z[:, [nu for nu, _j in labels].index(Partition([3]))]
    assert np.abs(np.abs(triv_col) - 1 / np.sqrt(3)).max() < 1e-12
    block = z[:, [c for c, (nu, _j) in enumerate(labels) if nu == Partition([2, 1])]]
    expected = np.eye(3) - np.full((3, 3), 1 / 3)
    assert np.abs(block @ block.T - expected).max() < 1e-12


@pytest.mark.parametrize("alpha,n", [
    (Partition(()), 2), (Partition([1]), 3), (Partition([2]), 4),
    (Partition([1, 1]), 4), (Partition([3]), 5), (Partition([2, 1]), 5),
    (Partition([1, 1, 1]), 5)])
def test_z_reduces_induced_rep_and_q(alpha, n):
    rep = InducedRep(alpha, n)
    z, labels = z_matrix(alpha, n)
    assert np.abs(z.T @ z - np.eye(z.shape[0])).max() < 1e-10
    for sigma in Permutation.all(n - 1):
        reduced = z.T @ rep.matrix(sigma) @ z
        expected = np.zeros_like(reduced)
        pos = 0
        for nu, _row, _e in rep.decomposition:
            dim = nu.hook_dimension()
            expected[pos:pos + dim, pos:pos + dim] = irrep(nu).image(sigma)
            pos += dim
        assert np.abs(reduced - expected).max() < 1e-8
    for d in (1, 2, 3):
        lam = np.array([dict((nu, l) for nu, l, _m in
                             eigenvalues_closed_form(alpha, d, n))[nu]
                        for nu, _j in labels])
        assert np.abs(z.T @ q_matrix(alpha, d, n) @ z - np.diag(lam)).max() < 1e-8


def test_z_columns_are_eigenvectors():
    alpha, n, d = Partition([2, 1]), 5, 3
    q = q_matrix(alpha, d, n)
    z, labels = z_matrix(alpha, n)
    lam_of = dict((nu, l) for nu, l, _m in eigenvalues_closed_form(alpha, d, n))
    for col, (nu, _j) in enumerate(labels):
        vec = z[:, col]
        assert np.abs(q @ vec - lam_of[nu] * vec).max() < 1e-9


def test_spectral_q_record_and_roundtrip():
    record = spectral_q(Partition([1, 1]), 2, 4)
    assert record.rank == 2
    assert record.theta == Partition([1, 1, 1])
    assert record.block_dim == 3
    data = json.loads(json.dumps(record.to_dict()))
    assert data == record.to_dict()
    assert Partition.parse(data["alpha"]) == record.alpha
    assert data["rank"] == record.rank
    assert Partition.parse(data["theta"]) == record.theta
    size = record.block_dim
    assert np.abs(np.array(data["matrix"]).reshape(size, size)
                  - record.matrix).max() < 1e-15
    assert [(Partition.parse(e["nu"]), e["lambda"], e["multiplicity"])
            for e in data["eigenpairs"]] == record.eigenpairs


@pytest.mark.parametrize("alpha,n", [
    (alpha, n) for n in range(2, 7) for alpha in partitions_of(n - 2)
] + [(Partition([3, 2]), 7), (Partition([2, 2, 1]), 7)], ids=str)
def test_z_matches_the_projector_reference(alpha, n):
    z, labels = z_matrix(alpha, n)
    z_ref, labels_ref = reference_z_matrix(alpha, n)
    assert labels == labels_ref
    assert np.abs(z - z_ref).max() < 1e-12


@pytest.mark.parametrize("alpha", partitions_of(6), ids=str)
def test_z_diagonalizes_q_at_n8(alpha):
    # beyond the reference's reach: (n-1)! = 5040 terms per column
    n = 8
    z, labels = z_matrix(alpha, n)
    assert [nu for nu, j in labels if j == 1] == [nu for nu, _r, _e in add_box(alpha)]
    assert np.abs(z.T @ z - np.eye(z.shape[0])).max() < 1e-12
    for d in (2, 3):
        lam_of = dict((nu, l) for nu, l, _m in eigenvalues_closed_form(alpha, d, n))
        diag = np.array([lam_of[nu] for nu, _j in labels])
        assert np.abs(z.T @ q_matrix(alpha, d, n) @ z - np.diag(diag)).max() < 1e-10


def test_z_rejects_a_wrong_weight():
    with pytest.raises(ValueError):
        z_matrix(Partition([2]), 5)
