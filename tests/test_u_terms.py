"""The array form of the u terms against the one-permutation-at-a-time
reference: ``u_element``, the u stacks of the checks and the unit of M."""

import itertools

import numpy as np
import pytest

from reference_u import reference_u_element, reference_unit_of_M
from ptalgebra import checks
from ptalgebra.algebra import AlgebraContext, u_element, u_terms
from ptalgebra.irreps import unit_of_M
from ptalgebra.oracle import element_stack
from ptalgebra.partitions import Partition, partitions_of
from ptalgebra.permutations import Permutation, image_array, lehmer_rank


def _labels(alpha: Partition, n: int):
    w = alpha.hook_dimension()
    return itertools.product(range(1, n), range(1, n), range(1, w + 1), range(1, w + 1))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_u_element_matches_the_reference(n):
    ctx = AlgebraContext(n, 2)
    for alpha in partitions_of(n - 2):
        for label in _labels(alpha, n):
            u = u_element(alpha, *label, ctx)
            expected = reference_u_element(alpha, *label, ctx)
            assert list(u.terms) == list(expected.terms), (alpha, label)
            for perm, coeff in u.terms.items():
                assert abs(coeff - expected.terms[perm]) <= 1e-15, (alpha, label)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_u_images_are_the_permutations_moving_n_once_each(n):
    images, weights = u_terms(Partition([n - 2]), n)
    assert images.shape == (n - 1, n - 1, len(image_array(n - 2)), n)
    assert weights.shape == (1, 1, len(image_array(n - 2)))
    ranks = lehmer_rank(images)
    moving = np.flatnonzero(image_array(n)[:, -1] != n - 1)
    assert sorted(ranks.ravel().tolist()) == moving.tolist()
    for a, b in itertools.product(range(n - 1), repeat=2):
        for row in images[a, b]:
            assert Permutation((row + 1).tolist()).classify() == (b + 1, a + 1)


def test_u_element_keeps_its_label_checks():
    ctx, alpha = AlgebraContext(4, 2), Partition([1, 1])
    with pytest.raises(ValueError, match="labels a, b must lie in 1..n-1"):
        u_element(alpha, 4, 1, 1, 1, ctx)
    with pytest.raises(ValueError, match="matrix indices outside the representation"):
        u_element(alpha, 1, 1, 1, 2, ctx)
    with pytest.raises(ValueError, match="alpha must have weight 2"):
        u_element(Partition([1]), 1, 1, 1, 1, ctx)


@pytest.mark.parametrize("n,d", list(itertools.product([3, 4, 5, 6], [1, 2, 3, 4])))
def test_unit_of_m_matches_the_reference(n, d):
    unit, expected = unit_of_M(n, d), reference_unit_of_M(n, d)
    assert set(unit.terms) == set(expected.terms)
    for perm, coeff in unit.terms.items():
        assert abs(coeff - expected.terms[perm]) <= 1e-14, perm


def test_unit_of_m_at_n7_has_every_transposed_term():
    assert len(unit_of_M(7, 2).terms) == 4320


@pytest.mark.parametrize("n,d", [(5, 2), (3, 5)])
def test_u_stack_matches_the_element_images(n, d):
    # generators with up to two ones in a row at (5, 2), and five at (3, 5)
    ctx = AlgebraContext(n, d)
    for alpha in partitions_of(n - 2):
        stack, w = checks._u_stack(alpha, ctx, None), alpha.hook_dimension()
        # x order: u^ab_ij at block ((a-1) w + i-1) (n-1) w + (b-1) w + j-1
        labels = [(a, b, i, j) for a, i, b, j in itertools.product(
            range(1, n), range(1, w + 1), range(1, n), range(1, w + 1))]
        expected = element_stack([u_element(alpha, *label, ctx) for label in labels])
        assert stack.residuals(expected).max() <= 1e-15, alpha


def test_the_per_label_memos_are_bounded_and_hand_out_read_only_arrays():
    # Q(alpha) at d, Z(alpha) and the u terms are built once per label and
    # shared: every caller gets the same arrays, which none can write
    import ptalgebra.algebra as algebra
    import ptalgebra.induced as induced
    from ptalgebra.partitions import LABEL_MEMO_SIZE

    n, d, alpha = 5, 2, Partition([2, 1])
    for memo in (induced.q_matrix, induced._reducing_matrix, algebra.u_terms,
                 algebra._u_images):
        assert memo.cache_info().maxsize == LABEL_MEMO_SIZE
    q = induced.q_matrix(alpha, d, n)
    (z, labels), (images, weights) = induced.z_matrix(alpha, n), u_terms(alpha, n)
    assert q is induced.q_matrix(alpha, d, n) and z is induced.z_matrix(alpha, n)[0]
    assert images is u_terms(Partition([3]), n)[0]  # one array per n
    assert weights is u_terms(alpha, n)[1]
    for array in (q, z, images, weights):
        assert not array.flags.writeable
    labels.clear()  # the labels are the caller's own list
    assert len(induced.z_matrix(alpha, n)[1]) == len(z)
