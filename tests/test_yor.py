from collections import Counter
from math import factorial

import numpy as np
import pytest

from ptalgebra.partitions import Partition, partitions_of
from ptalgebra.permutations import Permutation, descent_levels, image_array
from ptalgebra.yor import (SymmetricGroupIrrep, averaging_weights, descent_image,
                           irrep, multiplicity_in_V, transposition_character_frobenius)

TOL = 1e-10


def character(alpha: Partition, p: Permutation) -> float:
    return float(np.trace(irrep(alpha).image(p)))


def class_sum_scalar(alpha: Partition, members: list[Permutation]) -> float:
    """The scalar of the class sum over ``members`` in alpha, by Schur's lemma
    the class size times the trace of one member over the dimension."""
    return len(members) * character(alpha, members[0]) / alpha.hook_dimension()


@pytest.mark.parametrize("m", range(1, 6))
def test_generators_orthogonal_and_coxeter(m):
    for alpha in partitions_of(m):
        rep = irrep(alpha)
        eye = np.eye(rep.dim)
        mats = rep._adjacent
        for mat in mats:
            assert np.abs(mat.T @ mat - eye).max() < TOL
            assert np.abs(mat @ mat - eye).max() < TOL
        for k in range(len(mats) - 1):
            braid_lhs = mats[k] @ mats[k + 1] @ mats[k]
            braid_rhs = mats[k + 1] @ mats[k] @ mats[k + 1]
            assert np.abs(braid_lhs - braid_rhs).max() < TOL
        for k in range(len(mats)):
            for l in range(k + 2, len(mats)):
                assert np.abs(mats[k] @ mats[l] - mats[l] @ mats[k]).max() < TOL


def test_dimension_equals_hook_formula():
    for m in range(7):
        for alpha in partitions_of(m):
            assert SymmetricGroupIrrep(alpha).dim == alpha.hook_dimension()


@pytest.mark.parametrize("m", range(2, 6))
def test_image_multiplicative_exhaustive(m):
    """image(p*q) = image(p) @ image(q) for all pairs, every label of S(m)."""
    perms = list(Permutation.all(m))
    for alpha in partitions_of(m):
        rep = irrep(alpha)
        stack = np.stack([rep.image(p) for p in perms])
        index = {p: k for k, p in enumerate(perms)}
        products = np.einsum("aij,bjk->abik", stack, stack)
        for a, p in enumerate(perms):
            for b, q in enumerate(perms):
                expected = stack[index[p * q]]
                assert np.abs(products[a, b] - expected).max() < TOL


class _ProductSpy:
    """An adjacent image that counts the products taken with it on the right."""

    __array_ufunc__ = None  # lets ndarray @ spy fall through to __rmatmul__

    def __init__(self, mat, products):
        self.mat, self.products = mat, products

    def __rmatmul__(self, other):
        self.products.append(1)
        return other @ self.mat


def _inversions(p: Permutation) -> int:
    return sum(x > y for i, x in enumerate(p.images) for y in p.images[i + 1:])


def test_a_sparse_image_caches_only_itself():
    # the longest element of S(5) walks its own chain, ten products, and
    # leaves the irrep as it found it
    rep = SymmetricGroupIrrep(Partition([3, 2]))
    longest = Permutation(range(5, 0, -1))
    state = dict(vars(rep))
    products = []
    adjacent = [_ProductSpy(mat, products) for mat in rep._adjacent]
    image = descent_image(longest, adjacent, rep.dim)
    assert len(products) == _inversions(longest) == 10
    assert np.array_equal(image, rep.image(longest))
    assert np.array_equal(image, rep.image(image_array(5))[-1])
    assert vars(rep).keys() == state.keys()
    assert all(vars(rep)[key] is value for key, value in state.items())


@pytest.mark.parametrize("m", range(1, 6))
def test_a_traversal_in_all_order_takes_one_product_per_image(m):
    # a single image walks from the identity, one product per inversion; the
    # batch of the whole traversal takes one product per image, one level of
    # descent_levels at a time
    assert sum(len(rows) for rows, _parents, _k in descent_levels(m)) == factorial(m) - 1
    for alpha in partitions_of(m):
        rep = SymmetricGroupIrrep(alpha)
        products = []
        adjacent = [_ProductSpy(mat, products) for mat in rep._adjacent]
        batch = rep.image(image_array(m))
        for p, image in zip(Permutation.all(m), batch):
            products.clear()
            assert np.array_equal(descent_image(p, adjacent, rep.dim), image)
            assert len(products) == _inversions(p)


@pytest.mark.parametrize("m", range(7))
def test_a_batch_is_the_stack_of_the_single_images(m):
    perms = list(Permutation.all(m))
    rng = np.random.default_rng(m)
    shuffled = rng.permutation(len(perms))
    for alpha in partitions_of(m):
        single = np.stack([SymmetricGroupIrrep(alpha).image(p) for p in perms])
        rep = SymmetricGroupIrrep(alpha)
        assert np.array_equal(rep.image(image_array(m)), single)
        assert np.array_equal(rep.image(image_array(m)[shuffled]), single[shuffled])


@pytest.mark.parametrize("batch,row", [
    ([[0, 0, 1]], 0), ([[0, 1, 5]], 0), ([[0, 1, 2], [2, 1, 1]], 1),
    ([[0, 1, 2], [1, 2, 3]], 1), ([[-1, 0, 1]], 0)])
def test_a_malformed_batch_is_refused_by_its_first_bad_row(batch, row):
    with pytest.raises(ValueError, match=f"row {row} of the batch"):
        irrep(Partition([2, 1])).image(np.array(batch))


@pytest.mark.parametrize("batch", [
    np.array([0, 1, 2]), np.array([[[0, 1, 2]]]), np.array([[0.0, 1.0, 2.0]]),
    np.array([[True, False, True]])])
def test_a_batch_that_is_not_a_2d_integer_array_is_refused(batch):
    with pytest.raises(ValueError, match="2-D integer array"):
        irrep(Partition([2, 1])).image(batch)


@pytest.mark.parametrize("m", range(6))
def test_averaging_weights_are_the_images_of_the_inverses(m):
    for alpha in partitions_of(m):
        phi = irrep(alpha)
        inverse_images = np.stack([phi.image(g.inverse()) for g in Permutation.all(m)])
        expected = (phi.dim / len(inverse_images)) * inverse_images.transpose(2, 1, 0)
        assert np.array_equal(averaging_weights(alpha), expected)


def test_trivial_and_sign_representations():
    m = 4
    triv = irrep(Partition([m]))
    sign = irrep(Partition([1] * m))
    for p in Permutation.all(m):
        assert np.allclose(triv.image(p), [[1.0]])
        assert np.allclose(sign.image(p), [[p.sign()]])


def test_two_one_irrep_transposition_traces():
    # any transposition in the 2-dim block of S(3): trace 0, determinant -1
    rep = irrep(Partition([2, 1]))
    for cycle in [(1, 2), (1, 3), (2, 3)]:
        mat = rep.image(Permutation.from_cycles(3, [cycle]))
        assert abs(np.trace(mat)) < TOL
        assert abs(np.linalg.det(mat) + 1) < TOL


def test_character_of_identity_is_dimension():
    for alpha in partitions_of(4):
        assert character(alpha, Permutation.identity(4)) == pytest.approx(
            alpha.hook_dimension())


def test_character_two_one_on_transposition():
    value = character(Partition([2, 1]), Permutation.from_cycles(3, [(1, 2)]))
    assert abs(value) < TOL


@pytest.mark.parametrize("m", range(2, 7))
def test_frobenius_formula_matches_trace(m):
    swap = Permutation.transposition(m, 1, 2)
    for alpha in partitions_of(m):
        assert transposition_character_frobenius(alpha) == pytest.approx(
            character(alpha, swap), abs=TOL)


def test_frobenius_formula_extremes():
    assert transposition_character_frobenius(Partition([5])) == pytest.approx(1.0)
    assert transposition_character_frobenius(Partition([1] * 5)) == pytest.approx(-1.0)
    assert transposition_character_frobenius(Partition([2, 1])) == pytest.approx(0.0)


def test_frobenius_needs_weight_two():
    with pytest.raises(ValueError):
        transposition_character_frobenius(Partition([1]))


@pytest.mark.parametrize("m", [3, 4])
def test_class_sum_scalar_against_explicit_sum(m):
    """Summing images over a full conjugacy class must give scalar * identity."""
    classes: dict[tuple, list[Permutation]] = {}
    for p in Permutation.all(m):
        classes.setdefault(p.cycle_type(), []).append(p)
    for alpha in partitions_of(m):
        rep = irrep(alpha)
        for members in classes.values():
            total = sum(rep.image(p) for p in members)
            scalar = class_sum_scalar(alpha, members)
            assert np.abs(total - scalar * np.eye(rep.dim)).max() < 1e-9


def test_class_sum_scalar_examples():
    assert class_sum_scalar(
        Partition([2, 1]), [Permutation.identity(3)]) == pytest.approx(1.0)
    # three-cycles in S(3) acting in the 2-dim block: 2 * (-1) / 2 = -1
    three_cycles = [Permutation.from_cycles(3, [c]) for c in [(1, 2, 3), (1, 3, 2)]]
    assert class_sum_scalar(Partition([2, 1]), three_cycles) == pytest.approx(-1.0)
    # transpositions: (m(m-1)/2) chi(12) / dim, chi(12) by Frobenius
    swaps = [Permutation.transposition(4, x, y) for x in range(1, 5) for y in range(x + 1, 5)]
    for alpha in partitions_of(4):
        expected = 6 * transposition_character_frobenius(alpha) / alpha.hook_dimension()
        assert class_sum_scalar(alpha, swaps) == pytest.approx(expected)


def test_multiplicity_symmetric_and_antisymmetric():
    # oracle: the (anti)symmetrizer trace on two qubits
    d = 2
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    sym_dim = round(np.trace((np.eye(d * d) + swap) / 2))
    antisym_dim = round(np.trace((np.eye(d * d) - swap) / 2))
    assert multiplicity_in_V(Partition([2]), 2) == sym_dim == 3
    assert multiplicity_in_V(Partition([1, 1]), 2) == antisym_dim == 1


def test_multiplicity_vanishes_iff_too_tall():
    assert multiplicity_in_V(Partition([1, 1, 1]), 2) == 0
    for m in range(1, 6):
        for alpha in partitions_of(m):
            for d in (1, 2, 3):
                mult = multiplicity_in_V(alpha, d)
                assert (mult == 0) == (d < alpha.height)


@pytest.mark.parametrize("m", range(8))
def test_multiplicity_is_the_character_sum(m):
    # reference: (1/m!) sum_sigma chi(sigma^-1) d^cycles(sigma), one class
    # at a time, since chi(sigma^-1) = chi(sigma) and the cycle count
    # depend on the cycle type alone
    classes = Counter(p.cycle_type() for p in Permutation.all(m))
    reps = {p.cycle_type(): p for p in Permutation.all(m)}
    for alpha in partitions_of(m):
        for d in range(1, 9):
            value = sum(count * character(alpha, reps[key]) * d ** reps[key].cycle_count()
                        for key, count in classes.items()) / factorial(m)
            assert abs(value - round(value)) < 1e-9, (alpha, d, value)
            assert multiplicity_in_V(alpha, d) == round(value), (alpha, d)


@pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_multiplicities_sum_to_tensor_dimension(m, d):
    total = sum(alpha.hook_dimension() * multiplicity_in_V(alpha, d)
                for alpha in partitions_of(m))
    assert total == d**m


@pytest.mark.parametrize("m", [2, 3, 4])
def test_orthogonality_relations(m):
    """(1/m!) sum_sigma phi^a_ij(s^-1) phi^b_kl(s) = delta delta_il delta_jk / dim."""
    perms = list(Permutation.all(m))
    labels = partitions_of(m)
    images = {alpha: {p: irrep(alpha).image(p) for p in perms} for alpha in labels}
    for alpha in labels:
        wa = alpha.hook_dimension()
        for beta in labels:
            wb = beta.hook_dimension()
            for i in range(wa):
                for j in range(wa):
                    for k in range(wb):
                        for l in range(wb):
                            acc = sum(
                                images[alpha][p.inverse()][i, j] * images[beta][p][k, l]
                                for p in perms) / factorial(m)
                            expected = 0.0
                            if alpha == beta and i == l and j == k:
                                expected = 1.0 / wa
                            assert abs(acc - expected) < TOL
