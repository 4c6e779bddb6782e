"""The array form of the composition law against the pair-by-pair reference."""

import numpy as np
import pytest

from reference_law import reference_mul_generators
from ptalgebra.algebra import law_rows, mul_generators
from ptalgebra.permutations import Permutation, image_array, lehmer_rank


def _as_perms(images: np.ndarray) -> list[Permutation]:
    return [Permutation(row) for row in (images + 1).tolist()]


def _assert_matches_reference(sigmas, rhos, powers, products):
    expected = [reference_mul_generators(s, r) for s, r in zip(sigmas, rhos)]
    assert powers.tolist() == [power for power, _ in expected]
    assert _as_perms(products) == [result for _, result in expected]


@pytest.mark.parametrize("m", range(8))
def test_image_array_and_rank_follow_permutation_all(m):
    images = image_array(m)
    assert _as_perms(images) == list(Permutation.all(m))
    assert lehmer_rank(images).tolist() == list(range(len(images)))
    assert not images.flags.writeable


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_pair_matches_the_reference(n):
    perms = list(Permutation.all(n))
    images = image_array(n)
    powers, products = mul_generators(images[:, None, :], images[None, :, :])
    assert powers.shape == (len(perms), len(perms))
    for s, sigma in enumerate(perms):
        _assert_matches_reference([sigma] * len(perms), perms,
                                  powers[s], products[s])
        row_powers, row_products = mul_generators(images[s], images)
        assert np.array_equal(row_powers, powers[s])
        assert np.array_equal(row_products, products[s])
        for rho in perms:
            assert mul_generators(sigma, rho) == reference_mul_generators(sigma, rho)


@pytest.mark.parametrize("n, seed", [(6, 6), (7, 7)])
def test_random_pairs_match_the_reference(n, seed):
    rng = np.random.default_rng(seed)
    points = np.tile(np.arange(n), (20_000, 1))
    left, right = rng.permuted(points, axis=1), rng.permuted(points, axis=1)
    sigmas, rhos = _as_perms(left), _as_perms(right)
    powers, products = mul_generators(left, right)
    _assert_matches_reference(sigmas, rhos, powers, products)
    assert [mul_generators(s, r) for s, r in zip(sigmas, rhos)] == [
        reference_mul_generators(s, r) for s, r in zip(sigmas, rhos)]
    # both kinds of pair are well represented
    assert 0 < powers.sum() < len(powers)


@pytest.mark.parametrize("n", range(2, 7))
def test_law_rows_match_the_pair_law_and_the_reference_on_every_pair(n):
    perms = list(Permutation.all(n))
    images = image_array(n)
    powers, positions = law_rows(n, np.arange(len(perms)))
    assert powers.shape == positions.shape == (len(perms), len(perms))
    pair_powers, products = mul_generators(images[:, None], images)
    assert np.array_equal(powers, pair_powers)
    assert np.array_equal(positions, lehmer_rank(products))
    expected = [reference_mul_generators(s, r) for s in perms for r in perms]
    assert powers.ravel().tolist() == [power for power, _ in expected]
    assert [perms[k] for k in positions.ravel().tolist()] == [tau for _, tau in expected]


@pytest.mark.parametrize("n, seed", [(7, 7), (8, 8)])
def test_law_rows_match_the_pair_law_on_sampled_rows(n, seed):
    images = image_array(n)
    rows = np.append(np.random.default_rng(seed).integers(len(images), size=5),
                     [0, len(images) - 1])
    powers, positions = law_rows(n, rows)
    pair_powers, products = mul_generators(images[rows][:, None], images)
    assert np.array_equal(powers, pair_powers)
    assert np.array_equal(positions, lehmer_rank(products))
    assert 0 < powers.sum() < powers.size


def test_law_rows_refuse_codes_beyond_float64_integers():
    # 17^16 > 2^53: refused before any S(17) array is built
    with pytest.raises(AssertionError, match="exceed float64"):
        law_rows(17, [0])


def test_array_degree_mismatch():
    with pytest.raises(ValueError):
        mul_generators(image_array(3), image_array(4))
