"""OperatorStack: every batched operation equals the per-pair TensorOp one.

The operands have small integer entries, so both routes are exact and the
comparisons are entry by entry, on the dense side (5, 2) and on the CSR
side (3, 5) and (4, 4).  The arithmetic does not depend on the basis, so
the cached families are built on the whole space here (``whole_space``),
where those sizes reach the CSR storage.
"""

import numpy as np
import pytest

from ptalgebra.algebra import AlgebraContext, AlgebraElement
from ptalgebra.oracle import (DENSE_MAX_DIM, OperatorStack, SizeCapError,
                              element_operator, element_stack,
                              generator_stack, matrix_operators_E, perm_operator,
                              transposed_perm_operator, zero_operator)
from ptalgebra.partitions import partitions_of
from ptalgebra.permutations import Permutation
from ptalgebra.yor import SymmetricGroupIrrep
from whole_space import whole_space

SIZES = [(5, 2), (3, 5), (4, 4)]


@pytest.fixture(autouse=True)
def _on_the_whole_space():
    with whole_space():
        yield


def _integer_element(n, d, seed):
    """An element with small integer coefficients on five generators."""
    rng = np.random.default_rng(seed)
    perms = list(Permutation.all(n))
    ctx = AlgebraContext(n, d)
    terms = {perms[rng.integers(len(perms))]: float(rng.integers(-3, 4))
             for _ in range(5)}
    return AlgebraElement(ctx, terms)


def _integer_operator(n, d, seed):
    """The oracle image of ``_integer_element``."""
    return element_operator(_integer_element(n, d, seed))


def _combination(ops, index, weights):
    """sum_t weights[j, t] ops[index[j, t]] for every j, one TensorOp at a time."""
    index = np.broadcast_to(index, weights.shape)
    out = []
    for row_index, row_weights in zip(index, weights):
        acc = zero_operator(ops[0].n, ops[0].d)
        for k, weight in zip(row_index.tolist(), row_weights.tolist()):
            acc = acc + weight * ops[k]
        out.append(acc)
    return out


def _assert_blocks(stack, ops):
    assert len(stack) == len(ops)
    for k, op in enumerate(ops):
        assert np.array_equal(stack.op(k).dense(), op.dense()), k


@pytest.mark.parametrize("n,d", SIZES)
@pytest.mark.parametrize("transposed", [False, True])
def test_generator_stack_is_the_generator_family(n, d, transposed):
    build = transposed_perm_operator if transposed else perm_operator
    perms = list(Permutation.all(n))
    family = generator_stack(n, d, transposed)
    dense = d**n <= DENSE_MAX_DIM
    assert isinstance(family.data, np.ndarray) == dense
    _assert_blocks(family, [build(p, d) for p in perms])
    assert generator_stack(n, d, transposed) is family
    if dense:
        assert not family.data.flags.writeable


def test_generator_stack_checks_the_cap():
    with pytest.raises(SizeCapError, match="cap 4"):
        generator_stack(3, 2, cap=4)
    with pytest.raises(ValueError, match="d must be"):
        generator_stack(3, 0)


@pytest.mark.parametrize("n,d", SIZES)
def test_products_match_per_pair(n, d):
    ops = [transposed_perm_operator(p, d) for p in Permutation.all(n)]
    family = generator_stack(n, d, transposed=True)
    a = _integer_operator(n, d, seed=n + d)
    _assert_blocks(family.right_mul(a), [op @ a for op in ops])


@pytest.mark.parametrize("n,d", SIZES)
def test_combinations_match_per_pair(n, d):
    ops = [perm_operator(p, d) for p in Permutation.all(n)]
    family = generator_stack(n, d)
    rng = np.random.default_rng(7)
    count = len(ops)
    # per-row index: a gather-and-scale, then three terms per row
    for terms in (1, 3):
        index = rng.integers(count, size=(9, terms))
        weights = rng.integers(-4, 5, size=(9, terms)).astype(float)
        _assert_blocks(family.combine(index, weights),
                       _combination(ops, index, weights))
    # shared index: a dense coefficient matrix over some of the blocks, one
    # of them listed twice
    index = np.array([2, 0, count - 1, 2])
    weights = rng.integers(-4, 5, size=(4, 4)).astype(float)
    _assert_blocks(family.combine(index, weights),
                   _combination(ops, index, weights))


@pytest.mark.parametrize("n,d", SIZES)
def test_element_images_are_their_term_by_term_sums(n, d):
    # float coefficients, so the order of the additions shows in the last
    # bits: each image is its generators scaled and added in dict order
    rng = np.random.default_rng(11)
    perms = list(Permutation.all(n))
    ctx = AlgebraContext(n, d)
    elems = [AlgebraElement(ctx, {perms[k]: float(rng.standard_normal())
                                  for k in rng.choice(len(perms), size=terms,
                                                      replace=False)})
             for terms in (1, 4, 2, 5)]
    expected = []
    for elem in elems:
        acc = zero_operator(n, d)
        for perm, coeff in elem.terms.items():
            acc = acc + coeff * transposed_perm_operator(perm, d)
        expected.append(acc)
    _assert_blocks(element_stack(elems), expected)


@pytest.mark.parametrize("n,d", SIZES)
def test_residuals_and_gram_match_per_pair(n, d):
    ops = [transposed_perm_operator(p, d) for p in Permutation.all(n)]
    family = generator_stack(n, d, transposed=True)
    a = _integer_operator(n, d, seed=3)
    product = family.right_mul(a)
    expected = [(op @ a).distance(op) for op in ops]
    assert np.array_equal(product.residuals(family), expected)
    assert np.array_equal(product.residuals(), [(op @ a).max_abs() for op in ops])
    gram = np.array([[(x.adjoint() @ y).trace() for y in ops] for x in ops])
    assert np.array_equal(family.gram(), gram)


@pytest.mark.parametrize("n,d", SIZES)
def test_adjoint_matches_per_pair(n, d):
    # W(sigma) A is not symmetric, so each block must be transposed in place
    a = _integer_operator(n, d, seed=5)
    ops = [perm_operator(p, d) @ a for p in Permutation.all(n)]
    _assert_blocks(generator_stack(n, d).right_mul(a).adjoint(),
                   [op.adjoint() for op in ops])


@pytest.mark.parametrize("n,d", SIZES)
def test_action_residuals_match_per_pair(n, d):
    perms = list(Permutation.all(n))
    ops = [transposed_perm_operator(p, d) for p in perms]
    family = generator_stack(n, d, transposed=True)
    left = element_stack([_integer_element(n, d, seed) for seed in range(3)])
    lefts = [left.op(r) for r in range(len(left))]
    rng = np.random.default_rng(11)
    index = rng.integers(len(ops), size=(len(lefts), len(ops), 2))
    weights = rng.integers(-2, 3, size=(len(lefts), len(ops), 2)).astype(float)
    # per-row claims, and one claim shared by every row, which broadcasts
    for row_index, row_weights in ((index, weights), (index[0], weights[0])):
        residuals = family.action_residuals(left, row_index, row_weights)
        assert residuals.shape == (len(lefts), len(ops))
        row_index = np.broadcast_to(row_index, index.shape)
        row_weights = np.broadcast_to(row_weights, weights.shape)
        for r, a in enumerate(lefts):
            claimed = _combination(ops, row_index[r], row_weights[r])
            expected = [(a @ op).distance(c) for op, c in zip(ops, claimed)]
            assert np.array_equal(residuals[r], expected)


@pytest.mark.parametrize("n,d", [(3, 5), (4, 4)])
def test_action_residuals_in_chunks_of_blocks_match_one_product(monkeypatch, n, d):
    # on the CSR side a product holds PRODUCT_CHUNK_ENTRIES / D^2 blocks:
    # here 5 of them, so the last chunk is short at n! = 6 and 24
    import ptalgebra.oracle as oracle

    family = generator_stack(n, d, transposed=True)
    assert not isinstance(family.data, np.ndarray)
    left = element_stack([_integer_element(n, d, seed) for seed in range(2)])
    rng = np.random.default_rng(3)
    index = rng.integers(len(family), size=(2, len(family), 2))
    weights = rng.integers(-2, 3, size=(2, len(family), 2)).astype(float)
    whole = family.action_residuals(left, index, weights)
    monkeypatch.setattr(oracle, "PRODUCT_CHUNK_ENTRIES", 5 * family.dim**2)
    assert np.array_equal(family.action_residuals(left, index, weights), whole)


def test_action_residuals_of_a_full_csr_stack_multiply_dense(monkeypatch):
    # a CSR block row that stores a quarter of its entries or more takes the
    # dense route; on integer entries its residuals are the per-pair ones
    import scipy.sparse as sp

    rng = np.random.default_rng(5)
    count, dim = 6, DENSE_MAX_DIM + 6
    blocks = rng.integers(-2, 3, size=(count, dim, dim)).astype(float)
    blocks[:, :, ::2] = 0

    def block_row(b):
        return sp.csr_matrix(b.transpose(1, 0, 2).reshape(dim, -1))

    stack, left = OperatorStack(4, 3, block_row(blocks)), OperatorStack(4, 3, block_row(blocks[:2]))
    index = rng.integers(count, size=(2, count, 2))
    weights = rng.integers(-2, 3, size=(2, count, 2)).astype(float)
    dense_calls = []
    real = OperatorStack._blocks
    monkeypatch.setattr(OperatorStack, "_blocks",
                        lambda self: dense_calls.append(1) or real(self))
    expected = [[np.abs(blocks[r] @ blocks[k]
                        - np.tensordot(weights[r, k], blocks[index[r, k]], axes=1)).max()
                 for k in range(count)] for r in range(2)]
    assert np.array_equal(stack.action_residuals(left, index, weights), expected)
    assert len(dense_calls) == 2


@pytest.mark.parametrize("n,d", SIZES)
def test_of_and_concat_keep_the_order(n, d):
    # stacks made of the first two and of the remaining generators, from
    # their storage: (K, D, D) on the dense side, the block row above it
    ops = [transposed_perm_operator(p, d) for p in Permutation.all(n)]
    data, cut = generator_stack(n, d, transposed=True).data, 2 * d**n
    if isinstance(data, np.ndarray):
        first, rest = data[:2], data[2:]
    else:
        first, rest = data[:, :cut], data[:, cut:]
    parts = [OperatorStack(n, d, first), OperatorStack(n, d, rest)]
    assert [len(part) for part in parts] == [2, len(ops) - 2]
    _assert_blocks(OperatorStack.concat(parts), ops)


@pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (3, 5)])
def test_E_on_a_stack_matches_the_definition(n, d):
    # E_ij = (w/|G|) sum_g phi_ji(g^-1) D(g), summed one TensorOp at a time
    group = list(Permutation.all(n))
    images = [perm_operator(g, d) for g in group]
    for alpha in partitions_of(n):
        phi = SymmetricGroupIrrep(alpha)
        family = matrix_operators_E(generator_stack(n, d), alpha)
        assert len(family) == phi.dim**2
        for k in range(phi.dim**2):
            i, j = divmod(k, phi.dim)
            acc = zero_operator(n, d)
            for g, image in zip(group, images):
                acc = acc + (phi.dim / len(group)
                             * phi.image(g.inverse())[j, i]) * image
            assert family.op(k).distance(acc) < 1e-14
