"""Families of operators: every batched operation equals the per-pair TensorOp one.

The generator families are index lists (``GeneratorIndex``) and every
combination of them a dense ``OperatorStack``.  The operands have small
integer entries, so both routes are exact and the comparisons are entry by
entry, at (5, 2), (3, 5) and (4, 4).  The arithmetic does not depend on the
basis, so the cached families are built on the whole space here
(``whole_space``), with 32 to 256 states.  The gathers and scatters of the
index form are also checked on the transposed sector of (6, 3), s = 80
(``FAMILIES``, whose third entry says whether the test runs on the whole
space).
"""

import tracemalloc

import numpy as np
import pytest

from ptalgebra.algebra import AlgebraContext, AlgebraElement
from ptalgebra.oracle import (GeneratorIndex, OperatorStack, SizeCapError,
                              element_operator, element_stack, generator_stack,
                              identity_operator, matrix_operators_E, perm_operator,
                              transposed_perm_operator, zero_operator)
from ptalgebra.partitions import partitions_of
from ptalgebra.permutations import Permutation
from ptalgebra.yor import SymmetricGroupIrrep
from whole_space import whole_space

SIZES = [(5, 2), (3, 5), (4, 4)]
FAMILIES = [(3, 5, True), (4, 4, True), (6, 3, False)]


@pytest.fixture(autouse=True)
def _on_the_whole_space(request):
    callspec = getattr(request.node, "callspec", None)
    if callspec is not None and not callspec.params.get("whole", True):
        yield  # on the balanced sectors
        return
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


def _dense(family):
    """Every block of a generator family, gathered into a dense stack."""
    return family.combine(np.arange(len(family))[:, None], np.ones((len(family), 1)))


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
    assert isinstance(family, GeneratorIndex)
    _assert_blocks(family, [build(p, d) for p in perms])
    assert generator_stack(n, d, transposed) is family
    assert not family.rows.flags.writeable and not family.row_cols.flags.writeable


def test_generator_stack_checks_the_cap():
    with pytest.raises(SizeCapError, match="cap 4"):
        generator_stack(3, 2, cap=4)
    with pytest.raises(ValueError, match="d must be"):
        generator_stack(3, 0)


@pytest.mark.parametrize("n,d", SIZES)
def test_products_match_per_pair(n, d):
    ops = [transposed_perm_operator(p, d) for p in Permutation.all(n)]
    family = _dense(generator_stack(n, d, transposed=True))
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
def test_a_combination_of_every_block_in_order_is_the_gathered_product(n, d):
    # float weights, so a change in how the sums are formed shows in the last bits
    # on the dense stack of the family and on its index form
    family = generator_stack(n, d, transposed=True)
    every = np.arange(len(family))
    weights = np.random.default_rng(19).standard_normal((5, len(family)))
    vectors = _dense(family).data.reshape(len(family), -1)
    gathered = np.reshape(weights @ vectors[every], (-1, family.dim, family.dim))
    assert np.array_equal(_dense(family).combine(every, weights).data, gathered)
    assert np.array_equal(family.combine(every, weights).data, gathered)


def test_a_combination_of_every_block_in_order_copies_no_block():
    family = _dense(generator_stack(5, 2))
    count, dim = len(family), family.dim
    weights = np.ones((2, count))
    tracemalloc.start()
    try:
        family.combine(np.arange(count), weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a gathered (K, s^2) copy is 983,040 bytes; the result is 16,384
    assert peak < count * dim * dim * 8 // 2, peak


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
    product = _dense(family).right_mul(a)
    expected = [(op @ a).distance(op) for op in ops]
    # residuals compare dense stacks: the family gathered as one
    gathered = family.combine(np.arange(len(ops))[:, None], np.ones((len(ops), 1)))
    assert np.array_equal(product.residuals(gathered), expected)
    assert np.array_equal(product.residuals(), [(op @ a).max_abs() for op in ops])
    # a zero difference reads +0.0, not -0.0, in the details of a report
    assert not np.signbit(gathered.residuals(gathered)).any()
    gram = np.array([[(x.adjoint() @ y).trace() for y in ops] for x in ops])
    assert np.array_equal(family.gram(), gram)


@pytest.mark.parametrize("n,d", SIZES)
def test_adjoint_matches_per_pair(n, d):
    # W(sigma) A is not symmetric, so each block must be transposed in place
    a = _integer_operator(n, d, seed=5)
    ops = [perm_operator(p, d) @ a for p in Permutation.all(n)]
    _assert_blocks(_dense(generator_stack(n, d)).right_mul(a).adjoint(),
                   [op.adjoint() for op in ops])


@pytest.mark.parametrize("n,d", SIZES)
def test_action_residuals_match_per_pair(n, d):
    # on the dense stack of the generators, with element images and with
    # generators of the index form as left factors
    perms = list(Permutation.all(n))
    ops = [transposed_perm_operator(p, d) for p in perms]
    family = generator_stack(n, d, transposed=True)
    elements = element_stack([_integer_element(n, d, seed) for seed in range(3)])
    generators = family.take([len(ops) - 1, 0, 3])
    rng = np.random.default_rng(11)
    half = len(ops) // 2  # the blocks as a 2 x half grid, block a half + b at (a, b)
    column = np.arange(len(ops)).reshape(2, half).T[np.arange(len(ops)) % half]
    for left in (elements, generators):
        lefts = [left.op(r) for r in range(len(left))]
        index = rng.integers(len(ops), size=(len(lefts), len(ops), 2))
        weights = rng.integers(-2, 3, size=(len(lefts), len(ops), 2)).astype(float)
        grid = rng.integers(-2, 3, size=(len(lefts), 2, 2)).astype(float)
        # per-row claims, one claim shared by every row, which broadcasts, and
        # one on the first index of the grid: block (a, b) against
        # sum_a' grid[r, a, a'] B_(a',b), whose terms are column b of the grid
        for claim, row_index, row_weights in (
                ((index, weights), index, weights),
                ((index[0], weights[0]), index[0], weights[0]),
                ((None, grid), column, grid[:, np.arange(len(ops)) // half])):
            residuals = _dense(family).action_residuals(left, *claim)
            assert residuals.shape == (len(lefts), len(ops))
            row_index = np.broadcast_to(row_index, index.shape)
            row_weights = np.broadcast_to(row_weights, weights.shape)
            for r, a in enumerate(lefts):
                claimed = _combination(ops, row_index[r], row_weights[r])
                expected = [(a @ op).distance(c) for op, c in zip(ops, claimed)]
                assert np.array_equal(residuals[r], expected)


@pytest.mark.parametrize("n,d,whole", FAMILIES)
def test_action_residuals_of_a_generator_left_factor_on_a_dense_stack(n, d, whole):
    # V' = W((n-1 n))^{t_n} built on its own is a one-row index family; it
    # gathers rows of the dense blocks
    family = generator_stack(n, d, transposed=True)
    contraction = Permutation.transposition(n, n - 1, n)
    v_prime = transposed_perm_operator(np.array([contraction.images]) - 1, d, n,
                                       basis=family.basis)
    assert isinstance(v_prime, GeneratorIndex) and len(v_prime) == 1
    stack = _dense(family).right_mul(_integer_operator(n, d, seed=2))
    blocks = stack.data
    rng = np.random.default_rng(5)
    index = rng.integers(len(stack), size=(1, len(stack), 2))
    weights = rng.integers(-2, 3, size=(1, len(stack), 2)).astype(float)
    v = v_prime.op(0).dense()
    expected = [np.abs(v @ blocks[k]
                       - np.tensordot(weights[0, k], blocks[index[0, k]], axes=1)).max()
                for k in range(len(stack))]
    assert np.array_equal(stack.action_residuals(v_prime, index, weights), [expected])


@pytest.mark.parametrize("n,d,whole", FAMILIES)
def test_every_result_on_a_generator_family_is_a_dense_stack(n, d, whole):
    family = generator_stack(n, d, transposed=True)
    count, dim = len(family), family.dim
    one = family.op(1)
    assert type(one.matrix) is np.ndarray and one.matrix.shape == (dim, dim)
    rng = np.random.default_rng(13)
    index, weights = rng.integers(count, size=(3, 2)), rng.standard_normal((3, 2))
    image = element_operator(_integer_element(n, d, seed=4))
    stacks = [family.combine(index, weights), family.combine(index[0], weights),
              family.combine(index, weights).right_mul(one),
              element_stack([_integer_element(n, d, seed) for seed in range(2)])]
    for stack in stacks:
        assert type(stack.data) is np.ndarray and stack.data.shape[1:] == (dim, dim)
    ops = [identity_operator(n, d, basis=family.basis), image, one - image,
           image - one, one + image, one @ image, image @ one, one @ one, 2.0 * one]
    for op in ops:  # arithmetic on a generator is never np.matrix
        assert type(op.matrix) is np.ndarray and op.matrix.shape == (dim, dim)
    assert np.array_equal((one - image).matrix, one.dense() - image.matrix)
    adjoint = family.adjoint()
    assert isinstance(adjoint, GeneratorIndex)
    _assert_blocks(adjoint.take([1, 0]), [one.adjoint(), family.op(0).adjoint()])


@pytest.mark.parametrize("n,d,whole", FAMILIES)
def test_a_per_row_combination_of_generators_is_their_term_by_term_sum(n, d, whole):
    # float weights, so the order of the additions shows in the last bits
    family = generator_stack(n, d, transposed=True)
    rng = np.random.default_rng(17)
    index = rng.integers(len(family), size=(6, 4))
    weights = rng.standard_normal((6, 4))
    combined = family.combine(index, weights)
    for j in range(len(index)):
        acc = np.zeros((family.dim, family.dim))
        for k, weight in zip(index[j], weights[j]):
            acc = acc + weight * family.op(k).dense()
        assert np.array_equal(combined.data[j], acc), j


@pytest.mark.parametrize("n,d", SIZES)
def test_of_and_concat_keep_the_order(n, d):
    # dense stacks of the first two and of the remaining generators, gathered
    ops = [transposed_perm_operator(p, d) for p in Permutation.all(n)]
    family = generator_stack(n, d, transposed=True)
    every = np.arange(len(ops))[:, None]
    parts = [family.combine(every[:2], np.ones((2, 1))),
             family.combine(every[2:], np.ones((len(ops) - 2, 1)))]
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
