import itertools
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from ptalgebra.algebra import (AlgebraContext, AlgebraElement, mul_generators,
                               u_element)
from ptalgebra.oracle import (CAP_ENV_VAR, DENSE_MAX_DIM, GeneratorIndex,
                              OperatorStack, SizeCapError, TensorOp,
                              element_operator, element_stack,
                              generator_stack, identity_operator,
                              matrix_operators_E, partial_transpose_last,
                              perm_operator, sector, span_dimension,
                              transposed_perm_operator, zero_operator)
from ptalgebra.partitions import Partition, partitions_of
from ptalgebra.permutations import Permutation, image_array
from ptalgebra.yor import SymmetricGroupIrrep, multiplicity_in_V
from whole_space import whole_space


@pytest.fixture
def on_the_whole_space():
    with whole_space():
        yield


def test_identity_operator():
    op = perm_operator(Permutation.identity(3), 2)
    assert np.array_equal(op.dense(), np.eye(8))


def test_swap_two_qubits():
    swap = perm_operator(Permutation.from_cycles(2, [(1, 2)]), 2)
    expected = np.eye(4)[:, [0, 2, 1, 3]]
    assert np.array_equal(swap.dense(), expected)


def test_perm_operator_multiplicative():
    for d in (2, 3):
        for p in Permutation.all(3):
            for q in Permutation.all(3):
                lhs = perm_operator(p * q, d)
                rhs = perm_operator(p, d) @ perm_operator(q, d)
                assert lhs.distance(rhs) == 0.0


def test_trace_counts_cycles():
    for d in (2, 3):
        for p in Permutation.all(4):
            assert perm_operator(p, d).trace() == pytest.approx(
                d ** p.cycle_count())


def test_moves_factor_contents():
    # V(sigma) e_{i1..in} = e_{i_{sigma^{-1}(1)} .. i_{sigma^{-1}(n)}}
    d, n = 3, 3
    sigma = Permutation.from_cycles(3, [(1, 2, 3)])
    op = perm_operator(sigma, d)
    rng = np.random.default_rng(0)
    digits = rng.integers(0, d, size=n)
    src = 0
    for k in digits:
        src = src * d + k
    inv = sigma.inverse()
    moved = [digits[inv(k) - 1] for k in range(1, n + 1)]
    dst = 0
    for k in moved:
        dst = dst * d + k
    column = op.dense()[:, src]
    assert column[dst] == 1.0 and column.sum() == 1.0


def test_partial_transpose_involution_and_fixers():
    for p in Permutation.all(3):
        op = perm_operator(p, 2)
        pt = partial_transpose_last(op)
        assert partial_transpose_last(pt).distance(op) == 0.0
        if p.fixes_last():
            assert pt.distance(op) == 0.0


def test_swap_pt_is_rank_one_projector_times_d():
    d = 2
    swap_pt = transposed_perm_operator(Permutation.from_cycles(2, [(1, 2)]), d)
    assert (swap_pt @ swap_pt).distance(d * swap_pt) < 1e-12
    dense = swap_pt.dense()
    # d times the projector onto the maximally correlated vector
    vec = np.zeros(d * d)
    for i in range(d):
        vec[i * d + i] = 1.0
    assert np.abs(dense - np.outer(vec, vec)).max() < 1e-12


def test_size_cap_refusal():
    with pytest.raises(ValueError, match="cap"):
        perm_operator(Permutation.identity(7), 4)
    perm_operator(Permutation.identity(7), 4, cap=4**7)


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_composition_rule_master(n, d):
    """The abstract product of any two generators is exactly the operator one."""
    ops = {p: transposed_perm_operator(p, d) for p in Permutation.all(n)}
    for sigma, left in ops.items():
        for rho, right in ops.items():
            power, result = mul_generators(sigma, rho)
            assert (left @ right).distance((d**power) * ops[result]) < 1e-10


def test_span_dimension_examples():
    assert span_dimension(generator_stack(3, 2, transposed=True)) == 5
    for d in (3, 4):
        assert span_dimension(generator_stack(3, d, transposed=True)) == 6
    assert span_dimension(generator_stack(4, 2, transposed=True)) == 14
    assert span_dimension(OperatorStack(3, 2, np.zeros((0, 8, 8)))) == 0


def test_span_dimension_matches_partition_formula():
    for n, d in [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 2)]:
        expected = sum(mu.hook_dimension() ** 2
                       for mu in partitions_of(n) if mu.height <= d)
        assert span_dimension(generator_stack(n, d, transposed=True)) == expected
        assert span_dimension(generator_stack(n, d)) == expected


def test_gram_matrix_positive_semidefinite():
    for n, d in [(3, 2), (4, 2)]:
        eigs = np.linalg.eigvalsh(generator_stack(n, d, transposed=True).gram())
        assert eigs.min() > -1e-9


def test_element_operator_linear():
    ctx = AlgebraContext(3, 2)
    x = AlgebraElement.generator(ctx, Permutation.from_cycles(3, [(1, 3)]))
    y = AlgebraElement.generator(ctx, Permutation.from_cycles(3, [(1, 2)]))
    combo = 2 * x - 0.5 * y
    basis = sector(3, 2, True)  # the sector of element images
    expected = (2 * transposed_perm_operator(Permutation.from_cycles(3, [(1, 3)]), 2,
                                             basis=basis)
                - 0.5 * perm_operator(Permutation.from_cycles(3, [(1, 2)]).embed(3), 2,
                                      basis=basis))
    assert element_operator(combo).distance(expected) < 1e-12


def test_element_operator_homomorphism():
    ctx = AlgebraContext(3, 2)
    perms = list(Permutation.all(3))
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = AlgebraElement(ctx, {perms[rng.integers(6)]: rng.standard_normal()
                                 for _ in range(2)})
        y = AlgebraElement(ctx, {perms[rng.integers(6)]: rng.standard_normal()
                                 for _ in range(2)})
        assert element_operator(x * y).distance(
            element_operator(x) @ element_operator(y)) < 1e-10


def test_adjoint_transport():
    ctx = AlgebraContext(3, 3)
    x = AlgebraElement.generator(ctx, Permutation.from_cycles(3, [(1, 2, 3)])) \
        + 2 * AlgebraElement.generator(ctx, Permutation.from_cycles(3, [(1, 3)]))
    assert element_operator(x.adjoint()).distance(
        element_operator(x).adjoint()) < 1e-12


@pytest.mark.parametrize("n,d", [(3, 2), (5, 2), (3, 5)])
def test_element_images_are_the_summed_generators_bitwise(on_the_whole_space, n, d):
    # each block is the scaled generators added in term order, one TensorOp
    # at a time, to the last bit, on the dense side and, on the whole space,
    # on the CSR side
    ctx = AlgebraContext(n, d)
    perms = list(Permutation.all(n))
    rng = np.random.default_rng(n)
    elems = [AlgebraElement(ctx, {perms[k]: rng.standard_normal()
                                  for k in rng.integers(len(perms), size=size)})
             for size in (1, 4, 9, 2)]
    elems.append(u_element(partitions_of(n - 2)[0], 1, n - 1, 1, 1, ctx))
    # every generator, against Permutation.all order: the diagonal entries
    # of constant basis tensors then sum n! terms in term order
    elems.append(AlgebraElement(ctx, {p: rng.standard_normal() for p in perms[::-1]}))
    stack = element_stack(elems)
    for k, elem in enumerate(elems):
        total = zero_operator(n, d)
        for perm, coeff in elem.terms.items():
            total = total + coeff * transposed_perm_operator(perm, d)
        assert np.array_equal(stack.op(k).dense(), total.dense()), k
        assert np.array_equal(element_operator(elem).dense(), total.dense()), k


def test_symbolic_element_has_no_image():
    with pytest.raises(ValueError):
        element_operator(AlgebraElement.one(AlgebraContext(3, None)))


# -- averaged matrix operators --------------------------------------------


def test_E_regular_representation_projector():
    # regular representation of S(2): averaging gives a rank-one projector
    group = list(Permutation.all(2))
    images = np.stack([np.eye(2)[:, [0, 1] if g.is_identity() else [1, 0]]
                       for g in group])
    family = matrix_operators_E(OperatorStack(1, 2, images), Partition([2]))
    e11 = family.op(0).dense()
    assert np.abs(e11 - 0.5 * np.ones((2, 2))).max() < 1e-12
    assert np.abs(e11 @ e11 - e11).max() < 1e-12
    assert np.linalg.matrix_rank(e11) == 1


def test_E_antisymmetric_multiplicity_on_two_qubits():
    family = matrix_operators_E(generator_stack(2, 2), Partition([1, 1]))
    e11 = family.op(0)
    assert (e11.adjoint() @ e11).trace() == pytest.approx(1.0)


def test_E_vanishing_family_when_not_contained():
    family = matrix_operators_E(generator_stack(3, 2), Partition([1, 1, 1]))
    assert family.residuals().max() < 1e-12


def test_E_composition_and_independence_equivalence(on_the_whole_space):
    # E_ij E_kl = delta_jk E_il, and the E family spans exactly what D spans;
    # the norms are traces, so the family is on the whole space
    d = 2
    plain = generator_stack(3, d)
    families = {alpha: matrix_operators_E(plain, alpha)
                for alpha in partitions_of(3)}
    for alpha, family in families.items():
        w = alpha.hook_dimension()
        for left in range(w * w):
            i, j = divmod(left, w)
            for right in range(w * w):
                k, l = divmod(right, w)
                product = family.op(left) @ family.op(right)
                if j == k:
                    assert product.distance(family.op(i * w + l)) < 1e-10
                else:
                    assert product.max_abs() < 1e-10
    all_e = OperatorStack.concat(list(families.values()))
    assert span_dimension(all_e) == span_dimension(plain)
    # multiplicities through the Hilbert-Schmidt norm
    for alpha, family in families.items():
        norm = (family.op(0).adjoint() @ family.op(0)).trace()
        assert norm == pytest.approx(multiplicity_in_V(alpha, d), abs=1e-9)


# -- storage: dense up to DENSE_MAX_DIM, CSR above -------------------------


def _reference_operators(sigma, d):
    """W(sigma) and its partial transpose, entry by entry from the definition.

    W(sigma) sends e_{i_1}..e_{i_n} to e_{i_{s^{-1}(1)}}..e_{i_{s^{-1}(n)}};
    the partial transpose swaps the last digit of the row and column index.
    """
    n = sigma.degree
    dim = d**n
    inv = sigma.inverse()

    def index(digits):
        return sum(x * d ** (n - 1 - k) for k, x in enumerate(digits))

    plain = np.zeros((dim, dim))
    transposed = np.zeros((dim, dim))
    for col in itertools.product(range(d), repeat=n):
        row = tuple(col[inv(k) - 1] for k in range(1, n + 1))
        plain[index(row), index(col)] = 1.0
        transposed[index(row[:-1] + col[-1:]), index(col[:-1] + row[-1:])] = 1.0
    return plain, transposed


@pytest.mark.parametrize("n,d", [(3, 2), (5, 2), (3, 5), (4, 4)])
def test_generators_match_reference_on_both_storages(n, d):
    dense_side = d**n <= DENSE_MAX_DIM
    for sigma in Permutation.all(n):
        plain, transposed = _reference_operators(sigma, d)
        op = perm_operator(sigma, d)
        op_t = transposed_perm_operator(sigma, d)
        assert isinstance(op.matrix, np.ndarray) == dense_side
        assert isinstance(op_t.matrix, np.ndarray) == dense_side
        assert np.array_equal(op.dense(), plain)
        assert np.array_equal(op_t.dense(), transposed)
        assert np.array_equal(partial_transpose_last(op).dense(), transposed)


@pytest.mark.parametrize("n,d", [(3, 2), (3, 5)])
def test_gram_counts_cycles_on_both_storages(on_the_whole_space, n, d):
    # tr(W(s)^T W(r)) = d^{cycles(s^-1 r)}, and the partial transpose keeps
    # it: a trace over the whole space
    perms = list(Permutation.all(n))
    expected = np.array([[d ** (s.inverse() * r).cycle_count() for r in perms]
                         for s in perms], dtype=float)
    for transposed in (False, True):
        assert np.array_equal(generator_stack(n, d, transposed).gram(), expected)


@pytest.mark.parametrize("n,d", [(3, 2), (3, 5)])
def test_cached_generator_is_not_changed_by_arithmetic(n, d):
    sigma = Permutation.from_cycles(n, [(1, n)])
    op = transposed_perm_operator(sigma, d)
    before = op.dense()
    results = [op + op, op - op, 2.0 * op, op @ op, op.adjoint(), sum([op, op]),
               partial_transpose_last(op), element_operator(
                   AlgebraElement.generator(AlgebraContext(n, d), sigma))]
    copy = op.dense()
    copy[:] = 7.0
    assert np.array_equal(results[3].dense(), d * before)
    assert np.array_equal(op.dense(), before)
    again = transposed_perm_operator(sigma, d)
    assert np.array_equal(again.dense(), before)


def test_size_cap_is_checked_before_the_cache():
    sigma = Permutation.from_cycles(3, [(1, 2)])
    perm_operator(sigma, 2)
    transposed_perm_operator(sigma, 2)
    with pytest.raises(SizeCapError, match="cap 4"):
        perm_operator(sigma, 2, cap=4)
    with pytest.raises(SizeCapError, match="cap 4"):
        transposed_perm_operator(sigma, 2, cap=4)


@pytest.mark.parametrize("n,d", [(3, 2), (3, 5)])
@pytest.mark.parametrize("build", [perm_operator, transposed_perm_operator])
def test_block_k_of_a_batch_is_the_single_build_of_row_k(n, d, build):
    batch = image_array(n)[::-1]
    stack = build(batch, d, n)
    assert isinstance(stack, OperatorStack) and len(stack) == len(batch)
    assert isinstance(stack.data, np.ndarray) == (d**n <= DENSE_MAX_DIM)
    for k, images in enumerate(batch):
        single = build(Permutation((images + 1).tolist()), d).matrix
        block = stack.op(k).matrix
        if isinstance(single, np.ndarray):
            assert np.array_equal(block, single), k
        else:
            assert np.array_equal(block.indptr, single.indptr), k
            assert np.array_equal(block.indices, single.indices), k
            assert np.array_equal(block.data, single.data), k


@pytest.mark.parametrize("n,d", [(3, 2), (3, 5)])
@pytest.mark.parametrize("transposed", [False, True])
def test_a_batch_is_built_apart_from_the_cached_family(n, d, transposed):
    build = transposed_perm_operator if transposed else perm_operator
    family = generator_stack(n, d, transposed)
    batch = build(image_array(n), d, n, basis=sector(n, d, transposed))
    assert batch is not family and batch.data is not family.data
    assert np.array_equal(batch.residuals(family), np.zeros(len(family)))
    if isinstance(batch.data, np.ndarray):
        assert batch.data.flags.writeable and not family.data.flags.writeable
        assert not np.shares_memory(batch.data, family.data)


@pytest.mark.parametrize("build", [perm_operator, transposed_perm_operator])
@pytest.mark.parametrize("batch,row", [([[0, 0, 1]], 0), ([[0, 1, 3]], 0),
                                       ([[2, 1, 0], [1, 1, 1]], 1)])
def test_a_malformed_batch_of_generators_is_refused(build, batch, row):
    with pytest.raises(ValueError, match=f"row {row} of the batch"):
        build(np.array(batch), 2)
    with pytest.raises(ValueError, match="degree mismatch: 3 != n = 4"):
        build(image_array(3), 2, 4)


@pytest.mark.parametrize("build", [perm_operator, transposed_perm_operator])
def test_a_batch_above_the_cap_builds_nothing(monkeypatch, build):
    import ptalgebra.oracle as oracle

    def refuse(*args):
        raise AssertionError("built above the cap")

    monkeypatch.setattr(oracle, "_generators", refuse)
    with pytest.raises(SizeCapError, match="d\\^n = 8 exceeds the oracle size cap 4"):
        build(image_array(3), 2, cap=4)
    with pytest.raises(SizeCapError):  # before the malformed row is read
        build(np.array([[0, 0, 1]]), 2, cap=4)


def test_invalid_cap_environment_is_rejected(monkeypatch):
    for raw in ("abc", "0", "-3"):
        monkeypatch.setenv(CAP_ENV_VAR, raw)
        with pytest.raises(ValueError, match="not a positive integer"):
            perm_operator(Permutation.identity(2), 2)
    monkeypatch.setenv(CAP_ENV_VAR, "4")
    with pytest.raises(SizeCapError):
        perm_operator(Permutation.identity(3), 2)


def test_matrix_operators_E_matches_per_entry_reference():
    # the seed's loop, inverting g and looking up its image for every (i, j, g);
    # the family is one product over the group, not summed term by term, so
    # each entry may differ by a rounding per term of weight at most 1
    d = 2
    group = {g: perm_operator(g, d, basis=sector(3, d)) for g in Permutation.all(3)}
    for alpha in partitions_of(3):
        phi = SymmetricGroupIrrep(alpha)
        scale = phi.dim / len(group)
        family = matrix_operators_E(generator_stack(3, d), alpha)
        for k in range(phi.dim**2):
            i, j = divmod(k, phi.dim)
            acc = None
            for g, image in group.items():
                term = (scale * phi.image(g.inverse())[j, i]) * image
                acc = term if acc is None else acc + term
            assert family.op(k).distance(acc) <= len(group) * np.finfo(float).eps


def test_dense_side_never_imports_scipy_sparse():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, ptalgebra.cli\n"
            "assert 'scipy.sparse' not in sys.modules\n"
            "from ptalgebra.checks import run_suite\n"
            "assert all(r.passed for r in run_suite(3, 2, 'all'))\n"
            "assert 'scipy.sparse' not in sys.modules\n"
            # a failing law pair gets its residual without scipy too
            "import ptalgebra.checks as checks\n"
            "real = checks.law_rows\n"
            "def law(n, rows):\n"
            "    power, out = real(n, rows)\n"
            "    power = power.copy()\n"
            "    power[0, 0] = 1 - power[0, 0]\n"
            "    return power, out\n"
            "checks.law_rows = law\n"
            "report = checks.check_mul_rule(3, 2)\n"
            "assert not report.passed and report.max_residual >= 1, report\n"
            "assert 'scipy.sparse' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("cls", [TensorOp, GeneratorIndex])
def test_type_hints_resolve(cls):
    hints = typing.get_type_hints(cls)
    assert "d" in hints
