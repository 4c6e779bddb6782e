import numpy as np
import pytest

from ptalgebra.algebra import AlgebraContext, u_element
from ptalgebra.induced import q_matrix
from ptalgebra.oracle import element_stack
from ptalgebra.partitions import Partition
from ptalgebra.reduction import xa_reduce


def _matrix_unit_family(size):
    """Concrete generators x_ij = e_ij satisfying x_ij x_kl = delta_jk x_il,
    x_ij at position (i-1) size + j-1."""
    return np.eye(size * size).reshape(size * size, size, size)


def test_identity_matrix_keeps_everything():
    size = 3
    reduced = xa_reduce(np.eye(size))
    assert reduced.rank == size and reduced.f.shape == (9, 9)
    f = np.tensordot(reduced.f, _matrix_unit_family(size), axes=1)
    for s, r, t, u in np.ndindex(size, size, size, size):
        product = f[s * size + r] @ f[t * size + u]
        expected = f[s * size + u] if r == t else 0.0
        assert np.abs(product - expected).max() < 1e-12


def test_two_by_two_spectrum():
    reduced = xa_reduce(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert reduced.rank == 2
    assert sorted(reduced.eigenvalues.tolist()) == pytest.approx([1.0, 3.0])


def test_singular_q_detects_null_direction():
    q = np.array([[2.0, -1.0, 1.0], [-1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    reduced = xa_reduce(q)
    assert reduced.rank == 2
    survivors = reduced.eigenvalues[:2]
    assert survivors.tolist() == pytest.approx([3.0, 3.0])
    assert abs(reduced.eigenvalues[2]) < 1e-10
    # every label touching index 3 is null: 9 - 2^2 of them
    assert reduced.null_rows.tolist() == [2, 5, 6, 7, 8]
    assert reduced.f.shape == (4, 9)


def test_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="negative"):
        xa_reduce(np.array([[0.0, 2.0], [2.0, 0.0]]))


def test_rejects_a_matrix_that_is_not_square_symmetric():
    with pytest.raises(ValueError, match="square"):
        xa_reduce(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        xa_reduce(np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("n,d,alpha", [
    (3, 2, Partition([1])), (3, 3, Partition([1])),
    (4, 2, Partition([2])), (4, 2, Partition([1, 1])),
    (4, 3, Partition([2])), (4, 3, Partition([1, 1])),
])
def test_averaged_generators_reduce_to_matrix_units(n, d, alpha):
    """The main-ideal families become verified matrix units through the oracle."""
    ctx = AlgebraContext(n, d)
    w = alpha.hook_dimension()
    size = (n - 1) * w
    # x_{(a,i),(b,j)} = u^ab_ij, at block ((a-1) w + i-1) size + (b-1) w + j-1
    family = element_stack([u_element(alpha, a, b, i, j, ctx)
                            for a in range(1, n) for i in range(1, w + 1)
                            for b in range(1, n) for j in range(1, w + 1)])
    reduced = xa_reduce(q_matrix(alpha, d, n))
    blocks = np.arange(size * size)
    y = family.combine(blocks, reduced.y)
    rank = reduced.rank
    # null rows/columns vanish as operators
    assert y.residuals()[reduced.null_rows].max(initial=0.0) < 1e-9
    # survivors obey y_ij y_kl = lambda_j delta_jk y_il
    for s, r, t, u in np.ndindex(rank, rank, rank, rank):
        product = y.op(s * size + r) @ y.op(t * size + u)
        if r == t:
            expected = reduced.eigenvalues[r] * y.op(s * size + u)
            assert product.distance(expected) < 1e-8
        else:
            assert product.max_abs() < 1e-8
    # and the rescaled family consists of nonzero matrix units
    f = family.combine(blocks, reduced.f)
    for s, r, t, u in np.ndindex(rank, rank, rank, rank):
        assert f.op(s * rank + r).max_abs() > 1e-6
        product = f.op(s * rank + r) @ f.op(t * rank + u)
        if r == t:
            assert product.distance(f.op(s * rank + u)) < 1e-8
        else:
            assert product.max_abs() < 1e-8
