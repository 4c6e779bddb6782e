import pytest
from hypothesis import given, settings, strategies as st
from reference_rows import word_lengths

from ptalgebra.algebra import (AlgebraContext, AlgebraElement, generator_words,
                               mul_generators, u_element)
from ptalgebra.dpoly import DPoly
from ptalgebra.oracle import element_operator
from ptalgebra.partitions import Partition
from ptalgebra.permutations import Permutation

SYM3 = AlgebraContext(3, None)


def gen(ctx, cycles):
    return AlgebraElement.generator(ctx, Permutation.from_cycles(ctx.n, cycles))


# -- composition law ---------------------------------------------------------


def test_mul_generators_transposed_pair_with_power():
    # (132)^t (123)^t = d (23)^t
    power, result = mul_generators(
        Permutation.from_cycles(3, [(1, 3, 2)]),
        Permutation.from_cycles(3, [(1, 2, 3)]))
    assert power == 1
    assert result == Permutation.from_cycles(3, [(2, 3)])


def test_mul_generators_squared_transposition():
    # (kn)^t (kn)^t = d (kn)^t
    for n, k in [(3, 1), (3, 2), (4, 2)]:
        t = Permutation.transposition(n, k, n)
        power, result = mul_generators(t, t)
        assert power == 1 and result == t


def test_mul_generators_distinct_transpositions():
    # (kn)^t (jn)^t = ((jn)(kn))^t, no power of d
    n, k, j = 4, 1, 3
    kn = Permutation.transposition(n, k, n)
    jn = Permutation.transposition(n, j, n)
    power, result = mul_generators(kn, jn)
    assert power == 0
    assert result == jn * kn


def test_mul_generators_three_cycle_idempotent():
    # (ijn)^t is idempotent
    p = Permutation.from_cycles(4, [(1, 3, 4)])
    assert mul_generators(p, p) == (0, p)


def test_mul_degree_mismatch():
    with pytest.raises(ValueError):
        mul_generators(Permutation.identity(3), Permutation.identity(4))


from goldens import TABLE_N3 as FULL_TABLE_N3


def _perm_of(code: str) -> Permutation:
    if not code:
        return Permutation.identity(3)
    return Permutation.from_cycles(3, [tuple(int(c) for c in code)])


@pytest.mark.parametrize("n", range(2, 8))
def test_generator_words_reach_every_permutation(n):
    import math

    import numpy as np

    from ptalgebra.permutations import image_array, lehmer_rank

    generators, first, rest = generator_words(n)
    images = image_array(n)
    # s_1 ... s_{n-2} and (n-1 n), in that order
    assert [Permutation((images[g] + 1).tolist()) for g in generators] == [
        Permutation.transposition(n, i, i + 1) for i in range(1, n)]
    assert len(first) == len(rest) == math.factorial(n)
    assert first[0] == rest[0] == -1  # the identity: the empty word
    # every other step is W(sigma) = W(g) W(sigma') with power 0
    assert np.isin(first[1:], generators).all()
    powers, products = mul_generators(images[first[1:]], images[rest[1:]])
    assert (powers == 0).all()
    assert np.array_equal(lehmer_rank(products), np.arange(1, len(images)))
    # every word ends at the identity, and a generator's word is itself
    assert (word_lengths(rest)[generators] == 1).all()


def test_full_n3_table():
    for (row, col), (power, result) in FULL_TABLE_N3.items():
        assert mul_generators(_perm_of(row), _perm_of(col)) == \
            (power, _perm_of(result))


def test_symbolic_table_matches_element_product():
    for (row, col), (power, result) in FULL_TABLE_N3.items():
        product = (AlgebraElement.generator(SYM3, _perm_of(row))
                   * AlgebraElement.generator(SYM3, _perm_of(col)))
        assert product.terms == {_perm_of(result): DPoly.d() ** power}


# -- element arithmetic -------------------------------------------------------


def test_unit_element():
    ctx = AlgebraContext(3, 2)
    one = AlgebraElement.one(ctx)
    x = gen(ctx, [(1, 3)]) + 2 * gen(ctx, [(1, 2)])
    assert x * one == x
    assert one * x == x


def test_three_cycle_transposed_is_idempotent():
    x = gen(SYM3, [(1, 2, 3)])
    assert x * x == x


def test_context_mismatch():
    with pytest.raises(ValueError):
        AlgebraElement.one(AlgebraContext(3, 2)) * AlgebraElement.one(
            AlgebraContext(3, 3))


def test_zero_pruning():
    ctx = AlgebraContext(3, 2)
    x = gen(ctx, [(1, 3)])
    assert (x - x).is_zero()
    assert (x - x).terms == {}


perm3 = st.sampled_from([p for p in Permutation.all(3)])


@given(perm3, perm3, perm3)
@settings(max_examples=60)
def test_symbolic_associativity_exact(p, q, r):
    x, y, z = (AlgebraElement.generator(SYM3, s) for s in (p, q, r))
    assert (x * y) * z == x * (y * z)


@given(perm3, perm3, st.integers(2, 4))
@settings(max_examples=40)
def test_symbolic_numeric_consistency(p, q, d):
    symbolic = (AlgebraElement.generator(SYM3, p)
                * AlgebraElement.generator(SYM3, q))
    ctx = AlgebraContext(3, d)
    numeric = (AlgebraElement.generator(ctx, p)
               * AlgebraElement.generator(ctx, q))
    evaluated = {perm: coeff(d) for perm, coeff in symbolic.terms.items()}
    assert evaluated == numeric.terms


def test_subalgebra_of_last_point_fixers_is_closed():
    for n in (3, 4):
        for p in Permutation.all(n):
            if not p.fixes_last():
                continue
            for q in Permutation.all(n):
                if not q.fixes_last():
                    continue
                power, result = mul_generators(p, q)
                assert power == 0 and result.fixes_last()


def test_main_ideal_is_two_sided():
    for n in (3, 4):
        movers = [p for p in Permutation.all(n) if not p.fixes_last()]
        everything = list(Permutation.all(n))
        for m in movers:
            for x in everything:
                for pair in (mul_generators(m, x), mul_generators(x, m)):
                    assert not pair[1].fixes_last()


# -- adjoints -----------------------------------------------------------------


def test_adjoint_of_three_cycle():
    assert gen(SYM3, [(1, 2, 3)]).adjoint() == gen(SYM3, [(1, 3, 2)])


def test_adjoint_is_involution():
    ctx = AlgebraContext(3, 2)
    x = gen(ctx, [(1, 3)]) + 0.5 * gen(ctx, [(1, 2, 3)])
    assert x.adjoint().adjoint() == x


@given(perm3, perm3)
@settings(max_examples=40)
def test_adjoint_antihomomorphism_via_mul(p, q):
    ctx = AlgebraContext(3, 2)
    x = AlgebraElement.generator(ctx, p) + 0.5 * AlgebraElement.one(ctx)
    y = AlgebraElement.generator(ctx, q) - 2.0 * AlgebraElement.generator(
        ctx, Permutation.from_cycles(3, [(1, 2)]))
    assert (x * y).adjoint() == y.adjoint() * x.adjoint()


# -- u elements ---------------------------------------------------------------


def test_u_element_n3_single_term():
    ctx = AlgebraContext(3, 2)
    u = u_element(Partition([1]), 1, 1, 1, 1, ctx)
    expected = Permutation.transposition(3, 1, 3) * \
        Permutation.transposition(3, 1, 2) * Permutation.transposition(3, 1, 2)
    assert u.terms == {expected: 1.0}


def test_u_element_essential_projector():
    for (n, d, alpha) in [(3, 2, Partition([1])), (4, 3, Partition([2])),
                          (4, 3, Partition([1, 1]))]:
        ctx = AlgebraContext(n, d)
        for a in range(1, n):
            u = u_element(alpha, a, a, 1, 1, ctx)
            assert u * u == d * u


def test_u_element_vanishes_when_too_tall():
    # height(alpha) > d makes the whole family zero as tensor operators
    ctx = AlgebraContext(4, 1)
    u = u_element(Partition([1, 1]), 1, 2, 1, 1, ctx)
    assert element_operator(u).max_abs() < 1e-12
    ctx2 = AlgebraContext(4, 2)
    u2 = u_element(Partition([1, 1]), 1, 2, 1, 1, ctx2)
    assert element_operator(u2).max_abs() > 0.1


def test_u_element_n2_is_the_transposed_swap():
    # S(0) is trivial, so u_11^11(()) = 1 * W((1 2)), transposed
    for d in (1, 2, 3):
        u = u_element(Partition(()), 1, 1, 1, 1, AlgebraContext(2, d))
        assert u.terms == {Permutation.transposition(2, 1, 2): 1.0}


# -- rendering ----------------------------------------------------------------


def test_format_fixed_and_symbolic():
    ctx = AlgebraContext(3, 2)
    x = 2 * gen(ctx, [(1, 3)]) + gen(ctx, [(1, 2)])
    assert x.format() == "1*(12) + 2*(13)^t"
    y = DPoly([0, 1]) * AlgebraElement.generator(
        SYM3, Permutation.from_cycles(3, [(2, 3)]))
    assert y.format() == "d*(23)^t"
