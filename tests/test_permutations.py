import pytest
from hypothesis import given, strategies as st

from ptalgebra.permutations import Permutation, compose


def perm_strategy(max_degree=6):
    return st.integers(2, max_degree).flatmap(
        lambda m: st.permutations(list(range(1, m + 1))).map(Permutation))


def test_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])


def test_compose_right_factor_first():
    # product of two transpositions read off the n = 3 multiplication table
    t12 = Permutation.from_cycles(3, [(1, 2)])
    t13 = Permutation.from_cycles(3, [(1, 3)])
    assert t12 * t13 == Permutation.from_cycles(3, [(1, 3, 2)])


def test_compose_identity_and_inverse():
    p = Permutation([2, 3, 1])
    assert p * Permutation.identity(3) == p
    assert Permutation.from_cycles(3, [(1, 2, 3)]) * Permutation.from_cycles(
        3, [(1, 3, 2)]) == Permutation.identity(3)


@pytest.mark.parametrize("text,point", [("(1 5)", 5), ("(0 2)", 0), ("(14)", 4)])
def test_points_outside_the_degree_are_named(text, point):
    with pytest.raises(ValueError, match=rf"point {point} outside \{{1\.\.3\}}"):
        Permutation.parse(text, 3)
    with pytest.raises(ValueError, match=f"point {point} outside"):
        Permutation.from_cycles(3, [(2, point)])


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(Permutation.identity(3), Permutation.identity(4))


@given(perm_strategy(), perm_strategy(), perm_strategy())
def test_compose_associative(p, q, r):
    m = max(p.degree, q.degree, r.degree)
    p, q, r = p.embed(m), q.embed(m), r.embed(m)
    assert (p * q) * r == p * (q * r)


@given(perm_strategy())
def test_inverse_roundtrip(p):
    assert p * p.inverse() == Permutation.identity(p.degree)
    assert p.inverse().inverse() == p


def test_classify_three_cycle():
    p = Permutation([2, 3, 1])  # 1->2, 2->3, 3->1
    assert p.classify() == (2, 1)


def test_classify_double_transposition():
    p = Permutation([2, 1, 4, 3])
    assert p.classify() == (3, 3)


def test_classify_identity():
    for m in (2, 3, 5):
        assert Permutation.identity(m).classify() == (m, m)


@given(perm_strategy())
def test_classify_fixed_point_iff_both_equal_degree(p):
    a, b = p.classify()
    assert (a == p.degree) == (b == p.degree) == p.fixes_last()
    assert p(a) == p.degree and p(p.degree) == b


def test_cycle_count():
    assert Permutation.identity(4).cycle_count() == 4
    assert Permutation.from_cycles(3, [(1, 2)]).cycle_count() == 2
    assert Permutation.from_cycles(3, [(1, 2, 3)]).cycle_count() == 1


def test_transposition_with_equal_points_is_identity():
    assert Permutation.transposition(4, 2, 2) == Permutation.identity(4)


def test_sign():
    assert Permutation.from_cycles(3, [(1, 2)]).sign() == -1
    assert Permutation.from_cycles(3, [(1, 2, 3)]).sign() == 1
    assert Permutation.identity(5).sign() == 1


def test_parse_and_format():
    p = Permutation.parse("2,3,1")
    assert p == Permutation([2, 3, 1])
    assert p.one_line_string() == "2,3,1"
    assert Permutation.parse("(1 3 2)", 3) == Permutation([3, 1, 2])
    # whitespace between cycles is allowed
    assert (Permutation.parse("(1 2) (3 4)") == Permutation.parse("(1 2)(3 4)")
            == Permutation([2, 1, 4, 3]))
    assert Permutation.parse(p.cycle_string(), 3) == p
    assert Permutation.identity(3).cycle_string() == "()"


def test_embed_restrict():
    p = Permutation([2, 1])
    q = p.embed(4)
    assert q == Permutation([2, 1, 3, 4])
    assert q.restrict(2) == p
    with pytest.raises(ValueError):
        Permutation([1, 3, 2]).restrict(2)


def test_all_enumerates_factorial():
    assert len(list(Permutation.all(4))) == 24
