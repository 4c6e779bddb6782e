"""The integer index form of the transposed generators, and the exact
composition-law and associativity checks that run on it.

The index form must list exactly the ones of the dense generator stack
that its combinations scatter, and the check must agree with the dense row-by-row check it replaced
(``reference_mul_rule``), on passing grids and under planted defects.
The law is checked on the generator rows and on the pairs that
``law_sweep`` flags; a defect off those rows must be flagged.
"""

import contextlib
import dataclasses
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ptalgebra.checks as checks
import ptalgebra.oracle as oracle
from ptalgebra.algebra import generator_words, law_rows, mul_generators
from ptalgebra.checks import (HOM_TOL, ORACLE_TOL, check_irreps, check_mul_rule,
                              check_u_structure, check_unit_of_m, law_sweep, run_suite)
from ptalgebra.irreps import block_labels
from ptalgebra.oracle import (GeneratorIndex, SizeCapError, _family, generator_index,
                              generator_stack)
from ptalgebra.permutations import Permutation, image_array, lehmer_rank
from reference_mul_rule import reference_mul_rule
from reference_rows import reference_irreps
from whole_space import whole_space

GRID = [(n, d) for n in (2, 3, 4, 5) for d in (1, 2, 3)]


def _stack_ones(family: GeneratorIndex) -> np.ndarray:
    """Sorted (k, r, c) of every nonzero entry of the dense stack that the
    family's blocks scatter into; asserts they are 1."""
    every = np.arange(len(family))[:, None]
    k, r, c, values = family.combine(every, np.ones((len(family), 1))).nonzeros()
    assert np.all(values == 1.0)
    return np.sort((k * family.dim + r) * family.dim + c)


def _listed(slots: np.ndarray, pad: int, transpose: bool) -> np.ndarray:
    """Sorted (k, r, c) keys of the valid entries of row (or column) lists."""
    _, dim = slots.shape[1:]
    assert np.all((slots >= 0) | (slots == pad))
    _, k, g = np.nonzero(slots >= 0)
    other = slots[slots >= 0]
    r, c = (other, g) if transpose else (g, other)
    return np.sort((k * dim + r) * dim + c)


@pytest.mark.parametrize("n,d", GRID + [(4, 8)])
def test_index_form_lists_the_ones_of_the_generator_stack(n, d):
    index = generator_index(n, d)
    assert generator_stack(n, d, transposed=True) is index
    expected = _stack_ones(index)
    count, dim = len(index), index.dim
    assert index.rows.shape == index.cols.shape and len(index.rows) == count
    assert np.array_equal(index.rows < 0, index.cols < 0)  # pads in both
    assert np.all(index.rows >= -1) and np.all(index.cols >= -1)
    assert index.rows.dtype == index.cols.dtype == index.row_cols.dtype
    assert index.rows.dtype == np.min_scalar_type(-dim)
    line = np.arange(count)[:, None]
    ones = index.cols >= 0
    entries = np.sort(((line * dim + index.rows) * dim + index.cols)[ones])
    assert np.array_equal(entries, expected)
    assert np.array_equal(_listed(index.row_cols, -1, False), expected)
    assert np.array_equal(_listed(index.col_rows, -2, True), expected)
    k, r, c = np.unravel_index(expected, (count, dim, dim))
    assert np.array_equal(index.row_count,
                          np.bincount(k * dim + r, minlength=count * dim).reshape(count, dim))
    assert np.array_equal(index.col_count,
                          np.bincount(k * dim + c, minlength=count * dim).reshape(count, dim))
    assert index.row_count.max() <= d and index.col_count.max() <= d
    assert index.row_count.dtype == index.col_count.dtype == np.min_scalar_type(d)
    assert generator_index(n, d) is index


def test_index_form_checks_the_cap():
    with pytest.raises(SizeCapError, match="cap 4"):
        generator_index(3, 2, cap=4)
    with pytest.raises(ValueError, match="d must be"):
        generator_index(3, 0)


@pytest.mark.parametrize("n,d", GRID)
def test_mul_rule_agrees_with_the_dense_row_check(n, d):
    report = check_mul_rule(n, d)
    residual, _culprit = reference_mul_rule(n, d)
    assert report.passed == (residual < ORACLE_TOL)
    assert report.max_residual == residual == 0.0


def _planted_laws(sigma0: Permutation, rho0: Permutation, flip: bool = False,
                  product: Permutation | None = None):
    """The power flipped, or the product replaced, at the single pair
    (sigma0, rho0): planted in the row law ``law_rows``, which the checks
    and ``law_sweep`` read, and in the pair law ``mul_generators``, which
    the references read."""
    s0, r0 = (np.array(p.images) - 1 for p in (sigma0, rho0))
    left, right = (int(lehmer_rank(x)) for x in (s0, r0))

    def rows_law(n, rows):
        powers, positions = law_rows(n, rows)
        hit = (np.asarray(rows)[:, None] == left) & (np.arange(powers.shape[1]) == right)
        if flip:
            powers = np.where(hit, 1 - powers, powers)
        if product is not None:
            tau = lehmer_rank(np.array(product.images) - 1)
            positions = np.where(hit, tau, positions)
        return powers, positions

    def pair_law(sigma, rho):
        power, out = mul_generators(sigma, rho)
        hit = np.broadcast_to((np.asarray(sigma) == s0).all(axis=-1)
                              & (np.asarray(rho) == r0).all(axis=-1), power.shape)
        if flip:
            power = np.where(hit, 1 - power, power)
        if product is not None:
            out = np.where(hit[..., None], np.array(product.images) - 1, out)
        return power, out

    return rows_law, pair_law


PLANTS = [
    # (n, d, sigma, rho, flip, swapped product)
    (4, 2, "(14)", "(24)", True, None),
    (4, 2, "(243)", "(14)", True, None),
    (4, 3, "(12)(34)", "(134)", True, None),
    (4, 2, "(14)", "(24)", False, "(12)"),
    (3, 5, "(123)", "(13)", False, "()"),
]


def _plants(n, sigma, rho, flip, product):
    sigma0, rho0 = Permutation.parse(sigma, n), Permutation.parse(rho, n)
    laws = _planted_laws(sigma0, rho0, flip,
                         None if product is None else Permutation.parse(product, n))
    return sigma0, rho0, *laws


@pytest.mark.parametrize("n,d,sigma,rho,flip,product", PLANTS)
def test_the_row_and_pair_plants_are_the_same_law(n, d, sigma, rho, flip, product):
    _sigma0, _rho0, rows_law, pair_law = _plants(n, sigma, rho, flip, product)
    images = image_array(n)
    powers, positions = rows_law(n, np.arange(len(images)))
    pair_powers, products = pair_law(images[:, None], images)
    assert np.array_equal(powers, pair_powers)
    assert np.array_equal(positions, lehmer_rank(products))
    assert np.count_nonzero(powers != law_rows(n, np.arange(len(images)))[0]) == flip


@pytest.mark.parametrize("n,d,sigma,rho,flip,product", PLANTS)
def test_planted_law_defect_is_caught_and_named(monkeypatch, n, d, sigma, rho,
                                                flip, product):
    sigma0, rho0, rows_law, pair_law = _plants(n, sigma, rho, flip, product)
    monkeypatch.setattr(checks, "law_rows", rows_law)
    report = check_mul_rule(n, d)
    residual, culprit = reference_mul_rule(n, d, pair_law)
    assert report.passed is False and report.max_residual >= 1
    assert report.max_residual == residual
    assert report.details == f"worst at {sigma0} * {rho0}" == f"worst at {culprit}"


@pytest.mark.parametrize("n", range(2, 8))
def test_the_law_sweep_flags_nothing_on_the_law(n):
    flagged = law_sweep(n, law_rows)
    assert flagged.size == 0 and not flagged.flags.writeable
    assert law_sweep(n, law_rows) is flagged


@pytest.mark.parametrize("n,d,sigma,rho", [
    (4, 2, "()", "(24)"),        # the identity row: law(1, rho) must be (0, rho)
    (4, 2, "()", "()"),
    (4, 2, "(13)", "(124)"),     # two non-generators
    (5, 3, "(15)(24)", "(135)"),
])
def test_the_sweep_flags_a_planted_power_off_the_generator_rows(monkeypatch, n, d,
                                                                sigma, rho):
    sigma0, rho0 = Permutation.parse(sigma, n), Permutation.parse(rho, n)
    left, right = (int(lehmer_rank(np.array(p.images) - 1)) for p in (sigma0, rho0))
    assert left not in generator_words(n)[0]
    rows_law, pair_law = _planted_laws(sigma0, rho0, flip=True)
    # the words use the generator rows only, so the pair alone is flagged
    assert law_sweep(n, rows_law).tolist() == [left * math.factorial(n) + right]
    monkeypatch.setattr(checks, "law_rows", rows_law)
    report = check_mul_rule(n, d)
    residual, culprit = reference_mul_rule(n, d, pair_law)
    assert report.passed is False and report.max_residual == residual >= 1
    assert report.details == f"worst at {sigma0} * {rho0}" == f"worst at {culprit}"


def test_a_broken_word_flags_its_whole_row(monkeypatch):
    # plant W(g) W(sigma') = W(1) at the step W(sigma) = W(g) W(sigma'): the
    # words through it no longer give sigma at rho = 1, so the sweep cannot
    # vouch for any pair of those rows, and check_mul_rule names the step
    n, d = 4, 2
    count = math.factorial(n)
    images = image_array(n)
    _generators, first, rest = generator_words(n)
    k = int(np.flatnonzero(rest > 0)[0])
    g, below = (Permutation((images[x] + 1).tolist()) for x in (first[k], rest[k]))
    law, _pair_law = _planted_laws(g, below, product=Permutation.identity(n))
    flagged = law_sweep(n, law)
    for row in [k, *np.flatnonzero(rest == k)]:
        assert np.isin(row * count + np.arange(count), flagged).all()
    monkeypatch.setattr(checks, "law_rows", law)
    report = check_mul_rule(n, d)
    assert report.passed is False and report.details == f"worst at {g} * {below}"


def test_a_planted_law_fails_the_irreps_through_the_sweep(monkeypatch):
    # W((13)) W((124)) = W((1243)), which the planted law makes d W((1243)):
    # no generator row reads the pair, the sweep flags it, and the irreps of
    # the main ideal, where psi((1243)) != 0, see the wrong power
    n, d, sigma, rho = 4, 2, "(13)", "(124)"
    sigma0, rho0 = Permutation.parse(sigma, n), Permutation.parse(rho, n)
    rows_law, pair_law = _planted_laws(sigma0, rho0, flip=True)
    monkeypatch.setattr(checks, "law_rows", rows_law)
    report = check_irreps(n, d)
    assert report.passed is False
    assert report.max_residual == pytest.approx(reference_irreps(n, d, pair_law))
    culprit = report.details.split("; ")[0]
    assert culprit.startswith("worst at M:") and culprit.endswith(f" {sigma0} * {rho0}")


def test_the_law_runs_on_generator_rows_and_sweeps_once(monkeypatch):
    sent, sweeps = [], []
    real = GeneratorIndex.law_mismatches

    def spy(self, left, right, scale, target):
        sent.append(len(left))
        return real(self, left, right, scale, target)

    def sweep(n, law):
        sweeps.append(n)
        return law_sweep.__wrapped__(n, law)

    monkeypatch.setattr(GeneratorIndex, "law_mismatches", spy)
    monkeypatch.setattr(checks, "law_sweep", lru_cache(maxsize=1)(sweep))
    reports = run_suite(5, 2, "all")
    assert all(r.passed for r in reports)
    assert sweeps == [5]  # one sweep serves mul_rule and irreps
    for n, d in [(4, 2), (5, 2), (6, 1), (4, 8)]:
        sent.clear()
        assert check_mul_rule(n, d).passed
        assert sum(sent) == (n - 1) * math.factorial(n)


def test_an_identity_that_is_not_one_is_caught_on_its_row(monkeypatch):
    # At n = 2 the sector is {00, 11}, where the one generator
    # V' = W((12))^t is all ones, so the swap P of 00 and 11 has V' P = V'
    # and passes both generator rows; as W(1), only W(1) W(1) = 1 != P
    # shows it
    n, d = 2, 2
    real = generator_index(n, d)
    assert real.dim == 2
    rows, cols = np.array(real.rows), np.array(real.cols)
    rows[0, :2], cols[0, :2] = [0, 1], [1, 0]
    broken = GeneratorIndex.from_entries(d, rows, cols, real.dim)
    assert np.array_equal(broken.rows[1], real.rows[1])
    monkeypatch.setattr(checks, "generator_index", lambda n, d, cap=None: broken)
    report = check_mul_rule(n, d)
    assert report.passed is False and report.max_residual == 1.0
    assert report.details == "worst at () * ()"


def test_row_lists_that_are_not_their_entries_join_with_their_row_and_column(monkeypatch):
    # move a one of W(sigma)^{t_n}, sigma of a longest word at (4, 2), in
    # its row lists only: no generator row reads them on the left
    import dataclasses

    from reference_rows import word_lengths

    n, d = 4, 2
    count = math.factorial(n)
    real = generator_index(n, d)
    generators, _first, rest = generator_words(n)
    k = int(np.argmax(word_lengths(rest)))
    assert k not in generators
    row_cols = real.row_cols.copy()
    r = int(np.flatnonzero(row_cols[0, k] >= 0)[0])
    free = np.setdiff1d(np.arange(real.dim), row_cols[:, k, r])
    row_cols[0, k, r] = free[0]
    broken = dataclasses.replace(real, row_cols=row_cols)
    assert list(np.flatnonzero(~broken.derived())) == [k]
    sent = []
    spied = GeneratorIndex.law_mismatches

    def spy(self, left, right, scale, target):
        sent.append(len(left))
        return spied(self, left, right, scale, target)

    monkeypatch.setattr(GeneratorIndex, "law_mismatches", spy)
    monkeypatch.setattr(checks, "generator_index", lambda n, d, cap=None: broken)
    report = check_mul_rule(n, d)
    # the generator rows, the row of sigma, and its column off both
    assert sum(sent) == (n - 1) * count + 2 * count - n
    perms = list(Permutation.all(n))
    assert report.passed is False and report.max_residual >= 0.5
    assert report.details.startswith(f"worst at {perms[k]} * ")


def test_corrupted_index_entry_is_caught_and_named(monkeypatch):
    # move one of the ones of W((1 2 4))^{t_n} at (4, 2) to a free spot
    n, d = 4, 2
    real = generator_index(n, d)
    planted = Permutation.from_cycles(n, [(1, 2, 4)])
    k = int(lehmer_rank(np.array(planted.images) - 1))
    rows, cols = np.array(real.rows), np.array(real.cols)
    free = np.flatnonzero((real.col_count[k] < d)
                          & ~np.isin(np.arange(real.dim), cols[k][rows[k] == rows[k, 0]]))
    cols[k, 0] = free[0]
    broken = GeneratorIndex.from_entries(d, rows, cols, real.dim)
    monkeypatch.setattr(checks, "generator_index", lambda n, d, cap=None: broken)
    report = check_mul_rule(n, d)
    assert report.passed is False and report.max_residual >= 1
    sigma, rho = (Permutation.parse(text, n)
                  for text in report.details.removeprefix("worst at ").split(" * "))
    assert planted in (sigma, rho, mul_generators(sigma, rho)[1])


def test_total_mass_catches_what_the_support_misses():
    # L = [[1, 0], [1, 0]] and R = [[1, 1], [0, 0]]: L R is all ones, so it
    # matches 1 * R on both ones of R and differs only off them
    index = GeneratorIndex.from_entries(2, np.array([[0, 1], [0, 0]]),
                                        np.array([[0, 0], [0, 1]]), 2)
    left, right = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    flagged = index.law_mismatches(left, right, np.ones(4, int), np.array([0, 1, 1, 1]))
    assert flagged.tolist() == [False, True, True, False]
    assert index.law_residuals(left[1:3], right[1:3], np.ones(2, int),
                               np.array([1, 1])).tolist() == [1.0, 1.0]


# V' has three ones in a row at (4, 3), and five at (3, 5)
PROPERTY_GRID = [(n, d) for n in (2, 3, 4) for d in (1, 2, 3)] + [(3, 5)]


@lru_cache(maxsize=None)
def _dense_generators(n: int, d: int) -> np.ndarray:
    stack = generator_stack(n, d, transposed=True)
    return np.stack([stack.op(k).dense() for k in range(len(stack))])


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_law_residuals_are_the_largest_entry_of_the_product_difference(data):
    n, d = data.draw(st.sampled_from(PROPERTY_GRID))
    count = math.factorial(n)
    generator = st.integers(0, count - 1)
    pairs = data.draw(st.lists(st.tuples(generator, generator, generator,
                                         st.sampled_from([0, 1, d, d * d]),
                                         st.booleans()), min_size=1, max_size=6))
    left, right, target, scale, lawful = (np.array(column) for column in zip(*pairs))
    # a lawful pair gets the true product, so that both outcomes occur
    images = image_array(n)
    power, product = mul_generators(images[left], images[right])
    target = np.where(lawful, lehmer_rank(product), target)
    scale = np.where(lawful, d**power, scale)
    ones = _dense_generators(n, d)
    expected = np.abs(ones[left] @ ones[right]
                      - scale[:, None, None] * ones[target]).max(axis=(1, 2))
    index = generator_index(n, d)
    assert np.array_equal(index.law_residuals(left, right, scale, target), expected)
    assert np.array_equal(index.law_mismatches(left, right, scale, target), expected != 0)


@pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (3, 5)])
def test_distances_match_the_float_stack(n, d):
    # the parent's associativity comparison: two gathers and a block max
    rng = np.random.default_rng(n * 10 + d)
    count = len(generator_index(n, d))
    target_a, target_b = rng.integers(count, size=(2, 60))
    target_b[:20] = target_a[:20]
    scale_a, scale_b = d ** rng.integers(2, size=(2, 60))
    stack = generator_stack(n, d, transposed=True)
    expected = stack.combine(target_a[:, None], scale_a[:, None]).residuals(
        stack.combine(target_b[:, None], scale_b[:, None]))
    got = generator_index(n, d).distances(scale_a, target_a, scale_b, target_b)
    assert np.array_equal(got, expected)


def test_mul_rule_at_6_2_is_exact_and_never_holds_a_dense_stack():
    _family.cache_clear()
    tracemalloc.start()
    try:
        report = check_mul_rule(6, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.max_residual == 0.0
    assert peak < 720 * 64 * 64 * 8  # one dense (720, 64, 64) float stack


def test_law_chunks_stay_within_their_bound(monkeypatch):
    seen = []
    real = GeneratorIndex.law_mismatches

    def spy(self, left, right, scale, target):
        seen.append(len(left) * self.rows.shape[1])
        return real(self, left, right, scale, target)

    monkeypatch.setattr(GeneratorIndex, "law_mismatches", spy)
    monkeypatch.setattr(oracle, "LAW_CHUNK_ENTRIES", 2**12)
    for n, d in [(4, 2), (5, 2), (4, 8)]:
        seen.clear()
        assert check_mul_rule(n, d).passed
        index = generator_index(n, d)
        width = index.rows.shape[1]  # the most ones of one generator
        assert max(seen) <= max(2**12, width)
        # the n-1 generator rows: the real law flags no pair
        assert sum(seen) == (n - 1) * len(index) * width


def test_a_law_broken_everywhere_costs_one_residual_call_per_chunk(monkeypatch):
    # every power flipped: every pair fails, and the flagged pairs of a chunk
    # share one entry sum of their products
    def rows_law(n, rows):
        powers, positions = law_rows(n, rows)
        return 1 - powers, positions

    def pair_law(sigma, rho):
        power, out = mul_generators(sigma, rho)
        return 1 - power, out

    calls = []
    real = GeneratorIndex.law_residuals

    def spy(self, *args):
        calls.append(len(args[0]))
        return real(self, *args)

    monkeypatch.setattr(checks, "law_rows", rows_law)
    monkeypatch.setattr(GeneratorIndex, "law_residuals", spy)
    report = check_mul_rule(5, 2)
    residual, culprit = reference_mul_rule(5, 2, pair_law)
    assert report.passed is False and report.max_residual == residual == 1.0
    assert report.details == f"worst at {culprit}"
    index = generator_index(5, 2)
    assert sum(calls) == len(index) ** 2
    assert len(calls) == -(-len(index) ** 2 // index.law_chunk())


# -- the generator families against the index form -------------------------------


def _moved_one(family: GeneratorIndex, k: int) -> GeneratorIndex:
    """The family with one of the ones of operator k moved within its row to
    a free column, in its entries and every list derived from them."""
    rows, cols = np.array(family.rows), np.array(family.cols)
    taken = cols[k][rows[k] == rows[k, 0]]
    cols[k, 0] = np.setdiff1d(np.arange(family.dim), taken)[0]
    return GeneratorIndex.from_entries(family.d, rows, cols, family.dim, family.n,
                                       family.basis)


def _moved_in_its_rows(family: GeneratorIndex, k: int, r: int) -> GeneratorIndex:
    """The family with the first one in row r of operator k moved to a free
    column, in its row lists only: what a left factor gathers by."""
    row_cols = family.row_cols.copy()
    row_cols[0, k, r] = np.setdiff1d(np.arange(family.dim), row_cols[:, k, r])[0]
    return dataclasses.replace(family, row_cols=row_cols)


@pytest.mark.parametrize("n,d", [(2, 1), (3, 2), (4, 3), (4, 8)])
def test_float_generators_hold_the_ones_of_the_index_form(n, d):
    index = generator_index(n, d)
    every = np.arange(len(index))[:, None]
    stack = index.combine(every, np.ones((len(index), 1)))
    line, ones = np.arange(len(index))[:, None], index.cols >= 0
    listed = ((line * index.dim + index.rows) * index.dim + index.cols)[ones]
    assert np.array_equal(_stack_ones(index), np.sort(listed))
    assert index.stack_residuals(stack).tolist() == [0.0] * len(index)


@pytest.mark.parametrize("n,d", [(3, 2), (4, 8)])
def test_adjoint_check_names_a_moved_one_in_the_generator_stack(monkeypatch, n, d):
    planted = Permutation.from_cycles(n, [(1, 3)])
    k = int(lehmer_rank(np.array(planted.images) - 1))
    broken = _moved_one(generator_stack(n, d, transposed=True), k)
    residuals = generator_index(n, d).stack_residuals(broken)
    assert residuals[k] == 1.0 and np.count_nonzero(residuals) == 1
    monkeypatch.setattr(checks, "generator_stack",
                        lambda n, d, transposed=False, cap=None: broken)
    report = checks.check_adjoint_transport(n, d)
    assert report.passed is False and report.max_residual == 1.0
    assert report.details == f"worst at W{planted}^t"


@pytest.mark.parametrize("n,d,whole", [(4, 3, False), (4, 2, True)])
def test_a_moved_one_of_a_generator_left_factor_is_named(monkeypatch, n, d, whole):
    # V' = W((n-1 n))^{t_n}, with d ones in a row, is a generator row of the
    # u actions and, in M, a left factor of m e = m; combinations read its
    # entries, which stay, and left factors its row lists, which do not.  The
    # one moves in a row of strings whose first two digits differ: the u of
    # alpha = (1, 1) are antisymmetric in those, and vanish on the others
    planted = Permutation.transposition(n, n - 1, n)
    k = int(lehmer_rank(np.array(planted.images) - 1))
    assert k in generator_words(n)[0]
    real = checks.generator_stack
    with whole_space() if whole else contextlib.nullcontext():
        family = real(n, d, True)
        assert family.row_count[k].max() == d
        basis = np.arange(d**n) if family.basis is None else family.basis
        differ = basis // d**(n - 1) != basis // d**(n - 2) % d
        r = int(np.flatnonzero((family.row_count[k] > 0) & differ)[0])
        broken = _moved_in_its_rows(family, k, r)
        monkeypatch.setattr(checks, "generator_stack",
                            lambda n_, d_, transposed=False, cap=None:
                            broken if transposed else real(n_, d_, transposed, cap))
        reports = [check_u_structure(alpha, alpha, n, d) for alpha in block_labels(n, d)[0]]
        reports.append(check_unit_of_m(n, d))
    for report in reports:
        assert report.passed is False and report.max_residual >= HOM_TOL
        assert report.details.startswith(f"worst at {planted} * "), report.details


@pytest.mark.parametrize("n,d", [(3, 2), (4, 8)])
def test_adjoint_check_names_a_scaled_single_generator(monkeypatch, n, d):
    # the block of the planted sigma in the batch built apart from the
    # cached stack is scaled by 1.5; the cached stack stays exact
    planted = Permutation.from_cycles(n, [(2, 3)])
    k = int(lehmer_rank(np.array(planted.images) - 1))
    real = checks.transposed_perm_operator

    def build(sigma, *args, **kwargs):
        stack = real(sigma, *args, **kwargs)
        weights = np.ones((len(stack), 1))
        weights[k] = 1.5
        return stack.combine(np.arange(len(stack))[:, None], weights)

    monkeypatch.setattr(checks, "transposed_perm_operator", build)
    report = checks.check_adjoint_transport(n, d)
    assert report.passed is False and report.max_residual == 0.5
    assert report.details == f"worst at W{planted}^t"
