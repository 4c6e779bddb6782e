"""The balanced weight sector: a faithful, smaller home for the oracle.

Every claim that is linear in the algebra holds on the balanced sector iff
it holds on the whole space, so the checks give the same verdicts and the
same span ranks on both.  A sector that misses a block shows as a rank
shortfall in ``check_dimensions``.  The span rank reads the smaller of the
two Gram forms, and verify at (7, 2) and at (6, 4) fit a tier-1 budget.
"""

import contextlib
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ptalgebra.oracle as oracle
from ptalgebra.algebra import AlgebraContext, AlgebraElement
from ptalgebra.checks import check_dimensions, run_suite
from ptalgebra.irreps import algebra_dimension_formula
from ptalgebra.oracle import (RANK_RTOL, OperatorStack, element_operator,
                              generator_stack, gram_rank, identity_operator,
                              matrix_operators_E, partial_transpose_last,
                              perm_operator, sector, span_dimension,
                              transposed_perm_operator)
from ptalgebra.partitions import partitions_of
from ptalgebra.permutations import Permutation, image_array
from ptalgebra.yor import averaging_weights
from whole_space import whole_space

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("n,d,size", [(5, 2, 10), (7, 2, 35), (7, 3, 210), (4, 8, 42)])
def test_the_balanced_transposed_sector_is_small(n, d, size):
    basis = sector(n, d, True)
    assert len(basis) == size < d**n
    assert np.all(np.diff(basis) > 0) and not basis.flags.writeable


def test_the_sectors_of_one_family_partition_the_space():
    # the plain weights of n = 4 digits below d = 3, one basis string each
    n, d = 4, 3
    weights = [(a, b, n - a - b) for a in range(n + 1) for b in range(n + 1 - a)]
    parts = np.concatenate([sector(n, d, weight=w) for w in weights])
    assert np.array_equal(np.sort(parts), np.arange(d**n))


@pytest.mark.parametrize("transposed", [False, True])
def test_a_malformed_weight_is_refused_by_name(transposed):
    with pytest.raises(ValueError, match=r"weight \(1, 1, 1\) does not have d = 2"):
        sector(3, 2, transposed, weight=(1, 1, 1))
    with pytest.raises(ValueError, match=r"weight \(4, -1\) has no basis string"):
        sector(3, 2, transposed, weight=(4, -1))
    with pytest.raises(ValueError, match=r"weight \(4, -1\)"):
        perm_operator(image_array(3), 2, 3, basis=sector(3, 2, weight=(4, -1)))


def test_a_basis_that_is_not_invariant_is_refused():
    # 001 alone: W((13)) maps it to 100, outside its span
    with pytest.raises(ValueError, match="invariant"):
        perm_operator(image_array(3), 2, 3, basis=np.array([1]))
    with pytest.raises(ValueError, match="invariant"):
        transposed_perm_operator(image_array(3), 2, 3, basis=np.array([0]))


def test_a_basis_out_of_order_or_past_the_space_is_refused():
    # an invariant basis, reversed, or with an index past d^n
    basis = sector(3, 2)
    for bad in (basis[::-1], np.append(basis, 2**3)):
        with pytest.raises(ValueError, match="strictly increasing indices below"):
            perm_operator(image_array(3), 2, 3, basis=bad)


def test_operators_on_two_bases_do_not_combine():
    # at (5, 2) the plain sector (3, 2) and the transposed sector both hold
    # 10 states, so only the basis each operator carries tells them apart
    ctx = AlgebraContext(5, 2)
    e = element_operator(AlgebraElement(ctx, {Permutation.identity(5): 1.0}))
    plain = perm_operator(Permutation.identity(5), 2, basis=sector(5, 2))
    assert plain.dim == e.dim == 10
    with pytest.raises(ValueError, match="different bases"):
        plain @ e
    with pytest.raises(ValueError, match="different bases"):
        OperatorStack.concat([generator_stack(5, 2), generator_stack(5, 2, True)])
    with pytest.raises(ValueError, match="whole space"):
        partial_transpose_last(e)
    assert (e @ identity_operator(5, 2, basis=sector(5, 2, True))).distance(e) == 0
    whole = perm_operator(Permutation.identity(5), 2)
    assert whole.basis is None
    assert partial_transpose_last(whole).distance(whole) == 0


GRID = ([(n, 2) for n in range(3, 7)] + [(n, 3) for n in range(3, 6)]
        + [(n, 4) for n in range(3, 6)] + [(3, 5), (4, 5)])


def _verdicts(reports):
    return [(r.check, r.params, r.passed) for r in reports]


@pytest.mark.parametrize("n,d", GRID)
def test_the_sector_and_the_whole_space_agree(n, d):
    on_sector = run_suite(n, d, "all")
    ranks = [span_dimension(generator_stack(n, d, t)) for t in (False, True)]
    with whole_space():
        assert generator_stack(n, d).dim == d**n
        whole = run_suite(n, d, "all")
        assert [span_dimension(generator_stack(n, d, t)) for t in (False, True)] == ranks
    assert all(r.passed for r in on_sector)
    assert _verdicts(on_sector) == _verdicts(whole)
    assert [r.details for r in on_sector] == [r.details for r in whole]


def test_an_unbalanced_transposed_sector_fails_by_its_rank_shortfall(monkeypatch):
    # weight (2, 0) at (4, 2) lies below the highest weight (1, 1) of the
    # kind-M block of alpha = (1, 1), so that block, of dimension 2, is
    # missing there and the span is 14 - 2^2
    real = oracle.sector

    def unbalanced(n, d, transposed=False, weight=None):
        if transposed and weight is None:
            weight = (n - 2,) + (0,) * (d - 1)
        return real(n, d, transposed, weight)

    oracle._family.cache_clear()
    monkeypatch.setattr(oracle, "sector", unbalanced)
    try:
        report = check_dimensions(4, 2)
    finally:
        oracle._family.cache_clear()
    assert report.passed is False
    assert report.details == ("blocks 13+1 = formula 14; oracle transposed 10, plain 14, "
                              "averaged families 14; rank short of the formula by 4")


def _rank(eigs):
    return int((eigs > RANK_RTOL * eigs.max()).sum())


@pytest.mark.parametrize("n,d,whole,smaller", [
    (5, 2, False, True),   # s^2 = 100 < K = 120
    (3, 5, False, False),  # s^2 = 81 > K = 6
    (4, 2, True, False),   # on the whole space: s^2 = 256 > K = 24
])
def test_span_ranks_read_off_either_gram_agree(n, d, whole, smaller):
    # both exact integer Grams of the index lists, each the product Gram of
    # the dense stack of the same generators
    with whole_space() if whole else contextlib.nullcontext():
        family = generator_stack(n, d, True)
        assert (family.dim**2 < len(family)) == smaller
        every = np.arange(len(family))[:, None]
        dense = family.combine(every, np.ones((len(family), 1)))
        grams = [family.gram(), family.gram(by_position=True)]
        assert [g.shape for g in grams] == [(len(family),) * 2, (family.dim**2,) * 2]
        assert np.array_equal(grams[0], dense.gram())
        assert np.array_equal(grams[1], dense.gram(by_position=True))
        ranks = {_rank(np.linalg.eigvalsh(gram)) for gram in grams}
        assert ranks == {span_dimension(family)}


@pytest.mark.parametrize("n,d", [(5, 2), (6, 2), (4, 3), (5, 3), (4, 4)])
def test_averaged_families_rank_the_same_built_or_through_the_plain_gram(n, d):
    # check_dimensions builds the families when s^2 < n! ((5, 2), (6, 2)),
    # summing one V V^T per family, and reads C G C^T otherwise; every form
    # gives the formula on either route
    plain = generator_stack(n, d)
    families = [matrix_operators_E(plain, mu) for mu in partitions_of(n)]
    built = OperatorStack.concat(families)
    summed = sum(f.gram(by_position=True) for f in families)
    weights = np.concatenate([averaging_weights(mu).reshape(-1, len(plain))
                              for mu in partitions_of(n)])
    expected = algebra_dimension_formula(n, d)
    assert span_dimension(built) == gram_rank(summed) == expected
    assert gram_rank(weights @ plain.gram() @ weights.T) == expected


def _run(args, env=None, limit=None, timeout=120):
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(SRC), **(env or {}))
    return subprocess.run([sys.executable, "-c", args], env=env, capture_output=True,
                          text=True, timeout=timeout, preexec_fn=cap if limit else None)


def test_verify_keeps_numpy_ma_and_random_off_its_path():
    code = ("import json, sys, contextlib, io\n"
            "from ptalgebra.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    try:\n"
            "        main(['verify', '--n', '5', '--d', '2', '--suite', 'all',\n"
            "              '--format', 'json'], standalone_mode=False)\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code in (0, None), exc.code\n"
            "reports = json.loads(out.getvalue())\n"
            "assert reports and all(r['passed'] for r in reports), reports\n"
            "loaded = [m for m in ('numpy.ma', 'numpy.random') if m in sys.modules]\n"
            "assert loaded == [], loaded\n")
    result = _run(code)
    assert result.returncode == 0, result.stderr


def test_verify_dims_at_7_2_fits_the_frontier_budget():
    # 3 GB of address space and 60 s, one BLAS thread
    code = ("from ptalgebra.cli import main\n"
            "main(['verify', '--n', '7', '--d', '2', '--suite', 'dims'])\n")
    result = _run(code, env={"OPENBLAS_NUM_THREADS": "1"}, limit=3 * 2**30, timeout=60)
    assert result.returncode == 0, result.stdout + result.stderr


def test_verify_all_at_6_4_fits_the_frontier_budget():
    # 3 GB of address space and 15 s, one BLAS thread: every law on its
    # pivot pairs, every left action on the pivot column
    code = ("from ptalgebra.cli import main\n"
            "main(['verify', '--n', '6', '--d', '4', '--suite', 'all'])\n")
    result = _run(code, env={"OPENBLAS_NUM_THREADS": "1"}, limit=3 * 2**30, timeout=15)
    assert result.returncode == 0, result.stdout + result.stderr


def test_verify_irreps_at_7_3_fits_the_frontier_budget():
    # 232 MB of address space and 30 s, one BLAS thread: every law claim in
    # chunks of products, with no (n!, D, D) product per generator row; the
    # peak is 191 MB, and 275 MB with such a product
    code = ("from ptalgebra.cli import main\n"
            "main(['verify', '--n', '7', '--d', '3', '--suite', 'irreps'])\n")
    result = _run(code, env={"OPENBLAS_NUM_THREADS": "1"}, limit=232 * 2**20, timeout=30)
    assert result.returncode == 0, result.stdout + result.stderr


def test_unit_of_m_at_7_3_fits_the_frontier_budget():
    # 512 MB of address space and 10 s, one BLAS thread: e on the n-1
    # generator rows, with no stack of every sigma
    code = ("from ptalgebra.checks import check_unit_of_m\n"
            "report = check_unit_of_m(7, 3)\n"
            "assert report.passed, report\n")
    result = _run(code, env={"OPENBLAS_NUM_THREADS": "1"}, limit=2**29, timeout=10)
    assert result.returncode == 0, result.stdout + result.stderr
