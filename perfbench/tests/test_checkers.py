"""Each checker accepts real ptalgebra output and rejects a corrupted copy."""

import ast
import json
from itertools import permutations

import numpy as np
import pytest
from click.testing import CliRunner

from checkers import GeneratorLaw, Rejected, check_output
from conftest import BENCH
from ptalgebra.algebra import mul_generators
from ptalgebra.cli import main
from ptalgebra.permutations import Permutation


def cli_json(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def judge(args, record, seed=0):
    check_output(args, json.dumps(record).encode(), np.random.default_rng(seed))


def assert_rejected(args, record):
    with pytest.raises(Rejected):
        judge(args, record)


def test_checkers_do_not_import_ptalgebra():
    tree = ast.parse((BENCH / "checkers.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert not any(m.startswith("ptalgebra") for m in modules)


def test_generator_law_matches_the_algebra():
    law = GeneratorLaw(4)
    for sigma in permutations(range(1, 5)):
        for rho in permutations(range(1, 5)):
            power, tau = mul_generators(Permutation(sigma), Permutation(rho))
            assert law.product(sigma, rho) == (power, tau.images)


def test_output_that_is_not_json_is_rejected():
    with pytest.raises(Rejected, match="not JSON"):
        check_output(["verify", "--n", "3"], b"[PASS] mul_rule", np.random.default_rng(0))


def test_verify():
    args = ["verify", "--n", "3", "--d", "2", "--suite", "mul", "--format", "json"]
    reports = cli_json(args)
    judge(args, reports)
    reports[1]["passed"] = False
    assert_rejected(args, reports)
    assert_rejected(args, reports[:1])
    assert_rejected(args, [r | {"max_residual": None} for r in reports])


@pytest.mark.parametrize("extra", [["--d", "2"], ["--symbolic"]])
def test_mul_table(extra):
    args = ["mul-table", "--n", "4", *extra, "--format", "json"]
    table = cli_json(args)
    judge(args, table)
    for row in table["entries"]:
        for cell in row:
            cell["coeff"] = [1] if extra == ["--symbolic"] else 1
    assert_rejected(args, table)


def test_mul_table_with_a_wrong_permutation_is_rejected():
    args = ["mul-table", "--n", "3", "--d", "2", "--format", "json"]
    table = cli_json(args)
    for row in table["entries"]:
        row[0]["perm"], row[1]["perm"] = row[1]["perm"], row[0]["perm"]
    assert_rejected(args, table)


def test_irrep():
    args = ["irrep", "--n", "4", "--d", "3", "--kind", "m", "--alpha", "1,1",
            "--basis", "e", "--format", "json"]
    record = cli_json(args)
    judge(args, record)
    for name, flat in record["images"].items():
        if name != "()":
            record["images"][name] = [1.1 * x for x in flat]
    assert_rejected(args, record)


def test_irrep_with_the_wrong_label_is_rejected():
    args = ["irrep", "--n", "4", "--d", "3", "--kind", "s", "--nu", "2,1", "--format", "json"]
    record = cli_json(args)
    judge(args, record)
    assert_rejected(args, record | {"label": "3"})


@pytest.mark.parametrize("d, alpha", [(3, "2,1"), (2, "1,1")])
def test_spectrum(d, alpha):
    n = sum(map(int, alpha.split(","))) + 2
    args = ["spectrum", "--n", str(n), "--d", str(d), "--alpha", alpha, "--format", "json"]
    record = cli_json(args)
    judge(args, record)
    shifted = json.loads(json.dumps(record))
    shifted["eigenpairs"][0]["lambda"] += 1.0
    assert_rejected(args, shifted)
    assert_rejected(args, record | {"rank": record["rank"] - 1})
    assert_rejected(args, record | {"theta": "9"})


def test_spectrum_rank_deficient_case_names_theta():
    args = ["spectrum", "--n", "4", "--d", "2", "--alpha", "1,1", "--format", "json"]
    record = cli_json(args)
    assert record["theta"] is not None
    judge(args, record)
    assert_rejected(args, record | {"theta": None})


def test_structure():
    args = ["structure", "--n", "4", "--d", "2", "--oracle", "--format", "json"]
    record = cli_json(args)
    judge(args, record)
    assert_rejected(args, record | {"oracle_dim": record["oracle_dim"] - 1})
    assert_rejected(args, record | {"dim_total": record["dim_total"] + 1})
