import contextlib
import csv
import hashlib
import io
import json

import numpy as np
import pytest
from click.testing import CliRunner

import goldens
from reference_irreps import image_of
from reference_law import reference_mul_generators
from ptalgebra import checks, cli, irreps
from ptalgebra.checks import CheckReport
from ptalgebra.cli import build_mul_table, main
from ptalgebra.dpoly import DPoly
from ptalgebra.oracle import SizeCapError
from ptalgebra.partitions import Partition
from ptalgebra.permutations import Permutation


def run(*args):
    return CliRunner().invoke(main, list(args))


def _perm_of(code):
    if not code:
        return Permutation.identity(3)
    return Permutation.from_cycles(3, [tuple(int(c) for c in code)])


def test_mul_table_symbolic_matches_published_grid():
    result = run("mul-table", "--n", "3", "--symbolic", "--format", "json")
    assert result.exit_code == 0
    table = json.loads(result.output)
    order = [Permutation.parse(s) for s in table["order"]]
    cell_of = {}
    for i, sigma in enumerate(order):
        for j, rho in enumerate(order):
            cell = table["entries"][i][j]
            cell_of[(sigma, rho)] = (
                DPoly(cell["coeff"]), Permutation.parse(cell["perm"]))
    for (row, col), (power, res) in goldens.TABLE_N3.items():
        coeff, perm = cell_of[(_perm_of(row), _perm_of(col))]
        assert coeff == DPoly.d() ** power
        assert perm == _perm_of(res)


def test_mul_table_n2():
    result = run("mul-table", "--n", "2", "--symbolic", "--format", "json")
    table = json.loads(result.output)
    swap = Permutation([2, 1])
    idx = table["order"].index("2,1")
    cell = table["entries"][idx][idx]
    assert DPoly(cell["coeff"]) == DPoly.d()
    assert Permutation.parse(cell["perm"]) == swap


def test_mul_table_fixed_d_evaluates():
    symbolic = json.loads(run("mul-table", "--n", "3", "--symbolic",
                              "--format", "json").output)
    fixed = json.loads(run("mul-table", "--n", "3", "--d", "2",
                           "--format", "json").output)
    for row_s, row_f in zip(symbolic["entries"], fixed["entries"]):
        for cell_s, cell_f in zip(row_s, row_f):
            assert DPoly(cell_s["coeff"])(2) == cell_f["coeff"]
            assert cell_s["perm"] == cell_f["perm"]


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_mul_table_prints_large_d_exactly(fmt):
    # d (23)^t (23)^t = d (23)^t, and d = 1234567 needs all seven digits
    result = run("mul-table", "--n", "3", "--d", "1234567", "--format", fmt)
    assert result.exit_code == 0
    row = next(line for line in result.output.splitlines()
               if line.lstrip().startswith("(23)^t"))
    assert "1234567(23)^t" in row and "e+06" not in result.output


def test_mul_table_n5_symbolic_json_bytes_are_pinned():
    result = run("mul-table", "--n", "5", "--symbolic", "--format", "json")
    assert result.exit_code == 0
    digest = hashlib.sha256(result.output.encode()).hexdigest()
    assert digest == (
        "6d2acaec2174139cef65a13f0e34392fd88f4beac5715c54c266f066f88d4c8d")


def _digest(*args):
    result = run(*args)
    assert result.exit_code == 0
    return hashlib.sha256(result.stdout_bytes).hexdigest()


def test_mul_table_n6_json_bytes_are_pinned():
    # the bytes of the per-cell dict builder that the integer table replaced
    assert _digest("mul-table", "--n", "6", "--d", "2", "--format", "json") == (
        "2bb312a217cd84fec2e5fb82ee5c2ff76fdf23fccb883029b9002a2d3f3148ca")


@pytest.mark.parametrize("args, digest", [
    (("--n", "4", "--symbolic"),
     "91450dbecb242bb86215566cb65347f2bd1b174f7f6f61c43b81e25a82d716d6"),
    (("--n", "4", "--symbolic", "--format", "csv"),
     "11cb60c034b0f281127f3b507791d553f93467e826c795a86ff1c4f732619df5"),
    (("--n", "4", "--d", "3"),
     "257448a54a114f7a76ec58858e8567020539f12bbef45edc96349053e427ef24"),
    (("--n", "4", "--d", "3", "--format", "csv"),
     "8e3d46ce6f36bf32b6586237c6367d4ae16153a99d90a8587d4be079ca7b83f6"),
    # the bytes of the per-cell padding and csv.writer that the distinct
    # texts replaced
    (("--n", "6", "--d", "2"),
     "e6ece9d4e132db37a0e3cead2b4bfddd9f0790580d3996ebbbf59c495daeeab5"),
    (("--n", "6", "--d", "2", "--format", "csv"),
     "53aba9e167e9eb4e0a4721cb8794a3e5d457a64d8384428b679a21da7ae9d90e"),
])
def test_mul_table_n4_text_and_csv_bytes_are_pinned(args, digest):
    assert _digest("mul-table", *args) == digest


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mul_table_cells_follow_the_reference_law(n):
    perms = list(Permutation.all(n))
    size = len(perms)
    position = {perm: k for k, perm in enumerate(perms)}
    table = build_mul_table(n, 3)
    assert table["order"] == [p.one_line_string() for p in perms]
    assert table["coeffs"] == [1.0, 3.0]
    assert table["cells"].shape == (size, size)
    # every row up to n = 5, twelve seeded rows at n = 6
    rows = (range(size) if n <= 5
            else np.random.default_rng(6).choice(size, 12, replace=False))
    for i in rows:
        expected = [reference_mul_generators(perms[i], rho) for rho in perms]
        assert table["cells"][i].tolist() == [
            power * size + position[tau] for power, tau in expected]
    symbolic = build_mul_table(n, None)
    assert symbolic["coeffs"] == [DPoly([1]), DPoly.d()]
    assert np.array_equal(symbolic["cells"], table["cells"])


def test_mul_table_text_contains_cells():
    result = run("mul-table", "--n", "3", "--symbolic")
    assert result.exit_code == 0
    assert "d(23)^t" in result.output
    assert "(132)^t" in result.output


def test_mul_table_option_validation():
    assert run("mul-table", "--n", "3").exit_code != 0
    assert run("mul-table", "--n", "3", "--d", "2", "--symbolic").exit_code != 0
    assert run("mul-table", "--n", "7", "--symbolic").exit_code != 0


def test_spectrum_examples():
    # sign label at n = 4, d = 2: eigenvalues 3 (x2) and 0 (x1), rank 2
    result = run("spectrum", "--n", "4", "--d", "2", "--alpha", "1,1",
                 "--format", "json")
    record = json.loads(result.output)
    pairs = {(e["nu"], e["lambda"], e["multiplicity"])
             for e in record["eigenpairs"]}
    assert pairs == {("2,1", 3.0, 2), ("1,1,1", 0.0, 1)}
    assert record["rank"] == 2 and record["theta"] == "1,1,1"

    # trivial label at n = 3, d = 5: eigenvalues 6 and 4
    record = json.loads(run("spectrum", "--n", "3", "--d", "5", "--alpha", "1",
                            "--format", "json").output)
    assert {e["lambda"] for e in record["eigenpairs"]} == {6.0, 4.0}
    assert record["theta"] is None

    # trivial label at n = 4, d = 3: 5 (x1) and 2 (x2)
    record = json.loads(run("spectrum", "--n", "4", "--d", "3", "--alpha", "2",
                            "--format", "json").output)
    assert {(e["lambda"], e["multiplicity"]) for e in record["eigenpairs"]} \
        == {(5.0, 1), (2.0, 2)}


def test_spectrum_matrix_roundtrips():
    record = json.loads(run("spectrum", "--n", "4", "--d", "2", "--alpha", "2",
                            "--format", "json").output)
    matrix = np.array(record["matrix"]).reshape(3, 3)
    assert np.array_equal(matrix, goldens.q_n4_id(2))


def test_irrep_command_e_basis_golden():
    result = run("irrep", "--n", "3", "--d", "4", "--kind", "m", "--alpha", "1",
                 "--basis", "e", "--format", "json")
    record = json.loads(result.output)
    assert record["dimension"] == 2 and record["basis_tag"] == "e"
    published = goldens.phi_n3(4)
    adapter = goldens.REVERSAL_ADAPTER_N3
    for code, expected in published.items():
        key = "()" if not code else f"({code})"
        ours = np.array(record["images"][key]).reshape(2, 2)
        assert np.abs(adapter @ ours @ adapter - expected).max() < 1e-12


def test_irrep_command_n4_e_basis_golden():
    record = json.loads(run("irrep", "--n", "4", "--d", "4", "--kind", "m",
                            "--alpha", "2", "--basis", "e",
                            "--format", "json").output)
    for code, expected in goldens.me_n4_id(4).items():
        ours = np.array(record["images"][f"({code})"]).reshape(3, 3)
        assert np.abs(ours - expected).max() < 1e-12


def test_irrep_command_semi_trivial():
    record = json.loads(run("irrep", "--n", "3", "--d", "3", "--kind", "s",
                            "--nu", "1,1", "--format", "json").output)
    assert record["kind"] == "S" and record["dimension"] == 1
    assert record["images"]["(13)"] == [0.0]
    assert record["images"]["(12)"] == [-1.0]
    assert record["images"]["()"] == [1.0]


def test_irrep_command_validation():
    assert run("irrep", "--n", "3", "--d", "2", "--kind", "m").exit_code != 0
    assert run("irrep", "--n", "3", "--d", "2", "--kind", "s").exit_code != 0
    # at n = 2 the label is required as at every n: () for kind m, 1 for kind s
    result = run("irrep", "--n", "2", "--d", "3", "--kind", "m")
    assert result.exit_code == 2 and "kind m needs --alpha" in result.output
    for args in (("--kind", "m", "--alpha", "()"), ("--kind", "s", "--nu", "1")):
        assert run("irrep", "--n", "2", "--d", "3", *args).exit_code == 0


def test_n2_at_d1_is_the_one_dimensional_algebra():
    result = run("verify", "--n", "2", "--d", "1")
    assert result.exit_code == 0 and "10/10 checks passed" in result.output
    result = run("structure", "--n", "2", "--d", "1", "--oracle", "--format", "json")
    assert result.exit_code == 0, result.output
    record = json.loads(result.output)
    assert record["oracle_dim"] == record["dim_total"] == 1


def test_irrep_csv_holds_the_json_entries():
    # repr(float) round-trips: -617283.4999997976 is not cut to -617283
    args = ("irrep", "--n", "3", "--d", "1234567", "--kind", "m", "--alpha", "1")
    record = json.loads(run(*args, "--format", "json").output)
    rows = list(csv.reader(io.StringIO(run(*args, "--format", "csv").output)))
    assert [row[0] for row in rows[1:]] == list(record["images"])
    for row in rows[1:]:
        assert [float(cell) for cell in row[1:]] == record["images"][row[0]]
    assert any(not x.is_integer() and abs(x) > 1e5
               for flat in record["images"].values() for x in flat)


@pytest.mark.parametrize("n, d, args, build", [
    pytest.param(6, 3, ("m", "--alpha", "2,2", "--basis", "e"), irreps.irrep_M_e, id="m-e"),
    pytest.param(6, 3, ("s", "--nu", "3,2"), irreps.irrep_S, id="s"),
    # 6,532 distinct values
    pytest.param(6, 3, ("m", "--alpha", "3,1"), irreps.irrep_M_f, id="m-f"),
    pytest.param(2, 3, ("m", "--alpha", "()"), irreps.irrep_M_f, id="n2"),
    pytest.param(3, 1234567, ("m", "--alpha", "1"), irreps.irrep_M_f, id="large-d"),
])
def test_irrep_json_has_the_bytes_of_the_per_entry_float_form(n, d, args, build):
    result = run("irrep", "--n", str(n), "--d", str(d), "--kind", *args,
                 "--format", "json")
    assert result.exit_code == 0, result.output
    rep = build(Partition.parse(args[2]), d, n)
    assert result.output == json.dumps(rep.to_dict()) + "\n"
    record = rep.to_dict() | {"images": {
        sigma.cycle_string(): [float(x) for x in image_of(rep, sigma).ravel()]
        for sigma in Permutation.all(n)}}
    assert result.output == json.dumps(record) + "\n"


def _json_of(texts):
    """The JSON text of nested lists of JSON texts."""
    return texts if isinstance(texts, str) else f"[{', '.join(map(_json_of, texts))}]"


def test_distinct_floats_print_each_entry_as_its_own_float():
    # 0.0 and -0.0 compare equal, and so do no two NaNs; each keeps its text
    payload_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]
    values = [0.0, -0.0, 5e-324, 1 / 3, 1e16, np.nan, -np.nan, payload_nan,
              np.inf, -np.inf, -617283.4999997976]
    stack = np.random.default_rng(3).permutation(np.array(values * 6)).reshape(2, 3, 11)
    assert _json_of(cli._gather(*cli._distinct_floats(stack, json.dumps))) == (
        json.dumps(stack.tolist()))
    assert cli._gather(*cli._distinct_floats(stack, repr)) == [
        [[repr(x) for x in row] for row in image] for image in stack.tolist()]


def test_csv_quotes_each_distinct_text_as_csv_writer_does():
    texts = ["plain", "a,b", 'say "hi"', "two\nlines", "", " lead", "cr\r"]
    codes = np.random.default_rng(5).integers(len(texts), size=(6, 4))
    headers = ["h,1", "h2", "", "h4"]
    buffer = io.StringIO()
    csv.writer(buffer).writerows([headers] + [[texts[k] for k in row] for row in codes])
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._emit_csv(headers, texts, codes)
    assert out.getvalue() == buffer.getvalue()


def test_irrep_text_prints_integral_entries_in_full():
    # the e basis at n = 3 holds d itself: 1234567, not 1.23457e+06
    result = run("irrep", "--n", "3", "--d", "1234567", "--kind", "m",
                 "--alpha", "1", "--basis", "e")
    assert result.exit_code == 0
    assert "1234567" in result.output and "e+06" not in result.output


def test_structure_command():
    record = json.loads(run("structure", "--n", "4", "--d", "2", "--oracle",
                            "--format", "json").output)
    assert record["dim_total"] == 14 and record["oracle_dim"] == 14
    assert {(e["alpha"], e["rank"]) for e in record["m_blocks"]} \
        == {("2", 3), ("1,1", 2)}
    record = json.loads(run("structure", "--n", "3", "--d", "3",
                            "--format", "json").output)
    assert record["dim_total"] == 6 and record["oracle_dim"] is None


def test_structure_text_format():
    result = run("structure", "--n", "3", "--d", "2")
    assert result.exit_code == 0
    assert "dim M = 4, dim S = 1, total = 5" in result.output


def test_verify_command_passes_and_exit_codes():
    result = run("verify", "--n", "3", "--d", "2", "--suite", "dims",
                 "--format", "json")
    assert result.exit_code == 0
    reports = json.loads(result.output)
    assert all(r["passed"] for r in reports)
    # a loose tolerance keeps passing checks passing
    result = run("verify", "--n", "3", "--d", "2", "--suite", "dims",
                 "--tol", "1e300")
    assert result.exit_code == 0
    # the f-basis images carry irrational entries, so their homomorphism
    # residual is tiny but nonzero and an impossible tolerance must fail
    result = run("verify", "--n", "3", "--d", "2", "--suite", "irreps",
                 "--tol", "1e-300")
    assert result.exit_code > 0


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_verify_rejects_a_tol_that_is_not_positive_and_finite(tol):
    result = run("verify", "--n", "3", "--d", "2", "--suite", "mul",
                 "--tol", tol)
    assert result.exit_code == 2
    assert "--tol must be positive and finite" in result.output


def test_verify_tol_cannot_pass_a_failed_check(monkeypatch):
    # structural checks report residual 1.0 when they fail; a tolerance
    # above it must not turn the FAIL into a PASS
    failed = CheckReport("dimensions", {"n": 3, "d": 2}, False, 1.0, "broken")
    monkeypatch.setattr(cli, "run_suite", lambda *args: [failed])
    result = run("verify", "--n", "3", "--d", "2", "--suite", "dims",
                 "--tol", "2")
    assert result.exit_code == 1
    assert "[FAIL] dimensions" in result.output


def test_verify_exits_255_when_a_check_raises(monkeypatch):
    def crash(*args):
        raise RuntimeError("planted")

    monkeypatch.setattr(cli, "run_suite", crash)
    result = run("verify", "--n", "3", "--d", "2", "--suite", "dims")
    assert result.exit_code == cli.CRASH_EXIT == 255
    assert "Traceback" in result.stderr
    assert "RuntimeError: planted" in result.stderr


def test_a_wrong_block_inventory_fails_the_dimensions_check(monkeypatch):
    # a planted rank defect: rank Q(alpha) + 1 on the one-row alpha
    rank_of_q = irreps.rank_of_q
    monkeypatch.setattr(irreps, "rank_of_q", lambda alpha, d, n:
                        rank_of_q(alpha, d, n) + (alpha.height == 1))
    result = run("verify", "--n", "4", "--d", "2", "--suite", "dims")
    assert result.exit_code == 1, result.output
    assert "[FAIL] dimensions" in result.output
    assert "blocks 20+1 != formula 14" in result.output
    # the inventory itself claims nothing, so structure still prints it
    assert run("structure", "--n", "4", "--d", "2").exit_code == 0


def test_verify_failure_count_stops_below_the_crash_code(monkeypatch):
    # 300 failures must not read as a crash (255) or wrap to 0 (256)
    failed = CheckReport("dimensions", {"n": 3, "d": 2}, False, 1.0, "broken")
    monkeypatch.setattr(cli, "run_suite", lambda *args: [failed] * 300)
    result = run("verify", "--n", "3", "--d", "2", "--suite", "dims")
    assert result.exit_code == 254
    assert "0/300 checks passed" in result.output


def test_verify_text_output():
    result = run("verify", "--n", "2", "--d", "2", "--suite", "mul")
    assert "[PASS]" in result.output
    assert result.exit_code == 0


def test_csv_formats():
    result = run("spectrum", "--n", "3", "--d", "2", "--alpha", "1",
                 "--format", "csv")
    lines = result.output.strip().splitlines()
    assert lines[0] == "nu,lambda,multiplicity"
    assert len(lines) == 3
    result = run("structure", "--n", "3", "--d", "2", "--format", "csv")
    assert result.output.splitlines()[0] == "kind,label,size"


def test_spectrum_prints_lambda_as_an_integer():
    # lambda = d + content: 1234568 and 1234566, not 1.23457e+06
    result = run("spectrum", "--n", "3", "--d", "1234567", "--alpha", "1",
                 "--format", "csv")
    assert result.output.splitlines()[1:] == ["2,1234568,1", '"1,1",1234566,1']
    text = run("spectrum", "--n", "3", "--d", "1234567", "--alpha", "1").output
    assert "1234568" in text and "e+06" not in text.split("nu")[1]


def test_spectrum_prints_integer_entries_of_q_as_integers():
    # Q(1) at n = 3 is [[d, 1], [1, d]]; entries that are not integers keep :g
    text = run("spectrum", "--n", "3", "--d", "1234567", "--alpha", "1").output
    assert text.splitlines()[1:3] == ["  1234567  1", "  1  1234567"]
    assert "e+06" not in text
    text = run("spectrum", "--n", "5", "--d", "2", "--alpha", "2,1").output
    assert text.splitlines()[1] == "  2  0  -1  0  0.5  -0.866025  1  0"


@pytest.mark.parametrize("suite", ["all", "irreps", "spectra"])
def test_verify_json_parses_and_round_trips(suite):
    result = run("verify", "--n", "3", "--d", "2", "--suite", suite,
                 "--format", "json")
    assert result.exit_code == 0, result.output
    records = json.loads(result.output)
    assert records
    for record in records:
        report = CheckReport(**record)
        assert report.passed is True
        assert report.to_dict() == record
        assert json.loads(json.dumps(report.to_dict())) == record


@pytest.mark.parametrize("args, option", [
    (("mul-table", "--n", "1", "--d", "2"), "'--n'"),
    (("mul-table", "--n", "2", "--d", "0"), "'--d'"),
    (("verify", "--n", "3", "--d", "0"), "'--d'"),
    (("irrep", "--n", "3", "--d", "2", "--kind", "m", "--alpha", "2"), "'--alpha'"),
    # at n = 2 the only labels are () for kind m and 1 for kind s
    (("irrep", "--n", "2", "--d", "3", "--kind", "s", "--nu", "3,2"), "'--nu'"),
    (("irrep", "--n", "2", "--d", "3", "--kind", "m", "--alpha", "5"), "'--alpha'"),
    # an option of the other kind is refused, not ignored
    (("irrep", "--n", "3", "--d", "2", "--kind", "s", "--nu", "2", "--alpha", "7,7"),
     "'--alpha'"),
    (("irrep", "--n", "3", "--d", "2", "--kind", "m", "--alpha", "1", "--nu", "2"),
     "'--nu'"),
    (("irrep", "--n", "3", "--d", "2", "--kind", "s", "--nu", "2", "--basis", "e"),
     "'--basis'"),
])
def test_invalid_input_is_a_usage_error(args, option):
    result = run(*args)
    assert result.exit_code == 2
    assert f"Invalid value for {option}" in result.output


@pytest.mark.parametrize("args, option", [
    (("structure", "--n", "3", "--d", "0"), "'--d'"),
    (("structure", "--n", "1", "--d", "2"), "'--n'"),
    (("spectrum", "--n", "4", "--d", "2", "--alpha", "3"), "'--alpha'"),
    (("spectrum", "--n", "2", "--d", "2", "--alpha", "1"), "'--alpha'"),
    (("spectrum", "--n", "3", "--d", "0", "--alpha", "1"), "'--d'"),
    (("spectrum", "--n", "4", "--d", "2", "--alpha", "x"), "'--alpha'"),
    (("verify", "--n", "3", "--d", "2", "--cap", "0"), "'--cap'"),
])
def test_invalid_spectrum_and_structure_input_is_a_usage_error(args, option):
    result = run(*args)
    assert result.exit_code == 2
    assert f"Invalid value for {option}" in result.output


@pytest.mark.parametrize("args", [
    ("verify", "--n", "5", "--d", "2", "--suite", "mul", "--cap", "16"),
    ("verify", "--n", "3", "--d", "2", "--suite", "appc", "--cap", "4"),
    ("verify", "--n", "3", "--d", "2", "--suite", "all", "--cap", "7"),
    ("structure", "--n", "3", "--d", "2", "--oracle", "--cap", "4"),
])
def test_oracle_above_the_cap_is_a_usage_error(args):
    result = run(*args)
    assert result.exit_code == 2
    assert "size cap" in result.output and "PTALGEBRA_CAP" in result.output


def test_cap_from_the_environment(monkeypatch):
    monkeypatch.setenv("PTALGEBRA_CAP", "16")
    result = run("verify", "--n", "5", "--d", "2", "--suite", "mul")
    assert result.exit_code == 2 and "size cap 16" in result.output
    # an explicit --cap overrides the environment
    assert run("verify", "--n", "2", "--d", "2", "--suite", "mul",
               "--cap", "4").exit_code == 0
    for raw in ("abc", "0"):
        monkeypatch.setenv("PTALGEBRA_CAP", raw)
        for args in (("verify", "--n", "3", "--d", "2", "--suite", "dims"),
                     ("structure", "--n", "3", "--d", "2", "--oracle")):
            result = run(*args)
            assert result.exit_code == 2
            assert "is not a positive integer" in result.output


def test_a_size_cap_error_from_the_oracle_is_a_usage_error(monkeypatch):
    def over_the_cap(*args):
        raise SizeCapError("planted: d^n exceeds the oracle size cap")

    monkeypatch.setattr(cli, "run_suite", over_the_cap)
    result = run("verify", "--n", "3", "--d", "2")
    assert result.exit_code == 2 and "planted" in result.output


def test_the_cap_stops_a_suite_before_any_work_of_size_n_factorial(monkeypatch):
    # the oracle is asked first, so above the cap no S(n) is listed
    def listed(*args):
        raise AssertionError("S(n) listed above the cap")

    monkeypatch.setattr(Permutation, "all", staticmethod(listed))
    monkeypatch.setattr(checks, "image_array", listed)
    for suite in ("all", "mul", "appc"):
        result = run("verify", "--n", "8", "--d", "3", "--suite", suite)
        assert result.exit_code == 2 and "size cap 4096" in result.output


def test_suites_without_the_oracle_run_above_the_cap():
    result = run("verify", "--n", "4", "--d", "3", "--suite", "spectra", "--cap", "4")
    assert result.exit_code == 0 and "1/1 checks passed" in result.output


def test_a_malformed_cap_variable_is_a_usage_error_without_the_oracle(monkeypatch):
    monkeypatch.setenv("PTALGEBRA_CAP", "abc")
    for args in (("verify", "--n", "3", "--d", "2", "--suite", "spectra"),
                 ("structure", "--n", "3", "--d", "2")):
        result = run(*args)
        assert result.exit_code == 2
        assert "PTALGEBRA_CAP='abc' is not a positive integer" in result.output


def test_dims_suite_skips_the_oracle_above_the_cap():
    result = run("verify", "--n", "3", "--d", "2", "--suite", "dims",
                 "--cap", "4", "--format", "json")
    assert result.exit_code == 0
    [report] = json.loads(result.output)
    assert report["passed"] and "oracle skipped (size cap)" in report["details"]


def test_verify_reports_the_tolerance_in_every_format():
    records = json.loads(run("verify", "--n", "3", "--d", "2", "--suite", "all",
                             "--format", "json").output)
    tols = {r["check"]: r["tol"] for r in records}
    assert tols["mul_rule"] == 1e-10 and tols["u_structure"] == 1e-8
    assert tols["dimensions"] is None
    lines = run("verify", "--n", "3", "--d", "2", "--suite", "mul",
                "--format", "csv").output.splitlines()
    assert lines[0] == "check,passed,max_residual,tol,details"
    assert lines[1] == "mul_rule,True,0.000e+00,1e-10,"
    text = run("verify", "--n", "3", "--d", "2", "--suite", "all").output
    assert "[PASS] mul_rule {'n': 3, 'd': 2} residual 0.000e+00 tol 1e-10\n" in text
    assert "residual 0.000e+00 (blocks" in text  # dimensions: no tolerance


def test_verify_tol_reports_the_smaller_threshold():
    def tols(tol):
        records = json.loads(run("verify", "--n", "3", "--d", "2", "--suite", "all",
                                 "--tol", tol, "--format", "json").output)
        return {r["check"]: r["tol"] for r in records}

    tight, loose = tols("1e-12"), tols("1")
    assert tight["mul_rule"] == 1e-12 and tight["irreps"] == 1e-12
    assert loose["mul_rule"] == 1e-10 and loose["irreps"] == 1e-8
    assert tight["dimensions"] is None and loose["dimensions"] is None
