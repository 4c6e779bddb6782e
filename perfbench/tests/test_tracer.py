"""The tracer wraps every binding site, and each layer records calls where expected."""

import json

import pytest

import run
import tracer
from conftest import ROOT
from tracer import LAYERS, Tracer

# Layer metric -> workloads on which it must record work.  These follow the
# layer table in README.md, except where the code calls a layer on fewer
# workloads than that table names; README.md lists those places.
COVERAGE = {
    "oracle.build.calls": ("oracle_small", "oracle_large"),
    "oracle.matmul.calls": ("oracle_small",),
    "oracle.linear.calls": ("oracle_small",),
    "oracle.compare.calls": ("oracle_small",),
    "oracle.span_dimension.calls": ("oracle_large",),
    "oracle.matrix_operators_E.calls": ("oracle_large",),
    "oracle.nnz_built": ("oracle_large",),
    "algebra.mul_generators.calls": ("generators_n6", "oracle_small"),
    "algebra.element_mul.calls": ("oracle_small",),
    "algebra.u_element.calls": ("oracle_small",),
    "reduction.xa_reduce.calls": ("oracle_small",),
    "permutations.compose.calls": ("generators_n6", "spectra_n7"),
    "permutations.inverse.calls": ("generators_n6", "spectra_n7"),
    "dpoly.calls": ("generators_n6",),
    "yor.irrep.calls": ("spectra_n7",),
    "yor.image.calls": ("spectra_n7",),
    "induced.matrix.calls": ("spectra_n7",),
    "induced.z_matrix.calls": ("spectra_n7",),
    "induced.q_matrix.self_s": ("spectra_n7",),
    "induced.q_via_induced.self_s": ("spectra_n7",),
    "induced.spectral_q.self_s": ("spectra_n7",),
    "irreps.image.calls": ("generators_n6", "oracle_small"),
    "irreps.build.calls": ("generators_n6", "oracle_small"),
    "irreps.structure_report.self_s": ("oracle_small",),
    "irreps.unit_of_M.self_s": ("oracle_small",),
    "checks.mul_rule.s": ("oracle_small", "oracle_large"),
    "checks.associativity.s": ("oracle_small", "oracle_large"),
    "checks.adjoint_transport.s": ("oracle_small", "oracle_large"),
    "checks.spectra.s": ("oracle_small", "spectra_n7"),
    "checks.irreps.s": ("oracle_small", "generators_n6"),
    "checks.dimensions.s": ("oracle_small", "oracle_large"),
    "checks.matrix_operators.s": ("oracle_small",),
    "checks.reduced_matrix_units.s": ("oracle_small",),
    "checks.u_structure.s": ("oracle_small",),
    "checks.unit_of_M.s": ("oracle_small",),
    "checks.self_s": ("oracle_small", "oracle_large", "spectra_n7", "generators_n6"),
    "cli.build_mul_table.s": ("generators_n6",),
    "cli.self_s": ("oracle_small", "oracle_large", "spectra_n7", "generators_n6"),
}


def test_every_target_exists_and_names_imported_elsewhere_are_wrapped():
    import ptalgebra.checks as checks
    import ptalgebra.cli as cli

    original = checks.mul_generators
    with Tracer() as t:
        assert t.missing == []
        assert checks.mul_generators is not original
        assert cli.mul_generators is checks.mul_generators
        assert "ptalgebra.checks.sym_irrep" in t.sites["ptalgebra.yor.irrep"]
        assert "ptalgebra.checks.transposed_perm_operator" in (
            t.sites["ptalgebra.oracle.transposed_perm_operator"])
    assert checks.mul_generators is original


def test_self_time_excludes_wrapped_children():
    from ptalgebra.cli import main

    with Tracer() as t:
        t.span(tracer.COMMAND_GROUP, main,
               ["mul-table", "--n", "3", "--symbolic", "--format", "json"],
               standalone_mode=False)
    command = t.stats[tracer.COMMAND_GROUP]
    table = t.stats["ptalgebra.cli.build_mul_table"]
    assert table.calls == 1 and table.total_s < command.total_s
    assert command.self_s <= command.total_s - table.total_s + 1e-9
    assert t.metrics()["dpoly.calls"] > 0
    assert [s[2] for s in t.spans][-1] == tracer.COMMAND_GROUP


def test_benchmark_json_names_only_metrics_the_run_produces():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(Tracer().metrics()) | {"trace.overhead_s"}
    for metric in spec["per_layer"]:
        assert metric["name"] in produced
        assert metric["unit"] == run.unit_of(metric["name"])
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.unit_of(metric["name"])
    assert set(COVERAGE) <= produced
    assert {group.split(".")[0] for group in LAYERS} <= {
        name.split(".")[0] for name in COVERAGE}


@pytest.mark.parametrize("workload", ["oracle_small", "oracle_large",
                                      "spectra_n7", "generators_n6"])
def test_traced_run_covers_its_layers_and_prints_the_same_bytes(
        workload, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "result.json"
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", "1", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["traced_output_mismatch"] == []
    assert result["pass_records"][1]["missing"] == []
    plain, traced = result["pass_records"]
    assert [t["sha256"] for t in plain["tasks"]] == [t["sha256"] for t in traced["tasks"]]
    for name, workloads in COVERAGE.items():
        if workload in workloads:
            assert result["metrics"][name] > 0, name
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workload in {w["name"] for w in spec["workloads"]}:
        for metric in spec["per_layer"]:
            if metric["unit"] == "s":
                assert result["metrics"][metric["name"]] > 0, metric["name"]
