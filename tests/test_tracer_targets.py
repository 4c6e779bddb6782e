"""Every function and method that perfbench/tracer.py wraps still exists,
and the small oracle workload and the spectra suite still call every
layer they are meant to.

The tracer binds its targets by name, so a rename in ``src/`` would only
show up in the slow perfbench run; installing it once here is quick.
"""

import ast
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import ptalgebra.algebra as algebra
import ptalgebra.induced as induced
from ptalgebra.cli import main
from ptalgebra.irreps import AlgebraIrrep, all_irreps

ROOT = Path(__file__).resolve().parents[1]


def _tracer_module(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_target(monkeypatch):
    module = _tracer_module(monkeypatch)
    image = vars(AlgebraIrrep)["image"]
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert vars(AlgebraIrrep)["image"] is not image
    finally:
        tracer.uninstall()
    assert vars(AlgebraIrrep)["image"] is image


def _traced_metrics(monkeypatch, args):
    """The tracer's metrics over one in-process CLI run that passes, from
    cold per-label memos, as in the fresh interpreter of each benchmark pass
    (earlier tests leave them warm)."""
    for memo in (induced.q_matrix, induced._reducing_matrix, algebra.u_terms,
                 algebra._u_images):
        memo.cache_clear()
    module = _tracer_module(monkeypatch)
    with module.Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        with pytest.raises(SystemExit) as exited:  # the number of failed checks
            tracer.span(module.COMMAND_GROUP, main, args + ["--format", "json"],
                        standalone_mode=False)
    assert exited.value.code == 0
    return tracer.metrics()


def test_oracle_small_records_every_layer_it_covers(monkeypatch):
    # COVERAGE in perfbench/tests/test_tracer.py: layer metric -> workloads
    tree = ast.parse((ROOT / "perfbench" / "tests" / "test_tracer.py").read_text())
    coverage = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "COVERAGE")
    metrics = _traced_metrics(
        monkeypatch, ["verify", "--n", "5", "--d", "2", "--suite", "all"])
    required = [name for name, workloads in coverage.items() if "oracle_small" in workloads]
    assert "algebra.u_element.calls" in required
    assert [name for name in required if not metrics[name] > 0] == []


def test_spectra_suite_records_the_image_layers(monkeypatch):
    # the spectra_n7 rows of COVERAGE that Young and induced images feed
    metrics = _traced_metrics(
        monkeypatch, ["verify", "--n", "5", "--d", "3", "--suite", "spectra"])
    names = ["yor.image.calls", "induced.matrix.calls", "induced.z_matrix.calls",
             "permutations.compose.calls"]
    assert [name for name in names if not metrics[name] > 0] == []


def test_irreps_suite_reads_one_traced_batch_per_irrep(monkeypatch):
    # the generators_n6 verify command: the batches go through the traced
    # image methods, so their per-layer rows stay live
    metrics = _traced_metrics(
        monkeypatch, ["verify", "--n", "5", "--d", "3", "--suite", "irreps"])
    assert metrics["irreps.image.calls"] == len(all_irreps(5, 3))
    names = ["irreps.image.self_s", "yor.image.self_s", "permutations.compose.calls"]
    assert [name for name in names if not metrics[name] > 0] == []
