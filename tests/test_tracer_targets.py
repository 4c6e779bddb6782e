"""Every function and method that perfbench/tracer.py wraps still exists.

The tracer binds its targets by name, so a rename in ``src/`` would only
show up in the slow perfbench run; installing it once here is quick.
"""

import importlib.util
import sys
from pathlib import Path

from ptalgebra.irreps import AlgebraIrrep

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_every_target(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    image = vars(AlgebraIrrep)["image"]
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert vars(AlgebraIrrep)["image"] is not image
    finally:
        tracer.uninstall()
    assert vars(AlgebraIrrep)["image"] is image
