"""Every layer the benchmark's tracer times must still exist.

``perfbench/layers.py`` skips a patch target it cannot find, and that
layer's metrics then read 0 without failing anything.  A refactor that
renames or moves a traced function must update the tracer's list, so
this test resolves each target exactly as the tracer does.  It reads the
benchmark's file and changes nothing.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


def test_targets_listed():
    assert len(TARGETS) >= 19


@pytest.mark.parametrize(
    "module_name, path, span", TARGETS, ids=[span for _m, _p, span in TARGETS]
)
def test_target_resolves(module_name, path, span):
    owner = importlib.import_module(module_name)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner), f"{module_name}.{path} ({span}) is not callable"
