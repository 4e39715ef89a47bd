"""The span tracer in perfbench/tracing.py patches svschemes by name:
every target it lists must exist, or the traced run loses that layer."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name, module_name, attr", load_targets())
def test_target_resolves(name, module_name, attr):
    owner = importlib.import_module(f"svschemes.{module_name}")
    for part in attr.split("."):
        assert hasattr(owner, part), f"{name}: svschemes.{module_name}.{attr} is missing"
        owner = getattr(owner, part)
    assert callable(owner), name
