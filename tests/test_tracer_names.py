"""Every function the perfbench tracer wraps exists in gdskit.

Tracer.install looks each name up with getattr, so a function renamed
or deleted in the library breaks every traced benchmark run."""
import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
NAMES = [(mod, fn) for mod, fn, _ in tracing.TRACED] + [("cli", f"cmd_{c}") for c in tracing.CLI_COMMANDS]


@pytest.mark.parametrize("module, function", NAMES)
def test_traced_name_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"gdskit.{module}"), function, None))
