"""Every function the benchmark's tracer wraps still exists.

``perfbench/tracing.py`` looks each entry of its ``TRACED`` table up in
the owning module or class's ``__dict__`` and rebinds it; a deletion or a
rename in ``stairfec`` breaks the traced benchmark run.  This resolves the
table the way the tracer does, so such a change fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("name", sorted(tracing.TRACED))
def test_traced_name_resolves(name):
    module, _ = tracing.TRACED[name]
    importlib.import_module(f"stairfec.{module}")
    assert callable(tracing.Tracer._original(name))


def test_counted_names_are_traced():
    assert set(tracing.COUNTERS) <= set(tracing.TRACED)
