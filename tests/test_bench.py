"""The benchmark's wrap points must exist in the package.

``bench/tracer.py`` replaces named functions with timing wrappers, and a
name that no longer exists only prints a ``missing`` line there.  Renaming
one of them in a refactor fails here instead.  The module is imported as
it is; nothing of it is installed or run.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("owner, attr", [
    pytest.param(owner, attr, id=f"{owner.__name__}.{attr}")
    for _, owner, attr, _ in _targets()])
def test_every_benchmark_wrap_point_exists(owner, attr):
    # the tracer looks the name up in the owner's own namespace
    assert callable(vars(owner).get(attr)), f"{attr} is gone"
