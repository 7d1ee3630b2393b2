"""The benchmark's outside-in tracer still finds every name it patches.

``perfbench/tracer.py`` wraps skeinrep functions by module and name.  A
rename or deletion under ``src/`` would otherwise surface only when the
benchmark runs with ``--trace 1``; installing and uninstalling the tracer
here turns it into a test failure.
"""

from pathlib import Path

import pytest

from skeinrep import matrices
from skeinrep.scalars import make_root_system

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer
    return tracer


def test_tracer_installs_records_and_uninstalls(tracer_module):
    originals = {name: getattr(matrices, name) for name in ("nullspace", "_mp_svd_nullspace")}
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert all(getattr(matrices, name) is not fn for name, fn in originals.items())
        rs = make_root_system(3, "bigfloat", 64)
        nullity, _ = matrices.nullspace(matrices.diagonal([rs.one, rs.zero]), want_vectors=False)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert nullity == 1
    assert all(getattr(matrices, name) is fn for name, fn in originals.items())
    assert metrics["matrices.nullspace.calls"] == 1
    assert metrics["matrices.nullspace.fallbacks"] == 1
    assert metrics["matrices.to_mp_matrix.calls"] == 1
    assert {name for name, _, _ in tracer_module.PER_LAYER} == set(metrics)
