"""What the end-to-end benchmark in ``bench/`` takes from ``src/``.

The benchmark reaches into the library in three places that no public
signature pins: the traced run patches each ``LAYERS`` entry point on
the object that owns it, the workloads import the pipelines by name,
and the ``monitor`` workload reads the live analyzer out of the
generator frame that :meth:`AttackSession.monitor` returns.  A
refactor that breaks one of these breaks the benchmark, not tier-1,
so these checks only read ``bench/``; they never run a workload.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.streaming import StreamingAnalyzer
from repro.session import AttackSession

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    """Import ``bench/<name>.py`` under a private module name."""
    sys.path.insert(0, str(BENCH))  # the bench modules import `hostspeed`
    try:
        spec = importlib.util.spec_from_file_location(
            f"bench_{name}", BENCH / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


TRACING = _load("tracing")


@pytest.mark.parametrize(
    "name,module_name,path",
    [
        (name, module_name, path)
        for name, places, _, _ in TRACING.LAYERS
        for module_name, path in places
    ],
)
def test_traced_layer_resolves_on_its_owner(name, module_name, path):
    # The tracer's install swaps owner.__dict__[attribute]; an entry
    # point inherited or re-exported from elsewhere would not be there.
    owner, attribute = TRACING._owner(module_name, path)
    assert attribute in owner.__dict__, f"{name}: {module_name}.{path}"
    assert callable(getattr(owner, attribute))


def test_workloads_import():
    workloads = _load("workloads")
    assert set(workloads.WORKLOADS) == {
        "table3", "acquire", "monitor", "fleet"
    }


class _StubClassifier:
    classes_ = np.array(["a", "b"])

    def predict_proba(self, X):
        return np.full((len(X), 2), 0.5)


def test_monitor_generator_holds_its_analyzer():
    # The monitor workload reads updates.gi_frame.f_locals["analyzer"].
    updates = AttackSession.create().monitor(
        _StubClassifier(), duration=1.0, window_samples=4, n_features=8
    )
    try:
        analyzer = updates.gi_frame.f_locals["analyzer"]
        assert isinstance(analyzer, StreamingAnalyzer)
    finally:
        updates.close()
