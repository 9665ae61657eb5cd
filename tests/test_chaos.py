"""Chaos harness smoke: injected failure, invariant-checked recovery.

``repro.resilience.chaos`` is itself test infrastructure — these tests
assert the harness enforces its own contract: every scenario terminates
inside its no-hang bound, surviving shards stay byte-identical to a
fault-free serial run, and every job lands in a terminal state.  The
four fast scenarios share one test; the ~20 s SIGSTOP reap has its own
test, also marked ``slow``.  ``pytest -m chaos`` runs all five.
"""

import pytest

from repro.perf.pool import shutdown_pool
from repro.resilience.chaos import SCENARIOS, run_chaos_bench

pytestmark = pytest.mark.chaos

#: Scenarios cheap enough for the default test pass (the SIGSTOP reap
#: waits out a real deadline and lives behind the slow marker).
FAST_SCENARIOS = [
    "worker-sigkill",
    "board-outage",
    "archive-corrupt",
    "fault-storm",
]


@pytest.fixture(autouse=True)
def _reset_shared_pool():
    yield
    shutdown_pool()


def test_scenario_registry_is_complete():
    assert set(FAST_SCENARIOS) <= set(SCENARIOS)
    assert "worker-sigstop" in SCENARIOS


def test_unknown_scenario_is_rejected():
    with pytest.raises(ValueError, match="unknown chaos scenarios"):
        run_chaos_bench(scenarios=["worker-sigsegv"])


def test_fast_scenarios_hold_invariants(tmp_path):
    report = run_chaos_bench(
        scenarios=FAST_SCENARIOS, out_dir=tmp_path, seed=0
    )
    assert report["benchmark"] == "fleet-chaos"
    assert report["ok"], report
    names = [scenario["name"] for scenario in report["scenarios"]]
    assert names == FAST_SCENARIOS
    for scenario in report["scenarios"]:
        if "skipped" in scenario:
            continue
        assert scenario["ok"], scenario
        assert scenario["invariants"]["no_hang"]
        assert scenario["elapsed_s"] <= scenario["bound_s"]


@pytest.mark.slow
def test_sigstop_scenario_reaps_hung_worker(tmp_path):
    report = run_chaos_bench(
        scenarios=["worker-sigstop"], out_dir=tmp_path, seed=0
    )
    scenario = report["scenarios"][0]
    if "skipped" in scenario:
        pytest.skip(scenario["skipped"])
    assert scenario["ok"], scenario
    invariants = scenario["invariants"]
    assert invariants["worker_stopped"]
    assert invariants["hung_worker_reaped"]
    assert invariants["archive_parity"]
