"""Tests of the benchmark itself, at the ``--smoke`` scale.

    python -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(directory, *extra):
    """One smoke run of every workload: (last stdout line, results file)."""
    out = directory / "results.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", "7",
         "--out", str(out), *extra],
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return last, json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("plain"))


@pytest.fixture(scope="module")
def again(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("again"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    last, results = _run(tmp_path_factory.mktemp("traced"), "--trace")
    spans = {
        workload: json.loads(
            (BENCH / "out" / f"{workload}.trace.json").read_text(
                encoding="utf-8"
            )
        )["spans"]
        for workload in WORKLOADS
    }
    return last, results, spans


def _emitted(last, results, section, key):
    for workload in WORKLOADS:
        run = results["workloads"][workload]["runs"][0]
        assert run["correct"] and run["failed"] == 0
        assert set(run[key]) == {metric["name"] for metric in SPEC[section]}
        for metric in SPEC[section]:
            emitted = last["metrics"][f"{workload}/{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))
    assert last["correct"] is True
    assert last["attempted"] >= len(WORKLOADS) and last["failed"] == 0


def test_every_workload_emits_every_metric(plain):
    last, results = plain
    _emitted(last, results, "end_to_end", "metrics")
    env = results["env"]
    assert env["cpus"] >= 1 and env["seed"] == 7 and env["numpy"]


def test_same_seed_gives_same_outputs(plain, again):
    for workload in WORKLOADS:
        first = plain[1]["workloads"][workload]["runs"][0]
        second = again[1]["workloads"][workload]["runs"][0]
        assert first["digest"] == second["digest"]
        assert first["counts"] == second["counts"]


def test_tracing_changes_no_output(plain, traced):
    last, results, _ = traced
    _emitted(last, results, "per_layer", "per_layer")
    for workload in WORKLOADS:
        run = results["workloads"][workload]["runs"][0]
        assert run["digest"] == plain[1]["workloads"][workload]["runs"][0][
            "digest"
        ]
        fleet_calls = run["per_layer"]["fleet.job.calls"]
        assert (fleet_calls > 0) == (workload == "fleet")


def test_spans_nest(traced):
    for workload, spans in traced[2].items():
        assert spans, workload
        by_id = {(span["pid"], span["id"]): span for span in spans}
        covered = {}
        for span in spans:
            assert span["end"] >= span["start"]
            if span["parent"] is None:
                continue
            parent = by_id[(span["pid"], span["parent"])]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            assert span["op"] == parent["op"]
            key = (span["pid"], span["parent"])
            covered[key] = covered.get(key, 0.0) + span["end"] - span["start"]
        for key, children in covered.items():
            parent = by_id[key]
            assert children <= parent["end"] - parent["start"] + 1e-9


def test_a_pass_with_another_digest_fails_its_ops():
    passes = [
        {"digest": "a", "ops": 3, "failed": 0},
        {"digest": "b", "ops": 3, "failed": 0},
        {"digest": "a", "ops": 3, "failed": 1},
    ]
    assert run.failed_ops(passes) == 4


PROBE_SCRIPT = """
import multiprocessing, sys, time
import hostspeed

hostspeed.start(sys.argv[1])
begin = time.perf_counter()
worker = multiprocessing.get_context("fork").Process(target=time.sleep, args=(0.4,))
worker.start()
worker.join()
time.sleep(0.2)
hostspeed.stop()
print(hostspeed.children_speed(begin, time.perf_counter()), hostspeed.speed(),
      hostspeed.speed(hostspeed.mark()))
"""


def test_probe_samples_here_and_in_forked_children(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", PROBE_SCRIPT, str(tmp_path / "probe")],
        cwd=BENCH,
        stdout=subprocess.PIPE,
        text=True,
        timeout=60,
        check=True,
    )
    children, own, since_now = (float(x) for x in done.stdout.split())
    assert children > 0 and own > 0
    # No sample since the mark: falls back to every sample so far.
    assert since_now == own
    assert len(list((tmp_path / "probe").glob("*.samples"))) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table3"],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
