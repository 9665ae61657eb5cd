"""DPU run timelines stay bit-exact against the full-array oracle.

``DpuRunner.trace_timelines`` stores one :class:`CycleRun` per serving
run and rebuilds segments on demand.  Every query must give the bits of
the four full-array :class:`PiecewiseActivity` objects the frozen
``legacy_trace_timelines`` builds, compared as ``int64`` views so that
signed zeros and NaN payloads count too.
"""

import numpy as np
import pytest
from reference_kernels import legacy_trace_timelines

from repro.dpu.models import build_model, list_models
from repro.dpu.runner import DPU_RAILS, DpuRunner, RuntimeConfig
from repro.soc import Soc
from repro.soc.workload import MEMO_SLOTS, CycleRunActivity

RUNNERS = {
    "no-stalls": dict(stall_probability=0.0),
    "half-stalls": dict(stall_probability=0.5),
    "no-jitter": dict(cycle_jitter=0.0),
    # Zero-length gap and preprocess slots: the run starts and may end
    # on zero-length slots, which the full arrays drop.
    "zero-slots": dict(
        stall_probability=0.3,
        runtime=RuntimeConfig(gap_seconds=0.0, preprocess_seconds_per_pixel=0.0),
    ),
}

MODELS = ("mobilenet-v1-0.25", "vgg-19", "resnet-152")

DURATION = 4.0


def _assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _forward_chunks(lo, hi, chunk, windows):
    """Forward-moving conversion batches, as a monitoring run issues them."""
    for begin in np.arange(lo, hi, chunk):
        edges = np.linspace(begin, begin + chunk, windows + 1)
        yield edges[:-1], edges[1:]


@pytest.fixture(scope="module", params=MODELS)
def model(request):
    return build_model(request.param)


@pytest.fixture(params=sorted(RUNNERS))
def runner(request):
    return DpuRunner(**RUNNERS[request.param])


@pytest.mark.parametrize("start", [0.0, 590.0])
def test_run_matches_full_arrays(runner, model, start):
    new = runner.trace_timelines(model, DURATION, seed=7, start=start)
    old = legacy_trace_timelines(runner, model, DURATION, seed=7, start=start)
    assert list(new) == list(old) == list(DPU_RAILS)
    rng = np.random.default_rng(11)
    for rail in DPU_RAILS:
        got, want = new[rail], old[rail]
        assert isinstance(got, CycleRunActivity)
        _assert_bits(got.edges, want.edges)
        _assert_bits(got.powers, want.powers)
        assert (got.start, got.span) == (want.start, want.span)
        _assert_bits(got.mean_power, want.mean_power)
        end = start + want.span
        run = got.run
        block_edges = start + run.block_offsets
        times = np.concatenate(
            (
                want.edges,
                block_edges,
                np.nextafter(block_edges, -np.inf),
                np.nextafter(block_edges, np.inf),
                [start - 30.0, start - 1e-9, end + 1e-9, end + 30.0],
                rng.uniform(start - 1.0, end + 1.0, 2000),
            )
        )
        _assert_bits(got.power_at(times), want.power_at(times))
        # Every edge to the next, and random windows, in one batch each:
        # both span every block, so neither may enter the memo.
        _assert_bits(
            got.energy_between(want.edges[:-1], want.edges[1:]),
            want.energy_between(want.edges[:-1], want.edges[1:]),
        )
        t0 = rng.uniform(start - 2.0, end + 2.0, 3000)
        t1 = t0 + rng.uniform(1e-6, 0.7, 3000)
        _assert_bits(got.energy_between(t0, t1), want.energy_between(t0, t1))
        _assert_bits(got.window_mean(t0, t1), want.window_mean(t0, t1))
        # Windows between consecutive block boundaries, then batches
        # wholly before and after the run.
        bounds = np.concatenate(([start - 1.0], block_edges, [end + 1.0]))
        _assert_bits(
            got.energy_between(bounds[:-1], bounds[1:]),
            want.energy_between(bounds[:-1], bounds[1:]),
        )
        for lo, hi in ((start - 3.0, start), (end, end + 3.0)):
            t0 = np.linspace(lo, hi, 9, endpoint=False)
            t1 = t0 + (hi - lo) / 9
            _assert_bits(got.energy_between(t0, t1), want.energy_between(t0, t1))
            assert got.silent_between(lo, hi) == want.silent_between(lo, hi)
        # Forward-moving batches that fill and reuse the memo.
        for chunk in (0.05, 0.5):
            for t0, t1 in _forward_chunks(start - 0.2, end + 0.2, chunk, 9):
                _assert_bits(got.energy_between(t0, t1), want.energy_between(t0, t1))
                _assert_bits(got.window_mean(t0, t1), want.window_mean(t0, t1))
                _assert_bits(got.power_at(t0), want.power_at(t0))
                lo, hi = t0[0], t1[-1]
                assert got.silent_between(lo, hi) == want.silent_between(lo, hi)


def test_constructor_energies_match_per_rail_cumsums(runner, model):
    """Checkpoints and totals from the shared buffer equal ``_energy`` per rail."""
    run = runner.trace_timelines(model, DURATION, seed=3)["fpga"].run
    edges = run.start + np.cumsum(run._slot_durations(0, run.scales.size, 0.0))
    block_starts = slice(0, run.n_slots, run.block_slots)
    assert list(run.energy) == list(DPU_RAILS)
    for rail in DPU_RAILS:
        energy = run._energy(rail, 0.0, edges)
        _assert_bits(run._energy_checkpoints[rail], energy[block_starts])
        _assert_bits(run.energy[rail], energy[run.n_slots])


def test_zoo_runs_from_a_warm_memo_match_full_arrays():
    """Every zoo model, traced from a cached profile, against a fresh oracle."""
    warm = DpuRunner(stall_probability=0.2)
    for name in list_models():
        model = build_model(name)
        warm.trace_timelines(model, 0.5, seed=1)
        new = warm.trace_timelines(model, 1.0, seed=2, start=3.0)
        old = legacy_trace_timelines(
            DpuRunner(stall_probability=0.2), model, 1.0, seed=2, start=3.0
        )
        edges = old["fpga"].edges
        for rail in DPU_RAILS:
            _assert_bits(new[rail].edges, old[rail].edges)
            _assert_bits(new[rail].powers, old[rail].powers)
            _assert_bits(
                new[rail].energy_between(edges[:-1], edges[1:]),
                old[rail].energy_between(edges[:-1], edges[1:]),
            )


def test_memo_is_reused_by_forward_batches():
    run = DpuRunner().trace_timelines(build_model("resnet-18"), DURATION, seed=1)
    timeline = run["fpga"]
    t0 = np.linspace(1.0, 1.05, 9)
    timeline.energy_between(t0, t0 + 0.005)
    memo = timeline._memo
    assert memo is not None
    assert (memo[1] - memo[0] + 1) * timeline.run.block_slots <= MEMO_SLOTS
    timeline.energy_between(t0 + 0.05, t0 + 0.055)
    assert timeline._memo is memo


def test_staggered_rail_matches_oracle_rail(staggered_soc):
    """60 staggered victims give the oracle board's ``window_state`` bits."""
    oracle = Soc("ZCU102", seed=0)
    runner = DpuRunner()
    models = [build_model("vgg-19"), build_model("vgg-16")]
    for slot in range(60):
        timelines = legacy_trace_timelines(
            runner, models[slot % 2], 10.0, seed=slot, start=slot * 10.0
        )
        for rail, timeline in timelines.items():
            oracle.replace_workload(rail, f"victim-{slot}", timeline)
    rng = np.random.default_rng(5)
    # Forward chunks across two hand-overs, the first and last chunks,
    # and one coarse batch over the whole session and beyond.
    batches = list(_forward_chunks(95.0, 115.0, 0.5, 9))
    batches += list(_forward_chunks(-0.5, 0.5, 0.5, 9))
    batches += list(_forward_chunks(599.5, 600.5, 0.5, 9))
    coarse = np.linspace(-1.0, 610.0, 300)
    batches.append((coarse[:-1], coarse[1:]))
    for domain in DPU_RAILS:
        got_rail, want_rail = staggered_soc.rail(domain), oracle.rail(domain)
        for t0, t1 in batches:
            noise = rng.standard_normal((2, t0.size)) * 1e-3
            got = got_rail.window_state(t0, t1, noise[0], noise[1] * 1e-3)
            want = want_rail.window_state(t0, t1, noise[0], noise[1] * 1e-3)
            for got_part, want_part in zip(got, want):
                _assert_bits(got_part, want_part)
