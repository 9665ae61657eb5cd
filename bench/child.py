"""One workload in one fresh process: set up, run timed passes, report.

Started by ``run.py``, never by hand.  ``--t0`` is the parent's
``time.monotonic()`` just before it spawned this process, so set-up
time covers interpreter start and every import.  The last line of
standard output is this process's result as JSON.

Host times are net of the host-speed probe and normalized by it (see
``hostspeed.py``); the raw times and the speed factors are reported
too.  With ``--trace`` the passes run in untraced / traced / traced /
untraced blocks, at least one of them, so one run yields both the
per-layer numbers and the tracing overhead with a linear drift in host
speed cancelled out.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed

#: One untraced / traced / traced / untraced block.
TRACED_MIN_PASSES = 4
#: Set-up's ``Workload.speed_exponent``: mostly imports, for every
#: workload (fit over 120 set-ups of all four).
SETUP_SPEED_EXPONENT = 1.3


def _peak_rss_mb():
    """Peak resident set of this process or any reaped child, in MB."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def _check_source(root):
    """Refuse to measure a ``repro`` that is not this checkout's."""
    import repro

    source = (root / "src").resolve()
    if source not in Path(repro.__file__).resolve().parents:
        sys.exit(f"repro imported from {repro.__file__}, not from {source}")


def _setup(t0):
    """Set-up time so far: {"raw_s": net seconds, "speed", "s": normalized}."""
    raw_s = time.monotonic() - t0 - hostspeed.spent()
    speed = hostspeed.speed()
    return {
        "raw_s": raw_s,
        "speed": speed,
        "s": raw_s * speed**SETUP_SPEED_EXPONENT,
    }


def measure(workload, seconds, tracer, t0):
    """Run passes for about ``seconds``; returns (set-up, passes)."""
    from tracing import layer_metrics

    passes = []
    setup = None
    begin_all = time.perf_counter()
    while True:
        index = len(passes)
        traced = tracer is not None and index % 4 in (1, 2)
        if tracer is not None:
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
            first_span = len(tracer.spans)
            tracer.op = index
        workload.prepare(index)
        if setup is None:
            setup = _setup(t0)
        since = hostspeed.mark()
        begin_at = time.perf_counter()
        begin = hostspeed.clock()
        outputs = workload.run(index)
        raw_s = hostspeed.clock() - begin
        # Where pool workers did the work, their samples tell its speed.
        speed = hostspeed.children_speed(begin_at, time.perf_counter())
        if speed is None:
            speed = hostspeed.speed(since)
        if tracer is not None:
            tracer.uninstall()
        result = workload.check(index, outputs)
        scale = speed**workload.speed_exponent
        result["items_s"] = [item * scale for item in result["items_s"]]
        result["raw_wall_s"] = raw_s
        result["speed"] = speed
        result["wall_s"] = raw_s * scale
        result["traced"] = traced
        if traced:
            tracer.merge_flushed()
            result["layers"] = layer_metrics(
                tracer.spans[first_span:],
                raw_s,
                workload.workers,
                workload.job_latency,
            )
        passes.append(result)
        if tracer is not None and len(passes) < TRACED_MIN_PASSES:
            continue
        elapsed = time.perf_counter() - begin_all
        typical = statistics.median(p["raw_wall_s"] for p in passes)
        if elapsed + 0.5 * typical >= seconds:
            return setup, passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    # Probe from here on, so that the imports of set-up are probed too.
    hostspeed.start(workdir / f"probe-{os.getpid()}")
    import numpy
    import workloads
    from tracing import Tracer

    bench_dir = Path(__file__).resolve().parent
    _check_source(bench_dir.parent)
    sizes = (workloads.SMOKE_SIZES if args.smoke else workloads.SIZES)[
        args.workload
    ]
    tracer = None
    if args.trace:
        (workdir / "spans").mkdir(exist_ok=True)
        tracer = Tracer(flush_dir=workdir / "spans")
    workload = workloads.WORKLOADS[args.workload](
        args.seed, sizes, workdir, tracer
    )
    try:
        workload.setup()
        if args.setup_only:
            workload.prepare(0)
            setup, passes = _setup(args.t0), []
        else:
            # A smoke run stops after its minimal number of passes.
            seconds = 0.0 if args.smoke else args.seconds
            setup, passes = measure(workload, seconds, tracer, args.t0)
    finally:
        hostspeed.stop()
        # Reaps pool workers, so their peak memory counts below.
        workload.teardown()
    if tracer is not None:
        tracer.write(bench_dir / "out" / f"{args.workload}.trace.json")
    report = {
        "setup": setup,
        "passes": passes,
        "peak_rss_mb": _peak_rss_mb(),
        "numpy": numpy.__version__,
        "sizes": sizes,
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
