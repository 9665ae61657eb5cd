"""End-to-end benchmark of the AmpereBleed reproduction.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace [0|1]] [--repeat N] [--out PATH]
                         [--compare BASE.json]

Runs each workload (table3, acquire, monitor, fleet; all by default) in
its own fresh subprocess, one after another, for about ``--seconds``
(default: ``run_seconds`` in BENCHMARK.json) of timed passes each.
Set-up time is the median over that subprocess and two set-up-only
ones.  Host times are normalized by a host-speed probe (hostspeed.py);
the raw times are reported beside them.  Every end-to-end metric is
printed with its unit, every output is checked, and the results (with
an environment block) go to ``--out``.  ``--trace`` (``--trace 1``;
``--trace 0`` is the default) reports the per-layer metrics instead,
from a run whose passes alternate untraced and traced.  The command in
BENCHMARK.json is invoked as ``--workload W --seed N --seconds S
--trace 0|1``, hence the valued forms of ``--seconds`` and ``--trace``.
``--repeat N`` runs the workloads N times, alternating them, and flags
any metric whose quartile spread exceeds its bound in BENCHMARK.json;
``--compare`` sets the medians against an earlier results file.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every check passed.  See bench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: Set-up-only subprocesses per run, besides the measuring one, so
#: that ``setup_s`` is the median of several fresh set-ups.
SETUP_PROBES = 2
#: Chunk-latency percentiles reported (not gated); a tail only when at
#: least ten chunks lie beyond it.
CHUNK_PERCENTILES = (50, 90, 99)
#: Reported outside BENCHMARK.json: exact for a seed, so ``--compare``
#: flags any change (``top1`` is None where a workload has none).
EXACT_METRICS = ("top1", "error_rate")
#: Wall-clock budget for all subprocesses of one workload run.
RUN_BUDGET_S = 170.0
#: Thread pools of numeric libraries are pinned to one thread, so at
#: most the fleet's pool workers (one per CPU) compute at once.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """A workload subprocess failed to produce a result."""


def load_spec():
    """Workloads and metric units, directions, bounds from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "run_seconds": spec["run_seconds"],
        "workloads": [workload["name"] for workload in spec["workloads"]],
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


def child_env():
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("AMPEREBLEED_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(OUT / "tmp")
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def spawn(workload, args, workdir, deadline, setup_only=False):
    """Run one child to completion; returns its JSON report."""
    command = [
        sys.executable,
        str(BENCH / "child.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    command += ["--t0", repr(time.monotonic())]
    # Its own process group, so pool workers it forks end with it.
    child = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        stop_group(child)
    lines = (stdout or "").strip().splitlines()
    if stdout is None or child.returncode != 0 or not lines:
        raise BenchError(f"{workload}: subprocess failed ({child.returncode})")
    return json.loads(lines[-1])


def stop_group(child):
    """Kill whatever is left of a child's process group; wait it out."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    for _ in range(100):
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def quantile(values, q):
    """The ``q``-th percentile (0-100), interpolating between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def failed_ops(passes):
    """Failed ops over all passes.

    Every pass repeats the first one's seeded work, so a pass whose
    digest differs from the first pass's failed all of its ops.
    """
    return sum(
        p["ops"] if p["digest"] != passes[0]["digest"] else p["failed"]
        for p in passes
    )


def run_workload(workload, args, spec):
    """One measured run of one workload; returns its result record."""
    workdir = OUT / "work" / f"{workload}-{os.getpid()}"
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        probes = [] if args.smoke else [
            spawn(workload, args, workdir, deadline, setup_only=True)["setup"]
            for _ in range(SETUP_PROBES)
        ]
        report = spawn(workload, args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    passes = report["passes"]
    timed = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    items = [value for p in timed for value in p["items_s"]]
    attempted = sum(p["ops"] for p in passes)
    failed = failed_ops(passes)
    setups = probes + [report["setup"]]
    record = {
        "workload": workload,
        "seed": args.seed,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "digest": passes[0]["digest"],
        "counts": passes[0]["counts"],
        "checks": {
            name: all(p["checks"][name] for p in passes)
            for name in passes[0]["checks"]
        },
        "top1": passes[0]["top1"],
        "error_rate": failed / attempted,
        "chunks": len(items),
        "setups": setups,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_raw_wall_s": [p["raw_wall_s"] for p in passes],
        "pass_speed": [p["speed"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "numpy": report["numpy"],
        "sizes": report["sizes"],
        "metrics": {
            "setup_s": statistics.median(s["s"] for s in setups),
            "wall_s": statistics.median(p["wall_s"] for p in timed),
            "peak_rss_mb": report["peak_rss_mb"],
        },
        "raw": {
            "setup_s": statistics.median(s["raw_s"] for s in setups),
            "wall_s": statistics.median(p["raw_wall_s"] for p in timed),
        },
        "chunk_ms": {
            f"p{q}": 1e3 * quantile(items, q)
            for q in CHUNK_PERCENTILES
            if q == 50 or len(items) * (100 - q) >= 1000
        },
    }
    if traced:
        layers = {
            name: statistics.fmean(p["layers"].get(name, 0) for p in traced)
            for name in spec["per_layer"]
            if name != "trace_overhead"
        }
        layers["trace_overhead"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in timed)
            - 1.0
        )
        record["per_layer"] = layers
    return record


def summarize(runs, spec, section):
    """Median, quartiles and spread of every metric over repeated runs."""
    summary = {}
    for name, meta in spec[section].items():
        values = [run[section_key(section)][name] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = (
            statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        )
        spread = (q3 - q1) / abs(median) if median else 0.0
        entry = {
            "unit": meta["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": spread,
        }
        if "bound" in meta:
            entry["bound"] = meta["bound"]
            entry["over_bound"] = len(values) > 1 and spread > meta["bound"]
        summary[name] = entry
    return summary


def section_key(section):
    return "metrics" if section == "end_to_end" else "per_layer"


def print_run(record, spec, section):
    status = "yes" if record["correct"] else "NO"
    print(
        f"[{record['workload']}] seed={record['seed']} "
        f"passes={record['passes']} attempted={record['attempted']} "
        f"failed={record['failed']} correct={status}"
    )
    for name, meta in spec[section].items():
        value = record[section_key(section)][name]
        print(f"  {name:<40} {value:>14.6g} {meta['unit']}")
    for name, value in record["chunk_ms"].items():
        label = f"chunk_{name}_ms ({record['chunks']} chunks)"
        print(f"  {label:<40} {value:>14.6g} ms")
    for name, value in record["raw"].items():
        print(f"  {name + ' (raw, not normalized)':<40} {value:>14.6g} s")
    speed = statistics.median(record["pass_speed"])
    print(f"  {'host speed':<40} {speed:>14.6g} x nominal")
    if record["top1"] is not None:
        print(f"  {'top1':<40} {record['top1']:>14.6g} fraction")
    print(f"  {'error_rate':<40} {record['error_rate']:>14.6g} fraction")
    counts = " ".join(f"{k}={v}" for k, v in record["counts"].items())
    print(f"  digest {record['digest'][:16]}  {counts}")
    checks = " ".join(
        f"{k}={'ok' if v else 'FAILED'}" for k, v in record["checks"].items()
    )
    print(f"  checks {checks}")


def print_summary(summaries):
    print("repeat summary (median [q1, q3], spread = (q3 - q1) / median):")
    for workload, summary in summaries.items():
        for name, entry in summary.items():
            flag = "  OVER BOUND" if entry.get("over_bound") else ""
            bound = entry.get("bound")
            limit = f" bound {bound:.0%}" if bound is not None else ""
            print(
                f"  {workload:<8} {name:<14} {entry['median']:>12.6g} "
                f"[{entry['q1']:.6g}, {entry['q3']:.6g}] {entry['unit']} "
                f"spread {entry['spread']:.1%}{limit}{flag}"
            )


def compare(base, current, spec):
    """Per workload and metric: both medians, win fraction, base spread."""
    print(f"compare against {base['path']}:")
    print(
        f"  {'workload':<8} {'metric':<14} {'base':>12} {'this':>12} "
        f"{'wins':>6} {'base q3-q1':>12}"
    )
    for workload, runs in current["workloads"].items():
        base_runs = base["workloads"].get(workload, {}).get("runs")
        if not base_runs:
            continue
        for name, meta in spec["end_to_end"].items():
            ours = [run["metrics"][name] for run in runs["runs"]]
            theirs = [run["metrics"][name] for run in base_runs]
            lower = meta["better"] == "lower"
            pairs = list(zip(theirs, ours))
            wins = sum((b > o) if lower else (o > b) for b, o in pairs)
            q1, _, q3 = (
                statistics.quantiles(theirs, n=4)
                if len(theirs) > 1
                else (theirs[0],) * 3
            )
            print(
                f"  {workload:<8} {name:<14} {statistics.median(theirs):>12.6g} "
                f"{statistics.median(ours):>12.6g} {wins / len(pairs):>6.0%} "
                f"{q3 - q1:>12.4g} {meta['unit']}"
            )
        # Deterministic per seed, so their bound is 0: any change shows.
        if base_runs[0]["seed"] == runs["runs"][0]["seed"]:
            for name in EXACT_METRICS:
                theirs, ours = base_runs[0][name], runs["runs"][0][name]
                flag = "" if theirs == ours else "  CHANGED"
                print(f"  {workload:<8} {name:<14} {theirs!s:>12} {ours!s:>12}{flag}")


def environment(args):
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        sha = done.stdout.strip() or None
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": bool(args.smoke),
    }


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload",
        nargs="+",
        choices=spec["workloads"],
        default=spec["workloads"],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="timed seconds per workload run (default: run_seconds of "
        "BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from a traced run ('--trace' is "
        "'--trace 1')",
    )
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path, default=OUT / "results.json")
    parser.add_argument("--compare", type=Path, metavar="BASE.json")
    # Tiny sizes and one minimal run, for the benchmark's own tests.
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Let ``finally`` blocks stop the workload processes on SIGTERM too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.repeat < 1 or args.seconds < 0:
        parser.error("--repeat must be >= 1 and --seconds >= 0")
    section = "per_layer" if args.trace else "end_to_end"
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)

    runs = {workload: [] for workload in args.workload}
    try:
        for _ in range(args.repeat):
            for workload in args.workload:
                record = run_workload(workload, args, spec)
                print_run(record, spec, section)
                runs[workload].append(record)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1

    env = environment(args)
    env["numpy"] = next(iter(runs.values()))[0]["numpy"]
    results = {"env": env, "workloads": {}}
    for workload, records in runs.items():
        results["workloads"][workload] = {
            "sizes": records[0]["sizes"],
            "runs": records,
            "summary": summarize(records, spec, section),
        }
    summaries = {w: r["summary"] for w, r in results["workloads"].items()}
    if args.repeat > 1:
        print_summary(summaries)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"results written to {args.out}")
    if args.compare is not None:
        base = json.loads(args.compare.read_text(encoding="utf-8"))
        base["path"] = str(args.compare)
        compare(base, results, spec)

    records = [record for rs in runs.values() for record in rs]
    single = len(summaries) == 1
    metrics = {
        (name if single else f"{workload}/{name}"): {
            "value": entry["median"],
            "unit": entry["unit"],
        }
        for workload, summary in summaries.items()
        for name, entry in summary.items()
    }
    correct = all(record["correct"] for record in records)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
