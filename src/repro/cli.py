"""Command-line interface for the AmpereBleed reproduction.

Usage::

    python -m repro.cli boards
    python -m repro.cli characterize --samples 1000 --seed 0
    python -m repro.cli fingerprint --models resnet-50 vgg-19 --traces 8
    python -m repro.cli rsa --samples 8000
    python -m repro.cli covert --bit-period 0.08 --bits 64
    python -m repro.cli record --experiment fingerprint --out traces/
    python -m repro.cli analyze --archive traces/
    python -m repro.cli replay --archive traces/
    python -m repro check --fail-on-findings

Each subcommand mounts one of the paper's experiments at a
command-line-friendly scale and prints a compact report; the full
evaluation lives in ``benchmarks/`` and the end-to-end benchmark in
``bench/run.py``.

``check`` is the repo's own static-analysis gate: an AST pass over
``src/`` enforcing the determinism / concurrency / API-hygiene
contracts every reported number depends on (see ``repro.check``).

The ``record`` / ``analyze`` / ``replay`` trio is the paper's
two-machine workflow: ``record`` runs only the acquisition plane and
streams traces into a v3 archive, ``analyze`` runs the evaluation
purely from the archive (no SoC construction), and ``replay`` re-feeds
archived captures through the detector or covert demodulator.  With
the same seed, ``record`` then ``analyze`` prints exactly the numbers
the in-process subcommand prints.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.utils.rng import ensure_rng


def _cmd_boards(args: argparse.Namespace) -> int:
    from repro.boards import list_boards

    print(f"{'board':9s} {'family':18s} {'cpu':11s} {'ina226':>6s} "
          f"{'price':>8s}")
    for board in list_boards():
        print(
            f"{board.name:9s} {board.fpga_family:18s} "
            f"{board.cpu_model:11s} {board.ina226_count:6d} "
            f"{board.price_usd:8,.0f}"
        )
    return 0


def _session(args: argparse.Namespace):
    """The attack session a subcommand mounts its pipeline on.

    Built from the subcommand's ``--seed`` plus its ``--board`` and
    ``--faults`` where it has them (default board ZCU102; no
    ``--faults`` arms no fault injection).
    """
    from repro.session import DEFAULT_BOARD, AttackSession

    board = getattr(args, "board", None)
    return AttackSession.create(
        board=DEFAULT_BOARD if board is None else board,
        seed=args.seed,
        faults=getattr(args, "faults", None),
    )


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.core.characterize import characterize

    result = characterize(
        _session(args), samples_per_level=args.samples, seed=args.seed
    )
    print(f"{'channel':8s} {'pearson':>8s} {'LSB/step':>9s}")
    for sweep in (result.current, result.voltage, result.power, result.ro):
        print(f"{sweep.name:8s} {sweep.pearson:8.4f} {sweep.lsb_step:9.2f}")
    print(f"current-vs-RO variation ratio: "
          f"{result.current_vs_ro_variation:.1f}x (paper: 261x)")
    return 0


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    from repro.core.fingerprint import DnnFingerprinter, FingerprintConfig
    from repro.dpu.models import list_models

    models = args.models if args.models else list_models()
    config = FingerprintConfig(
        duration=args.duration,
        traces_per_model=args.traces,
        n_folds=args.folds,
        forest_trees=args.trees,
    )
    fingerprinter = DnnFingerprinter(
        _session(args), config=config, workers=args.workers
    )
    channels = [tuple(channel.split("/")) for channel in args.channels]
    print(f"collecting {len(models)} models x {args.traces} traces...")
    datasets = fingerprinter.collect_datasets(
        models=models, channels=channels
    )
    for channel, dataset in datasets.items():
        result = fingerprinter.evaluate_channel(dataset)
        print(f"{channel[0]}/{channel[1]}: top-1 {result.top1:.3f}  "
              f"top-5 {result.top5:.3f}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import FleetScheduler, build_fleet_jobs

    jobs = build_fleet_jobs(
        args.out,
        boards=args.boards or None,
        kinds=args.kinds or None,
        seed=args.seed,
        smoke=args.smoke,
    )
    print(f"fleet: {len(jobs)} jobs -> {args.out}")
    report = FleetScheduler(
        jobs,
        max_concurrent=args.max_concurrent,
        retries=args.retries,
        use_pool=not args.no_pool,
        workers=args.workers,
    ).run()
    for outcome in report.outcomes:
        if outcome.ok:
            flags = ""
            if outcome.result.skipped:
                flags = "  [sealed, skipped]"
            elif outcome.result.resumed:
                flags = "  [resumed]"
            print(f"  {outcome.job.job_id:30s} "
                  f"{outcome.result.traces:5d} traces  "
                  f"{outcome.latency_s:7.2f} s{flags}")
        else:
            print(f"  {outcome.job.job_id:30s} FAILED: {outcome.error}")
    print(f"{report.traces} traces / {report.total_s:.2f} s = "
          f"{report.traces_per_sec:.1f} traces/s  "
          f"(p95 job latency {report.latency_percentile(95):.2f} s, "
          f"{report.respawns} pool rebuilds)")
    return 0 if report.ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.check import (
        RULES,
        UnknownRuleError,
        render_json,
        render_text,
        run_check,
    )

    if args.list_rules:
        width = max(len(rule.id) for rule in RULES.values())
        for rule in RULES.values():
            print(f"{rule.id:{width}s}  {rule.name}: {rule.rationale}")
        return 0
    try:
        result = run_check(
            paths=args.paths or None,
            rules=args.rules,
            workers=args.workers,
        )
    except (UnknownRuleError, FileNotFoundError) as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        report = render_json(result)
    else:
        report = render_text(result)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
        print(f"report written to {args.output}")
    else:
        print(report)
    if result.errors:
        return 2
    if args.fail_on_findings and not result.ok:
        return 1
    return 0


def _cmd_rsa(args: argparse.Namespace) -> int:
    from repro.core.rsa_attack import RsaHammingWeightAttack

    attack = RsaHammingWeightAttack(_session(args))
    current = attack.sweep(n_samples=args.samples)
    power = attack.sweep(quantity="power", n_samples=args.samples)
    print(f"{'HW':>5s} {'I median (mA)':>14s} {'P median (mW)':>14s}")
    for c, p in zip(current.profiles, power.profiles):
        print(f"{c.weight:5d} {c.summary.median:14.0f} "
              f"{p.summary.median / 1000:14.0f}")
    print(f"groups: current {current.distinguishable_groups()}/17, "
          f"power {power.distinguishable_groups()}/17 (paper: 17 / ~5)")
    return 0


def _cmd_covert(args: argparse.Namespace) -> int:
    from repro.core.covert_channel import CovertChannel

    channel = CovertChannel(_session(args))
    rng = ensure_rng(args.seed)
    bits = rng.integers(0, 2, size=args.bits)
    report = channel.transmit(bits, bit_period=args.bit_period)
    print(f"sent {len(report.sent)} bits at "
          f"{report.raw_throughput_bps:.1f} bps")
    print(f"bit errors: {report.bit_errors} "
          f"(BER {report.bit_error_rate:.3f})")
    print(f"goodput: {report.effective_throughput_bps:.1f} bps")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.reporting import generate_report

    markdown = generate_report(
        seed=args.seed,
        samples_per_level=args.samples,
        rsa_samples=args.rsa_samples,
        path=args.output,
        board=args.board,
        workers=args.workers,
    )
    if args.output:
        print(f"report written to {args.output}")
    else:
        print(markdown)
    return 0


def _record_fingerprint(args: argparse.Namespace) -> None:
    from repro.core.fingerprint import DnnFingerprinter, FingerprintConfig
    from repro.core.io import TraceArchiveWriter
    from repro.dpu.models import list_models

    models = args.models if args.models else list_models()
    channels = [tuple(channel.split("/")) for channel in args.channels]
    config = FingerprintConfig(
        duration=args.duration,
        traces_per_model=args.traces,
        n_folds=args.folds,
        forest_trees=args.trees,
    )
    fingerprinter = DnnFingerprinter(_session(args), config=config)
    print(f"recording {len(models)} models x {args.traces} traces...")
    writer = TraceArchiveWriter(
        args.out,
        meta=fingerprinter.archive_meta(models, channels),
        resume=args.resume,
    )
    with writer:
        fingerprinter.collect_datasets(
            models=models,
            channels=channels,
            sink=writer,
            # Under injected faults a dead sensor should shrink the
            # recording, not kill it.
            on_dead="drop" if args.faults is not None else "raise",
        )


def _record_rsa(args: argparse.Namespace) -> None:
    from repro.core.io import TraceArchiveWriter
    from repro.core.rsa_attack import RsaHammingWeightAttack

    attack = RsaHammingWeightAttack(_session(args))
    print(f"recording the Hamming-weight sweep on {args.quantity}...")
    writer = TraceArchiveWriter(
        args.out,
        meta=attack.archive_meta(
            quantity=args.quantity, n_samples=args.samples
        ),
        resume=args.resume,
    )
    with writer:
        attack.collect_sweep(
            quantity=args.quantity,
            n_samples=args.samples,
            sink=writer,
        )


def _record_covert(args: argparse.Namespace) -> None:
    from repro.core.covert_channel import CovertChannel
    from repro.core.io import TraceArchiveWriter

    channel = CovertChannel(_session(args))
    rng = ensure_rng(args.seed)
    bits = [int(bit) for bit in rng.integers(0, 2, size=args.bits)]
    meta = {
        "experiment": "covert",
        "board": channel.soc.board.name,
        "seed": args.seed,
        "bit_period": args.bit_period,
        "sent": bits,
    }
    print(f"recording a {args.bits}-bit covert frame...")
    with TraceArchiveWriter(args.out, meta=meta) as writer:
        part = 0

        def sink(chunk):
            nonlocal part
            writer.append(chunk, trace_id="frame", part=part)
            part += 1

        report = channel.transmit(
            bits, bit_period=args.bit_period, sink=sink
        )
        # The live decode rides along so a replay can verify it
        # reproduces the receiver's bits exactly.
        writer.update_meta(received=[int(bit) for bit in report.received])


def _cmd_record(args: argparse.Namespace) -> int:
    if args.experiment == "covert" and (
        args.resume or args.faults is not None
    ):
        print("--resume/--faults are not supported for the covert "
              "experiment")
        return 2
    recorders = {
        "fingerprint": _record_fingerprint,
        "rsa": _record_rsa,
        "covert": _record_covert,
    }
    recorders[args.experiment](args)
    print(f"archive written to {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.io import TraceArchiveReader

    archive = TraceArchiveReader(args.archive, mmap=True)
    experiment = archive.meta.get("experiment")
    if experiment == "fingerprint":
        from repro.core.fingerprint import FingerprintAnalyzer

        analyzer, datasets = FingerprintAnalyzer.from_archive(
            archive, workers=args.workers
        )
        for channel, dataset in datasets.items():
            result = analyzer.evaluate_channel(dataset)
            print(f"{channel[0]}/{channel[1]}: top-1 {result.top1:.3f}  "
                  f"top-5 {result.top5:.3f}")
        return 0
    if experiment == "rsa":
        from repro.core.rsa_attack import sweep_from_traces

        sweep = sweep_from_traces(
            archive.load_traceset(), quantity=archive.meta.get("quantity")
        )
        unit = "mA" if sweep.quantity == "current" else sweep.quantity
        print(f"{'HW':>5s} {'median (' + unit + ')':>16s}")
        for profile in sweep.profiles:
            print(f"{profile.weight:5d} {profile.summary.median:16.0f}")
        print(f"groups: {sweep.quantity} "
              f"{sweep.distinguishable_groups()}/{len(sweep.profiles)}")
        return 0
    print(f"archive at {args.archive} carries no analyzable experiment "
          f"tag (meta: {sorted(archive.meta)})", file=sys.stderr)
    return 1


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.core.detector import OnsetDetector
    from repro.core.io import TraceArchiveReader

    archive = TraceArchiveReader(args.archive, mmap=True)
    if archive.meta.get("experiment") == "covert":
        from repro.core.covert_channel import decode_frame

        sent = archive.meta.get("sent")
        frame = next(iter(archive.load_traceset()))
        decoded = decode_frame(frame, len(sent))
        errors = sum(a != b for a, b in zip(sent, decoded))
        print(f"replayed {len(decoded)}-bit covert frame from "
              f"{len(archive)} archived chunks")
        print(f"bit errors vs sent payload: {errors} "
              f"(BER {errors / len(decoded):.3f})")
        received = archive.meta.get("received")
        if received is not None:
            faithful = decoded == [int(bit) for bit in received]
            print(f"matches the live receiver's decode: "
                  f"{'yes' if faithful else 'NO'}")
            return 0 if faithful else 1
        return 0
    # Generic path: re-feed each capture's chunks through the onset
    # detector, exactly as a live stakeout stream would be consumed.
    detector = OnsetDetector()
    groups = {}
    for entry, chunk in zip(archive.entries, archive.iter_chunks()):
        groups.setdefault(entry["trace_id"], []).append(chunk)
    for trace_id, chunks in groups.items():
        found, onset = detector.scan_for_onset(iter(chunks))
        what = f"onset at t={onset:.3f}s" if found else "no activity"
        first = chunks[0]
        print(f"{trace_id} [{first.domain}/{first.quantity}"
              f"{' ' + first.label if first.label else ''}]: {what}")
    return 0


def _format_verdict(verdict) -> str:
    window = verdict.window
    line = (
        f"[{window.start_time:7.2f}s-{window.end_time:7.2f}s] "
        f"{verdict.label} p={verdict.confidence:.2f}"
    )
    if verdict.raw_label != verdict.label:
        line += f" (raw {verdict.raw_label})"
    if verdict.degraded:
        quality = window.quality
        line += (
            f" [degraded: retries={quality.retries} gaps={quality.gaps} "
            f"interp={quality.interpolated}]"
        )
    return line


def _format_event(event) -> Optional[str]:
    from repro.core.detector import OnsetEvent
    from repro.core.streaming import Interruption, ModelSwitch

    if isinstance(event, ModelSwitch):
        previous = event.previous if event.previous is not None else "(idle)"
        return (
            f"  >> model switch at t={event.time:.2f}s: "
            f"{previous} -> {event.label}"
        )
    if isinstance(event, Interruption):
        return (
            f"  !! stream interrupted after {event.samples_seen} samples: "
            f"{event.message}"
        )
    if isinstance(event, OnsetEvent):
        if event.kind == "onset":
            return f"  >> activity onset at t={event.time:.2f}s"
        if event.kind == "episode":
            episode = event.episode
            return (
                f"  >> episode closed: samples "
                f"[{episode.start}, {episode.end})"
            )
    return None


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.core.detector import OnsetDetector
    from repro.core.fingerprint import FingerprintAnalyzer
    from repro.core.io import TraceArchiveReader, TraceArchiveWriter
    from repro.dpu.models import build_model
    from repro.dpu.runner import DpuRunner

    domain, _, quantity = args.channel.partition("/")
    if not quantity:
        print(f"--channel must be domain/quantity, got {args.channel!r}",
              file=sys.stderr)
        return 2
    if args.resume and args.out is None:
        print("--resume needs --out (the interrupted monitor archive)",
              file=sys.stderr)
        return 2
    archive = TraceArchiveReader(args.train_archive, mmap=True)
    analyzer, datasets = FingerprintAnalyzer.from_archive(archive)
    if (domain, quantity) not in datasets:
        known = ", ".join(
            f"{d}/{q}" for d, q in sorted(datasets)
        )
        print(f"channel {args.channel} not in the training archive "
              f"(has: {known})", file=sys.stderr)
        return 2
    dataset = datasets[(domain, quantity)]
    print(f"training forest on {len(dataset)} archived "
          f"{domain}/{quantity} traces...")
    forest = analyzer.train(dataset)

    session = _session(args)
    poll_hz = session.sampler.default_poll_hz(domain)
    window = max(1, int(round(args.window * poll_hz)))
    hop = (
        window
        if args.hop is None
        else max(1, int(round(args.hop * poll_hz)))
    )

    victims = args.victims if args.victims else [
        str(name) for name in forest.classes_
    ]
    runner = DpuRunner()
    slot = args.duration / len(victims)
    print("victim schedule:")
    for index, name in enumerate(victims):
        begin = index * slot
        runner.deploy(
            session.soc,
            build_model(name),
            duration=slot,
            seed=session.derive(f"victim-{index}"),
            start=begin,
            name=f"victim-{index}",
        )
        print(f"  {name}: t=[{begin:.2f}s, {begin + slot:.2f}s)")

    sink = None
    if args.out is not None:
        sink = TraceArchiveWriter(
            args.out,
            meta={
                "experiment": "monitor",
                "board": session.board.name,
                "seed": session.seed,
                "channel": [domain, quantity],
                "victims": victims,
                "train_archive": str(args.train_archive),
            },
            resume=args.resume,
        )
    verdicts = switches = episodes = 0
    interrupted = False
    try:
        updates = session.monitor(
            forest,
            domain,
            quantity,
            duration=args.duration,
            window_samples=window,
            hop_samples=hop,
            poll_hz=poll_hz,
            chunk_duration=args.chunk,
            n_features=analyzer.config.n_features,
            top_k=args.top_k,
            smoothing=args.smoothing,
            detector=OnsetDetector(),
            sink=sink,
        )
        from repro.core.streaming import Interruption, ModelSwitch

        for update in updates:
            for event in update.events:
                line = _format_event(event)
                if line is not None:
                    print(line)
                if isinstance(event, ModelSwitch):
                    switches += 1
                elif isinstance(event, Interruption):
                    interrupted = True
            episodes += len(update.episodes)
            for verdict in update.verdicts:
                print(_format_verdict(verdict))
                verdicts += 1
    finally:
        if sink is not None:
            sink.close()
    print(f"monitor done: {verdicts} verdicts, {switches} model switches, "
          f"{episodes} episodes"
          + (" (stream interrupted)" if interrupted else ""))
    if sink is not None:
        print(f"archive written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AmpereBleed (DAC 2025) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("boards", help="list the Table I board catalog")

    characterize = sub.add_parser(
        "characterize", help="run the Fig 2 sensitivity sweep"
    )
    characterize.add_argument("--samples", type=int, default=1000)
    characterize.add_argument("--seed", type=int, default=0)

    fingerprint = sub.add_parser(
        "fingerprint", help="fingerprint DPU models (Table III)"
    )
    fingerprint.add_argument("--models", nargs="*", default=None)
    fingerprint.add_argument("--traces", type=int, default=8)
    fingerprint.add_argument("--duration", type=float, default=5.0)
    fingerprint.add_argument("--folds", type=int, default=4)
    fingerprint.add_argument("--trees", type=int, default=20)
    fingerprint.add_argument(
        "--channels", nargs="*", default=["fpga/current"]
    )
    fingerprint.add_argument("--seed", type=int, default=0)
    fingerprint.add_argument(
        "--workers", type=int, default=None,
        help="evaluation worker processes (default: AMPEREBLEED_WORKERS "
             "env var, else serial; 0 = all CPUs)",
    )

    fleet = sub.add_parser(
        "fleet",
        help="shard recording campaigns across the board catalog "
             "(persistent worker pool + dispatch loop)",
    )
    fleet.add_argument(
        "out",
        help="directory receiving one archive per job",
    )
    fleet.add_argument(
        "--boards", nargs="*", default=None,
        help="catalog boards to target (default: the full catalog; "
             "--smoke trims it to the first two boards)",
    )
    fleet.add_argument(
        "--kinds", nargs="*", default=None,
        choices=("fingerprint", "rsa", "campaign"),
        help="campaign kinds to run per board (default: all three)",
    )
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--workers", type=int, default=None,
        help="pool worker processes (default: AMPEREBLEED_WORKERS env "
             "var, else all CPUs; 0 = all CPUs)",
    )
    fleet.add_argument(
        "--max-concurrent", type=int, default=4,
        help="recording sessions in flight at once",
    )
    fleet.add_argument(
        "--retries", type=int, default=1,
        help="job-level resume-and-retry attempts after a worker "
             "death broke the pool",
    )
    fleet.add_argument(
        "--no-pool", action="store_true",
        help="run jobs inline instead of on the persistent pool "
             "(the serial baseline)",
    )
    fleet.add_argument(
        "--smoke", action="store_true",
        help="trim the default board list to the first two catalog "
             "boards",
    )

    check = sub.add_parser(
        "check",
        help="static determinism/concurrency contract checker "
             "(AST pass over src/)",
    )
    check.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to scan (default: src/)",
    )
    check.add_argument(
        "--rules", nargs="*", default=None,
        help="rule ids to run (default: all; see --list-rules)",
    )
    check.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is the machine-readable one, for CI "
             "annotation)",
    )
    check.add_argument(
        "--fail-on-findings", action="store_true",
        help="exit 1 when findings remain after inline suppressions",
    )
    check.add_argument(
        "--workers", type=int, default=None,
        help="workers for the per-module pass (default: "
             "AMPEREBLEED_WORKERS or serial)",
    )
    check.add_argument(
        "--output", type=str, default=None,
        help="write the report to this file instead of stdout",
    )
    check.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )

    rsa = sub.add_parser("rsa", help="RSA Hamming-weight attack (Fig 4)")
    rsa.add_argument("--samples", type=int, default=8000)
    rsa.add_argument("--seed", type=int, default=0)
    rsa.add_argument(
        "--board", type=str, default=None,
        help="Table I board to attack (default ZCU102; see `boards`)",
    )

    covert = sub.add_parser(
        "covert", help="current-based covert channel demo"
    )
    covert.add_argument("--bits", type=int, default=64)
    covert.add_argument("--bit-period", type=float, default=0.08)
    covert.add_argument("--seed", type=int, default=0)
    covert.add_argument(
        "--board", type=str, default=None,
        help="Table I board to attack (default ZCU102; see `boards`)",
    )

    report = sub.add_parser(
        "report", help="compact evaluation report (markdown)"
    )
    report.add_argument("--samples", type=int, default=500)
    report.add_argument("--rsa-samples", type=int, default=6000)
    report.add_argument("--output", type=str, default=None)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument(
        "--board", type=str, default=None,
        help="Table I board to evaluate (default ZCU102; see `boards`)",
    )
    report.add_argument(
        "--workers", type=int, default=None,
        help="evaluation worker processes (default: AMPEREBLEED_WORKERS "
             "env var, else serial; 0 = all CPUs)",
    )

    record = sub.add_parser(
        "record",
        help="acquisition plane only: stream an experiment's traces "
             "into a v3 archive",
    )
    record.add_argument(
        "--experiment", choices=("fingerprint", "rsa", "covert"),
        default="fingerprint",
    )
    record.add_argument(
        "--out", type=str, required=True,
        help="archive directory to create (must not hold a manifest)",
    )
    record.add_argument("--seed", type=int, default=0)
    record.add_argument(
        "--board", type=str, default=None,
        help="Table I board to record on (default ZCU102)",
    )
    record.add_argument(
        "--faults", type=float, default=None,
        help="arm deterministic fault injection at this rate in [0, 1] "
             "(fingerprint/rsa; dead channels are dropped, not fatal)",
    )
    record.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted recording from the archive's "
             "last checkpoint (fingerprint/rsa)",
    )
    record.add_argument(
        "--models", nargs="*", default=None,
        help="fingerprint: victim models (default: full zoo)",
    )
    record.add_argument(
        "--traces", type=int, default=8,
        help="fingerprint: traces per model",
    )
    record.add_argument(
        "--duration", type=float, default=5.0,
        help="fingerprint: trace duration in seconds",
    )
    record.add_argument(
        "--folds", type=int, default=4,
        help="fingerprint: CV folds stored in the manifest config",
    )
    record.add_argument(
        "--trees", type=int, default=20,
        help="fingerprint: forest size stored in the manifest config",
    )
    record.add_argument(
        "--channels", nargs="*", default=["fpga/current"],
        help="fingerprint: domain/quantity channels to record",
    )
    record.add_argument(
        "--quantity", type=str, default="current",
        help="rsa: hwmon quantity to sweep",
    )
    record.add_argument(
        "--samples", type=int, default=8000,
        help="rsa: polls per key",
    )
    record.add_argument(
        "--bits", type=int, default=64, help="covert: payload bits"
    )
    record.add_argument(
        "--bit-period", type=float, default=0.08,
        help="covert: seconds per bit",
    )

    analyze = sub.add_parser(
        "analyze",
        help="analysis plane only: evaluate a recorded archive "
             "(no SoC, no sampling)",
    )
    analyze.add_argument("--archive", type=str, required=True)
    analyze.add_argument(
        "--workers", type=int, default=None,
        help="evaluation worker processes (default: AMPEREBLEED_WORKERS "
             "env var, else serial; 0 = all CPUs)",
    )

    replay = sub.add_parser(
        "replay",
        help="re-feed an archived capture through the detector or "
             "covert demodulator",
    )
    replay.add_argument("--archive", type=str, required=True)

    monitor = sub.add_parser(
        "monitor",
        help="record and classify one channel live: per-window top-k "
             "verdicts while the sampler polls",
    )
    monitor.add_argument(
        "--train-archive", type=str, required=True,
        help="recorded fingerprint archive to train the forest from",
    )
    monitor.add_argument(
        "--channel", type=str, default="fpga/current",
        help="domain/quantity channel to monitor",
    )
    monitor.add_argument(
        "--duration", type=float, default=20.0,
        help="monitoring session length in seconds",
    )
    monitor.add_argument(
        "--window", type=float, default=5.0,
        help="verdict window in seconds (train-trace length for parity "
             "with batch classification)",
    )
    monitor.add_argument(
        "--hop", type=float, default=None,
        help="window stride in seconds (default: tumbling windows)",
    )
    monitor.add_argument(
        "--chunk", type=float, default=1.0,
        help="stream chunk size in seconds (the latency bound)",
    )
    monitor.add_argument(
        "--top-k", type=int, default=3,
        help="candidates per verdict",
    )
    monitor.add_argument(
        "--smoothing", type=float, default=1.0,
        help="EMA weight of the newest window in (0, 1]; 1.0 = raw "
             "per-window probabilities",
    )
    monitor.add_argument(
        "--victims", nargs="*", default=None,
        help="victim models served back-to-back during the session "
             "(default: every class the forest knows)",
    )
    monitor.add_argument(
        "--out", type=str, default=None,
        help="also persist the monitored stream to this archive",
    )
    monitor.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted monitor session from --out's "
             "last checkpoint (byte-identical to an uninterrupted run)",
    )
    monitor.add_argument("--seed", type=int, default=0)
    monitor.add_argument(
        "--board", type=str, default=None,
        help="Table I board to monitor on (default ZCU102)",
    )
    monitor.add_argument(
        "--faults", type=float, default=None,
        help="arm deterministic fault injection at this rate in [0, 1]; "
             "degraded chunks flag their verdicts",
    )

    return parser


_COMMANDS = {
    "boards": _cmd_boards,
    "characterize": _cmd_characterize,
    "fingerprint": _cmd_fingerprint,
    "fleet": _cmd_fleet,
    "check": _cmd_check,
    "rsa": _cmd_rsa,
    "covert": _cmd_covert,
    "report": _cmd_report,
    "record": _cmd_record,
    "analyze": _cmd_analyze,
    "replay": _cmd_replay,
    "monitor": _cmd_monitor,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
