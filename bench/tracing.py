"""Outside-in span recording for the traced benchmark run.

The program itself carries no tracing.  A traced run replaces the
public entry point of each pipeline layer, at the place its callers
look the name up, with a wrapper that records one span per call:
name, start, end, the enclosing span, and the id of the benchmark
operation it belongs to.  Class methods are patched on the class;
functions that callers import by name (``score_fold``, ``run_job``)
are patched in every module that holds the name, with one shared
wrapper so that a pickled reference still resolves to it.

Spans stay in memory.  Pool workers forked from a traced process
inherit the wrappers; after every fleet job a worker appends its
spans to a per-process file that the parent merges after the pass.
A layer's self time is its span duration minus the time its child
spans cover.  Span times are raw host seconds, net of the host-speed
probe (``hostspeed.clock``).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import threading
from collections import defaultdict
from pathlib import Path

from hostspeed import clock


def _times_len(args, kwargs, result):
    times = args[2] if len(args) > 2 else kwargs["times"]
    return {"polls": int(len(times))}


def _batch_polls(args, kwargs, result):
    return {"polls": sum(int(len(times)) for _, times in args[1])}


def _windows(args, kwargs, result):
    return {"conversions": int(len(result[0]))}


def _conversions(args, kwargs, result):
    return {"conversions": int(result.current_register.size)}


def _trace_polls(traces):
    polls = retries = 0
    for trace in traces:
        polls += trace.n_samples
        if trace.quality is not None:
            retries += trace.quality.retries
    return {"polls": polls, "retries": retries}


def _collected(args, kwargs, result):
    return _trace_polls(result.values() if isinstance(result, dict) else [result])


def _chunk(args, kwargs, result):
    return _trace_polls([result])


def _appended(args, kwargs, result):
    trace = args[1]
    return {"bytes": int(trace.times.nbytes + trace.values.nbytes)}


def _nodes(args, kwargs, result):
    return {"nodes": int(result.node_count)}


def _rows(args, kwargs, result):
    return {"rows": int(len(result))}


def _job_op(args, kwargs):
    return args[0].job_id


#: (span name, [(module, attribute path), ...], item counter, op key).
#: The places of one entry hold the same function and receive the same
#: wrapper object.
LAYERS = (
    ("dpu.deploy", [("repro.dpu.runner", "DpuRunner.deploy")], None, None),
    ("soc.rails.window_state",
     [("repro.soc.rails", "PowerRail.window_state")], _windows, None),
    ("sensors.ina226.convert",
     [("repro.sensors.ina226", "Ina226.convert")], _conversions, None),
    ("sensors.hwmon.read",
     [("repro.sensors.hwmon", "HwmonDevice.read_series")], _times_len, None),
    ("sensors.hwmon.read",
     [("repro.sensors.hwmon", "HwmonDevice.read_series_faulted")],
     _times_len, None),
    ("sensors.hwmon.read",
     [("repro.sensors.hwmon", "HwmonDevice.read_series_batch")],
     _batch_polls, None),
    ("core.sampler.collect",
     [("repro.core.sampler", "HwmonSampler.collect")], _collected, None),
    ("core.sampler.collect",
     [("repro.core.sampler", "HwmonSampler.collect_many")], _collected, None),
    ("core.sampler.chunk",
     [("repro.core.sampler", "TraceStream.__next__")], _chunk, None),
    ("core.traces.to_matrix",
     [("repro.core.traces", "TraceSet.to_matrix")], None, None),
    ("core.streaming.push_chunk",
     [("repro.core.streaming", "StreamingAnalyzer.push_chunk")], None, None),
    ("core.io.append",
     [("repro.core.io", "TraceArchiveWriter.append")], _appended, None),
    ("core.io.checkpoint",
     [("repro.core.io", "TraceArchiveWriter.checkpoint")], None, None),
    ("core.io.read",
     [("repro.core.io", "TraceArchiveReader.load_datasets")], None, None),
    ("core.io.read",
     [("repro.core.io", "TraceArchiveReader.load_traceset")], None, None),
    ("ml.tree.fit",
     [("repro.ml.tree", "DecisionTreeClassifier.fit")], _nodes, None),
    ("ml.forest.fit",
     [("repro.ml.forest", "RandomForestClassifier.fit")], None, None),
    ("ml.forest.predict_proba",
     [("repro.ml.forest", "RandomForestClassifier.predict_proba")],
     _rows, None),
    ("ml.validation.score_fold",
     [("repro.ml.validation", "score_fold"),
      ("repro.core.fingerprint", "score_fold")], None, None),
    ("fpga.ring_osc.counts",
     [("repro.fpga.ring_osc", "RoSensorBank.counts")], None, None),
    ("fpga.power_virus.timeline",
     [("repro.fpga.power_virus", "PowerVirusArray.timeline")], None, None),
    ("fleet.job",
     [("repro.fleet.jobs", "run_job"), ("repro.fleet.scheduler", "run_job")],
     None, _job_op),
)


def _owner(module_name, path):
    """(object holding the attribute, attribute name) for a dotted path."""
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


class Tracer:
    """In-memory span recorder plus the wrapper installer.

    A span is ``(pid, id, parent id, op, name, start, end, items)``;
    ``items`` holds the work counts the layer reported (polls,
    conversions, nodes, ...).  Nested calls of the same layer (a
    faulted ``read_series`` delegating to ``read_series_faulted``)
    fold into the outer span.
    """

    def __init__(self, flush_dir=None):
        self.spans = []
        self.op = None
        self.flush_dir = Path(flush_dir) if flush_dir is not None else None
        self._pid = os.getpid()
        self._origin_pid = self._pid
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._installed = []

    def _stack(self):
        if os.getpid() != self._pid:
            # A forked pool worker: the parent's spans are not ours.
            self._pid = os.getpid()
            self.spans = []
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, count=None, op=None, flush=False):
        """Run ``fn`` inside one span named ``name``.

        The span's op id is ``op(args, kwargs)`` when the layer keys its
        own ops (a fleet job), else the enclosing span's, else
        :attr:`op`; spans nested in a call so inherit its op id.
        """
        stack = self._stack()
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        span_id = next(self._ids)
        if op is not None:
            span_op = op(args, kwargs)
        elif stack:
            span_op = stack[-1][2]
        else:
            span_op = self.op
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name, span_op))
        done = False
        start = clock()
        try:
            result = fn(*args, **kwargs)
            done = True
        finally:
            end = clock()
            stack.pop()
            items = count(args, kwargs, result) if done and count else None
            self.spans.append(
                (self._pid, span_id, parent, span_op, name, start, end, items)
            )
        if flush and self._pid != self._origin_pid:
            self.flush()
        return result

    def flush(self):
        """Append this worker's spans to its per-process file."""
        if self.flush_dir is None or not self.spans:
            return
        path = self.flush_dir / f"{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def merge_flushed(self):
        """Move spans that pool workers flushed into this tracer."""
        if self.flush_dir is None:
            return
        for path in sorted(self.flush_dir.glob("*.jsonl")):
            with path.open(encoding="utf-8") as handle:
                self.spans.extend(tuple(json.loads(line)) for line in handle)
            path.unlink()

    # -------------------------------------------------------- install

    def install(self):
        """Patch every layer entry point; idempotent."""
        if self._installed:
            return
        wrappers = {}
        for name, places, count, op in LAYERS:
            for module_name, path in places:
                owner, attribute = _owner(module_name, path)
                original = owner.__dict__[attribute]
                wrapper = wrappers.get(id(original))
                if wrapper is None:
                    wrapper = self._wrap(name, original, count, op)
                    wrappers[id(original)] = wrapper
                setattr(owner, attribute, wrapper)
                self._installed.append((owner, attribute, original))

    def uninstall(self):
        """Restore every patched entry point."""
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed = []

    def _wrap(self, name, fn, count, op):
        tracer = self
        # A pool worker hands its spans to the parent after every job.
        flush = name == "fleet.job"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, count, op, flush)

        return traced

    def write(self, path):
        """Dump every span as JSON (one object per span)."""
        keys = ("pid", "id", "parent", "op", "name", "start", "end", "items")
        payload = {"spans": [dict(zip(keys, span)) for span in self.spans]}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def summarize(spans):
    """Per-layer ``calls``, ``total_s``, ``self_s`` and item sums."""
    covered = defaultdict(float)
    for pid, _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            covered[(pid, parent)] += end - start
    layers = {}
    for pid, span_id, _, _, name, start, end, items in spans:
        entry = layers.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": {}}
        )
        duration = end - start
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - covered[(pid, span_id)]
        for key, value in (items or {}).items():
            entry["items"][key] = entry["items"].get(key, 0) + value
    return layers


def _ratio(numerator, denominator, scale=1.0):
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(spans, wall_s, workers, job_latency):
    """The per-layer metrics of one traced pass.

    Every layer gives ``<layer>.calls``, ``<layer>.self_s`` and one
    ``<layer>.<item>`` per work count it reported; the rest are sums
    and ratios across layers.  ``job_latency`` maps fleet job ids to
    the scheduler's dispatch-to-result latency (empty outside the
    fleet workload).
    """
    metrics = {}
    for name, entry in summarize(spans).items():
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_s"]
        for key, value in entry["items"].items():
            metrics[f"{name}.{key}"] = value

    def get(name):
        return metrics.get(name, 0)

    polls = get("core.sampler.collect.polls") + get("core.sampler.chunk.polls")
    retries = get("core.sampler.collect.retries") + get(
        "core.sampler.chunk.retries"
    )
    jobs = {span[3]: span[6] - span[5] for span in spans if span[4] == "fleet.job"}
    waits = [
        job_latency[job] - duration
        for job, duration in jobs.items()
        if job in job_latency
    ]
    metrics.update(
        {
            "soc.rails.conversions": get("soc.rails.window_state.conversions"),
            "soc.rails.us_per_conversion": _ratio(
                get("soc.rails.window_state.self_s"),
                get("soc.rails.window_state.conversions"),
                1e6,
            ),
            "sensors.hwmon.polls": get("sensors.hwmon.read.polls"),
            "sensors.hwmon.polls_per_conversion": _ratio(
                get("sensors.hwmon.read.polls"),
                get("sensors.ina226.convert.conversions"),
            ),
            "core.sampler.retries": retries,
            "core.sampler.retry_ratio": _ratio(retries, polls),
            "ml.tree.nodes": get("ml.tree.fit.nodes"),
            "ml.tree.us_per_node": _ratio(
                get("ml.tree.fit.self_s"), get("ml.tree.fit.nodes"), 1e6
            ),
            "fleet.job_p50_s": statistics.median(jobs.values()) if jobs else 0.0,
            "fleet.queue_wait_s": statistics.median(waits) if waits else 0.0,
            "fleet.parallel_efficiency": _ratio(
                sum(jobs.values()), wall_s * workers
            ),
        }
    )
    return metrics
