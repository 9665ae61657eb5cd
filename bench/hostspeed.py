"""Host-speed probe: cancels the drift of a shared host out of host times.

The benchmark's host times swing by tens of percent with the load of
other tenants on the physical machine, over seconds and over hours,
and the swings move CPU time as much as wall time.  A fixed reference
kernel slows down with the host, so the probe runs it every
``INTERVAL_S`` of wall time from a ``SIGALRM`` handler, interleaved
with whatever the process is doing, and keeps its CPU time.

A span of host time is then reported as *normalized* seconds: its net
duration (minus the time spent in the probe) times ``s ** a``, where
``s`` is the mean relative host speed ``NOMINAL_S / kernel time`` of
the samples taken in it and ``a`` how strongly the measured work
reacts to host speed compared with the kernel (``a`` is 1 when both
slow down alike; the caller fits it).  That is the time the work would
have taken on a host where the kernel takes ``NOMINAL_S``.  A change to
the program moves the normalized time as much as the raw one; a change
in host speed does not.

Timers are per process.  Processes forked from a probed one (pool
workers) arm their own timer and append their samples, with the time
they were taken, to a file per process under the directory given to
:func:`start`, so that :func:`children_speed` can read the host speed
where the work ran.
"""

import atexit
import os
import signal
import statistics
import struct
import time
from pathlib import Path

import numpy as np

#: Wall time between two probe samples.
INTERVAL_S = 0.05
#: CPU time of one kernel run on the nominal host; on the 2-vCPU VM
#: the benchmark was written on it ranges from about 0.8 to 1.4 ms.
NOMINAL_S = 1.0e-3
#: One sample in a child's file: (perf_counter at the sample, CPU s).
_RECORD = struct.Struct("dd")

_SORTED = np.random.default_rng(0).standard_normal(10_000)
_samples = []
_spent = 0.0
_share_dir = None
_share_fd = None


def _kernel():
    """Interpreter-bound and memory-bound work, about 1 ms."""
    total = 0
    for i in range(10_000):
        total += i * i % 7
    for _ in range(3):
        np.sort(_SORTED)
    return total


def _tick(signum, frame):
    global _spent
    begin = time.perf_counter()
    cpu = time.thread_time()
    _kernel()
    sample = time.thread_time() - cpu
    _samples.append(sample)
    if _share_fd is not None:
        os.write(_share_fd, _RECORD.pack(begin, sample))
    _spent += time.perf_counter() - begin


def _arm():
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def _start_child():
    global _samples, _share_fd
    _samples = []
    path = _share_dir / f"{os.getpid()}.samples"
    _share_fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    _arm()


def start(share_dir):
    """Sample the host speed from now on, here and in forked children."""
    global _share_dir
    _share_dir = Path(share_dir)
    _share_dir.mkdir(parents=True, exist_ok=True)
    os.register_at_fork(after_in_child=_start_child)
    # A tick during interpreter shutdown would kill the process.
    atexit.register(stop)
    _arm()


def stop():
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)


def clock():
    """``time.perf_counter()`` minus the time spent in the probe so far."""
    return time.perf_counter() - _spent


def mark():
    """The position to normalize from; see :func:`speed`."""
    return len(_samples)


def spent():
    """Wall seconds this process spent in the probe so far."""
    return _spent


def _relative(samples):
    return statistics.fmean(NOMINAL_S / sample for sample in samples)


def speed(since=0):
    """Mean relative host speed of this process's samples since ``since``.

    Falls back to every sample taken so far when there is none since
    ``since``, and to 1.0 when there is none at all.
    """
    samples = _samples[since:] or _samples
    return _relative(samples) if samples else 1.0


def children_speed(begin, end):
    """Mean relative host speed that forked children sampled between
    ``perf_counter`` times ``begin`` and ``end``; None if none did."""
    samples = []
    for path in _share_dir.glob("*.samples"):
        data = path.read_bytes()
        usable = len(data) - len(data) % _RECORD.size
        samples += [
            sample
            for at, sample in _RECORD.iter_unpack(data[:usable])
            if begin <= at <= end
        ]
    return _relative(samples) if samples else None
