"""Counter-based (hash) random numbers for latch-consistent noise.

The hwmon layer must return the *identical* reading every time an
attacker polls within one sensor update period — including across
separate calls into the simulator.  Stateful generators cannot provide
that, so sensor noise is a pure function of ``(key, counter, stream)``
computed with a vectorized splitmix64 hash: same conversion, same
noise, forever.  This is the standard counter-based RNG construction
(Philox/Threefry family), implemented minimally in numpy.

One uniform stream ``s`` draws ``splitmix64(counter ^ seed(s))`` with
``seed(s) = splitmix64(key + splitmix64(s))``; a normal stream ``s``
is Box-Muller over the uniform streams ``2s`` and ``2s + 1``.
:func:`hashed_normals` computes several normal streams in one pass:
stream seeds are memoised Python-int hashes, the finalizer runs in
place on blocks of at most :data:`_BLOCK` elements per temporary
(larger temporaries are mmap-backed and page-fault on every call), and
every float step is the same elementwise operation on a contiguous row
as in the one-stream formula, so each row is bit-identical to
:func:`hashed_normal` of that stream.
"""

from __future__ import annotations

import functools
from typing import Sequence, Tuple

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN_INT = 0x9E3779B97F4A7C15
_MIX1_INT = 0xBF58476D1CE4E5B9
_MIX2_INT = 0x94D049BB133111EB
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX1 = np.uint64(_MIX1_INT)
_MIX2 = np.uint64(_MIX2_INT)

#: Most elements one kernel temporary holds (32 KiB of uint64).
_BLOCK = 4096
_UNIT = 2.0**-53
_TWO_PI = 2.0 * np.pi


def _finalize(z: np.ndarray, scratch: np.ndarray) -> None:
    """splitmix64's finalizer, in place on a >=1-d uint64 array.

    Array integer ufuncs wrap mod 2**64 silently, so no ``errstate``
    is needed (0-d operands would go through scalar math and warn).
    """
    z += _GOLDEN
    np.right_shift(z, 30, out=scratch)
    z ^= scratch
    z *= _MIX1
    np.right_shift(z, 27, out=scratch)
    z ^= scratch
    z *= _MIX2
    np.right_shift(z, 31, out=scratch)
    z ^= scratch


def _splitmix64_int(x: int) -> int:
    """splitmix64 of one value in Python ints, mod 2**64."""
    z = (x + _GOLDEN_INT) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK
    return z ^ (z >> 31)


@functools.lru_cache(maxsize=1024)
def _stream_seeds(key: int, streams: Tuple[int, ...]) -> np.ndarray:
    """Read-only ``(len(streams), 1)`` column of uniform-stream seeds."""
    seeds = np.array(
        [
            _splitmix64_int((key + _splitmix64_int(int(stream) & _MASK)) & _MASK)
            for stream in streams
        ],
        dtype=np.uint64,
    ).reshape(-1, 1)
    seeds.flags.writeable = False
    return seeds


def _uniforms(block: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """``(len(seeds), block.size)`` hashed uniforms, one row per seed."""
    bits = np.bitwise_xor(block, seeds)
    _finalize(bits, np.empty_like(bits))
    bits >>= 11
    # Top 53 bits as a double in [0, 1): exact, as the values are below
    # 2**53 and the scale is a power of two.
    return np.multiply(bits, _UNIT)


def _hashed_rows(
    key: int, counter: np.ndarray, streams: Tuple[int, ...], normal: bool
) -> np.ndarray:
    """Rows of hashed draws over one counter array.

    One uniform row per entry of ``streams``, or with ``normal`` one
    Box-Muller row per normal stream.  Counters go in blocks of at most
    :data:`_BLOCK`, and each temporary holds at most :data:`_BLOCK`
    elements: all rows at once for short counters, fewer rows per
    temporary for long ones.  Returns ``(len(streams), *counter.shape)``.
    """
    counter = np.asarray(counter, dtype=np.uint64)
    flat = counter.reshape(-1)
    if normal:
        uniform_streams = tuple(2 * s for s in streams) + tuple(
            2 * s + 1 for s in streams
        )
    else:
        uniform_streams = streams
    seeds = _stream_seeds(int(key), uniform_streams)
    n_rows = len(streams)
    out = np.empty((n_rows, flat.size))
    width = max(1, min(flat.size, _BLOCK))
    group = _BLOCK // width
    for lo in range(0, flat.size, width):
        block = flat[lo:lo + width]
        for first in range(0, n_rows, group):
            rows = slice(first, min(first + group, n_rows))
            target = out[rows, lo:lo + block.size]
            if not normal:
                target[...] = _uniforms(block, seeds[rows])
                continue
            # u1 and u2 are each C-contiguous, so log and cos run the
            # same contiguous loops as the one-stream formula.
            u1 = _uniforms(block, seeds[rows])
            u2 = _uniforms(block, seeds[n_rows:][rows])
            np.maximum(u1, _UNIT, out=u1)
            np.log(u1, out=u1)
            u1 *= -2.0
            np.sqrt(u1, out=u1)
            u2 *= _TWO_PI
            np.cos(u2, out=u2)
            np.multiply(u1, u2, out=target)
    return out.reshape((n_rows,) + counter.shape)


def hashed_uniform(key: int, counter: np.ndarray, stream: int = 0) -> np.ndarray:
    """Uniform floats in [0, 1), a pure function of (key, counter, stream)."""
    return _hashed_rows(key, counter, (stream,), normal=False)[0]


def hashed_normals(
    key: int, counter: np.ndarray, streams: Sequence[int]
) -> np.ndarray:
    """Standard-normal draws for several streams at once.

    Returns a ``(len(streams), *counter.shape)`` array whose row ``i``
    equals ``hashed_normal(key, counter, streams[i])`` bit for bit.
    """
    return _hashed_rows(key, counter, tuple(streams), normal=True)


def hashed_normal(key: int, counter: np.ndarray, stream: int = 0) -> np.ndarray:
    """Standard-normal draws, a pure function of (key, counter, stream).

    Box-Muller over two independent hashed uniforms; ``u1`` is nudged
    away from zero so the log never overflows.
    """
    return hashed_normals(key, counter, (stream,))[0]
