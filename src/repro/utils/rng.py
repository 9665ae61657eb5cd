"""Seed discipline for the simulation substrate.

Every stochastic component in the simulator draws from an explicit
:class:`numpy.random.Generator`.  Experiments accept a single integer
seed and derive independent child streams for each noise source with
:func:`spawn`, so adding a new noise source never perturbs the draws of
existing ones (the streams are keyed by name, not by draw order).

It is also the one module that reads or sets a bit generator's raw
state.  :class:`SubsetDraws` serves a generator's successive
``choice(n, size=k, replace=False)`` results, as computed in blocks by
:func:`fill_subsets`, while leaving the generator's stream exactly
where per-call ``choice`` calls would leave it.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence, Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]


def normalize_seed(seed: Optional[int]) -> int:
    """The library-wide seed policy: ``None`` means seed 0.

    Every component keys its noise streams off one integer seed.
    ``None`` used to mean "fresh entropy" in some constructors and 0 in
    others; a run that cannot be replayed is useless to the offline
    analysis plane, so the unseeded case pins to the default seed
    everywhere.  (Re-exported by :mod:`repro.session`, which applies
    the same policy at session construction.)
    """
    return 0 if seed is None else int(seed)


def ensure_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (normalized to the default seed 0 — never
    OS entropy, per :func:`normalize_seed`), an integer, or an existing
    generator (returned unchanged so callers can share a stream).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(normalize_seed(seed))


def spawn(seed: RngLike, name: str) -> np.random.Generator:
    """Derive an independent child generator keyed by ``name``.

    For integer seeds the child stream is a pure function of
    ``(seed, name)`` — stable across runs and insensitive to the order in
    which other components spawn their own streams.  For generator or
    ``None`` seeds a child is spawned from the parent's bit generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed.spawn(1)[0]
    entropy = [abs(hash_name(name))]
    if seed is not None:
        entropy.append(int(seed))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def hash_name(name: str) -> int:
    """Deterministic (process-independent) 63-bit hash of a stream name.

    ``hash()`` is salted per process for strings, so we use an FNV-1a
    variant instead to keep child streams reproducible across runs.
    """
    value = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) % (1 << 64)
    return value % (1 << 63)


def derive_seed(seed: Optional[int], name: str) -> int:
    """Derive a stable integer sub-seed from ``(seed, name)``.

    Useful when an API requires an integer seed rather than a generator.
    """
    base = 0 if seed is None else int(seed)
    return (base * 1000003 + hash_name(name)) % (1 << 63)


#: Rows of each successive :class:`SubsetDraws` block; the last size
#: repeats.  Early blocks are short since most trees stop after a few
#: dozen splits.
BLOCK_ROWS = (8, 16, 32)

#: Largest population ``Generator.choice`` always samples without
#: replacement by Floyd's algorithm (larger ones may tail-shuffle).
_FLOYD_LIMIT = 10_000

_LOW_HALF = np.uint64(0xFFFFFFFF)


class SubsetDraws:
    """One generator's successive ``choice(n, size=k, replace=False)``.

    :func:`fill_subsets` computes a block of results at a time from the
    generator's raw words, mirroring numpy's algorithm for a PCG64
    generator and ``n`` up to 10 000: the 32-bit words come low half
    first after any buffered half, each draw below ``j + 1`` is
    Lemire's ``(word · (j + 1)) >> 32``, Floyd's algorithm draws for
    ``j = n − k … n − 1`` (``j = 0`` reads no word) and takes ``j`` when
    the draw is already chosen, then a Fisher–Yates pass swaps place
    ``i`` with a draw below ``i + 1`` for ``i = k − 1 … 1``.  A block
    ends before the first row with a draw Lemire would reject (about one
    in 10⁸); that row, like every row of another bit generator or a
    larger ``n``, comes from ``Generator.choice`` itself.

    ``rows[taken]`` is the next row (:class:`SubsetBlocks` serves them);
    :meth:`sync` rewinds the generator over the words drawn ahead, so
    its whole ``state`` (the buffered half included) is what per-call
    ``choice`` would leave.
    """

    def __init__(self, rng: np.random.Generator, n: int, k: int):
        self.rng = rng
        self.n = n
        self.k = k
        # 32-bit words per row: k Floyd draws (none for j = 0), k - 1 swaps.
        self.width = 2 * k - 1 - (k == n)
        self.blocked = (
            type(rng.bit_generator) is np.random.PCG64
            and 0 < self.width
            and n <= _FLOYD_LIMIT
        )
        self.rows = np.empty((0, k), dtype=np.min_scalar_type(n - 1))
        self.taken = 0
        self.refills = 0
        # The block ends before a row with a rejected draw.
        self.cut = False
        # (has_uint32, uinteger) at the block's start; None while the
        # generator itself is where the rows taken so far leave it.
        self.start = None
        self.drawn = 0
        self.last = 0

    def _position(self, taken: int):
        """``(raw words read, has_uint32, uinteger)`` after ``taken`` rows
        of the block; ``uinteger`` None means the high half of the last
        raw word read."""
        has, word = self.start
        used = taken * self.width
        if used <= has:
            return 0, has - used, word
        return (used - has + 1) // 2, (used - has) % 2, None

    def sync(self) -> None:
        """Rewind the generator to where the rows taken leave the stream."""
        if self.start is None:
            return
        raw, has, word = self._position(self.taken)
        bit_generator = self.rng.bit_generator
        ahead = self.drawn - raw
        if word is None and ahead:
            bit_generator.advance(-ahead - 1)
            word = int(bit_generator.random_raw()) >> 32
        elif ahead:
            bit_generator.advance(-ahead)
        elif word is None:
            word = self.last
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = has, word
        bit_generator.state = state
        self.start = None

    def _choose(self) -> None:
        """Serve the next row from ``Generator.choice`` itself."""
        self.sync()
        self.rows = self.rng.choice(self.n, size=self.k, replace=False)[np.newaxis]
        self.taken = 0
        self.cut = False

    def _begin_block(self) -> None:
        """Record the buffered half the next block starts from."""
        if self.start is None:
            state = self.rng.bit_generator.state
            self.start = (state["has_uint32"], state["uinteger"])
        else:
            _, has, word = self._position(self.taken)
            self.start = (has, self.last if word is None else word)


def fill_subsets(draws: Sequence[SubsetDraws]) -> None:
    """Give every stream whose rows are all taken its next block.

    Streams sharing ``(n, k)`` and block size are computed together.
    Streams sharing a bit generator take every row from ``choice``, in
    call order, since drawing ahead on one would move the others.
    """
    if len({id(stream.rng.bit_generator) for stream in draws}) < len(draws):
        owners = Counter(id(stream.rng.bit_generator) for stream in draws)
        for stream in draws:
            stream.blocked &= owners[id(stream.rng.bit_generator)] == 1
    groups = {}
    for stream in draws:
        if stream.taken < len(stream.rows):
            continue
        if stream.cut or not stream.blocked:
            stream._choose()
            continue
        rows = BLOCK_ROWS[min(stream.refills, len(BLOCK_ROWS) - 1)]
        stream.refills += 1
        stream._begin_block()
        groups.setdefault((stream.n, stream.k, rows), []).append(stream)
    for (n, k, rows), group in groups.items():
        _fill_block(group, n, k, rows)


def _fill_block(group: Sequence[SubsetDraws], n: int, k: int, m: int) -> None:
    """Compute ``m`` rows of ``choice(n, k, replace=False)`` per stream."""
    width = group[0].width
    need = m * width
    has = np.array([stream.start[0] for stream in group])
    counts = (need - has + 1) // 2
    raw = np.concatenate(
        [stream.rng.bit_generator.random_raw(int(count))
         for stream, count in zip(group, counts.tolist())]
    )
    ends = np.cumsum(counts)
    lasts = (raw[ends - 1] >> np.uint64(32)).tolist()
    # Per stream: its buffered half, then the low and high halves of its
    # raw words; a stream holding no half (has_uint32 = 0) starts after it.
    stream_words = np.empty(len(group) + 2 * raw.size, dtype=np.uint32)
    heads = np.arange(len(group)) + 2 * (ends - counts)
    stream_words[heads] = [stream.start[1] for stream in group]
    pairs = np.empty((raw.size, 2), dtype=np.uint32)
    pairs[:, 0] = raw & _LOW_HALF
    pairs[:, 1] = raw >> np.uint64(32)
    halves = np.ones(stream_words.size, dtype=bool)
    halves[heads] = False
    stream_words[halves] = pairs.ravel()
    del raw, pairs
    windows = np.lib.stride_tricks.sliding_window_view(stream_words, need)
    words = windows[heads + 1 - has].astype(np.uint64).reshape(-1, width)
    del stream_words, windows

    # Lemire: the draw below ``bound`` is the high word of word · bound,
    # rejected when its low word is below 2³² mod bound.
    low = max(n - k, 1)
    bounds = np.concatenate(
        [np.arange(low + 1, n + 1), np.arange(k, 1, -1)]
    ).astype(np.uint64)
    words *= bounds
    thresholds = (np.uint64(1 << 32) % bounds).astype(np.uint32)
    rejected = words.astype(np.uint32) < thresholds
    words >>= np.uint64(32)
    draws = words.view(np.int64)
    # Floyd: place t takes its draw below j + 1 (j = n - k + t), or j
    # when the draw is already chosen.
    floyd = n - low
    skip = k - floyd
    chosen = np.zeros((draws.shape[0], k), dtype=np.int64)
    for place in range(skip, k):
        value = draws[:, place - skip]
        seen = (chosen[:, :place] == value[:, np.newaxis]).any(axis=1)
        chosen[:, place] = np.where(seen, n - k + place, value)
    # Fisher–Yates: place i swaps with its draw below i + 1.
    everywhere = np.arange(draws.shape[0])
    for column, place in enumerate(range(k - 1, 0, -1), start=floyd):
        other = draws[:, column]
        held = chosen[:, place].copy()
        chosen[:, place] = chosen[everywhere, other]
        chosen[everywhere, other] = held
    blocks = chosen.astype(group[0].rows.dtype).reshape(len(group), m, k)
    bad = rejected.any(axis=1).reshape(len(group), m)
    kept = np.where(bad.any(axis=1), bad.argmax(axis=1), m).tolist()
    for stream, block, rows, count, last in zip(
        group, blocks, kept, counts.tolist(), lasts
    ):
        stream.rows = block[:rows]
        stream.taken = 0
        stream.drawn = count
        stream.last = int(last)
        stream.cut = rows < m
        if not rows:
            stream._choose()


class SubsetBlocks:
    """Many streams' :class:`SubsetDraws`, served a row each per call.

    Each stream's current block is copied into one shared array, so a
    lockstep step takes the next subset of every live stream with one
    gather; :meth:`sync` then rewinds every generator.
    """

    def __init__(self, draws: Sequence[SubsetDraws]):
        self.draws = list(draws)
        self.k = np.array([stream.k for stream in self.draws])
        self.rows = np.zeros(
            (len(self.draws), BLOCK_ROWS[-1], self.k.max()),
            dtype=np.min_scalar_type(max(d.n for d in self.draws) - 1),
        )
        self.held, self.taken = np.zeros((2, len(self.draws)), dtype=np.intp)

    def take(self, streams: np.ndarray) -> np.ndarray:
        """The next subset of each of ``streams`` (indices, ascending),
        zero-padded to the widest one."""
        spent = streams[self.taken[streams] == self.held[streams]].tolist()
        if spent:
            group = [self.draws[i] for i in spent]
            for stream in group:
                stream.taken = len(stream.rows)
            fill_subsets(group)
            for i, stream in zip(spent, group):
                self.held[i] = len(stream.rows)
                self.rows[i, :len(stream.rows), :stream.k] = stream.rows
            self.taken[spent] = 0
        rows = self.rows[streams, self.taken[streams]]
        self.taken[streams] += 1
        return rows

    def sync(self) -> None:
        """Rewind every generator to where the subsets taken leave it."""
        for stream, taken in zip(self.draws, self.taken.tolist()):
            stream.taken = taken
            stream.sync()
