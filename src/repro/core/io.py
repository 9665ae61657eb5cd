"""Trace persistence: the boundary between the two attack planes.

The offline fingerprinting phase is collect-once / analyze-anywhere:
traces recorded on the device get archived and shipped to the analysis
machine in one format, the v3 directory archive
(:class:`TraceArchiveWriter` / :class:`TraceArchiveReader`): an
append-only ``manifest.jsonl`` plus append-only
``segment_NNNNNN.bin`` files, so a recording session can stream to
disk as it polls and an analysis process can replay chunk-by-chunk
without materializing the capture.  Long captures may be split across
parts (``trace_id`` + ``part``) and reassemble bit-exactly on load.

A v3 chunk is its raw ``times`` (``<f8``) bytes followed by its raw
``values`` bytes, appended to the current segment; its manifest entry
names the segment (``file``) and records the byte ``offset``, the
values ``dtype`` and a ``crc32`` of the chunk's bytes.  A segment rolls
over before a chunk would push it past :data:`SEGMENT_BYTES` (a chunk
larger than that gets a segment of its own), so the layout depends
only on chunk sizes.  Copying reads check the checksum; with
``mmap=True`` (:class:`TraceArchiveReader`) each segment is mapped
once and chunks are read-only views into it.

Readings are integers and timestamps float64; both round-trip
bit-exactly.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.traces import Trace, TraceQuality, TraceSet

#: Archive format version.
FORMAT_VERSION = 3

#: Manifest file name inside a v3 archive directory.
MANIFEST_NAME = "manifest.jsonl"

#: Archive kind tag in the v3 manifest header.
ARCHIVE_KIND = "amperebleed-trace-archive"

#: A segment rolls over before a chunk would push it past this size.
SEGMENT_BYTES = 1 << 20

#: On-disk dtype of every chunk's timestamps.
_TIMES_DTYPE = np.dtype("<f8")


class ArchiveError(ValueError):
    """A trace archive is missing, corrupted, or truncated."""


class ArchiveCorruptError(ArchiveError):
    """An archive is damaged beyond what a torn tail explains.

    Raised only for true corruption — a garbled manifest line with
    intact records after it, or a manifest whose header never made it
    to disk — never for benign states like a missing footer on a
    still-recording archive or a file that simply is not an archive.
    The fleet layer treats this subclass as the quarantine trigger
    (:func:`repro.resilience.quarantine.quarantine_archive`): the
    damaged directory is moved aside with a reason record and the job
    re-records fresh, instead of aborting the whole campaign.
    """


# --------------------------------------------------- v3 directory archive


def _segment_name(index: int) -> str:
    return f"segment_{index:06d}.bin"


def _segment_index(name: str) -> int:
    return int(name[len("segment_"):-len(".bin")])


def _chunk_nbytes(entry: dict) -> int:
    """Bytes one manifest entry's chunk occupies in its segment."""
    itemsize = _TIMES_DTYPE.itemsize + np.dtype(entry["dtype"]).itemsize
    return int(entry["n_samples"]) * itemsize


def _read_chunk_bytes(path: Path, entry: dict) -> np.ndarray:
    """Copy one chunk's bytes out of its segment and verify ``crc32``."""
    nbytes = _chunk_nbytes(entry)
    raw = np.empty(nbytes, dtype=np.uint8)
    try:
        with open(path / entry["file"], "rb") as handle:
            handle.seek(int(entry["offset"]))
            got = handle.readinto(raw)
    except FileNotFoundError:
        raise ArchiveError(
            f"truncated trace archive {path}: segment file "
            f"{entry['file']} is missing"
        ) from None
    if got != nbytes:
        raise ArchiveError(
            f"truncated trace archive {path}: chunk {entry['chunk']} "
            f"needs {nbytes} bytes at offset {entry['offset']} of "
            f"{entry['file']}, found {got}"
        )
    if zlib.crc32(raw) != entry["crc32"]:
        raise ArchiveError(
            f"corrupted chunk {entry['chunk']} in {entry['file']} of "
            f"{path}: crc32 mismatch"
        )
    return raw


def _map_segment(path: Path, name: str) -> np.ndarray:
    """Map one whole segment read-only."""
    try:
        return np.memmap(path / name, dtype=np.uint8, mode="r")
    except FileNotFoundError:
        raise ArchiveError(
            f"truncated trace archive {path}: segment file {name} is "
            f"missing"
        ) from None
    except ValueError:  # numpy refuses to map an empty file
        raise ArchiveError(
            f"truncated trace archive {path}: segment file {name} is empty"
        ) from None


def read_chunk_entry(
    path: Path, entry: dict, maps: Optional[dict] = None
) -> Trace:
    """Load one manifest chunk entry from an archive directory.

    Shared by :class:`TraceArchiveReader` and by resumed
    :class:`TraceArchiveWriter` sessions rebuilding their in-memory
    datasets from already-persisted chunks.  By default the chunk is
    copied and checked against its ``crc32``.  Passing a dict as
    ``maps`` memory-maps instead: each segment is mapped once into
    ``maps`` and the chunk's arrays are read-only views of it.
    """
    path = Path(path)
    nbytes = _chunk_nbytes(entry)
    if maps is None:
        raw = _read_chunk_bytes(path, entry)
    else:
        name = entry["file"]
        if name not in maps:
            maps[name] = _map_segment(path, name)
        offset = int(entry["offset"])
        if maps[name].size < offset + nbytes:
            raise ArchiveError(
                f"truncated trace archive {path}: chunk {entry['chunk']} "
                f"runs past the end of {name}"
            )
        raw = maps[name][offset:offset + nbytes]
    split = int(entry["n_samples"]) * _TIMES_DTYPE.itemsize
    quality = entry.get("quality")
    return Trace(
        times=raw[:split].view(_TIMES_DTYPE),
        values=raw[split:].view(np.dtype(entry["dtype"])),
        domain=entry["domain"],
        quantity=entry["quantity"],
        label=entry.get("label"),
        quality=(
            TraceQuality.from_dict(quality) if quality is not None else None
        ),
    )


class TraceArchiveWriter:
    """Append-mode writer for a v3 directory archive.

    Every :meth:`append` immediately writes one chunk's bytes to the
    current segment and then its manifest line, so a crash
    mid-capture loses at most the chunk in flight; :meth:`close` seals
    the archive with a footer line that readers use to detect
    truncation.

    An interrupted recording leaves an unsealed manifest; reopening
    the same directory with ``resume=True`` recovers it and rolls it
    back to its last :meth:`checkpoint` — a corrupt trailing manifest
    line (a write torn mid-crash) is truncated away, a trailing chunk
    whose bytes are short or fail their ``crc32`` is dropped along
    with its entry, every chunk persisted after the last checkpoint
    (a half-finished unit of work) is dropped too, the active segment
    is truncated to the end of the last kept chunk, later segments are
    deleted, and appending continues at that chunk's index and byte
    offset.  Because recording is deterministic, a resumed session
    rewrites the lost tail bit-identically: recorders read where to
    pick up from :func:`resume_point`.

    Args:
        path: archive directory (created; must not already contain a
            manifest unless ``resume`` is set).
        meta: experiment metadata stored in the manifest header —
            e.g. the fingerprint configuration, board name, seed —
            so the analysis plane can reproduce the recording's
            evaluation without out-of-band knowledge.  On resume it
            must match the interrupted session's header exactly.
        resume: recover an interrupted (unsealed) archive at ``path``
            instead of refusing to touch it.  A sealed archive still
            refuses — there is nothing left to resume.
    """

    def __init__(
        self,
        path: Union[str, Path],
        meta: Optional[dict] = None,
        resume: bool = False,
    ):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.path / MANIFEST_NAME
        self.meta = dict(meta) if meta else {}
        self._meta_updates: dict = {}
        self._n_chunks = 0
        self._closed = False
        self._segment = None
        self._segment_index = 0
        self._segment_size = 0
        #: Chunk entries recovered from an interrupted manifest, up to
        #: its last checkpoint (empty for a fresh archive).
        self.entries: list = []
        #: Last :meth:`checkpoint` state recovered on resume; ``None``
        #: for a fresh archive or one never checkpointed.
        self.checkpoint_state: Optional[dict] = None
        if self._manifest_path.exists():
            if not resume:
                raise ArchiveError(
                    f"archive {self.path} already has a manifest; "
                    f"write to a fresh directory or pass resume=True"
                )
            self._recover(meta)
            self._manifest = self._manifest_path.open("a", encoding="utf-8")
            return
        header = {
            "kind": ARCHIVE_KIND,
            "version": FORMAT_VERSION,
            "meta": self.meta,
        }
        self._manifest = self._manifest_path.open("a", encoding="utf-8")
        self._write_line(header)

    def _recover(self, meta: Optional[dict]) -> None:
        """Rebuild writer state from an interrupted manifest.

        Tolerates exactly the damage a killed recorder can cause — a
        torn final manifest line, or a final chunk whose bytes never
        fully reached its segment — by truncating the manifest and the
        segments back to the last fully-persisted record, then rolls
        back to the last checkpoint: chunks persisted after it belong
        to a half-finished unit that the resumed session re-records at
        the same chunk indices and segment offsets (without any
        checkpoint, every chunk goes).  Damage anywhere *earlier* is
        real corruption and raises instead of being papered over.
        """
        lines = self._manifest_path.read_text(encoding="utf-8").split("\n")
        records = []
        torn_tail = False
        for position, line in enumerate(lines):
            text = line.strip()
            if not text:
                continue
            try:
                record = json.loads(text)
            except json.JSONDecodeError as error:
                rest = [tail for tail in lines[position + 1:] if tail.strip()]
                if rest:
                    raise ArchiveCorruptError(
                        f"corrupted manifest line {position + 1} in "
                        f"{self._manifest_path} (not a torn tail): {error}"
                    ) from None
                torn_tail = True  # torn final line: drop it
                break
            records.append(record)
        if not records:
            raise ArchiveCorruptError(
                f"cannot resume {self.path}: no intact manifest header"
            )
        header = records[0]
        if header.get("kind") != ARCHIVE_KIND:
            raise ArchiveError(
                f"{self.path} is not an AmpereBleed trace archive"
            )
        if header.get("version") != FORMAT_VERSION:
            raise ArchiveError(
                f"unsupported trace archive version {header.get('version')}"
            )
        if any(record.get("footer") for record in records):
            raise ArchiveError(
                f"archive {self.path} is already sealed; nothing to resume"
            )
        header_meta = header.get("meta", {})
        if meta is not None and dict(meta) != header_meta:
            raise ArchiveError(
                f"resume metadata mismatch for {self.path}: the "
                f"interrupted session recorded a different configuration"
            )
        self.meta = dict(header_meta)
        body = records[1:]
        entries = [record for record in body if "checkpoint" not in record]
        # Only the final chunk write can be torn (its bytes land in the
        # segment before its manifest line); verify it and drop the
        # entry — plus any checkpoint recorded after it — if damaged.
        while entries:
            try:
                _read_chunk_bytes(self.path, entries[-1])
                break
            except ArchiveError:
                body = body[:body.index(entries[-1])]
                entries = entries[:-1]
        checkpoints = [
            position for position, record in enumerate(body)
            if "checkpoint" in record
        ]
        body = body[:checkpoints[-1] + 1] if checkpoints else []
        kept = [header] + body
        if torn_tail or len(kept) != len(records):
            self._rewrite_manifest(kept)
        elif lines and lines[-1].strip():
            # Manifest survived intact but without a trailing newline;
            # make sure the next append starts on its own line.
            with self._manifest_path.open("a", encoding="utf-8") as handle:
                handle.write("\n")
        self.entries = [record for record in body if "checkpoint" not in record]
        self.checkpoint_state = body[-1]["checkpoint"] if body else None
        self._n_chunks = len(self.entries)
        self._cut_segments()

    def _rewrite_manifest(self, records: list) -> None:
        tmp_path = self._manifest_path.with_suffix(".jsonl.tmp")
        tmp_path.write_text(
            "".join(json.dumps(record) + "\n" for record in records),
            encoding="utf-8",
        )
        tmp_path.replace(self._manifest_path)

    def _cut_segments(self) -> None:
        """Cut the segments back to the end of the last kept entry.

        The active segment is truncated there and every later segment
        deleted, so re-recorded chunks land at the offsets an
        uninterrupted session would have used.
        """
        self._close_segment()
        if self.entries:
            last = self.entries[-1]
            self._segment_index = _segment_index(last["file"])
            self._segment_size = int(last["offset"]) + _chunk_nbytes(last)
        else:
            self._segment_index = self._segment_size = 0
        active = _segment_name(self._segment_index)
        for segment in self.path.glob("segment_*.bin"):
            if segment.name > active:
                segment.unlink()
        if (self.path / active).exists():
            os.truncate(self.path / active, self._segment_size)

    def _close_segment(self) -> None:
        if self._segment is not None:
            self._segment.close()
            self._segment = None

    def _write_line(self, record: dict) -> None:
        self._manifest.write(json.dumps(record) + "\n")
        self._manifest.flush()

    def checkpoint(self, state: dict) -> None:
        """Record a resumable progress marker in the manifest.

        Checkpoint records are ignored by readers' chunk iteration;
        a resumed writer surfaces the most recent one as
        :attr:`checkpoint_state` so the recording loop can skip work
        that already landed on disk.
        """
        if self._closed:
            raise ArchiveError(f"archive {self.path} is already closed")
        if not isinstance(state, dict):
            raise TypeError("checkpoint state must be a dict")
        self._write_line({"checkpoint": state})

    def append(
        self,
        trace: Trace,
        trace_id: Optional[str] = None,
        part: int = 0,
    ) -> str:
        """Persist one trace chunk; returns its segment file name.

        ``trace_id``/``part`` group the chunks of one long capture:
        chunks sharing a ``trace_id`` are concatenated in ``part``
        order at load time.  Left unset, each append is its own
        single-part trace.

        The chunk's raw ``times`` and ``values`` bytes are appended to
        the current segment and flushed before the manifest line is
        written.  Where segments roll depends only on chunk sizes, so
        archive bytes stay a pure function of the recording.
        """
        if self._closed:
            raise ArchiveError(f"archive {self.path} is already closed")
        if not isinstance(trace, Trace):
            raise TypeError("only Trace objects can be appended")
        times = np.ascontiguousarray(trace.times, dtype=_TIMES_DTYPE)
        values = np.ascontiguousarray(trace.values)
        if values.dtype.hasobject:
            raise TypeError("trace values must be a numeric array")
        nbytes = times.nbytes + values.nbytes
        if self._segment_size and self._segment_size + nbytes > SEGMENT_BYTES:
            self._close_segment()
            self._segment_index += 1
            self._segment_size = 0
        file_name = _segment_name(self._segment_index)
        if self._segment is None:
            # A fresh segment starts empty; a resumed one was already
            # cut back to the end of its last kept chunk.
            mode = "ab" if self._segment_size else "wb"
            self._segment = open(self.path / file_name, mode)
        self._segment.write(times)
        self._segment.write(values)
        self._segment.flush()
        index = self._n_chunks
        entry = {
            "chunk": index,
            "file": file_name,
            "offset": self._segment_size,
            "trace_id": f"trace-{index:06d}" if trace_id is None else trace_id,
            "part": int(part),
            "domain": trace.domain,
            "quantity": trace.quantity,
            "label": trace.label,
            "n_samples": trace.n_samples,
            "dtype": values.dtype.str,
            "crc32": zlib.crc32(values, zlib.crc32(times)),
        }
        self._segment_size += nbytes
        # Quality metadata rides the manifest only when the resilient
        # path produced some.
        if trace.quality is not None:
            entry["quality"] = trace.quality.to_dict()
        self._write_line(entry)
        self._n_chunks += 1
        return file_name

    def update_meta(self, **updates) -> None:
        """Record metadata only known after capture (e.g. outcomes).

        The header line is already on disk when recording starts, so
        late metadata rides the footer instead; readers merge it over
        the header's ``meta``.
        """
        if self._closed:
            raise ArchiveError(f"archive {self.path} is already closed")
        self._meta_updates.update(updates)
        self.meta.update(updates)

    def close(self) -> None:
        """Seal the archive with the truncation-detection footer."""
        if self._closed:
            return
        footer = {"footer": True, "n_chunks": self._n_chunks}
        if self._meta_updates:
            footer["meta"] = self._meta_updates
        self._write_line(footer)
        self.abort()

    def abort(self) -> None:
        """Stop writing without sealing — the archive stays resumable."""
        if self._closed:
            return
        self._close_segment()
        self._manifest.close()
        self._closed = True

    def __enter__(self) -> "TraceArchiveWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Seal only clean exits: an exception mid-capture must leave a
        # visibly truncated archive, not a sealed partial one.
        if exc_type is None:
            self.close()
        else:
            self.abort()


def resume_point(
    sink, trace_id: Optional[str] = None
) -> Tuple[dict, List[Trace]]:
    """Where a recorder streaming to ``sink`` picks up.

    Returns the last checkpoint state of a :class:`TraceArchiveWriter`
    reopened with ``resume=True`` and the chunks its interrupted
    session persisted up to that checkpoint, loaded back through
    :func:`read_chunk_entry` in recorded order (only the parts of
    ``trace_id`` when given, in ``part`` order).  A fresh writer, and
    any sink that is not an archive writer, resumes from nothing:
    ``({}, [])``.  Recorders call this once, before recording.
    """
    if not isinstance(sink, TraceArchiveWriter):
        return {}, []
    entries = sink.entries
    if trace_id is not None:
        entries = sorted(
            (entry for entry in entries if entry.get("trace_id") == trace_id),
            key=lambda entry: entry["part"],
        )
    chunks = [read_chunk_entry(sink.path, entry) for entry in entries]
    return dict(sink.checkpoint_state or {}), chunks


class TraceArchiveReader:
    """Streaming reader for a v3 directory archive.

    Args:
        path: archive directory.
        allow_partial: accept an unsealed (footer-less) manifest —
            for tailing a capture still in progress.  Default strict:
            a missing footer raises :class:`ArchiveError`.
        mmap: memory-map each segment once instead of copying chunks
            into RAM — traces become read-only views whose pages fault
            in on first touch, so replaying a large archive no longer
            materializes it.  Mapped reads skip the ``crc32`` check.
    """

    def __init__(
        self,
        path: Union[str, Path],
        allow_partial: bool = False,
        mmap: bool = False,
    ):
        self.mmap = bool(mmap)
        self._maps: Optional[dict] = {} if self.mmap else None
        self.path = Path(path)
        manifest_path = self.path / MANIFEST_NAME
        if not manifest_path.exists():
            raise ArchiveError(f"no trace archive manifest at {self.path}")
        records = []
        with manifest_path.open(encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as error:
                    raise ArchiveCorruptError(
                        f"corrupted manifest line {line_number} in "
                        f"{manifest_path}: {error}"
                    ) from None
        if not records:
            raise ArchiveCorruptError(f"empty manifest in {manifest_path}")
        header = records[0]
        if header.get("kind") != ARCHIVE_KIND:
            raise ArchiveError(
                f"{self.path} is not an AmpereBleed trace archive"
            )
        if header.get("version") != FORMAT_VERSION:
            raise ArchiveError(
                f"unsupported trace archive version {header.get('version')}"
            )
        self.meta: dict = header.get("meta", {})
        footer = records[-1] if records[-1].get("footer") else None
        if footer is not None and footer.get("meta"):
            self.meta.update(footer["meta"])
        body = [record for record in records[1:] if not record.get("footer")]
        self.entries = [
            record for record in body if "checkpoint" not in record
        ]
        checkpoints = [
            record["checkpoint"] for record in body if "checkpoint" in record
        ]
        #: Most recent recording checkpoint, if the session wrote any.
        self.checkpoint: Optional[dict] = (
            checkpoints[-1] if checkpoints else None
        )
        self.complete = footer is not None
        if not allow_partial:
            if footer is None:
                raise ArchiveError(
                    f"truncated trace archive {self.path}: the recording "
                    f"session never sealed it (manifest footer missing)"
                )
            if footer.get("n_chunks") != len(self.entries):
                raise ArchiveError(
                    f"truncated trace archive {self.path}: footer claims "
                    f"{footer.get('n_chunks')} chunks, manifest lists "
                    f"{len(self.entries)}"
                )

    def __len__(self) -> int:
        return len(self.entries)

    def _read_chunk(self, entry: dict) -> Trace:
        return read_chunk_entry(self.path, entry, maps=self._maps)

    def iter_chunks(self) -> Iterator[Trace]:
        """Yield chunks in recorded order, one resident at a time.

        This is the replay analogue of a live :class:`~repro.core.
        sampler.TraceStream`: detector and covert pipelines consume it
        without reassembling whole captures.
        """
        for entry in self.entries:
            yield self._read_chunk(entry)

    def load_traceset(self) -> TraceSet:
        """Reassemble every trace (multi-part captures concatenated)."""
        order = []
        parts: Dict[str, list] = {}
        for entry in self.entries:
            trace_id = entry["trace_id"]
            if trace_id not in parts:
                parts[trace_id] = []
                order.append(trace_id)
            parts[trace_id].append(entry)
        traceset = TraceSet()
        for trace_id in order:
            group = sorted(parts[trace_id], key=lambda entry: entry["part"])
            chunks = [self._read_chunk(entry) for entry in group]
            if len(chunks) == 1:
                traceset.add(chunks[0])
                continue
            first = chunks[0]
            qualities = [chunk.quality for chunk in chunks]
            quality = None
            if any(q is not None for q in qualities):
                quality = TraceQuality()
                for q in qualities:
                    quality = quality.merged(q if q is not None else
                                             TraceQuality())
            traceset.add(
                Trace(
                    times=np.concatenate([c.times for c in chunks]),
                    values=np.concatenate([c.values for c in chunks]),
                    domain=first.domain,
                    quantity=first.quantity,
                    label=first.label,
                    quality=quality,
                )
            )
        return traceset

    def load_datasets(self) -> Dict[Tuple[str, str], TraceSet]:
        """Per-channel trace sets, keyed ``(domain, quantity)``.

        This is the shape the fingerprint evaluation consumes —
        loading an archive recorded by the acquisition plane drops
        straight into ``evaluate_channel`` / ``evaluate_table3``.
        """
        datasets: Dict[Tuple[str, str], TraceSet] = {}
        for trace in self.load_traceset():
            key = (trace.domain, trace.quantity)
            datasets.setdefault(key, TraceSet()).add(trace)
        return datasets


def is_archive_dir(path: Union[str, Path]) -> bool:
    """Does ``path`` look like a v3 directory archive (has a manifest)?"""
    path = Path(path)
    return path.is_dir() and (path / MANIFEST_NAME).exists()

