"""Quarantine for corrupt trace archives.

A v3 archive whose manifest is damaged beyond a torn tail
(:class:`repro.core.io.ArchiveCorruptError`) used to abort whatever
touched it — one flipped bit in one shard could kill a whole fleet
campaign at resume.  Quarantine contains the blast radius instead:
the damaged directory is **moved** (never deleted — the bytes may be
evidence) into a ``quarantine/`` sidecar next to it, a
machine-readable :class:`QuarantineRecord` is written inside, and the
caller is free to re-record the shard fresh at the original path.

Records carry no wall-clock timestamps — the quarantine sequence
number in the destination name orders events, keeping the layer free
of nondeterminism (and of the repo's wall-clock ban outside
``repro/perf``).
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

__all__ = [
    "QUARANTINE_DIRNAME",
    "RECORD_NAME",
    "QuarantineRecord",
    "quarantine_archive",
    "list_quarantined",
]

#: Sidecar directory name, created next to the condemned archive.
QUARANTINE_DIRNAME = "quarantine"

#: Reason record written inside each quarantined archive directory.
RECORD_NAME = "QUARANTINE.json"


@dataclass(frozen=True)
class QuarantineRecord:
    """Why an archive was quarantined, machine-readable.

    Attributes:
        archive: original archive path, as the caller knew it.
        reason: short stable reason code (e.g. ``archive-corrupt``).
        error: the triggering exception's message, verbatim.
        job_id: fleet job that owned the archive, when known.
    """

    archive: str
    reason: str
    error: str = ""
    job_id: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "archive": self.archive,
            "reason": self.reason,
            "error": self.error,
            "job_id": self.job_id,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QuarantineRecord":
        return cls(
            archive=payload["archive"],
            reason=payload["reason"],
            error=payload.get("error", ""),
            job_id=payload.get("job_id"),
        )


def quarantine_archive(
    path: Union[str, Path],
    reason: str,
    error: str = "",
    job_id: Optional[str] = None,
    root: Optional[Union[str, Path]] = None,
) -> Path:
    """Move a damaged archive into quarantine and record why.

    Args:
        path: the condemned archive (directory or file); must exist.
        reason: stable reason code for the record.
        error: triggering exception text, for humans reading the record.
        job_id: owning fleet job id, if any.
        root: where the ``quarantine/`` sidecar lives (default: the
            archive's parent directory).

    Returns:
        The archive's new location inside the quarantine sidecar.  The
        original path no longer exists, so the caller can re-record at
        it immediately.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"nothing to quarantine at {path}")
    base = Path(root) if root is not None else path.parent
    sidecar = base / QUARANTINE_DIRNAME
    sidecar.mkdir(parents=True, exist_ok=True)
    sequence = 0
    while True:
        dest = sidecar / f"{path.name}-{sequence:03d}"
        if not dest.exists():
            break
        sequence += 1
    shutil.move(str(path), str(dest))
    record = QuarantineRecord(
        archive=str(path), reason=reason, error=error, job_id=job_id
    )
    record_path = (
        dest / RECORD_NAME
        if dest.is_dir()
        else dest.with_name(dest.name + ".quarantine.json")
    )
    record_path.write_text(
        json.dumps(record.as_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return dest


def list_quarantined(
    root: Union[str, Path],
) -> List[Tuple[Path, QuarantineRecord]]:
    """All quarantined archives under ``root``'s sidecar, in order.

    Returns ``(location, record)`` pairs sorted by quarantine sequence
    (the zero-padded suffix), i.e. the order the archives were
    condemned.  An empty list when no sidecar exists.
    """
    sidecar = Path(root) / QUARANTINE_DIRNAME
    if not sidecar.is_dir():
        return []
    found: List[Tuple[Path, QuarantineRecord]] = []
    for entry in sorted(sidecar.iterdir()):
        record_path = (
            entry / RECORD_NAME
            if entry.is_dir()
            else entry if entry.name.endswith(".quarantine.json") else None
        )
        if record_path is None or not record_path.exists():
            continue
        payload = json.loads(record_path.read_text(encoding="utf-8"))
        if entry.is_dir():
            found.append((entry, QuarantineRecord.from_dict(payload)))
        else:
            original = entry.with_name(
                entry.name[: -len(".quarantine.json")]
            )
            found.append((original, QuarantineRecord.from_dict(payload)))
    return found
