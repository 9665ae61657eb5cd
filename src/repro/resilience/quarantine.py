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
from typing import Optional, Union

__all__ = [
    "QUARANTINE_DIRNAME",
    "RECORD_NAME",
    "QuarantineRecord",
    "quarantine_archive",
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


def quarantine_archive(
    path: Union[str, Path],
    reason: str,
    error: str = "",
    job_id: Optional[str] = None,
) -> Path:
    """Move a damaged archive into quarantine and record why.

    The ``quarantine/`` sidecar lives in the archive's parent directory.

    Args:
        path: the condemned archive (directory or file); must exist.
        reason: stable reason code for the record.
        error: triggering exception text, for humans reading the record.
        job_id: owning fleet job id, if any.

    Returns:
        The archive's new location inside the quarantine sidecar.  The
        original path no longer exists, so the caller can re-record at
        it immediately.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"nothing to quarantine at {path}")
    sidecar = path.parent / QUARANTINE_DIRNAME
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

