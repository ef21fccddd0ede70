"""``repro store upgrade``: rewrite format-1 journals as format 2.

A format-1 line's CRC covered a canonical re-encoding of its payload
(sorted keys, compact separators), so no reader could trust a line
before it had parsed it and encoded it again.  A format-2 line's CRC
covers the line's bytes as written (:mod:`repro.store.journal`), and
readers refuse format 1.  The line layout is the same in both formats,
so an upgraded line is the old line's bytes under a new CRC: every row
text is sliced out of its line and carried byte for byte, every other
line is its payload encoded as before, and only the header changes its
``journal_format_version``.

This module is the one reader of format 1, so no line is ever checked
under both rules.  Each journal is validated whole before anything is
written: a torn tail is dropped, as :meth:`Journal.open` drops one, but
mid-file damage or a repeated execution index refuses the file and
leaves it untouched.  The new file is written beside the old one,
``fsync``\\ ed, renamed over it, and the directory ``fsync``\\ ed.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.store.journal import (
    JOURNAL_FORMAT_VERSION,
    RECORD_PREFIX,
    JournalCorruptError,
    JournalError,
    durable_lines,
    record_parts,
    seal_line,
    seal_record,
)

__all__ = ["Upgrade", "store_journals", "upgrade_journal"]


@dataclass(frozen=True)
class Upgrade:
    """What :func:`upgrade_journal` did to one file."""

    path: Path
    upgraded: bool      # False: the file was format 2 already, untouched
    torn_bytes: int = 0  # the torn tail dropped on the way

    def describe(self) -> str:
        if not self.upgraded:
            return f"{self.path}: already format {JOURNAL_FORMAT_VERSION}"
        dropped = f" (dropped a {self.torn_bytes}-byte torn tail)" if self.torn_bytes else ""
        return f"{self.path}: upgraded to format {JOURNAL_FORMAT_VERSION}{dropped}"


def store_journals(root: "str | Path") -> list:
    """Every journal of a store: its runs, then its matrix manifests."""
    root = Path(root)
    return [
        path
        for directory in ("runs", "matrix")
        for path in sorted((root / directory).glob("*.jsonl"))
    ]


def _v1_fault(raw: bytes) -> str:
    """Why a line is not a sealed format-1 line, or ``""``.

    Format 1's CRC covers the payload's canonical encoding without its
    ``crc`` field.  The line must also end with that field, as every
    format-1 writer put it, so that its bytes before the field are a
    format-2 body.
    """
    if not raw.strip():
        return "blank line"
    try:
        payload = json.loads(raw)
    except ValueError:
        return "unparsable JSON"
    if not isinstance(payload, dict) or not isinstance(payload.get("crc"), str):
        return "record without crc"
    body = {key: value for key, value in payload.items() if key != "crc"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    crc = f"{zlib.crc32(canonical.encode('ascii')):08x}"
    if payload["crc"] != crc or not raw.endswith(f', "crc": "{crc}"}}'.encode()):
        return "crc mismatch"
    return ""


def upgrade_journal(path: "str | Path") -> Upgrade:
    """Rewrite one format-1 journal as format 2 (a format-2 one is left).

    Raises :class:`~repro.store.journal.JournalError` for a file that is
    not a journal of either format, and
    :class:`~repro.store.journal.JournalCorruptError` for mid-file damage
    or a repeated index; the file is then unchanged.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        head = json.loads(data.partition(b"\n")[0])
    except ValueError:
        raise JournalError(f"{path}: the header line does not decode") from None
    if not isinstance(head, dict) or head.get("kind") != "open":
        raise JournalError(f"{path}: first record is not an open header")
    version = head.get("journal_format_version")
    if version == JOURNAL_FORMAT_VERSION:
        return Upgrade(path, upgraded=False)
    if version != 1:
        raise JournalError(f"{path}: unsupported journal format {version!r}")
    scan = durable_lines(path, data, _v1_fault)
    if not scan.lines:
        raise JournalError(f"{path}: no durable records (empty journal)")
    del head["crc"]
    head["journal_format_version"] = JOURNAL_FORMAT_VERSION
    lines = [seal_line(head)]
    seen: set = set()
    for raw in scan.lines[1:]:
        if not raw.startswith(RECORD_PREFIX):
            payload = json.loads(raw)
            del payload["crc"]
            lines.append(seal_line(payload))
            continue
        index, text = record_parts(path, raw)
        if index in seen:
            raise JournalCorruptError(f"{path}: index {index} is journaled twice")
        seen.add(index)
        lines.append(seal_record(index, text))
    _replace(path, b"".join(lines))
    return Upgrade(path, upgraded=True, torn_bytes=scan.torn_bytes)


def _replace(path: Path, data: bytes) -> None:
    """Put ``data`` in ``path`` atomically and durably."""
    fd, temp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".upgrade")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        shutil.copymode(path, temp)
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
