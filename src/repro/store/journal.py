"""Append-only, CRC-checked JSONL journals: the durability primitive.

Beam time is the scarcest resource in the source paper — a crashed host
mid-session loses unrecoverable data, which is why the paper's operational
framing (and :mod:`repro.analysis.checkpointing`) centres on durable
intermediate state.  A :class:`Journal` is that state for a campaign run:

* **Append-only JSONL.**  One JSON object per line.  The first record is
  always ``kind="open"`` (the run header); struck executions land as
  ``kind="record"`` lines; a finished run ends with ``kind="close"``.
* **CRC-checked.**  Every line carries a ``crc`` field — the CRC-32 of the
  record's canonical JSON encoding (sorted keys, compact separators)
  without the ``crc`` field itself.  A flipped bit anywhere in a line is
  detected on open.
* **fsync'd batches.**  :meth:`append` only buffers; :meth:`commit` seals
  the batch (plus any lines already sealed elsewhere with
  :func:`seal_line`), writes it, flushes, and ``fsync``\\ s.  A record is
  *durable* exactly when its commit returned — the unit the resume path
  can trust.
* **Torn-tail truncation.**  A crash mid-write leaves a torn final line
  (unterminated, half-written, or CRC-mismatched).  :meth:`Journal.open`
  detects it, truncates the file back to the last durable record, and
  reports the dropped bytes.  Corruption *before* the tail is not
  silently repaired — it raises :class:`JournalCorruptError`.

Journals never rewrite history: resuming a run appends to the same file,
and the reader treats the set of ``record`` lines as unordered (records
are keyed by execution index; per-execution RNG seeding makes them
independent of arrival order).
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.observability import runtime as obs_runtime

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "JournalError",
    "JournalCorruptError",
    "Journal",
    "read_header",
    "scan_journal",
    "seal_line",
    "seal_record",
]

JOURNAL_FORMAT_VERSION = 1


class JournalError(ValueError):
    """The file is not a usable journal (bad header, wrong version...)."""


class JournalCorruptError(JournalError):
    """A non-tail record failed validation — the journal is damaged.

    Torn *tails* are expected after a crash and are repaired silently;
    corruption anywhere else means the storage lied and must surface.
    """


#: A line's JSON style: ``json.dumps``'s defaults.
LINE_ENCODER = json.JSONEncoder()

#: The canonical style a line's CRC covers: sorted keys, compact, ASCII.
CANONICAL_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True
)


def _canonical(body: dict) -> str:
    """Deterministic JSON for CRC purposes: sorted keys, compact.

    Unlike the store's spec hashing (:mod:`repro._util.hashing`), this is
    deliberately *lenient* about non-finite floats: criticality summaries
    legitimately carry ``Infinity``/``NaN`` (the log layer's hex-exact
    round-trip tests pin that), and ``json.dumps``/``loads`` round-trips
    them stably — which is all a checksum needs.
    """
    return CANONICAL_ENCODER.encode(body)


def _crc_of(payload: dict) -> str:
    """CRC-32 (8 hex digits) over the canonical encoding sans ``crc``."""
    body = {key: value for key, value in payload.items() if key != "crc"}
    return f"{zlib.crc32(_canonical(body).encode('ascii')) & 0xFFFFFFFF:08x}"


def _seal(payload: dict) -> str:
    """Render one journal line: payload + its CRC, newline-terminated."""
    sealed = dict(payload)
    sealed["crc"] = _crc_of(payload)
    return LINE_ENCODER.encode(sealed) + "\n"


def seal_line(payload: dict) -> bytes:
    """One journal line's bytes: the payload, its CRC and the newline.

    The line format lives here only.  :meth:`Journal.commit` seals
    appended records with it, and a pool worker seals the records of the
    chunk it ran, so for those the parent's commit only writes and
    ``fsync``\\ s.  The CRC then also covers the worker → parent hop: a
    line damaged there fails validation at the next open.
    """
    return _seal(payload).encode("ascii")


def seal_record(index: int, row_text: str, row_canonical: str) -> bytes:
    """``seal_line({"kind": "record", "index": index, "row": row})``, from
    the row's text in the line's style and in the canonical style.

    A worker renders both texts of a chunk's rows in one pass
    (:func:`repro.beam.logs.row_texts` with :data:`LINE_ENCODER` and
    :data:`CANONICAL_ENCODER`), so no row is encoded a third time for
    its CRC.  The bytes are :func:`seal_line`'s.
    """
    canonical = f'{{"index":{index},"kind":"record","row":{row_canonical}}}'
    crc = zlib.crc32(canonical.encode("ascii")) & 0xFFFFFFFF
    return (
        f'{{"kind": "record", "index": {index}, "row": {row_text}, '
        f'"crc": "{crc:08x}"}}\n'
    ).encode("ascii")


def _create_exclusive(path, flags: int) -> int:
    """``open`` opener adding ``O_EXCL``: fail if the file already exists."""
    return os.open(path, flags | os.O_EXCL, 0o666)


@dataclass
class ScanResult:
    """What :func:`scan_journal` found in a journal file."""

    records: list = field(default_factory=list)  # validated payloads, in order
    valid_bytes: int = 0        # prefix length holding only durable records
    torn_bytes: int = 0         # trailing bytes belonging to a torn write
    torn_reason: str = ""       # why the tail was judged torn ("" if clean)


def _parse_line(raw: bytes) -> "tuple[dict | None, str]":
    """One line, without its newline: ``(payload, "")`` when it is a valid
    record, else ``(None, why it is not)``."""
    if not raw.strip():
        return None, "blank line"
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None, "unparsable JSON"
    if not isinstance(payload, dict) or "crc" not in payload:
        return None, "record without crc"
    if payload["crc"] != _crc_of(payload):
        return None, "crc mismatch"
    return payload, ""


def _check_header(path: Path, head: dict) -> None:
    """Raise :class:`JournalError` unless ``head`` is a v1 ``open`` record."""
    if head.get("kind") != "open":
        raise JournalError(f"{path}: first record is not an open header")
    version = head.get("journal_format_version")
    if version != JOURNAL_FORMAT_VERSION:
        raise JournalError(f"{path}: unsupported journal format {version!r}")


def read_header(path: "str | Path") -> dict:
    """A journal's ``open`` record, read and CRC-checked from its first line.

    Nothing after the header is read, so nothing after it is validated:
    this is for callers that need only a run's identity before they read
    the whole journal (``repro resume`` takes the spec from it).
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            raw = fh.readline()
    except FileNotFoundError:
        raise JournalError(f"no such journal: {path}") from None
    if not raw.endswith(b"\n"):
        raise JournalError(f"{path}: no durable records (empty journal)")
    head, reason = _parse_line(raw[:-1])
    if reason:
        raise JournalError(f"{path}: {reason} in the header line")
    _check_header(path, head)
    return head


def scan_journal(path: "str | Path") -> ScanResult:
    """Validate a journal file line by line.

    Returns every durable record plus the byte offset where durability
    ends.  A defective *final* line (unterminated, unparsable, or CRC
    mismatch) is reported as a torn tail; a defective line anywhere else
    raises :class:`JournalCorruptError`.
    """
    path = Path(path)
    data = path.read_bytes()
    result = ScanResult()
    offset = 0
    lines = data.split(b"\n")
    # split() yields a final "" element when data ends with a newline; any
    # other final element is an unterminated tail.
    for lineno, raw in enumerate(lines):
        is_last = lineno == len(lines) - 1
        if is_last:
            if raw:
                result.torn_bytes = len(raw)
                result.torn_reason = "unterminated final line"
            break
        line_bytes = len(raw) + 1  # + newline
        payload, torn_reason = _parse_line(raw)
        if torn_reason:
            # Only the *tail* may be torn: every byte after this line must
            # belong to the same interrupted write (i.e. nothing but this
            # defective line and possibly an unterminated fragment remain).
            if lineno != len(lines) - 2:
                raise JournalCorruptError(
                    f"{path}: {torn_reason} at line {lineno + 1} "
                    "(not at the tail) — journal is corrupt"
                )
            result.torn_bytes = len(data) - offset
            result.torn_reason = torn_reason
            break
        result.records.append(payload)
        offset += line_bytes
        result.valid_bytes = offset
    return result


class Journal:
    """One campaign run's durable, append-only record stream.

    Use the constructors:

    * :meth:`Journal.create` — start a fresh journal with an ``open``
      header record (immediately durable).
    * :meth:`Journal.open` — re-open an existing journal, validating CRCs
      and truncating a torn tail; appending then resumes the run.
    """

    def __init__(self, path: Path, records: list, *, _fh=None):
        self.path = Path(path)
        self._records = records
        self._pending: list[dict] = []
        self._fh = _fh
        self._closed_fh = _fh is None
        #: (durable bytes, file bytes) as :meth:`open` read them, until
        #: :meth:`open_for_append` starts writing
        self._read_extent: "tuple[int, int] | None" = None

    # -- constructors ------------------------------------------------------------

    @classmethod
    def create(cls, path: "str | Path", header: "dict | None" = None) -> "Journal":
        """Create a new journal; writes + fsyncs the ``open`` record.

        The file is created exclusively (``O_EXCL``), so of two writers
        racing to create one run's journal exactly one wins; the other
        gets :class:`JournalError` and the file is left as the winner
        wrote it.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "kind": "open",
            "journal_format_version": JOURNAL_FORMAT_VERSION,
            "created": time.time(),
        }
        record.update(header or {})
        try:
            fh = open(path, "ab", opener=_create_exclusive)
        except FileExistsError:
            raise JournalError(f"journal already exists: {path}") from None
        journal = cls(path, [], _fh=fh)
        journal._pending.append(record)
        journal.commit()
        return journal

    @classmethod
    def open(cls, path: "str | Path", *, read_only: bool = False) -> "Journal":
        """Open an existing journal: validate, truncate torn tail, resume.

        With ``read_only`` the torn tail (if any) is *ignored* rather than
        truncated and no file handle is kept open — the mode queries use.
        :meth:`open_for_append` can still turn such a journal into the
        appendable one later, without reading the file again.
        """
        path = Path(path)
        if not path.exists():
            raise JournalError(f"no such journal: {path}")
        scan = scan_journal(path)
        if not scan.records:
            raise JournalError(f"{path}: no durable records (empty journal)")
        _check_header(path, scan.records[0])
        journal = cls(path, scan.records)
        journal._read_extent = (
            scan.valid_bytes, scan.valid_bytes + scan.torn_bytes
        )
        if not read_only:
            journal.open_for_append()
        return journal

    def open_for_append(self) -> None:
        """Start appending to a journal :meth:`open` read ``read_only``.

        Drops the torn tail the read ignored, so the append stream
        restarts cleanly at the last durable record, and opens the file
        for appending.  The file is not validated again: a resume reads
        the run once, then decides to append to it.  The file must still
        be as it was read; if another writer changed its size since,
        this raises :class:`JournalError` rather than truncating that
        writer's bytes away.  A no-op on a journal already open for
        appending.
        """
        if self._fh is not None:
            return
        if self._read_extent is None:
            raise JournalError(f"{self.path}: journal was not read; open it")
        valid_bytes, read_bytes = self._read_extent
        if self.path.stat().st_size != read_bytes:
            raise JournalError(
                f"{self.path}: journal changed since it was read; "
                "open it again"
            )
        if read_bytes > valid_bytes:
            with self.path.open("r+b") as fh:
                fh.truncate(valid_bytes)
                fh.flush()
                os.fsync(fh.fileno())
        self._fh = self.path.open("ab")
        self._read_extent = None  # from now on this writer changes the file

    # -- querying ----------------------------------------------------------------

    @property
    def header(self) -> dict:
        """The ``open`` record (run id, spec, creation time)."""
        return self._records[0]

    def records(self, kind: "str | None" = None) -> list:
        """Durable records (committed, CRC-valid), optionally by kind."""
        out = list(self._records)
        if kind is not None:
            out = [record for record in out if record.get("kind") == kind]
        return out

    @property
    def close_record(self) -> "dict | None":
        """The ``close`` record, or ``None`` while the run is incomplete."""
        for record in reversed(self._records):
            if record.get("kind") == "close":
                return record
        return None

    @property
    def is_complete(self) -> bool:
        return self.close_record is not None

    def pending(self) -> int:
        """Appended-but-uncommitted records (not yet durable)."""
        return len(self._pending)

    # -- appending ---------------------------------------------------------------

    def append(self, kind: str, **payload) -> dict:
        """Buffer one record; it becomes durable at the next :meth:`commit`."""
        if self._fh is None:
            raise JournalError(f"{self.path}: journal is not open for append")
        record = {"kind": kind, **payload}
        self._pending.append(record)
        return record

    def commit(self, sealed=()) -> int:
        """Write + flush + fsync one batch; returns the lines written.

        The batch is every appended record, sealed here, then ``sealed``:
        lines :func:`seal_line` already rendered elsewhere, written
        verbatim and not parsed back, so :meth:`records` does not list
        them until the journal is reopened.  One commit is one durability
        unit: after it returns, every line in the batch survives a crash
        (modulo the storage keeping its fsync promise).  Metrics
        (``repro_journal_records_total``, ``repro_journal_commits_total``)
        land on the observability switchboard when one is configured.
        """
        if self._fh is None:
            raise JournalError(f"{self.path}: journal is not open for append")
        batch, self._pending = self._pending, []
        lines = [seal_line(record) for record in batch]
        lines.extend(sealed)
        if not lines:
            return 0
        self._fh.write(b"".join(lines))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._records.extend(batch)
        metrics = obs_runtime.get_metrics()
        if metrics is not None:
            metrics.counter(
                "repro_journal_records_total",
                "Records made durable in campaign journals",
            ).inc(len(lines))
            metrics.counter(
                "repro_journal_commits_total",
                "fsync'd journal commit batches",
            ).inc()
        return len(lines)

    def close(self) -> None:
        """Commit anything pending and release the file handle."""
        if self._fh is not None:
            if self._pending:
                self.commit()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
