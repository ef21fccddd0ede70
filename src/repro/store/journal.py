"""Append-only, CRC-checked JSONL journals: the durability primitive.

Beam time is the scarcest resource in the source paper — a crashed host
mid-session loses unrecoverable data, which is why the paper's operational
framing (and :mod:`repro.analysis.checkpointing`) centres on durable
intermediate state.  A :class:`Journal` is that state for a campaign run:

* **Append-only JSONL.**  One JSON object per line, ``kind`` first.  The
  first record is always ``kind="open"`` (the run header); struck
  executions land as ``kind="record"`` lines; a finished run ends with
  ``kind="close"``.
* **CRC-checked bytes.**  Every line ends with a ``crc`` field: the CRC-32
  (8 hex digits) of exactly the line's bytes before that field (format 2).
  Validating a line is one ``zlib.crc32`` over its raw bytes; nothing is
  decoded, so a reader decodes only the lines, and the fields, it uses.
  A flipped bit anywhere in a line is detected on open.
* **fsync'd batches.**  :meth:`append` only buffers; :meth:`commit` seals
  the batch (plus any lines already sealed elsewhere with
  :func:`seal_line` or :func:`seal_record`), writes it, flushes, and
  ``fsync``\\ s.  A record is *durable* exactly when its commit returned —
  the unit the resume path can trust.
* **Torn-tail truncation.**  A crash mid-write leaves a torn final line
  (unterminated, half-written, or CRC-mismatched).  :meth:`Journal.open`
  detects it, truncates the file back to the last durable record, and
  reports the dropped bytes.  Corruption *before* the tail is not
  silently repaired — it raises :class:`JournalCorruptError`.

The header's ``journal_format_version`` is read before any line is
validated, so no line is ever checked under two rules: format 2 is read,
format 1 (whose CRC covered a canonical re-encoding) is refused with the
verb that rewrites it (``repro store upgrade``, :mod:`repro.store.upgrade`).

Journals never rewrite history: resuming a run appends to the same file,
and the reader treats the set of ``record`` lines as unordered (records
are keyed by execution index; per-execution RNG seeding makes them
independent of arrival order).
"""

from __future__ import annotations

import json
import os
import re
import time
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro.observability import runtime as obs_runtime

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "JournalError",
    "JournalCorruptError",
    "Journal",
    "RECORD_PREFIX",
    "durable_lines",
    "read_header",
    "record_parts",
    "scan_journal",
    "seal_line",
    "seal_record",
]

JOURNAL_FORMAT_VERSION = 2


class JournalError(ValueError):
    """The file is not a usable journal (bad header, wrong version...)."""


class JournalCorruptError(JournalError):
    """A non-tail record failed validation — the journal is damaged.

    Torn *tails* are expected after a crash and are repaired silently;
    corruption anywhere else means the storage lied and must surface.
    """


#: A line's JSON style: ``json.dumps``'s defaults.
LINE_ENCODER = json.JSONEncoder()

#: What every line ends with: the crc field's key, then 8 hex digits and
#: ``"}``.  The CRC covers the line's bytes before this.
_CRC_FIELD = b', "crc": "'
_CRC_TAIL = len(_CRC_FIELD) + 8 + 2

#: Every line's first bytes: the kind comes first.
_KIND_FIELD = b'{"kind": "'


def _kind_prefix(kind: str) -> bytes:
    """The first bytes of every line of ``kind``."""
    return _KIND_FIELD + kind.encode("ascii") + b'", '


#: The first bytes of every ``record`` line; its index and row follow.
RECORD_PREFIX = _kind_prefix("record")
_RECORD_HEAD = RECORD_PREFIX + b'"index": '
_ROW_FIELD = b', "row": '
#: A ``record`` line up to its row, for a row laid out as rendered: its
#: ``"index"`` first, naming the line's index.
_RENDERED_RECORD = re.compile(
    re.escape(_RECORD_HEAD) + rb'(\d+)' + re.escape(_ROW_FIELD)
    + rb'(?=\{"index": \1, )'
)

#: What :func:`read_header` and :meth:`Journal.open` tell a format-1 reader.
_UPGRADE_HINT = (
    "journal format 1 is no longer read; rewrite the store it belongs to "
    "with `repro store upgrade --store DIR`"
)


def _sealed(body: bytes) -> bytes:
    """A line from its ``body``: a JSON object's text without its closing
    brace.  The CRC covers exactly ``body``."""
    return b'%s, "crc": "%08x"}\n' % (body, zlib.crc32(body))


def seal_line(payload: dict) -> bytes:
    """One journal line's bytes: the payload, its CRC and the newline.

    The payload is rendered by :data:`LINE_ENCODER` with the ``crc``
    field last.  :meth:`Journal.commit` seals appended records with it,
    and a pool worker seals the records of the chunk it ran
    (:func:`seal_record`), so for those the parent's commit only writes
    and ``fsync``\\ s.  The CRC then also covers the worker → parent hop:
    a line damaged there fails validation at the next open.
    """
    return _sealed(LINE_ENCODER.encode(payload)[:-1].encode("ascii"))


def seal_record(index: int, row_text: str) -> bytes:
    """``seal_line({"kind": "record", "index": index, "row": row})``, from
    the row's text (``json.dumps(row)``, rendered once per row by
    :func:`repro.beam.logs.row_texts`).  A reader takes the same text back
    out of the line by slicing (:func:`record_parts`)."""
    return _sealed(
        f'{{"kind": "record", "index": {index}, "row": {row_text}'.encode("ascii")
    )


def _line_fault(raw: bytes) -> str:
    """Why one line (without its newline) is not a sealed line, or ``""``."""
    if not raw.strip():
        return "blank line"
    if raw[-_CRC_TAIL:-10] != _CRC_FIELD or raw[-2:] != b'"}':
        return "record without crc"
    if b"%08x" % zlib.crc32(raw[:-_CRC_TAIL]) != raw[-10:-2]:
        return "crc mismatch"
    return ""


def _decode_line(path, raw: bytes) -> dict:
    """A validated line's payload (``crc`` included).

    The CRC only shows that the bytes are the writer's; a line that then
    does not decode to a JSON object raises :class:`JournalCorruptError`.
    """
    try:
        payload = json.loads(raw)
    except ValueError as err:
        raise JournalCorruptError(f"{path}: a sealed line does not decode: {err}") from None
    if not isinstance(payload, dict):
        raise JournalCorruptError(f"{path}: a sealed line is not a JSON object")
    return payload


def record_parts(path, raw: bytes) -> "tuple[int, str]":
    """A validated ``record`` line's execution index and row text, sliced
    out of the line.

    The row must name the line's index: a row laid out as rendered shows
    it in its first bytes (``{"index": N, ``), and any other row is
    decoded to read it.  A row naming another index (its CRC holds, but
    the run would serve one index twice and lose another) raises
    :class:`JournalCorruptError`, as does a line that is no record.
    """
    try:
        match = _RENDERED_RECORD.match(raw)
        if match is not None:
            return int(match[1]), raw[match.end():-_CRC_TAIL].decode("ascii")
        end = raw.find(_ROW_FIELD, len(_RECORD_HEAD))
        if not raw.startswith(_RECORD_HEAD) or end < 0:
            raise ValueError("no index and row where a record line has them")
        index = int(raw[len(_RECORD_HEAD):end])
        text = raw[end + len(_ROW_FIELD):-_CRC_TAIL].decode("ascii")
    except ValueError as err:
        raise JournalCorruptError(f"{path}: bad record line: {err}") from None
    try:
        named = json.loads(text).get("index")
    except (ValueError, AttributeError, RecursionError):
        raise JournalCorruptError(f"{path}: row {index} is not a record") from None
    if type(named) is not int or named != index:
        raise JournalCorruptError(
            f"{path}: row {index} holds the record of index {named!r}"
        )
    return index, text


def _create_exclusive(path, flags: int) -> int:
    """``open`` opener adding ``O_EXCL``: fail if the file already exists."""
    return os.open(path, flags | os.O_EXCL, 0o666)


@dataclass
class ScanResult:
    """What :func:`scan_journal` found in a journal file."""

    lines: list = field(default_factory=list)  # CRC-valid lines, in order
    valid_bytes: int = 0        # prefix length holding only durable records
    torn_bytes: int = 0         # trailing bytes belonging to a torn write
    torn_reason: str = ""       # why the tail was judged torn ("" if clean)


def _check_version(path: Path, raw: bytes) -> None:
    """Read the header line's format before anything is validated.

    Raise :class:`JournalError` unless ``raw`` is a format-2 ``open``
    record.  A header that does not decode passes, for the CRC check to
    judge: it is torn (the only line) or corrupt.
    """
    try:
        head = json.loads(raw)
    except ValueError:
        return
    if not isinstance(head, dict) or head.get("kind") != "open":
        raise JournalError(f"{path}: first record is not an open header")
    version = head.get("journal_format_version")
    if version == 1:
        raise JournalError(f"{path}: {_UPGRADE_HINT}")
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
    raw = raw[:-1]
    _check_version(path, raw)
    reason = _line_fault(raw)
    if reason:
        raise JournalError(f"{path}: {reason} in the header line")
    return _decode_line(path, raw)


def scan_journal(path: "str | Path") -> ScanResult:
    """Validate a journal file line by line.

    Returns every durable line (its bytes, without the newline) plus the
    byte offset where durability ends.  The header's format is read
    first (:func:`read_header`'s rule).  A defective *final* line
    (unterminated, blank, or CRC mismatch) is reported as a torn tail; a
    defective line anywhere else raises :class:`JournalCorruptError`.
    """
    path = Path(path)
    data = path.read_bytes()
    header, newline, _ = data.partition(b"\n")
    if newline:
        _check_version(path, header)
    return durable_lines(path, data, _line_fault)


def durable_lines(path: Path, data: bytes, fault) -> ScanResult:
    """The torn-tail rule over ``data``, ``fault(line)`` judging each line.

    ``fault`` returns why a line (without its newline) is defective, or
    ``""``.  :func:`scan_journal` passes the format-2 rule; the format-1
    rule lives only in :mod:`repro.store.upgrade`.
    """
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
        torn_reason = fault(raw)
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
        result.lines.append(raw)
        offset += len(raw) + 1  # + newline
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

    def __init__(self, path: Path, lines: list, *, _fh=None):
        self.path = Path(path)
        #: durable lines, as sealed and without their newlines; decoded
        #: only when a caller asks for their payloads
        self._lines = lines
        self._pending: list[dict] = []
        self._fh = _fh
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
        if not scan.lines:
            raise JournalError(f"{path}: no durable records (empty journal)")
        journal = cls(path, scan.lines)
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

    @cached_property
    def header(self) -> dict:
        """The ``open`` record (run id, spec, creation time)."""
        return _decode_line(self.path, self._lines[0])

    def take_records(self) -> list:
        """Remove the durable ``record`` lines and return them, in order:
        as sealed, without their newlines, for :func:`record_parts` to
        slice.

        The journal keeps its other lines (header, plans, close): all
        that appending, :attr:`close_record` and :meth:`records` of
        another kind read.  :meth:`CampaignStore.load
        <repro.store.store.CampaignStore.load>` slices the removed lines
        into row texts, so a loaded run holds each record's bytes once.
        """
        kept, taken = [], []
        for raw in self._lines:
            (taken if raw.startswith(RECORD_PREFIX) else kept).append(raw)
        self._lines = kept
        return taken

    def records(self, kind: "str | None" = None) -> list:
        """Durable records (committed, CRC-valid), decoded, optionally by
        kind; a line of another kind is not decoded."""
        lines = self._lines
        if kind is not None:
            prefix = _kind_prefix(kind)
            lines = [raw for raw in lines if raw.startswith(prefix)]
        return [_decode_line(self.path, raw) for raw in lines]

    @property
    def close_record(self) -> "dict | None":
        """The ``close`` record, or ``None`` while the run is incomplete."""
        prefix = _kind_prefix("close")
        for raw in reversed(self._lines):
            if raw.startswith(prefix):
                return _decode_line(self.path, raw)
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
        lines :func:`seal_line` or :func:`seal_record` already rendered
        elsewhere, written verbatim and not kept, so :meth:`records` does
        not list them until the journal is reopened.  One commit is one durability
        unit: after it returns, every line in the batch survives a crash
        (modulo the storage keeping its fsync promise).  Metrics
        (``repro_journal_records_total``, ``repro_journal_commits_total``)
        land on the observability switchboard when one is configured.
        """
        if self._fh is None:
            raise JournalError(f"{self.path}: journal is not open for append")
        batch, self._pending = self._pending, []
        appended = [seal_line(record) for record in batch]
        lines = appended + list(sealed)
        if not lines:
            return 0
        self._fh.write(b"".join(lines))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._lines.extend(line[:-1] for line in appended)
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
