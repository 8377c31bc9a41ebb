"""One append-only JSONL log: the framing under both journals.

The checkpoint (:mod:`repro.eval.checkpoint`) and the daemon's WAL
(:mod:`repro.serve.journal`) are record schemas over :class:`AppendLog`:

* line 1 is a header (``version``, ``kind`` when the log has one,
  ``tools``); a reader refuses another version, kind or tool set with
  :class:`JournalError`, so no run adopts another configuration's
  results;
* each append is one write, one flush and one ``os.fsync`` through a
  held handle;
* a record counts once its newline lands: bytes after the last newline
  are a write torn by a kill.  The first append after a torn tail cuts
  it back to the last newline and writes a ``{"type": "torn",
  "bytes": N}`` marker first, so the file stays whole lines across any
  number of kill/resume cycles;
* the reader splits the bytes on ``b"\n"`` and reports, beside the
  records, the lines that did not decode (bad JSON or bad UTF-8) and
  the torn tail's size.  What those mean is the schema's decision.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["AppendLog", "JournalError", "FORMAT_VERSION"]

FORMAT_VERSION = 1


class JournalError(ValueError):
    """The journal is unusable for this run (wrong header, or a
    corrupt line the schema cannot skip)."""


def _line(record: dict) -> bytes:
    return json.dumps(record).encode() + b"\n"


class AppendLog:
    """An append-only JSONL file with a checked header."""

    def __init__(
        self,
        path: str | Path,
        *,
        tools: tuple[str, ...],
        kind: str | None = None,
    ) -> None:
        self.path = Path(path)
        self.header = {"type": "header", "version": FORMAT_VERSION}
        if kind is not None:
            self.header["kind"] = kind
        self.header["tools"] = list(tools)
        self._handle = None
        #: Offset just past the last complete line.
        self._end = 0
        #: Bytes of the unterminated tail the next append cuts.
        self._torn = 0

    # -- writing -------------------------------------------------------

    def append(self, record: dict, *, tear: bool = False) -> None:
        """Durably append one record.

        ``tear=True`` writes half the line and no newline, modelling a
        crash mid-append (fault injection); the next append repairs it.
        """
        if self._handle is None:
            self._open()
        prefix = b"" if self._end else _line(self.header)
        if self._torn:
            self._handle.truncate(self._end)
            prefix += _line({"type": "torn", "bytes": self._torn})
        line = _line(record)
        if tear:
            line = line[: len(line) // 2]
        self._handle.write(prefix + line)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._end += len(prefix) + (0 if tear else len(line))
        self._torn = len(line) if tear else 0

    def _open(self) -> None:
        self._handle = open(self.path, "ab")
        size = self._end = self._handle.tell()
        if size:
            with open(self.path, "rb") as probe:
                probe.seek(-1, os.SEEK_END)
                if probe.read(1) != b"\n":
                    probe.seek(0)
                    self._end = probe.read().rfind(b"\n") + 1
        self._torn = size - self._end

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- reading -------------------------------------------------------

    def read(self) -> tuple[list[dict], list[int], int]:
        """Decode the log, checking its header: the records after it,
        the 1-based numbers of complete lines that did not decode, and
        the size of the torn tail (a missing file reads empty)."""
        if not self.path.exists():
            return [], [], 0
        lines = self.path.read_bytes().split(b"\n")
        torn = len(lines.pop())
        records: list[dict] = []
        bad: list[int] = []
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line.decode())
            except ValueError:  # bad JSON and bad UTF-8 alike
                doc = None
            if not isinstance(doc, dict):
                bad.append(number)
            elif doc.get("type") == "header":
                self._check_header(doc)
            else:
                records.append(doc)
        return records, bad, torn

    def _check_header(self, doc: dict) -> None:
        for key in ("version", "kind", "tools"):
            found, expected = doc.get(key), self.header.get(key)
            if found != expected:
                raise JournalError(
                    f"{self.path}: journal was written for {key} "
                    f"{found!r}, this run uses {expected!r}"
                )
