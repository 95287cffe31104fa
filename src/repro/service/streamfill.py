"""Incremental row codecs for the streaming fill pipeline.

The streaming transports (``POST /fill/stream`` on the HTTP server,
``repro fill --rows - --stream``) move rows as *byte chunks* of
arbitrary framing -- a chunk may end mid-line, mid-CSV-record, even
mid-UTF-8-character.  The readers here absorb chunks and emit only the
*complete* rows so far, holding at most one partial record:

* :class:`NDJSONRowReader` -- one JSON array of strings per line
  (``["a", "b"]``); a blank line is a blank row (zero cells), which the
  fill contract maps to an empty-string output.  Line framing on the
  raw bytes is safe because ``\\n`` (0x0A) can never appear inside a
  UTF-8 multi-byte sequence.
* :class:`CSVRowReader` -- RFC-4180-ish CSV with quoted fields that may
  contain newlines; framed by quote parity, decoded incrementally (a
  chunk boundary inside a multi-byte character is buffered, not
  mangled).

Decode errors name the 1-based input row (``input row N: ...``), the
same discipline as the fill contract's ``fill row N`` arity errors.

:func:`encode_outputs` is the other direction: one NDJSON line per
output -- a JSON string, or ``null`` for rows the program is undefined
on (the paper's ⊥) -- so output framing survives any chunking too.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
from typing import Iterable, Iterator, List, Optional, Sequence

__all__ = [
    "CSVRowReader",
    "NDJSONRowReader",
    "decode_rows",
    "encode_outputs",
    "error_line",
    "make_reader",
    "sse_event",
]


class NDJSONRowReader:
    """Byte chunks in, complete NDJSON rows out (one JSON array per line)."""

    format = "ndjson"

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._row_number = 0

    def feed(self, data: bytes) -> List[List[str]]:
        """Absorb one chunk; return the rows it completed."""
        self._buffer.extend(data)
        rows: List[List[str]] = []
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                return rows
            line = bytes(self._buffer[:newline])
            del self._buffer[: newline + 1]
            rows.append(self._parse(line))

    def finish(self) -> List[List[str]]:
        """Flush a trailing line without a final newline (end of body)."""
        if not self._buffer:
            return []
        line = bytes(self._buffer)
        self._buffer.clear()
        return [self._parse(line)]

    def _parse(self, line: bytes) -> List[str]:
        self._row_number += 1
        if line.endswith(b"\r"):
            line = line[:-1]
        if not line.strip():
            return []  # blank row: aligns to an empty-string output
        try:
            row = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(
                f"input row {self._row_number}: invalid NDJSON line: {error}"
            ) from None
        if not isinstance(row, list) or not all(
            isinstance(cell, str) for cell in row
        ):
            raise ValueError(
                f"input row {self._row_number}: each line must be a JSON "
                "array of strings"
            )
        return row


class CSVRowReader:
    """Byte chunks in, complete CSV rows out (quoted newlines included).

    Records are framed on newlines *outside* quotes (quote parity --
    ``""`` escapes toggle twice and cancel out), so a quoted field may
    span chunks and contain literal newlines.  Bytes are decoded with an
    incremental UTF-8 decoder: a chunk ending mid-character is buffered
    until its continuation bytes arrive.
    """

    format = "csv"

    def __init__(self) -> None:
        self._decoder = codecs.getincrementaldecoder("utf-8")()
        self._text = ""  # decoded but not yet framed into records
        self._scan = 0  # chars of _text already scanned for boundaries
        self._in_quote = False
        self._row_number = 0

    def feed(self, data: bytes) -> List[List[str]]:
        """Absorb one chunk; return the rows it completed."""
        try:
            self._text += self._decoder.decode(data)
        except UnicodeDecodeError as error:
            raise ValueError(
                f"input row {self._row_number + 1}: body is not valid "
                f"UTF-8: {error}"
            ) from None
        rows: List[List[str]] = []
        while True:
            boundary = self._next_boundary()
            if boundary < 0:
                return rows
            record = self._text[:boundary]
            self._text = self._text[boundary + 1 :]
            self._scan = 0
            rows.append(self._parse(record))

    def finish(self) -> List[List[str]]:
        """Flush the final unterminated record (end of body)."""
        try:
            self._text += self._decoder.decode(b"", final=True)
        except UnicodeDecodeError as error:
            raise ValueError(
                f"input row {self._row_number + 1}: body ends mid "
                f"UTF-8 character: {error}"
            ) from None
        if not self._text:
            return []
        record, self._text = self._text, ""
        return [self._parse(record)]

    def _next_boundary(self) -> int:
        text = self._text
        in_quote = self._in_quote
        for index in range(self._scan, len(text)):
            char = text[index]
            if char == '"':
                in_quote = not in_quote
            elif char == "\n" and not in_quote:
                self._in_quote = in_quote
                return index
        self._in_quote = in_quote
        self._scan = len(text)
        return -1

    def _parse(self, record: str) -> List[str]:
        self._row_number += 1
        if record.endswith("\r"):
            record = record[:-1]
        if not record:
            return []  # blank row: aligns to an empty-string output
        try:
            parsed = next(csv.reader(io.StringIO(record)))
        except (csv.Error, StopIteration) as error:
            raise ValueError(
                f"input row {self._row_number}: invalid CSV record: {error}"
            ) from None
        return parsed


def make_reader(format: str):  # noqa: A002 -- mirrors the wire field name
    """The reader for a wire format name (``"ndjson"`` or ``"csv"``)."""
    if format == "ndjson":
        return NDJSONRowReader()
    if format == "csv":
        return CSVRowReader()
    raise ValueError(f"unknown stream format {format!r} (ndjson or csv)")


def decode_rows(
    chunks: Iterable[bytes], format: str = "ndjson"  # noqa: A002
) -> Iterator[List[str]]:
    """Lazily decode an iterable of byte chunks into rows."""
    reader = make_reader(format)
    for data in chunks:
        for row in reader.feed(data):
            yield row
    for row in reader.finish():
        yield row


def encode_outputs(outputs: Sequence[Optional[str]]) -> bytes:
    """One chunk of fill outputs as NDJSON bytes (``null`` for ⊥)."""
    lines = []
    for output in outputs:
        if output is None:
            lines.append(b"null\n")
        else:
            lines.append(
                json.dumps(output, ensure_ascii=False).encode("utf-8") + b"\n"
            )
    return b"".join(lines)


def error_line(message: str) -> bytes:
    """The terminal NDJSON error record for a mid-stream failure.

    Streaming responses commit their 200 status before the rows run, so
    a mid-stream failure (arity error on row N, say) cannot become an
    HTTP error status; instead the stream ends with one JSON *object*
    line -- unambiguous against the string/``null`` data lines -- and
    the connection closes.
    """
    return json.dumps({"error": message}, ensure_ascii=False).encode(
        "utf-8"
    ) + b"\n"


def sse_event(
    payload, event: Optional[str] = None, id: Optional[object] = None  # noqa: A002
) -> bytes:
    """One Server-Sent-Events frame: ``id:`` / ``event:`` / ``data:``.

    ``payload`` is JSON-encoded onto a single ``data:`` line (compact
    separators -- SSE frames are line-framed, so the payload must not
    contain raw newlines), followed by the blank line that terminates
    the frame.  The HTTP server's changefeed stream emits every feed
    event through here.
    """
    lines: List[bytes] = []
    if id is not None:
        lines.append(f"id: {id}\n".encode("utf-8"))
    if event is not None:
        lines.append(f"event: {event}\n".encode("utf-8"))
    data = json.dumps(payload, ensure_ascii=False, separators=(",", ":"))
    lines.append(b"data: " + data.encode("utf-8") + b"\n\n")
    return b"".join(lines)
