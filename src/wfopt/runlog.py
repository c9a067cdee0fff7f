"""Append-only run log, written as newline-delimited JSON while the run goes.

`append` encodes each record at once, to the text `json.dumps(record,
sort_keys=True)` gives, writes the line to the log's sink and keeps no
record: the sink is the file at `path`, or an in-memory text buffer for a log
without one. `flush` pushes the lines written so far to the file; the search
calls it at the end of every round, so a run that fails or is killed
mid-search leaves its finished rounds on disk, in whole lines. A log may
carry a `fold`, which `append` hands each record to after writing it: the
driver folds the run's summary in the same pass (`reporting.StatsFold`).
Reads (`iter`, `by_event`, `records`, `len`) decode the written lines again,
on demand.

Record kinds: meta, selected, proposed, expanded, pruned, simulated,
weights_updated, refined. Records carry tokens_in/tokens_out whenever the
event consumed a proposer or executor request.
"""

from __future__ import annotations

import io
import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, TextIO

# what json.dumps(record, sort_keys=True) builds anew for every call
_ENCODER = json.JSONEncoder(sort_keys=True)


def _encoder() -> Callable[[Mapping], str]:
    """`_ENCODER.encode`, with the C encoder it makes anew for every call made
    once, as it would make it but without the cycle check, which a record of
    fields never needs: the same text for a fraction less time."""
    if c_make_encoder is None:  # an interpreter without the json accelerator
        return _ENCODER.encode
    e = _ENCODER
    make = c_make_encoder(None, e.default, encode_basestring_ascii, e.indent, e.key_separator, e.item_separator,
                          e.sort_keys, e.skipkeys, e.allow_nan)
    return lambda record: "".join(make(record, 0))


_encode = _encoder()


class RunLog:
    path: Optional[Path] = None
    _sink: Optional[TextIO] = None  # None for a log read from a file (`load`)
    _fold: Optional[Callable[[dict], None]] = None

    def __init__(self, path: str | Path | None = None, fold: Optional[Callable[[dict], None]] = None):
        if path is not None:
            self.path = Path(path)
        self._sink = io.StringIO() if path is None else open(path, "w")
        self._fold = fold

    def append(self, event: str, **fields) -> None:
        record = {"event": event, **fields}
        self._sink.write(_encode(record) + "\n")
        if self._fold is not None:
            self._fold(record)

    def flush(self) -> None:
        if self._sink is not None and not self._sink.closed:
            self._sink.flush()

    def close(self) -> None:
        """Close the file; a log without one keeps its buffer to be read."""
        if self.path is not None and self._sink is not None:
            self._sink.close()

    def _lines(self) -> Iterator[str]:
        """The lines written so far, each with its newline."""
        if self.path is None:
            yield from io.StringIO(self._sink.getvalue())
            return
        self.flush()
        with open(self.path) as fh:
            yield from fh

    def __iter__(self) -> Iterator[dict]:
        for lineno, line in enumerate(self._lines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            # ValueError: JSONDecodeError, or an integer of too many digits; RecursionError: nested too deeply
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{self.path}:{lineno}: malformed log line: {exc}") from None
            if not isinstance(record, dict) or "event" not in record:
                raise ValueError(f"{self.path}:{lineno}: log line is not a JSON object with an 'event'")
            yield record

    def __len__(self) -> int:
        return sum(1 for _ in self)

    @property
    def records(self) -> list[dict]:
        return list(self)

    def by_event(self, event: str) -> list[dict]:
        return [r for r in self if r["event"] == event]

    def save(self, path: str | Path) -> None:
        """Write the log's lines to another file, `path`."""
        with open(path, "w") as fh:
            fh.writelines(self._lines())

    @classmethod
    def load(cls, path: str | Path) -> "RunLog":
        """The log in the file `path`, read and checked line by line as it is
        iterated: a line that is no JSON object with an 'event' raises
        `ValueError` naming the file and the line."""
        log = cls.__new__(cls)
        log.path = Path(path)
        return log
