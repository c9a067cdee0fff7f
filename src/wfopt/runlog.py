"""Append-only run log, held in memory and written as newline-delimited JSON.

The records stay in memory for the whole search; `save` writes them to disk
in one pass, once the search has finished (a crashed run leaves no file).

Record kinds: meta, selected, proposed, expanded, pruned, simulated,
weights_updated, refined. Records carry tokens_in/tokens_out whenever the
event consumed a proposer or executor request.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Mapping

# what json.dumps(record, sort_keys=True) builds anew for every call
_ENCODER = json.JSONEncoder(sort_keys=True)


class RunLog:
    def __init__(self, records: Iterable[Mapping] | None = None):
        self.records: list[dict] = [dict(r) for r in records] if records else []

    def append(self, event: str, **fields) -> dict:
        record = {"event": event, **fields}
        self.records.append(record)
        return record

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.records)

    def by_event(self, event: str) -> list[dict]:
        return [r for r in self.records if r["event"] == event]

    def _lines(self) -> Iterator[str]:
        encode = _ENCODER.encode
        for record in self.records:
            yield encode(record) + "\n"

    def save(self, path: str | Path) -> None:
        # line by line: the whole log as one string, and again as the bytes
        # written, would be the peak memory of a run
        with open(path, "w") as fh:
            fh.writelines(self._lines())

    @staticmethod
    def load(path: str | Path) -> "RunLog":
        records = []
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
                raise ValueError(f"{path}:{lineno}: malformed log line: {exc}") from None
            if not isinstance(record, dict) or "event" not in record:
                raise ValueError(f"{path}:{lineno}: log line is not a JSON object with an 'event'")
            records.append(record)
        return RunLog(records)
