"""Checkpoint journal: resume a killed measurement run where it stopped.

A journal is an append-only JSON-lines file.  The first line is a header
binding it to one run (a ``run_key`` — the measurement cache key, which
pins every input that determines the results); each subsequent line commits
one completed work unit as ``{"key": <unit label>, "payload": {...}}``.
Commits are flushed and fsynced, so a process killed mid-run loses at most
the unit it was writing — and a torn final line (the kill landed mid-write)
is detected and dropped on load rather than poisoning the resume.

Because every work unit derives its RNG from its own seed child, replaying
the journal and re-executing only the missing units reproduces the
uninterrupted run bit-for-bit; payload floats round-trip exactly through
JSON (``repr`` shortest-float semantics).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: Format tag + version written into every journal header.
JOURNAL_FORMAT = "repro-checkpoint-journal"
JOURNAL_VERSION = 1


class JournalError(RuntimeError):
    """The journal cannot serve this run: wrong format, version, or run key.

    Raised instead of silently resuming from foreign state — a journal for a
    different config would corrupt the resumed table."""


def _parse_header(path: Path, line: str) -> dict:
    """The header on a journal's first line; :class:`JournalError` unless it
    is a v1 checkpoint-journal header."""
    try:
        header = json.loads(line)
    except json.JSONDecodeError as error:
        raise JournalError(f"{path}: unreadable journal header: {error}") from None
    if (
        not isinstance(header, dict)
        or header.get("format") != JOURNAL_FORMAT
        or header.get("version") != JOURNAL_VERSION
    ):
        raise JournalError(f"{path}: not a v{JOURNAL_VERSION} checkpoint journal")
    return header


def journal_run_key(path: str | Path) -> str:
    """The run key the journal at ``path`` belongs to.

    Raises :class:`JournalError` when its first line is not a v1 header
    naming a run key, and ``OSError`` when the file cannot be read.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        header = _parse_header(path, handle.readline())
    run_key = header.get("run_key")
    if not isinstance(run_key, str):
        raise JournalError(f"{path}: journal header names no run key")
    return run_key


class CheckpointJournal:
    """Commit log of completed work units for one measurement run."""

    def __init__(self, path: str | Path, run_key: str):
        self.path = Path(path)
        self.run_key = run_key
        self.completed: dict[str, dict] = {}
        self._handle = None

    # ------------------------------------------------------------------

    def load(self) -> int:
        """Read committed units from an existing journal file.

        Returns the number of units recovered (0 when the file does not
        exist).  A torn trailing line is dropped; a header that does not
        match this run's key raises :class:`JournalError`.
        """
        if not self.path.exists():
            return 0
        with open(self.path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines:
            return 0
        header = _parse_header(self.path, lines[0])
        if header.get("run_key") != self.run_key:
            raise JournalError(
                f"{self.path}: journal belongs to run {header.get('run_key')!r}, "
                f"not {self.run_key!r}; delete it or start without --resume"
            )
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                break  # torn tail: the writer died mid-line; drop it
            if not isinstance(entry, dict) or "key" not in entry:
                break
            self.completed[entry["key"]] = entry.get("payload", {})
        return len(self.completed)

    # ------------------------------------------------------------------

    def _open(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._handle = open(self.path, "a", encoding="utf-8")
            if fresh:
                header = {
                    "format": JOURNAL_FORMAT,
                    "version": JOURNAL_VERSION,
                    "run_key": self.run_key,
                }
                self._handle.write(json.dumps(header, sort_keys=True) + "\n")
                self._flush()
        return self._handle

    def _flush(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def commit(self, key: str, payload: dict) -> None:
        """Durably append one completed unit."""
        handle = self._open()
        handle.write(json.dumps({"key": key, "payload": payload}, sort_keys=True) + "\n")
        self._flush()
        self.completed[key] = payload

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def discard(self) -> None:
        """Close and delete the journal (the run committed elsewhere, or the
        operator chose a fresh start)."""
        self.close()
        self.path.unlink(missing_ok=True)

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
