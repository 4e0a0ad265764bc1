"""Pluggable state backends: in-memory entries and a JSON-lines journal.

A backend is the durability medium behind the unified state layer.  It
receives one entry per durable store mutation (full-record upserts and
key deletes, see :class:`~repro.cloud.state.protocol.RecordStoreBase`)
and can replay them later.  An entry holds exact JSON types only:
``dict`` with ``str`` keys, ``list``, ``str``, ``int``, ``float``,
``bool`` and ``None`` — no tuples, sets or bytes.  Both implementations
keep each entry *encoded*, one immutable, GC-untracked object per
append, and decode only on replay, so a long-lived journal costs its
encoded bytes rather than a heap of live dicts the cyclic garbage
collector has to walk, and no later mutation of a record reaches the
journal:

* :class:`MemoryBackend` — the default: one ``marshal`` blob per entry
  in a process-memory list, gone on process exit.  The entries never
  leave the process (a restart recovers from them inside the same
  interpreter), so the encoding is internal; for exact-JSON entries its
  replay equals a JSON round trip.
* :class:`JournalBackend` — an append-only JSON-lines write-ahead log
  (one entry per line, ``sort_keys`` canonical form), optionally backed
  by a file.  It supports *fault injection* — a torn final write via
  :meth:`JournalBackend.crash_mid_write` or a scheduled
  ``fail_after_appends`` crash — and *tolerant replay*: a truncated or
  partial tail is detected, counted and skipped, while corruption
  anywhere else is an error.  ``repro.cloud.state.journal`` rebuilds a
  whole cloud from the surviving prefix.

:meth:`StateBackend.replay` is lazy: recovery applies one decoded
entry at a time and never holds the whole decoded history.
"""

from __future__ import annotations

import json
import marshal
import os
from typing import Iterator, List, Optional

from repro.cloud.state.protocol import Record
from repro.core.errors import ConfigurationError, SimulationError


class JournalCrash(SimulationError):
    """Raised by an injected mid-write crash (the torn-write fault)."""


class StateBackend:
    """What every backend shares; each defines ``append`` and ``replay``."""

    def verify(self) -> None:
        """Raise :class:`ConfigurationError` if :meth:`replay` would.

        Recovery calls this before it replaces the live cloud, so a
        corrupt journal leaves the network untouched.  Entries this
        process encoded itself always decode: the default checks nothing.
        """

    def entries(self) -> List[Record]:
        """Replay every decodable entry into a list, oldest first."""
        return list(self.replay())

    def entry_count(self) -> int:
        """How many entries :meth:`entries` would return."""
        return sum(1 for _ in self.replay())


class MemoryBackend(StateBackend):
    """Entries kept as ``marshal`` bytes in a list — the default.

    ``marshal`` round-trips every exact JSON type unchanged without the
    JSON encoder's per-call cost.  Unlike JSON it would also keep a
    tuple, a non-``str`` key, a set or bytes, so the record contract
    (exact JSON types only) is what keeps this replay equal to the
    on-disk :class:`JournalBackend`'s.
    """

    def __init__(self) -> None:
        self._blobs: List[bytes] = []

    def append(self, entry: Record) -> None:
        """Encode *entry* once; no later mutation of it reaches the blob."""
        self._blobs.append(marshal.dumps(entry))

    def replay(self) -> Iterator[Record]:
        """Decode the recorded entries lazily, oldest first."""
        return map(marshal.loads, self._blobs)

    def entry_count(self) -> int:
        """Number of recorded entries (no decoding needed)."""
        return len(self._blobs)


class JournalBackend(StateBackend):
    """Append-only JSON-lines WAL with crash fault injection.

    With ``path=None`` the journal lives in an in-process list of lines
    (handy for tests and benchmarks); with a path every append is also
    written through to the file, so a *new* :class:`JournalBackend` on
    the same path models a post-crash process recovering from disk.

    Fault injection:

    * ``fail_after_appends=N`` — the Nth append writes only a prefix of
      its line (a torn sector) and raises :class:`JournalCrash`;
    * :meth:`crash_mid_write` — retroactively tear the final line, as a
      power cut mid-``write()`` would.

    Replay (:meth:`replay`) decodes line by line.  An undecodable
    *final* line is the torn tail: it is dropped, and once the replay
    is exhausted :attr:`torn_tail` / :attr:`dropped_bytes` report the
    damage.  An undecodable line anywhere earlier means real corruption
    and raises :class:`~repro.core.errors.ConfigurationError`.
    """

    def __init__(
        self, path: Optional[str] = None, fail_after_appends: Optional[int] = None
    ) -> None:
        self.path = path
        self.fail_after_appends = fail_after_appends
        self._appends = 0
        #: the journal's lines, each ending in ``"\n"`` but a torn last one
        self._lines: List[str] = []
        #: Set by the latest replay: was a torn tail seen?
        self.torn_tail = False
        #: Bytes discarded from the torn tail by the latest replay.
        self.dropped_bytes = 0
        if path is not None and os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                parts = handle.read().split("\n")
            self._lines = [part + "\n" for part in parts[:-1]]
            if parts[-1]:
                self._lines.append(parts[-1])

    # -- writing ------------------------------------------------------------

    def _write_through(self, text: str) -> None:
        """Append raw *text* to the lines (and the backing file)."""
        lines = self._lines
        if lines and not lines[-1].endswith("\n"):
            lines[-1] += text  # the medium continues an unterminated line
        else:
            lines.append(text)
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(text)

    def append(self, entry: Record) -> None:
        """Append one canonical JSON line (honouring injected faults)."""
        line = json.dumps(entry, sort_keys=True) + "\n"
        self._appends += 1
        if (
            self.fail_after_appends is not None
            and self._appends >= self.fail_after_appends
        ):
            # The torn write: half the line reaches the medium, then the
            # process dies.  Keep at least one byte so the tail is
            # visibly partial rather than silently absent.
            torn = line[: max(1, len(line) // 2)]
            self._write_through(torn)
            raise JournalCrash(
                f"injected crash during journal append #{self._appends}"
            )
        self._write_through(line)

    def crash_mid_write(self, keep_fraction: float = 0.5) -> None:
        """Retroactively tear the final line (simulated power cut).

        Truncates the journal so only ``keep_fraction`` of the last
        line's bytes survive, exactly as if the process had died while
        the final ``write()`` was in flight.
        """
        if not self._lines:
            return
        last_line = self._lines.pop()
        kept = last_line[: max(1, int(len(last_line) * keep_fraction))]
        if kept.endswith("\n"):
            kept = kept[:-1]
        if kept:
            self._lines.append(kept)
        if self.path is not None:
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.writelines(self._lines)

    # -- reading ------------------------------------------------------------

    def replay(self) -> Iterator[Record]:
        """Decode line by line; tolerate (and account for) a torn tail."""
        self.torn_tail = False
        self.dropped_bytes = 0
        lines = self._lines
        # The final line is the tail; so is the line before an
        # unterminated final fragment.
        tail = len(lines) - 1
        if lines and not lines[-1].endswith("\n"):
            tail -= 1
        for index, line in enumerate(lines):
            if line == "\n":
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                if index >= tail:
                    self.torn_tail = True
                    self.dropped_bytes = len(line.rstrip("\n").encode("utf-8"))
                    return
                raise ConfigurationError(
                    f"journal corrupt at line {index + 1} (not at the tail)"
                )
            yield entry

    def verify(self) -> None:
        """Decode every line once, discarding the entries."""
        for _ in self.replay():
            pass

    def size_bytes(self) -> int:
        """Encoded journal size in bytes."""
        return sum(len(line.encode("utf-8")) for line in self._lines)

    def clear(self) -> None:
        """Truncate the journal (lines and backing file)."""
        self._lines = []
        self._appends = 0
        if self.path is not None and os.path.exists(self.path):
            with open(self.path, "w", encoding="utf-8"):
                pass
