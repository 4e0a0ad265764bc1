"""Cloud-side audit log of every handled request.

The paper identifies attack failures "from response messages"
(Section VIII); the audit log is the reproduction's equivalent record —
every request, its claimed origin, and the outcome code.  It also powers
the Figure 1/3/4 sequence traces.

The log doubles as the cloud's single observability feed: when an
observer is installed (``AuditLog(observer=...)``), every recorded entry
is forwarded to :meth:`~repro.obs.observer.Observer.on_audit`, which the
:class:`~repro.obs.runtime.Observability` runtime turns into message
counters and exchange spans — one source of truth, no duplicate
bookkeeping, and counter totals provably equal to the log's.
"""

from __future__ import annotations

from typing import Any, List, Optional


class AuditEntry:
    """One handled request.

    A ``__slots__`` record (one per handled request, so allocation is on
    the cloud hot path); treat instances as immutable.  Equality and
    hashing cover all fields — shard merges compare and pickle entries.
    """

    __slots__ = (
        "time",
        "source_node",
        "source_ip",
        "summary",
        "outcome",
        "detail",
        "trace_id",
    )

    def __init__(
        self,
        time: float,
        source_node: str,
        source_ip: str,
        summary: str,
        outcome: str,  # "ok" or a rejection code
        detail: str = "",
        trace_id: str = "",  # causal chain id from the request packet, if any
    ) -> None:
        self.time = time
        self.source_node = source_node
        self.source_ip = source_ip
        self.summary = summary
        self.outcome = outcome
        self.detail = detail
        self.trace_id = trace_id

    def _key(self) -> tuple:
        return (
            self.time,
            self.source_node,
            self.source_ip,
            self.summary,
            self.outcome,
            self.detail,
            self.trace_id,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AuditEntry):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AuditEntry(time={self.time!r}, source_node={self.source_node!r}, "
            f"source_ip={self.source_ip!r}, summary={self.summary!r}, "
            f"outcome={self.outcome!r}, detail={self.detail!r}, "
            f"trace_id={self.trace_id!r})"
        )

    def line(self) -> str:
        """One fixed-width log line."""
        mark = "+" if self.outcome == "ok" else "!"
        detail = f" ({self.detail})" if self.detail else ""
        return (
            f"{mark} [t={self.time:8.3f}] {self.source_node:<18} "
            f"{self.summary:<28} -> {self.outcome}{detail}"
        )


class AuditLog:
    """Append-only record of handled requests (optionally observed)."""

    def __init__(self, observer: Optional[Any] = None) -> None:
        self.entries: List[AuditEntry] = []
        self._observer = observer

    def record(
        self,
        time: float,
        source_node: str,
        source_ip: str,
        summary: str,
        outcome: str = "ok",
        detail: str = "",
        trace_id: str = "",
        request: Optional[Any] = None,
    ) -> None:
        """Append one entry; forward it to the observer when installed.

        *request* is the observed request's
        :class:`~repro.obs.observer.RequestRecord` when this entry
        records that request's outcome; it rides along to the observer.
        """
        entry = AuditEntry(
            time, source_node, source_ip, summary, outcome, detail, trace_id
        )
        self.entries.append(entry)
        if self._observer is not None:
            self._observer.on_audit(entry, request)

    def __len__(self) -> int:
        return len(self.entries)

    def rejected(self) -> List[AuditEntry]:
        return [entry for entry in self.entries if entry.outcome != "ok"]

    def matching(self, fragment: str) -> List[AuditEntry]:
        return [entry for entry in self.entries if fragment in entry.summary]

    def last_outcome(self, fragment: str) -> Optional[str]:
        hits = self.matching(fragment)
        return hits[-1].outcome if hits else None

    def render(self, limit: Optional[int] = None) -> str:
        entries = self.entries if limit is None else self.entries[-limit:]
        return "\n".join(entry.line() for entry in entries)
