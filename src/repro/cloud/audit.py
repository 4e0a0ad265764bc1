"""Cloud-side audit log of every handled request.

The paper identifies attack failures "from response messages"
(Section VIII); the audit log is the reproduction's equivalent record —
every request, its claimed origin, and the outcome code.  It also powers
the Figure 1/3/4 sequence traces.

The log doubles as the cloud's single observability feed: when an
observer is installed (``AuditLog(observer=...)``), every recorded row
reaches it — on the observed request's
:class:`~repro.obs.observer.RequestRecord` when the row records one,
through :meth:`~repro.obs.observer.Observer.on_audit` otherwise — and
the :class:`~repro.obs.runtime.Observability` runtime turns it into
message counters and exchange spans: one source of truth, no duplicate
bookkeeping, and counter totals provably equal to the log's.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

#: One stored audit row, in :data:`AUDIT_FIELDS` order.  An exact tuple
#: of ``str``/``float`` fields, which the cyclic collector untracks at
#: its first pass, so full collections never walk the log.
AuditRow = Tuple[float, str, str, str, str, str, str]

AUDIT_FIELDS = (
    "time",
    "source_node",
    "source_ip",
    "summary",
    "outcome",  # "ok" or a rejection code
    "detail",
    "trace_id",  # causal chain id from the request packet, if any
)


class AuditEntry:
    """One handled request: a read-side view of one :data:`AuditRow`.

    Built on demand by :attr:`AuditLog.entries` and the other readers;
    the log itself stores only rows.  Equality and hashing are the
    row's — shard merges compare and pickle entries.
    """

    __slots__ = AUDIT_FIELDS

    def __init__(self, row: AuditRow) -> None:
        (self.time, self.source_node, self.source_ip, self.summary,
         self.outcome, self.detail, self.trace_id) = row

    @property
    def row(self) -> AuditRow:
        """The stored row this entry views."""
        return (self.time, self.source_node, self.source_ip, self.summary,
                self.outcome, self.detail, self.trace_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AuditEntry):
            return NotImplemented
        return self.row == other.row

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
        self.rows: List[AuditRow] = []
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
        """Append one row; hand it to the observer when installed.

        *request* is the observed request's
        :class:`~repro.obs.observer.RequestRecord` when this row records
        that request's outcome: the row goes onto the record, which the
        observer receives once the request finishes.  Any other row goes
        to the observer's ``on_audit`` now.
        """
        row = (time, source_node, source_ip, summary, outcome, detail, trace_id)
        self.rows.append(row)
        if self._observer is not None:
            if request is not None:
                request.row = row
            else:
                self._observer.on_audit(row)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> List[AuditEntry]:
        """Every entry in recording order (views built on each read)."""
        return [AuditEntry(row) for row in self.rows]

    def rejected(self) -> List[AuditEntry]:
        return [AuditEntry(row) for row in self.rows if row[4] != "ok"]

    def matching(self, fragment: str) -> List[AuditEntry]:
        return [AuditEntry(row) for row in self.rows if fragment in row[3]]

    def last_outcome(self, fragment: str) -> Optional[str]:
        hits = self.matching(fragment)
        return hits[-1].outcome if hits else None

    def render(self, limit: Optional[int] = None) -> str:
        rows = self.rows if limit is None else self.rows[-limit:]
        return "\n".join(AuditEntry(row).line() for row in rows)
