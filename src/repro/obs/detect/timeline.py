"""Per-shadow forensic timelines: the cloud's evidence store.

Every binding-affecting exchange the cloud handles (Status, Bind,
Unbind, Control, DeviceFetch) is materialized here as one
:class:`ForensicEvent`: which device shadow it touched, who claimed to
send it, from which network origin, under which causal trace, and what
the binding looked like *before* the request ran.  The store is the
ninth :class:`~repro.cloud.state.protocol.RecordStoreBase` store —
durable, journaled, snapshot-v2 — because forensic evidence that
evaporates on a cloud restart is not evidence.

Recording is **always on** and read-only with respect to the world:
events are appended from data the handler path already computed, no RNG
is consumed, and no response changes.  Streaming consumers (the
detection pipeline) subscribe via :meth:`ForensicTimeline.add_sink`;
sinks fire only on *live* recording, never on journal replay or
snapshot restore, so a recovered cloud does not re-alert on history.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional

from repro.cloud.state.protocol import Record, RecordStoreBase
from repro.core.errors import ConfigurationError

#: A streaming consumer of live forensic events.
ForensicSink = Callable[["ForensicEvent"], None]

#: The message kinds that affect (or probe) a device shadow's binding.
WATCHED_KINDS = ("status", "bind", "unbind", "control", "fetch")

#: ForensicEvent field order (also the record/serialization order and,
#: followed by ``decision_trace``, the stored row's order).
_EVENT_FIELDS = (
    "seq",
    "time",
    "device_id",
    "kind",
    "summary",
    "source",
    "origin_ip",
    "trace_id",
    "span_id",
    "outcome",
    "actor",
    "bound_before",
    "replaced",
)
_FIELD_SET = frozenset(_EVENT_FIELDS)
_record_fields = itemgetter(*_EVENT_FIELDS)


class ForensicEvent:
    """One binding-affecting exchange, as the cloud saw it.

    ``source`` is the network node that sent the packet (unforgeable in
    the simulation: the network stamps it); ``actor`` is the *claimed*
    identity — the user resolved from the message's token, or the
    device id a device-credential message presented.  ``bound_before``
    is the binding's owner when the request arrived, which is what lets
    detectors judge a transition without replaying history.

    A ``__slots__`` read-side view, built from the timeline's stored
    row only for sinks and readers; treat instances as immutable.

    ``decision_trace`` is *volatile* evidence: the PDP's ordered rule
    trail for the exchange (``rule:pass>rule:deny(code)``).  It rides on
    live events for streaming sinks and diagnostics but is deliberately
    excluded from ``_EVENT_FIELDS`` — identity, serialization, journal
    records and snapshots are unchanged by it, and replayed history
    comes back with an empty trail.
    """

    __slots__ = _EVENT_FIELDS + ("decision_trace",)

    def __init__(
        self,
        seq: int,
        time: float,
        device_id: str,
        kind: str,  # one of WATCHED_KINDS
        summary: str,  # paper-style message rendering (describe())
        source: str,  # sending network node
        origin_ip: str,  # observed source IP (post-NAT)
        trace_id: str,  # causal chain id ("" for direct store writes)
        span_id: str,
        outcome: str,  # "ok" or the rejection code
        actor: str,  # claimed identity ("" when unauthenticated)
        bound_before: str,  # binding owner before the request ("" if unbound)
        replaced: bool = False,  # did a Bind displace an existing owner?
        decision_trace: str = "",  # volatile PDP rule trail (live only)
    ) -> None:
        self.seq = seq
        self.time = time
        self.device_id = device_id
        self.kind = kind
        self.summary = summary
        self.source = source
        self.origin_ip = origin_ip
        self.trace_id = trace_id
        self.span_id = span_id
        self.outcome = outcome
        self.actor = actor
        self.bound_before = bound_before
        self.replaced = replaced
        self.decision_trace = decision_trace

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in _EVENT_FIELDS)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ForensicEvent):
            return NotImplemented
        return self._key() == other._key()


class ForensicTimeline(RecordStoreBase):
    """Append-only, per-device ordered evidence of binding exchanges.

    Each event is stored as one row: an exact tuple of the event's
    ``str``/``float``/``int``/``bool`` fields in constructor order, which
    the cyclic collector untracks at its first pass.  A row's position
    is its seq, so a seq is looked up by index and a record whose seq
    would leave a gap is refused.  :class:`ForensicEvent` objects are
    built only for sinks and readers.

    A live event is journaled by reference: the write-ahead hook gets
    the plain tuple ``("forensics", _EVENT_FIELDS, row)`` (a *row put*,
    see :mod:`repro.cloud.state.backends`), not a freshly encoded record
    dict.  The 13 field names stop short of ``decision_trace``, so the
    journal, its replay and the on-disk lines carry exactly the
    :meth:`to_record` fields.
    """

    state_name = "forensics"
    durable = True

    def __init__(self) -> None:
        self._rows: List[tuple] = []
        self._by_device: Dict[str, List[int]] = {}
        self._sinks: List[ForensicSink] = []

    # -- live recording ------------------------------------------------------

    def add_sink(self, sink: ForensicSink) -> None:
        """Subscribe a streaming consumer to future live events."""
        self._sinks.append(sink)

    def remove_sink(self, sink: ForensicSink) -> None:
        """Unsubscribe a consumer; unknown sinks are a no-op."""
        if sink in self._sinks:
            self._sinks.remove(sink)

    def has_sinks(self) -> bool:
        """Whether any live streaming consumer is subscribed."""
        return bool(self._sinks)

    def record(
        self,
        time: float,
        device_id: str,
        kind: str,
        summary: str,
        source: str,
        origin_ip: str,
        trace_id: str,
        span_id: str,
        outcome: str,
        actor: str,
        bound_before: str,
        replaced: bool = False,
        decision_trace: str = "",
    ) -> None:
        """Append one live event, journal it, and feed the sinks."""
        rows = self._rows
        seq = len(rows)
        row = (
            seq, time, device_id, kind, summary, source, origin_ip, trace_id,
            span_id, outcome, actor, bound_before, replaced, decision_trace,
        )
        rows.append(row)
        self._by_device.setdefault(device_id, []).append(seq)
        # The journal keeps the immutable row itself (a row put, see
        # repro.cloud.state.backends); its 13 names leave out the trail.
        self._note_mutation()
        if self._journal_write is not None:
            self._journal_write((self.state_name, _EVENT_FIELDS, row))
        if self._sinks:
            event = ForensicEvent(*row)
            for sink in self._sinks:
                sink(event)

    # -- read access ---------------------------------------------------------

    def events(self, start: int = 0) -> List[ForensicEvent]:
        """Every event from seq *start* on, in sequence order."""
        return [ForensicEvent(*row) for row in self._rows[start:]]

    def timeline(self, device_id: str) -> List[ForensicEvent]:
        """The ordered evidence for one device shadow."""
        rows = self._rows
        return [ForensicEvent(*rows[i]) for i in self._by_device.get(device_id, [])]

    def __len__(self) -> int:
        return len(self._rows)

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _row_of(record: Record) -> tuple:
        """Validate one record and turn it into a row (no decision trail)."""
        if type(record) is not dict or record.keys() != _FIELD_SET:
            names = set(record) if isinstance(record, dict) else set()
            raise ConfigurationError(
                f"forensics record {record!r}: missing field(s) "
                f"{sorted(_FIELD_SET - names)}, unknown field(s) "
                f"{sorted(names - _FIELD_SET)}"
            )
        seq = record["seq"]
        if type(seq) is not int or seq < 0:
            raise ConfigurationError(f"forensics record has bad seq {seq!r}")
        return _record_fields(record) + ("",)

    # -- records: one row per seq ---------------------------------------------

    def to_record(self, obj: Any) -> Record:
        """Encode one :class:`ForensicEvent` as a flat record."""
        return {name: getattr(obj, name) for name in _EVENT_FIELDS}

    def from_record(self, record: Record) -> Any:
        """Decode one record back into a :class:`ForensicEvent`."""
        return ForensicEvent(*self._row_of(record))

    def record_key(self, record: Record) -> str:
        """Events are keyed by zero-padded sequence number."""
        return f"e:{int(record['seq']):08d}"

    def record_count(self) -> int:
        """Number of stored events."""
        return len(self._rows)

    def snapshot_state(self) -> List[Record]:
        """Every event record, in sequence order (already sorted)."""
        return [dict(zip(_EVENT_FIELDS, row)) for row in self._rows]

    def apply_record(self, record: Record) -> None:
        """Upsert one event (restore / journal replay / clone).

        A seq already present is overwritten in place (evidence is
        immutable, so the device index still holds), the next seq is
        appended, and a later one would leave a gap and is refused.
        Never fires sinks: replayed history is context for
        :meth:`~repro.obs.detect.pipeline.DetectionPipeline.catch_up`,
        not a fresh observation.
        """
        row = self._row_of(record)
        seq, rows = row[0], self._rows
        if seq < len(rows):
            rows[seq] = row
        elif seq == len(rows):
            rows.append(row)
            self._by_device.setdefault(row[2], []).append(seq)
        else:
            raise ConfigurationError(
                f"forensics record seq {seq} leaves a gap after "
                f"{len(rows)} event(s)"
            )
        self._record_put(record)

    def discard_record(self, key: str) -> bool:
        """Refuse deletion: the timeline is append-only evidence."""
        return False

    def find_record(self, key: str) -> Optional[Record]:
        """O(1) lookup of one event record by its ``e:<seq>`` key."""
        prefix, _, digits = key.partition(":")
        if prefix != "e" or not digits.isdecimal() or int(digits) >= len(self._rows):
            return None
        return dict(zip(_EVENT_FIELDS, self._rows[int(digits)]))
