"""User-facing event feed: the cloud tells owners what happened.

None of the studied vendors notified users about binding changes —
which is what makes the paper's attacks *stealthy* ("stealthy device
control", Section I).  The feed is the obvious countermeasure: every
binding-affecting action emits an event to the affected user, and the
app can poll its inbox.  The ``notifies_user`` design knob controls
whether a vendor runs the feed; ``repro.analysis.stealth`` measures how
much detectability it buys against each attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cloud.state.protocol import Record, RecordStoreBase
from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class UserEvent:
    """One notification delivered to a user's inbox."""

    time: float
    kind: str        # "binding-created" | "binding-revoked" |
                     # "binding-replaced" | "device-offline"
    device_id: str
    detail: str = ""


class EventFeed(RecordStoreBase):
    """Per-user inboxes with poll cursors.

    The feed is durable — the whole point of the countermeasure is that
    a victim eventually *sees* the notification, so a cloud restart must
    not eat unread events.  Snapshots carry two record shapes: ``event``
    records (zero-padded per-user index keeps snapshot order stable) and
    ``cursor`` records (how far each user has polled).
    """

    state_name = "events"

    def __init__(self) -> None:
        self._inbox: Dict[str, List[UserEvent]] = {}
        self._cursor: Dict[str, int] = {}

    def emit(self, user_id: str, event: UserEvent) -> None:
        """Append one notification to the user's inbox (journaled)."""
        inbox = self._inbox.setdefault(user_id, [])
        index = len(inbox)
        inbox.append(event)
        self._record_put(self._event_record(user_id, index, event))

    def poll(self, user_id: str) -> List[UserEvent]:
        """New events since the user's last poll."""
        events = self._inbox.get(user_id, [])
        start = self._cursor.get(user_id, 0)
        self._cursor[user_id] = len(events)
        if len(events) != start:
            self._record_put(self._cursor_record(user_id, len(events)))
        return events[start:]

    def all_events(self, user_id: str) -> List[UserEvent]:
        return list(self._inbox.get(user_id, []))

    def count(self, user_id: str) -> int:
        return len(self._inbox.get(user_id, []))

    # -- records: per-user sequence rows and cursors -------------------------

    @staticmethod
    def _event_record(user_id: str, index: int, event: UserEvent) -> Record:
        """One inbox entry as a record (index keeps delivery order)."""
        return {
            "type": "event",
            "user_id": user_id,
            "index": index,
            "time": event.time,
            "kind": event.kind,
            "device_id": event.device_id,
            "detail": event.detail,
        }

    @staticmethod
    def _cursor_record(user_id: str, position: int) -> Record:
        """One poll cursor as a record."""
        return {"type": "cursor", "user_id": user_id, "position": position}

    def from_record(self, record: Record) -> Tuple[str, int, Optional[UserEvent]]:
        """Decode one record to ``(user, index, event)``.

        A cursor decodes to its position and no event.  An event's index
        must be a non-negative integer.
        """
        user_id = record["user_id"]
        if record.get("type") == "cursor":
            return user_id, record["position"], None
        index = record["index"]
        if type(index) is not int or index < 0:
            raise ValueError(f"index {index!r} is not a non-negative integer")
        event = UserEvent(
            record["time"], record["kind"], record["device_id"],
            record.get("detail", ""),
        )
        return user_id, index, event

    def record_key(self, record: Record) -> str:
        """``event:<user>:<zero-padded index>`` or ``cursor:<user>``."""
        if record.get("type") == "cursor":
            return f"cursor:{record['user_id']}"
        return f"event:{record['user_id']}:{record['index']:08d}"

    def record_count(self) -> int:
        """Inbox entries plus poll cursors."""
        return sum(len(inbox) for inbox in self._inbox.values()) + len(self._cursor)

    def snapshot_state(self) -> List[Record]:
        """Every event and cursor record, sorted by record key."""
        records: List[Record] = [
            self._event_record(user_id, index, event)
            for user_id, inbox in self._inbox.items()
            for index, event in enumerate(inbox)
        ]
        records.extend(
            self._cursor_record(user_id, position)
            for user_id, position in self._cursor.items()
        )
        return sorted(records, key=self.record_key)

    def apply_record(self, record: Record) -> Record:
        """Apply one event or cursor record (restore / replay / clone).

        An index already present is overwritten in place and the next
        index is appended; a later one would leave a gap and is refused.
        """
        user_id, index, event = self._decode(record)
        if event is None:
            self._cursor[user_id] = index
        else:
            inbox = self._inbox.setdefault(user_id, [])
            if index < len(inbox):
                inbox[index] = event
            elif index == len(inbox):
                inbox.append(event)
            else:
                raise ConfigurationError(
                    f"events record index {index} leaves a gap after "
                    f"{len(inbox)} event(s) of {user_id!r}"
                )
        self._record_put(record)
        return record

    def discard_record(self, key: str) -> bool:
        """Remove one cursor (event entries are append-only)."""
        if key.startswith("cursor:"):
            user_id = key[len("cursor:"):]
            existed = self._cursor.pop(user_id, None) is not None
            if existed:
                self._record_del(key)
            return existed
        return False

    def find_record(self, key: str) -> Optional[Record]:
        """O(1)-ish lookup of one event or cursor record by key."""
        if key.startswith("cursor:"):
            user_id = key[len("cursor:"):]
            position = self._cursor.get(user_id)
            if position is None:
                return None
            return self._cursor_record(user_id, position)
        if key.startswith("event:"):
            user_id, _, index_text = key[len("event:"):].rpartition(":")
            try:
                index = int(index_text)
            except ValueError:
                return None
            inbox = self._inbox.get(user_id, [])
            if 0 <= index < len(inbox):
                return self._event_record(user_id, index, inbox[index])
        return None
