"""The relay: user<->device data plane through the cloud.

The cloud "relays messages between a specific device and a specific
user" (Section II-A).  Concretely:

* users push *commands* and *schedules* down; devices pick them up on
  their next poll (the device keeps a persistent/polling connection —
  nothing on the internet can reach into the LAN);
* devices push *telemetry* up; users read it back with queries.

The relay is deliberately dumb: every authorization decision happens in
the handlers before anything lands here.  But it is the *ground truth*
for attacks — A1's stolen schedule and injected telemetry, and A4's
attacker-issued command executed by the victim device, are all observed
on this object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.cloud.state.protocol import Record, RecordStoreBase


@dataclass(frozen=True)
class QueuedCommand:
    """A pending user->device command.

    ``trace_id`` carries the issuing request's causal chain id across
    the store-and-forward hop, so the device's eventual poll/execute can
    be correlated back to the user (or attacker) who queued it.
    """

    command: str
    arguments: Mapping[str, Any]
    issued_by: str
    issued_at: float
    trace_id: Optional[str] = None


@dataclass
class TelemetryRecord:
    """Latest device->user data, with provenance for attack ground truth."""

    data: Mapping[str, Any]
    reported_at: float
    reported_by_connection: str


class Relay(RecordStoreBase):
    """Per-device mailboxes for both directions of the data plane.

    As a :class:`~repro.cloud.state.protocol.StateStore` the relay
    persists **schedules only**: command queues and latest telemetry are
    in-flight data that a restart legitimately drops (the device re-polls
    and re-reports), while a schedule is durable configuration the user
    expects to survive.
    """

    state_name = "relay"

    def __init__(self) -> None:
        self._commands: Dict[str, List[QueuedCommand]] = {}
        self._schedules: Dict[str, Mapping[str, Any]] = {}
        self._telemetry: Dict[str, TelemetryRecord] = {}

    # -- downstream: user -> device ------------------------------------------

    def queue_command(self, device_id: str, command: QueuedCommand) -> None:
        self._commands.setdefault(device_id, []).append(command)
        self._note_mutation()

    def drain_commands(self, device_id: str) -> List[QueuedCommand]:
        """Hand all pending commands to the polling device and clear them."""
        return self._commands.pop(device_id, [])

    def pending_commands(self, device_id: str) -> List[QueuedCommand]:
        return list(self._commands.get(device_id, []))

    def set_schedule(self, device_id: str, schedule: Mapping[str, Any]) -> None:
        self._schedules[device_id] = dict(schedule)
        self._record_put({"device_id": device_id, "schedule": dict(schedule)})

    def schedule_of(self, device_id: str) -> Optional[Mapping[str, Any]]:
        return self._schedules.get(device_id)

    def clear_schedule(self, device_id: str) -> None:
        if self._schedules.pop(device_id, None) is not None:
            self._record_del(device_id)

    # -- upstream: device -> user ----------------------------------------------

    def report_telemetry(
        self, device_id: str, data: Mapping[str, Any], now: float, connection: str
    ) -> None:
        if data:
            self._telemetry[device_id] = TelemetryRecord(dict(data), now, connection)
            self._note_mutation()

    def telemetry_of(self, device_id: str) -> Optional[TelemetryRecord]:
        return self._telemetry.get(device_id)

    def forget_device(self, device_id: str) -> None:
        """Drop all relay state for a device (unbinding cleanup)."""
        self._commands.pop(device_id, None)
        had_schedule = self._schedules.pop(device_id, None) is not None
        self._telemetry.pop(device_id, None)
        if had_schedule:
            self._record_del(device_id)
        else:
            self._note_mutation()

    # -- volatile capture (warm-start restore) --------------------------------

    def capture_volatile(self) -> Dict[str, Any]:
        """Command queues and latest telemetry, as picklable data.

        Snapshots deliberately drop these (a *restart* legitimately loses
        in-flight data), but a warm start is not a restart: the restored
        world must continue exactly where the captured one was, pending
        commands and all.  Records are immutable dataclasses, so sharing
        them between the image and restored worlds is safe; the container
        dicts/lists are copied on both capture and restore.
        """
        return {
            "commands": {
                device_id: list(queue)
                for device_id, queue in self._commands.items()
            },
            "telemetry": dict(self._telemetry),
        }

    def restore_volatile(self, data: Dict[str, Any]) -> None:
        """Install queues/telemetry captured by :meth:`capture_volatile`."""
        self._commands = {
            device_id: list(queue)
            for device_id, queue in data.get("commands", {}).items()
        }
        self._telemetry = dict(data.get("telemetry", {}))

    # -- StateStore protocol --------------------------------------------------

    def to_record(self, obj: Any) -> Record:
        """One ``(device_id, schedule)`` pair as a record."""
        device_id, schedule = obj
        return {"device_id": device_id, "schedule": dict(schedule)}

    def from_record(self, record: Record) -> Any:
        """Decode one schedule record back to a ``(device_id, schedule)`` pair."""
        return (record["device_id"], dict(record["schedule"]))

    def record_key(self, record: Record) -> str:
        """Schedules are keyed by device id."""
        return record["device_id"]

    def record_count(self) -> int:
        """Number of stored schedules (queues/telemetry are volatile)."""
        return len(self._schedules)

    def snapshot_state(self) -> List[Record]:
        """Every schedule record, sorted by device id."""
        return [
            self.to_record((device_id, self._schedules[device_id]))
            for device_id in sorted(self._schedules)
        ]

    def apply_record(self, record: Record) -> Any:
        """Upsert one schedule (restore / journal replay / clone)."""
        device_id, schedule = self.from_record(record)
        self._schedules[device_id] = schedule
        self._record_put(record)
        return (device_id, schedule)

    def discard_record(self, key: str) -> bool:
        """Remove one schedule by device id."""
        existed = self._schedules.pop(key, None) is not None
        if existed:
            self._record_del(key)
        return existed

    def find_record(self, key: str) -> Optional[Record]:
        """O(1) lookup of one schedule record."""
        schedule = self._schedules.get(key)
        return self.to_record((key, schedule)) if schedule is not None else None
