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

    As a record store the relay persists **schedules only**: command
    queues and latest telemetry are in-flight data that a restart
    legitimately drops (the device re-polls and re-reports), while a
    schedule is durable configuration the user expects to survive.  Each
    schedule is kept in its record shape, ``{"device_id", "schedule"}``.
    """

    state_name = "relay"
    key_field = "device_id"

    def __init__(self) -> None:
        self._commands: Dict[str, List[QueuedCommand]] = {}
        self._records: Dict[str, Record] = {}
        self._telemetry: Dict[str, TelemetryRecord] = {}

    # -- downstream: user -> device ------------------------------------------

    def queue_command(self, device_id: str, command: QueuedCommand) -> None:
        self._commands.setdefault(device_id, []).append(command)
        self._note_mutation()

    def drain_commands(self, device_id: str) -> List[QueuedCommand]:
        """Hand all pending commands to the polling device and clear them."""
        return self._commands.pop(device_id, [])

    def set_schedule(self, device_id: str, schedule: Mapping[str, Any]) -> None:
        self.apply_record({"device_id": device_id, "schedule": dict(schedule)})

    def schedule_of(self, device_id: str) -> Optional[Mapping[str, Any]]:
        entry = self._records.get(device_id)
        return entry["schedule"] if entry is not None else None

    def clear_schedule(self, device_id: str) -> None:
        self.discard_record(device_id)

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
        self._telemetry.pop(device_id, None)
        if not self.discard_record(device_id):
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

    # -- record codec ---------------------------------------------------------

    def to_record(self, obj: Record) -> Record:
        """A stored schedule entry as a record (the schedule copied)."""
        return {"device_id": obj["device_id"], "schedule": dict(obj["schedule"])}

    #: Records and stored entries share one shape.
    from_record = to_record
