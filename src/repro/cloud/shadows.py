"""The shadow store: one Figure 2 state machine per registered device.

Also tracks the side facts policy checks need: the source IP and time of
the latest *registration* status (device #7's IP-match check) and the
liveness sweep that moves shadows offline when heartbeats stop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cloud.state.protocol import Record, RecordStoreBase
from repro.core.errors import UnknownDevice
from repro.core.shadow import DeviceShadow, TransitionRecord
from repro.net.address import IpAddress
from repro.obs.observer import Observer


@dataclass
class RegistrationMark:
    """When and from where the device last sent a registration status."""

    time: float
    source_ip: IpAddress


class ShadowStore(RecordStoreBase):
    """All device shadows plus registration bookkeeping.

    When built with an *observer*, every shadow created here reports its
    real Figure 2 transitions via
    :meth:`~repro.obs.observer.Observer.on_shadow_transition`;
    uninstrumented stores leave the per-shadow hook unset, so the state
    machine's hot path stays untouched.

    The store is **volatile** (``durable = False``): shadows are a
    projection of the registry plus the binding table, and a restart is
    a mass offline event, so snapshots and journals never carry them —
    :func:`~repro.cloud.state.snapshot.rebuild_shadow_projection`
    recreates them instead.
    """

    state_name = "shadows"
    durable = False
    key_field = "device_id"

    def __init__(self, observer: Optional[Observer] = None) -> None:
        self._records: Dict[str, DeviceShadow] = {}
        self._registrations: Dict[str, RegistrationMark] = {}
        self._observer = observer

    def create(self, device_id: str) -> DeviceShadow:
        """Create the shadow for a newly manufactured device."""
        shadow = DeviceShadow(device_id)
        if self._observer is not None:
            shadow.on_transition = self._emit_transition
        self._records[device_id] = shadow
        self._note_mutation()
        return shadow

    def _emit_transition(self, shadow: DeviceShadow, record: TransitionRecord) -> None:
        """Forward one recorded transition to the observer."""
        self._observer.on_shadow_transition(
            shadow.device_id,
            record.event.value,
            record.before.value,
            record.after.value,
            record.time,
        )

    def get(self, device_id: str) -> DeviceShadow:
        try:
            return self._records[device_id]
        except KeyError:
            raise UnknownDevice(device_id) from None

    def has(self, device_id: str) -> bool:
        return device_id in self._records

    def all(self) -> List[DeviceShadow]:
        return [self._records[device_id] for device_id in sorted(self._records)]

    # -- registration marks (device #7's binding check) -----------------------

    def mark_registration(self, device_id: str, time: float, source_ip: IpAddress) -> None:
        self._registrations[device_id] = RegistrationMark(time, source_ip)
        self._note_mutation()

    def registration_of(self, device_id: str) -> Optional[RegistrationMark]:
        return self._registrations.get(device_id)

    # -- liveness -------------------------------------------------------------

    def sweep_offline(self, now: float, timeout: float) -> List[str]:
        """Move shadows whose heartbeats stopped to their offline state.

        Returns the IDs that transitioned (used by the audit log).
        """
        expired: List[str] = []
        for device_id in sorted(self._records):
            shadow = self._records[device_id]
            if not shadow.is_online:
                continue
            if shadow.last_seen is None or now - shadow.last_seen > timeout:
                shadow.mark_offline(now)
                expired.append(device_id)
        if expired:
            self._note_mutation()
        return expired

    # -- record codec ---------------------------------------------------------

    def to_record(self, obj: DeviceShadow) -> Record:
        """One shadow as a replayable record (events, not raw state)."""
        registration = self._registrations.get(obj.device_id)
        return {
            "device_id": obj.device_id,
            "online": obj.is_online,
            "bound_user": obj.bound_user,
            "time": obj.last_seen if obj.last_seen is not None else 0.0,
            "connection_id": obj.connection_id,
            "reported_model": obj.reported_model,
            "reported_firmware": obj.reported_firmware,
            "registration": (
                {"time": registration.time, "source_ip": str(registration.source_ip)}
                if registration is not None
                else None
            ),
        }

    def from_record(self, record: Record) -> DeviceShadow:
        """Rebuild one shadow by replaying its record's facts.

        The record names the *facts* (online, bound user, marks).  The
        shadow is recreated through :meth:`create`, so the observer hook
        is wired before any transition fires, and the facts are replayed
        through the Figure 2 machine in canonical event order — a clone
        takes real transitions and fires the same observer hooks a live
        binding flow would.
        """
        device_id = record["device_id"]
        shadow = self.create(device_id)
        time = record.get("time", 0.0)
        if record.get("online"):
            shadow.mark_status(time, connection_id=record.get("connection_id"))
        shadow.reported_model = record.get("reported_model", "")
        shadow.reported_firmware = record.get("reported_firmware", "")
        if record.get("bound_user") is not None:
            shadow.mark_bound(record["bound_user"], time)
        registration = record.get("registration")
        if registration is not None:
            self.mark_registration(
                device_id, registration["time"], IpAddress(registration["source_ip"])
            )
        return shadow
