"""The cloud-side binding table (who may remotely reach which device).

A binding pairs one device with one user (the paper restricts itself to
one-to-one bindings; see Section III-B).  For designs with post-binding
authorization, the binding also carries the random token returned at
creation time and tracks whether the *device side* ever presented it —
the check that makes remote-only bindings useless for control
(Section IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cloud.state.protocol import Record, RecordStoreBase
from repro.core.errors import BindingConflict


@dataclass
class Binding:
    """One live user<->device binding."""

    device_id: str
    user_id: str
    created_at: float
    #: Random post-binding authorization token (``None`` when the design
    #: does not use one).
    post_token: Optional[str] = None
    #: Set once the device has proven possession of ``post_token``
    #: (delivered to it locally by the binding user's app).
    device_confirmed: bool = False

    def confirm_device(self, presented_token: Optional[str]) -> bool:
        """Record the device side presenting the post-binding token."""
        if self.post_token is not None and presented_token == self.post_token:
            self.device_confirmed = True
        return self.device_confirmed


class BindingStore(RecordStoreBase):
    """Bindings indexed by device; enforces the one-binding invariant."""

    state_name = "bindings"
    key_field = "device_id"

    def __init__(self) -> None:
        self._records: Dict[str, Binding] = {}

    def get(self, device_id: str) -> Optional[Binding]:
        return self._records.get(device_id)

    def bound_user(self, device_id: str) -> Optional[str]:
        binding = self._records.get(device_id)
        return binding.user_id if binding else None

    def is_bound(self, device_id: str) -> bool:
        return device_id in self._records

    def devices_of(self, user_id: str) -> List[str]:
        return sorted(
            device_id
            for device_id, binding in self._records.items()
            if binding.user_id == user_id
        )

    def create(
        self,
        device_id: str,
        user_id: str,
        now: float,
        post_token: Optional[str] = None,
        replace: bool = False,
    ) -> Binding:
        """Create a binding; replacing an existing one requires *replace*."""
        existing = self._records.get(device_id)
        if existing is not None and not replace:
            raise BindingConflict(
                "already-bound", f"device {device_id!r} is bound to another user"
            )
        binding = Binding(device_id, user_id, now, post_token)
        self._records[device_id] = binding
        self._record_put(self.to_record(binding))
        return binding

    def confirm_device(self, device_id: str, presented_token: Optional[str]) -> bool:
        """Store-level device confirmation (journals the updated record).

        Routes :meth:`Binding.confirm_device` through the store so the
        write-ahead journal sees the flag flip; returns the (possibly
        unchanged) confirmation state, ``False`` when unbound.
        """
        binding = self._records.get(device_id)
        if binding is None:
            return False
        before = binding.device_confirmed
        confirmed = binding.confirm_device(presented_token)
        if confirmed and not before:
            self._record_put(self.to_record(binding))
        return confirmed

    def revoke(self, device_id: str) -> Binding:
        """Remove and return the binding; raises if none exists."""
        try:
            binding = self._records.pop(device_id)
        except KeyError:
            raise BindingConflict("not-bound", f"device {device_id!r} has no binding") from None
        self._record_del(device_id)
        return binding

    # -- record codec ---------------------------------------------------------

    def to_record(self, obj: Binding) -> Record:
        """One binding as a snapshot/journal record."""
        return {
            "device_id": obj.device_id,
            "user_id": obj.user_id,
            "created_at": obj.created_at,
            "post_token": obj.post_token,
            "device_confirmed": obj.device_confirmed,
        }

    def from_record(self, record: Record) -> Binding:
        """Decode one binding record."""
        binding = Binding(
            record["device_id"],
            record["user_id"],
            record["created_at"],
            post_token=record.get("post_token"),
        )
        binding.device_confirmed = bool(record.get("device_confirmed", False))
        return binding
