"""Device sharing: many-to-one bindings (Section III-B's footnote).

The paper analyses one-user/one-device bindings and notes the model
"can be easily applied to many-to-one (or one-to-many) bindings".  This
module is that application: the *owner* (the bound user) may grant
other accounts access to the device.  Grants are strictly weaker than
the binding — a grantee can control and query, but cannot unbind,
re-share, or displace the owner — and every grant dies with the
binding, so the A3/A4 analyses carry over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cloud.state.protocol import Record, RecordStoreBase
from repro.core.errors import BindingConflict


@dataclass(frozen=True)
class ShareGrant:
    """One owner-granted access right."""

    device_id: str
    owner: str
    grantee: str
    granted_at: float


class ShareStore(RecordStoreBase):
    """Grants indexed by device."""

    state_name = "shares"

    def __init__(self) -> None:
        self._by_device: Dict[str, Dict[str, ShareGrant]] = {}

    def grant(self, device_id: str, owner: str, grantee: str, now: float) -> ShareGrant:
        """Owner grants *grantee* access; rejects duplicates and self-shares."""
        if grantee == owner:
            raise BindingConflict("self-share", "the owner already has access")
        grants = self._by_device.setdefault(device_id, {})
        if grantee in grants:
            raise BindingConflict("already-shared", f"{grantee!r} already has access")
        record = ShareGrant(device_id, owner, grantee, now)
        grants[grantee] = record
        self._record_put(self.to_record(record))
        return record

    def revoke(self, device_id: str, grantee: str) -> bool:
        """Withdraw one grant; returns whether it existed."""
        return self.discard_record(f"{device_id}:{grantee}")

    def revoke_all(self, device_id: str) -> int:
        """Binding teardown: every grant dies with the binding."""
        grants = self._by_device.pop(device_id, {})
        for grantee in grants:
            self._record_del(f"{device_id}:{grantee}")
        return len(grants)

    def is_granted(self, device_id: str, user: str) -> bool:
        return user in self._by_device.get(device_id, {})

    def grantees_of(self, device_id: str) -> List[str]:
        return sorted(self._by_device.get(device_id, {}))

    def devices_shared_with(self, user: str) -> List[str]:
        return sorted(
            device_id
            for device_id, grants in self._by_device.items()
            if user in grants
        )

    # -- records: nested by device, keyed ``device:grantee`` ------------------

    def to_record(self, obj: ShareGrant) -> Record:
        """One grant as a snapshot/journal record."""
        return {
            "device_id": obj.device_id,
            "owner": obj.owner,
            "grantee": obj.grantee,
            "granted_at": obj.granted_at,
        }

    def from_record(self, record: Record) -> ShareGrant:
        """Decode one grant record."""
        return ShareGrant(
            record["device_id"],
            record["owner"],
            record["grantee"],
            record["granted_at"],
        )

    def record_key(self, record: Record) -> str:
        """Grants are keyed by ``device:grantee`` (one grant per pair).

        Device IDs may contain colons (MAC-address schemes); user IDs do
        not, so a key splits at its last colon.
        """
        return f"{record['device_id']}:{record['grantee']}"

    def record_count(self) -> int:
        """Total live grants across all devices."""
        return sum(len(grants) for grants in self._by_device.values())

    def snapshot_state(self) -> List[Record]:
        """Every grant record, sorted by its ``device:grantee`` key."""
        records = [
            self.to_record(grant)
            for grants in self._by_device.values()
            for grant in grants.values()
        ]
        records.sort(key=self.record_key)
        return records

    def apply_record(self, record: Record) -> ShareGrant:
        """Upsert one grant (restore / journal replay / clone)."""
        grant = self._decode(record)
        self._by_device.setdefault(grant.device_id, {})[grant.grantee] = grant
        self._record_put(record)
        return grant

    def discard_record(self, key: str) -> bool:
        """Remove one grant by its ``device:grantee`` key."""
        device_id, _, grantee = key.rpartition(":")
        grants = self._by_device.get(device_id, {})
        existed = grants.pop(grantee, None) is not None
        if existed:
            if not grants:
                self._by_device.pop(device_id, None)
            self._record_del(key)
        return existed

    def find_record(self, key: str) -> Optional[Record]:
        """O(1) lookup of one grant record by ``device:grantee``."""
        device_id, _, grantee = key.rpartition(":")
        grant = self._by_device.get(device_id, {}).get(grantee)
        return self.to_record(grant) if grant is not None else None
