"""The cloud's device registry: every manufactured device of the vendor.

The registry is populated at *manufacture time* (the vendor knows its
own IDs and, for public-key designs, the per-device public keys).  It
also tracks the current ``DevToken`` holder for Type-1 authentication,
including the rotation rule that makes binding replacement lock the
real device out under DevToken designs (Section VI-B, device #3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cloud.state.protocol import Record, RecordStoreBase
from repro.core.errors import ConfigurationError, UnknownDevice
from repro.identity.keys import PublicKey
from repro.identity.tokens import TokenKind, TokenService


@dataclass
class DeviceRecord:
    """Factory data and live authentication material for one device."""

    device_id: str
    model: str
    public_key: Optional[PublicKey] = None
    #: Live DevToken (Type-1 designs); rotated by the registry.
    dev_token: Optional[str] = None
    #: The user who requested the current DevToken.  A binding by a
    #: *different* user rotates the token so the previous holder (and
    #: the physical device still using the old token) is locked out.
    dev_token_requested_by: Optional[str] = None


class DeviceRegistry(RecordStoreBase):
    """Registered devices and their authentication material."""

    state_name = "devices"
    key_field = "device_id"

    def __init__(self, tokens: TokenService) -> None:
        self._tokens = tokens
        self._records: Dict[str, DeviceRecord] = {}

    # -- manufacture ----------------------------------------------------------

    def manufacture(self, device_id: str, model: str, public_key: Optional[PublicKey] = None) -> DeviceRecord:
        """Record a freshly manufactured device."""
        if not device_id:
            raise ConfigurationError("device id must be non-empty")
        if device_id in self._records:
            raise ConfigurationError(f"device {device_id!r} already manufactured")
        record = DeviceRecord(device_id, model, public_key)
        self._records[device_id] = record
        self._record_put(self.to_record(record))
        return record

    def is_registered(self, device_id: Optional[str]) -> bool:
        return device_id is not None and device_id in self._records

    def get(self, device_id: str) -> DeviceRecord:
        try:
            return self._records[device_id]
        except KeyError:
            raise UnknownDevice(device_id) from None

    def all_ids(self):
        return sorted(self._records)

    # -- DevToken lifecycle ------------------------------------------------------

    def issue_dev_token(self, device_id: str, requested_by: str, now: float = 0.0) -> str:
        """Issue (and rotate) the device's DevToken for *requested_by*."""
        record = self.get(device_id)
        if record.dev_token is not None:
            self._tokens.revoke(record.dev_token)
        token = self._tokens.issue(TokenKind.DEVICE, device_id, now)
        record.dev_token = token
        record.dev_token_requested_by = requested_by
        self._record_put(self.to_record(record))
        return token

    def rotate_for_new_binding(self, device_id: str, binding_user: str, now: float = 0.0) -> Optional[str]:
        """Rotate the DevToken when a *different* user creates a binding.

        Returns the fresh token (to be handed to the binding creator),
        or ``None`` if the current holder is already the binding user —
        the legitimate local-configuration flow keeps its token.
        """
        record = self.get(device_id)
        if record.dev_token_requested_by == binding_user and record.dev_token is not None:
            return None
        return self.issue_dev_token(device_id, binding_user, now)

    def check_dev_token(self, device_id: Optional[str], dev_token: Optional[str]) -> bool:
        """Type-1 authentication: is this the device's live token?"""
        if device_id is None or dev_token is None:
            return False
        record = self._records.get(device_id)
        if record is None:
            return False
        return record.dev_token is not None and record.dev_token == dev_token

    # -- record codec ---------------------------------------------------------

    def to_record(self, obj: DeviceRecord) -> Record:
        """One device record (public key serialized as id + material)."""
        key = obj.public_key
        return {
            "device_id": obj.device_id,
            "model": obj.model,
            "public_key": (
                {"key_id": key.key_id, "material": key._secret.decode("ascii")}
                if key is not None
                else None
            ),
            "dev_token": obj.dev_token,
            "dev_token_requested_by": obj.dev_token_requested_by,
        }

    def from_record(self, record: Record) -> DeviceRecord:
        """Decode one device record."""
        key_data = record.get("public_key")
        public_key = (
            PublicKey(key_data["key_id"], key_data["material"].encode("ascii"))
            if key_data is not None
            else None
        )
        return DeviceRecord(
            record["device_id"],
            record["model"],
            public_key,
            dev_token=record.get("dev_token"),
            dev_token_requested_by=record.get("dev_token_requested_by"),
        )
