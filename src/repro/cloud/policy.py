"""Vendor design knobs: the decomposed remote-binding design space.

The paper decomposes every vendor's remote binding into choices along a
few axes — device authentication (Figure 3), binding creation
(Figure 4), binding revocation (Section IV-C) and a handful of
cloud-side checks whose absence is what the attacks exploit
(Section V).  :class:`VendorDesign` captures one point in that space;
the cloud's handlers consult it for every decision, and each of the ten
studied products is exactly one instance (``repro.vendors.profiles``).

DESIGN.md §4 derives how these knobs reproduce Table III.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Optional

from repro.core.errors import ConfigurationError


@unique
class DeviceAuthMode(Enum):
    """Figure 3: how status messages are authenticated."""

    DEV_TOKEN = "DevToken"   # Type 1: dynamic token delivered by the app
    DEV_ID = "DevId"         # Type 2: static identifier (MAC / serial)
    PUBKEY = "PubKey"        # infrastructure-provider design (AWS/IBM/Google)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@unique
class BindSender(Enum):
    """Figure 4a vs 4b: which party submits the binding message."""

    APP = "app"
    DEVICE = "device"


@unique
class BindSchema(Enum):
    """ACL-based (ambient-authority DevId) vs capability-based binding."""

    ACL = "acl"
    CAPABILITY = "capability"


@dataclass(frozen=True)
class VendorDesign:
    """One vendor's complete remote-binding design.

    Attributes mirror DESIGN.md §4; every check the paper found present
    or absent in a studied cloud is a boolean here, so that attacks
    succeed or fail for the *mechanistic* reason the paper gives, never
    by table lookup.
    """

    name: str
    device_type: str = "smart-plug"

    # -- device authentication (Figure 3) --------------------------------
    device_auth: DeviceAuthMode = DeviceAuthMode.DEV_TOKEN
    #: What an outside analyst can determine about ``device_auth``
    #: (``None`` = the paper's "O": undetermined without firmware).
    device_auth_known: Optional[DeviceAuthMode] = None
    #: Whether a firmware image is publicly obtainable; forging *device*
    #: protocol messages requires it (Section VI-A: only 3 of 10).
    firmware_available: bool = False
    #: Whether the device channel carries user-meaningful data that a
    #: forged device can inject or read (False for the one device where
    #: status forgery worked but A1 still failed).
    status_yields_user_data: bool = True

    # -- binding creation (Figure 4) --------------------------------------
    bind_schema: BindSchema = BindSchema.ACL
    bind_sender: BindSender = BindSender.APP
    #: Cloud rejects bindings for devices that are not currently online.
    bind_requires_online_device: bool = False
    #: Philips-Hue-style check: binding requires a fresh button-press
    #: registration from the same source IP as the app's request.
    ip_match_required: bool = False
    #: Post-binding authorization: a random token returned at bind time
    #: must accompany control traffic, and the device must have received
    #: it via local delivery (Section IV-B).
    post_binding_token: bool = False
    #: A new Bind for an already-bound device replaces the old binding
    #: (the Type-3 "revocation by replacement" of Section IV-C).
    rebind_replaces_existing: bool = False

    # -- binding revocation (Section IV-C) ---------------------------------
    unbind_supported: bool = True
    #: Type-1 unbind verifies the requester is the bound user.
    unbind_checks_bound_user: bool = True
    #: A Type-2 ``Unbind: DevId`` endpoint exists (no user credential).
    unbind_accepts_bare_dev_id: bool = False

    #: Countermeasure to attack stealthiness: notify the affected user
    #: whenever their binding is created, revoked or replaced, and when
    #: their device times out.  No studied vendor does this.
    notifies_user: bool = False

    #: Countermeasure to ID enumeration (Section V-C): lock an account
    #: out of the bind endpoint after this many unknown-device failures
    #: (``None`` = unlimited, the behaviour of every studied vendor).
    bind_probe_rate_limit: Optional[int] = None

    # -- connection management ----------------------------------------------
    #: A newly authenticated device connection evicts the previous one
    #: (the behaviour A3-4 exploits).
    single_connection_per_device: bool = False

    # -- identifiers ---------------------------------------------------------
    id_scheme: str = "mac-address"
    id_oui: str = "a4:77:33"
    id_serial_digits: int = 7
    #: Vendor prints the device ID on the device/package label.
    id_label_on_device: bool = False

    # -- timing ----------------------------------------------------------------
    heartbeat_interval: float = 5.0
    offline_timeout: float = 16.0
    #: Button-press / binding freshness window (device #7 uses 30 s).
    bind_window_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0 or self.offline_timeout <= 0:
            raise ConfigurationError("timing knobs must be positive")
        if self.offline_timeout <= self.heartbeat_interval:
            raise ConfigurationError(
                "offline timeout must exceed the heartbeat interval"
            )
        if not self.unbind_supported and not self.rebind_replaces_existing:
            raise ConfigurationError(
                f"{self.name}: without unbinding, rebind must replace "
                "(otherwise bindings are permanent)"
            )
        if self.bind_schema is BindSchema.CAPABILITY and self.bind_sender is not BindSender.DEVICE:
            raise ConfigurationError(
                "capability binding is confirmed by the device (Figure 4c)"
            )

    # -- derived facts used by the analysis layer -----------------------------

    @property
    def unbind_signature(self) -> str:
        """The Unbind column of Table III."""
        if not self.unbind_supported:
            return "N.A."
        parts = ["(DevId,UserToken)"]
        if self.unbind_accepts_bare_dev_id:
            parts.append("DevId")
        return " & ".join(parts)
