"""Wire messages exchanged between the device, the app, and the cloud.

The paper reduces remote binding to three primitive messages —
``Status``, ``Bind`` and ``Unbind`` (Table I) — plus non-binding traffic
(login, control, data) that does not change shadow states.  This module
defines *all* of them as immutable dataclasses.  Attack code forges
instances of these very classes and injects them through the simulated
network, exactly as the paper forged HTTP requests with Postman/Frida.

Design notes:

* Messages are plain values.  Authentication and authorization decisions
  belong to the cloud's policy layer, never to the message itself.
* Every message that a vendor design can legitimately produce can also
  be produced by an attacker with the right knowledge; there is no
  back-channel "is_forged" flag.  Whether an attack works must fall out
  of the cloud-side checks alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Any, Mapping, Optional

from repro.core.notation import MessageKind


@unique
class Origin(Enum):
    """Which party a message claims to originate from.

    The claim is part of the wire format (e.g. a device endpoint vs. an
    app endpoint); it is *not* authenticated by itself.
    """

    DEVICE = "device"
    APP = "app"


@dataclass(frozen=True)
class Message:
    """Base class for every wire message."""

    @property
    def kind(self) -> Optional[MessageKind]:
        """The binding primitive this message corresponds to, if any."""
        return None


# ---------------------------------------------------------------------------
# Account traffic (not a binding primitive)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoginRequest(Message):
    """User password login: ``(UserId, UserPw)`` -> ``UserToken``."""

    user_id: str
    user_pw: str


@dataclass(frozen=True)
class LoginResponse(Message):
    """Successful login; carries the session ``UserToken``."""

    user_id: str
    user_token: str


@dataclass(frozen=True)
class DevTokenRequest(Message):
    """Type-1 auth (Figure 3a): the app asks the cloud for a ``DevToken``.

    The token is then delivered to the device over the *local* network
    during configuration, and the device uses it in its status messages.
    """

    user_token: str
    device_id: str


@dataclass(frozen=True)
class BindTokenRequest(Message):
    """Capability design (Figure 4c): the app asks for a ``BindToken``.

    The token is handed to the device locally; the device submits it back
    to the cloud to confirm the binding, proving local co-presence.
    """

    user_token: str


@dataclass(frozen=True)
class TokenResponse(Message):
    """Carries a freshly issued token (``DevToken`` or ``BindToken``)."""

    token: str


# ---------------------------------------------------------------------------
# The three binding primitives (Table I)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatusMessage(Message):
    """``Status``: registration or heartbeat, sent by the device.

    Authentication material depends on the vendor design: ``dev_token``
    designs put the token in the (encrypted) message; ``dev_id`` designs
    send the static identifier; public-key designs sign the body.
    """

    device_id: Optional[str] = None
    dev_token: Optional[str] = None
    signature: Optional[str] = None
    model: str = ""
    firmware_version: str = ""
    telemetry: Mapping[str, Any] = field(default_factory=dict)
    is_registration: bool = False

    @property
    def kind(self) -> MessageKind:
        return MessageKind.STATUS


@dataclass(frozen=True)
class BindMessage(Message):
    """``Bind``: creates a user<->device binding in the cloud.

    Exactly one of the paper's three shapes is populated:

    * ACL, app-initiated (Figure 4a): ``device_id`` + ``user_token``
    * ACL, device-initiated (Figure 4b): ``device_id`` + ``user_id`` +
      ``user_pw`` (the user credential was delivered to the device during
      local configuration — the practice Section VII warns against)
    * capability-based (Figure 4c): ``bind_token``
    """

    device_id: Optional[str] = None
    user_token: Optional[str] = None
    user_id: Optional[str] = None
    user_pw: Optional[str] = None
    bind_token: Optional[str] = None
    origin: Origin = Origin.APP

    @property
    def kind(self) -> MessageKind:
        return MessageKind.BIND


@dataclass(frozen=True)
class UnbindMessage(Message):
    """``Unbind``: revokes a binding.

    Type 1 carries ``(DevId, UserToken)``; Type 2 carries only ``DevId``
    (sent by the device during reset).  Type 3 — replacing the binding via
    a new ``Bind`` — is a policy behaviour, not a distinct message.
    """

    device_id: str = ""
    user_token: Optional[str] = None
    origin: Origin = Origin.APP

    @property
    def kind(self) -> MessageKind:
        return MessageKind.UNBIND


# ---------------------------------------------------------------------------
# Post-binding traffic (does not change shadow states)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlMessage(Message):
    """User -> cloud -> device command (e.g. turn a plug on)."""

    user_token: str
    device_id: str
    command: str
    arguments: Mapping[str, Any] = field(default_factory=dict)
    post_binding_token: Optional[str] = None


@dataclass(frozen=True)
class ScheduleUpdate(Message):
    """User -> cloud: store a schedule (the paper's smart-lock example)."""

    user_token: str
    device_id: str
    schedule: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class DeviceFetch(Message):
    """Device -> cloud: poll for pending commands / schedules.

    This is the channel the paper's A1 *stealing* attack exploits on
    device #10: a forged device fetch returns the user's private schedule.
    Authentication material mirrors :class:`StatusMessage`.
    """

    device_id: Optional[str] = None
    dev_token: Optional[str] = None
    signature: Optional[str] = None
    post_binding_token: Optional[str] = None


@dataclass(frozen=True)
class QueryRequest(Message):
    """User -> cloud: read device state / telemetry / schedule."""

    user_token: str
    device_id: str
    what: str = "telemetry"


@dataclass(frozen=True)
class EventPollRequest(Message):
    """User -> cloud: fetch new notifications from my event feed."""

    user_token: str


@dataclass(frozen=True)
class BindingInfoRequest(Message):
    """User -> cloud: read my own binding's metadata.

    In device-initiated designs the post-binding token is returned to
    the *device*; the bound user's app fetches its copy here ("a random
    token will be returned to both the user and the device",
    Section IV-B).
    """

    user_token: str
    device_id: str


@dataclass(frozen=True)
class ShareRequest(Message):
    """Owner -> cloud: grant another account access to a device
    (many-to-one binding, Section III-B)."""

    user_token: str
    device_id: str
    grantee: str


@dataclass(frozen=True)
class ShareRevoke(Message):
    """Owner -> cloud: withdraw a previously granted share."""

    user_token: str
    device_id: str
    grantee: str


@dataclass(frozen=True)
class Response(Message):
    """Generic success response with an optional payload."""

    ok: bool = True
    payload: Mapping[str, Any] = field(default_factory=dict)


def describe(message: Message) -> str:
    """One-line, paper-style rendering of a message, e.g. ``Bind:(DevId,UserToken)``.

    Used by traces (Figure 1/3/4 benches) and the audit log.
    """
    if isinstance(message, StatusMessage):
        if message.dev_token is not None:
            return "Status:DevToken"
        if message.signature is not None:
            return "Status:Signed"
        return "Status:DevId"
    if isinstance(message, BindMessage):
        if message.bind_token is not None:
            return "Bind:BindToken"
        if message.user_pw is not None:
            return "Bind:(DevId,UserId,UserPw)"
        return "Bind:(DevId,UserToken)"
    if isinstance(message, UnbindMessage):
        if message.user_token is None:
            return "Unbind:DevId"
        return "Unbind:(DevId,UserToken)"
    if isinstance(message, LoginRequest):
        return "Login:(UserId,UserPw)"
    if isinstance(message, ControlMessage):
        return f"Control:{message.command}"
    if isinstance(message, ScheduleUpdate):
        return "ScheduleUpdate"
    if isinstance(message, DeviceFetch):
        return "DeviceFetch"
    if isinstance(message, QueryRequest):
        return f"Query:{message.what}"
    if isinstance(message, BindingInfoRequest):
        return "BindingInfo"
    if isinstance(message, EventPollRequest):
        return "EventPoll"
    if isinstance(message, ShareRequest):
        return "Share:grant"
    if isinstance(message, ShareRevoke):
        return "Share:revoke"
    return type(message).__name__
