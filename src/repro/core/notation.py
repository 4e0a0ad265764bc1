"""Table I of the paper: the notation used throughout the model.

The paper compresses every remote-binding design into a small vocabulary
of message types and identifier kinds (its Table I).  This module is the
single source of truth for that vocabulary; the analysis layer renders
the table from here (``repro table1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Tuple


@unique
class MessageKind(Enum):
    """The three primitive message types that drive shadow transitions.

    Control/data traffic exists in the simulation but — exactly as in the
    paper — does not participate in binding state transitions.
    """

    STATUS = "Status"
    BIND = "Bind"
    UNBIND = "Unbind"


@unique
class CredentialKind(Enum):
    """Identifier/credential kinds from Table I."""

    DEV_ID = "DevId"
    DEV_TOKEN = "DevToken"
    BIND_TOKEN = "BindToken"
    USER_TOKEN = "UserToken"
    USER_ID = "UserId"
    USER_PW = "UserPw"


@dataclass(frozen=True)
class NotationEntry:
    """One row of Table I."""

    symbol: str
    description: str


#: The rows of Table I, in the paper's order.
TABLE_I: Tuple[NotationEntry, ...] = (
    NotationEntry("Status", "Messages to report device status (sent by the device)"),
    NotationEntry("Bind", "Messages to create bindings in the cloud"),
    NotationEntry("Unbind", "Messages to revoke bindings in the cloud"),
    NotationEntry("DevId", "A piece of definite data for device authentication"),
    NotationEntry("DevToken", "A piece of random data for device authentication"),
    NotationEntry("BindToken", "A piece of random data for the authorization in binding creation"),
    NotationEntry("UserToken", "A piece of random data for user authentication"),
    NotationEntry("UserId", "Identifier (e.g. email address) of user account"),
    NotationEntry("UserPw", "Password of user account"),
)


def render_table_i() -> str:
    """Render Table I as a fixed-width text table (one row per entry)."""
    width = max(len(entry.symbol) for entry in TABLE_I)
    lines = ["TABLE I: Notations"]
    for entry in TABLE_I:
        lines.append(f"  {entry.symbol:<{width}}  {entry.description}")
    return "\n".join(lines)
