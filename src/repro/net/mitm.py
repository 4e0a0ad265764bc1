"""Man-in-the-middle proxy for one's *own* app traffic.

The paper's methodology (Section VI-A): install a MITM proxy with a
trusted CA on the analyst's phone to capture and analyse the companion
app's HTTPS requests, then replay modified requests (Postman) or rewrite
them in flight (Frida).  :class:`MitmProxy` reproduces the capture +
rewrite roles; replay is a plain ``network.request`` from the attacker's
own node.  A proxy only ever sees traffic of the node it is installed
on — it does not break the TLS of third parties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.messages import Message
from repro.net.packet import Packet

RewriteRule = Callable[[Message], Optional[Message]]


@dataclass
class MitmProxy:
    """Capture and optionally rewrite a node's outgoing requests."""

    name: str = "mitm-proxy"
    log: List[Packet] = field(default_factory=list)
    _rules: List[RewriteRule] = field(default_factory=list)

    def add_rewrite(self, rule: RewriteRule) -> None:
        """Install a Frida-style rewrite: return a new message or ``None``
        to pass the original through unchanged."""
        self._rules.append(rule)

    def process(self, packet: Packet) -> Packet:
        """Apply rewrites, then record the (possibly rewritten) packet."""
        message = packet.message
        for rule in self._rules:
            replacement = rule(message)
            if replacement is not None:
                message = replacement
        packet.message = message
        self.log.append(packet)
        return packet

    # -- analysis helpers --------------------------------------------------

    def messages(self) -> List[Message]:
        return [packet.message for packet in self.log]

    def find(self, message_type: type) -> List[Message]:
        """All captured messages of a given type (e.g. ``BindMessage``)."""
        return [m for m in self.messages() if isinstance(m, message_type)]

    def last(self, message_type: type) -> Optional[Message]:
        hits = self.find(message_type)
        return hits[-1] if hits else None
