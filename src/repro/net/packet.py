"""Packets: the unit of traffic on the simulated network."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.messages import Message
from repro.net.address import IpAddress
from repro.obs.trace import TraceContext


class Packet:
    """One request travelling from *src* to *dst*.

    ``observed_src_ip`` is the source IP as seen by the receiver — after
    NAT, this is the LAN's router public IP.  Device #7's binding check
    compares exactly this field between the app's and the device's
    requests (Section VI-B).

    ``trace`` is the causal trace context minted by the network at the
    *originating* node of the request chain; nested requests carry child
    contexts sharing the same ``trace_id`` (see ``repro.obs.trace``).

    A ``__slots__`` record rather than a dataclass: one is allocated per
    simulated request, so construction cost is on the kernel hot path.
    """

    __slots__ = (
        "src",
        "dst",
        "observed_src_ip",
        "message",
        "encrypted",
        "time",
        "via_proxy",
        "trace",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        observed_src_ip: IpAddress,
        message: Message,
        encrypted: bool = True,
        time: float = 0.0,
        via_proxy: Optional[str] = None,
        trace: Optional[TraceContext] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.observed_src_ip = observed_src_ip
        self.message = message
        self.encrypted = encrypted
        self.time = time
        self.via_proxy = via_proxy
        self.trace = trace


@dataclass
class Exchange:
    """A request packet together with the response it produced."""

    request: Packet
    response: Message
    error_code: Optional[str] = None
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error_code is None
