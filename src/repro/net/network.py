"""The simulated internet: nodes, LAN boundaries, NAT, taps and proxies.

Topology model (matching the paper's Figure 1 world):

* *Internet nodes* (the cloud, a phone on cellular data) have a public
  IP and are reachable from everywhere.
* *LAN nodes* (devices, phones on Wi-Fi) sit behind a router.  They can
  reach the internet via NAT — the receiver observes the router's public
  IP — and each other locally, but nothing outside can reach them.
  Cross-LAN traffic is blocked: this is the WPA2/firewall boundary of
  the adversary model.

Requests are synchronous (HTTP-style): ``request`` delivers the packet
to the destination's handler and returns its response.  Cloud->device
pushes ride on the device's persistent connection at the application
layer (the device polls), never on network-layer reachability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol

from repro.core.errors import (
    FirewallBlocked,
    NetworkError,
    ProtocolError,
    RequestRejected,
)
from repro.core.messages import Message
from repro.net.address import IpAddress
from repro.net.lan import Lan
from repro.net.packet import Exchange, Packet
from repro.obs.trace import TraceContext
from repro.sim.environment import Environment

Handler = Callable[[Packet], Message]
Tap = Callable[[Exchange], None]


class FaultFilter(Protocol):
    """The fault-injection seam: consulted around every delivery.

    Implementations (``repro.chaos.injector.FaultInjector`` is the real
    one) may raise :class:`~repro.core.errors.NetworkError` (or a
    subclass such as :class:`~repro.core.errors.RequestTimeout`) from
    :meth:`on_request` to veto a delivery, report at-least-once
    duplication via :meth:`should_duplicate`, and reorder broadcast
    fan-out via :meth:`deliver_order`.
    """

    def on_request(
        self, src: str, dst: str, now: float, timeout: Optional[float] = None
    ) -> None:  # pragma: no cover - protocol
        """Veto or delay one request; raise NetworkError to drop it."""
        ...

    def should_duplicate(
        self, src: str, dst: str, now: float
    ) -> bool:  # pragma: no cover - protocol
        """Whether a successfully delivered request is delivered again."""
        ...

    def deliver_order(
        self, src: str, members: List[str], now: float
    ) -> List[str]:  # pragma: no cover - protocol
        """The order in which a broadcast reaches *members*."""
        ...


class PacketProxy(Protocol):
    """A man-in-the-middle hook on one node's *own* outgoing traffic."""

    name: str

    def process(self, packet: Packet) -> Packet:  # pragma: no cover - protocol
        """Observe and optionally rewrite the outgoing packet."""
        ...


@dataclass
class _Node:
    name: str
    handler: Optional[Handler]
    wan_ip: Optional[IpAddress] = None
    lan_id: Optional[str] = None


class Network:
    """Registry of nodes and LANs plus the delivery rules between them."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._nodes: Dict[str, _Node] = {}
        self._lans: Dict[str, Lan] = {}
        #: ssid -> the first LAN created with it (LANs are never removed
        #: or renamed), so a Wi-Fi scan is one lookup, not a fleet walk
        self._lan_by_ssid: Dict[str, str] = {}
        self._taps: List[Tap] = []
        self._proxies: Dict[str, PacketProxy] = {}
        #: named fault filters, consulted in installation order around
        #: every delivery (the chaos seam; see ``docs/chaos.md``)
        self._fault_filters: Dict[str, FaultFilter] = {}
        # Trace minting state.  Plain monotonic counters — NEVER the
        # seeded simulation RNG — so tracing cannot perturb the world it
        # observes.  The stack tracks the context whose handler is
        # currently running: a request issued from inside a handler (a
        # device calling the cloud while servicing an app's configure,
        # Figure 4b) becomes a *child* span in the inbound chain.
        self._trace_seq = 0
        self._span_seq = 0
        self._trace_stack: List[TraceContext] = []

    # -- topology ----------------------------------------------------------

    def add_internet_node(self, name: str, handler: Optional[Handler], public_ip: str) -> None:
        """Attach a node directly to the internet (e.g. the cloud)."""
        self._ensure_new(name)
        self._nodes[name] = _Node(name, handler, wan_ip=IpAddress(public_ip))

    def add_node(self, name: str, handler: Optional[Handler] = None,
                 wan_ip: Optional[str] = None) -> None:
        """Register a node; *wan_ip* gives it cellular-style uplink.

        A node with neither a WAN IP nor a LAN lease has no
        connectivity (a factory-fresh device).  A phone typically has a
        WAN IP (cellular) and joins LANs as it moves; when on a LAN its
        internet traffic egresses via the router (Wi-Fi preferred).
        """
        self._ensure_new(name)
        self._nodes[name] = _Node(
            name, handler, wan_ip=IpAddress(wan_ip) if wan_ip else None
        )

    def create_lan(
        self,
        lan_id: str,
        ssid: str,
        passphrase: str,
        public_ip: str,
        subnet_prefix: str = "192.168.1",
    ) -> Lan:
        """Create a WPA2 LAN whose router NATs to *public_ip*."""
        if lan_id in self._lans:
            raise ProtocolError(f"LAN {lan_id!r} already exists")
        lan = Lan(lan_id, ssid, passphrase, IpAddress(public_ip), subnet_prefix)
        self._lans[lan_id] = lan
        self._lan_by_ssid.setdefault(ssid, lan_id)
        return lan

    def join_lan(self, node: str, lan_id: str, passphrase: str) -> None:
        """Associate *node* with a LAN (WPA2-checked, DHCP-leased)."""
        entry = self._require(node)
        lan = self._require_lan(lan_id)
        lan.join(node, passphrase)
        entry.lan_id = lan_id

    def leave_lan(self, node: str) -> None:
        """Disassociate *node* from its LAN, if any."""
        entry = self._require(node)
        if entry.lan_id is not None:
            self._lans[entry.lan_id].leave(node)
            entry.lan_id = None

    def set_handler(self, node: str, handler: Optional[Handler]) -> None:
        self._require(node).handler = handler

    def has_node(self, name: str) -> bool:
        """Whether *name* is a registered node."""
        return name in self._nodes

    def remove_node(self, name: str) -> None:
        """Detach a node from the network (e.g. a cloud being restarted).

        The node leaves its LAN first so the LAN's member set stays
        consistent; a name that was never registered is a no-op.
        """
        entry = self._nodes.pop(name, None)
        if entry is None:
            return
        if entry.lan_id is not None:
            self._lans[entry.lan_id].leave(name)
        self._proxies.pop(name, None)

    def lan(self, lan_id: str) -> Lan:
        return self._require_lan(lan_id)

    def find_lan_by_ssid(self, ssid: str) -> Optional[str]:
        """The LAN id broadcasting *ssid*, if any (Wi-Fi scan).

        When several LANs share an SSID, the first one created wins.
        """
        return self._lan_by_ssid.get(ssid)

    # -- observation hooks ---------------------------------------------------

    def add_tap(self, tap: Tap) -> None:
        """Register a passive observer of every exchange."""
        self._taps.append(tap)

    def set_proxy(self, node: str, proxy: Optional[PacketProxy]) -> None:
        """Route *node*'s own outgoing requests through a MITM proxy.

        This models the paper's methodology: the analyst configures a
        proxy (with a trusted CA) on *their own* phone to observe and
        rewrite the companion app's traffic.  A proxy never grants
        access to other nodes' traffic.
        """
        self._require(node)
        if proxy is None:
            self._proxies.pop(node, None)
        else:
            self._proxies[node] = proxy

    # -- failure injection --------------------------------------------------

    def add_fault_filter(self, name: str, filt: FaultFilter) -> None:
        """Install (or replace) a named :class:`FaultFilter`.

        Filters run in installation order on every request; replacing a
        name keeps its position so determinism is preserved across
        reconfiguration.
        """
        self._fault_filters[name] = filt

    def fault_filter(self, name: str) -> Optional[FaultFilter]:
        """The installed filter registered under *name*, if any."""
        return self._fault_filters.get(name)

    # -- delivery ------------------------------------------------------------

    def request(
        self,
        src: str,
        dst: str,
        message: Message,
        encrypted: bool = True,
        timeout: Optional[float] = None,
    ) -> Message:
        """Send *message* from *src* to *dst*; return the handler's response.

        Raises :class:`FirewallBlocked` / :class:`NetworkError` for
        unreachable destinations and re-raises any
        :class:`RequestRejected` the destination handler raised.
        *timeout* (virtual seconds) is offered to the fault filters: a
        filter whose modelled latency exceeds it raises
        :class:`~repro.core.errors.RequestTimeout`.
        """
        now = self.env.now
        # Hot path: skip building dict views / Exchange records entirely
        # when no fault filters or taps are installed (the common case in
        # large sharded campaigns).
        filters = self._fault_filters
        tapped = bool(self._taps)
        if filters:
            for filt in filters.values():
                filt.on_request(src, dst, now, timeout=timeout)
        trace = self._next_trace(src)
        packet = self._build_packet(src, dst, message, encrypted)
        packet.trace = trace
        proxy = self._proxies.get(src)
        if proxy is not None:
            packet = proxy.process(packet)
            packet.via_proxy = proxy.name
        destination = self._require(packet.dst)
        if destination.handler is None:
            raise NetworkError(f"node {packet.dst!r} does not accept requests")
        self._trace_stack.append(trace)
        try:
            response = destination.handler(packet)
        except RequestRejected as exc:
            if tapped:
                self._record(Exchange(packet, _rejection(exc), error_code=exc.code))
            raise
        finally:
            self._trace_stack.pop()
        if tapped:
            self._record(Exchange(packet, response))
        for filt in filters.values() if filters else ():
            if filt.should_duplicate(src, dst, now):
                # At-least-once delivery: the same request arrives again;
                # the duplicate's response is recorded but discarded (the
                # caller already has the first answer).  The duplicate
                # carries the SAME trace context — a retry of one cause,
                # not a new cause.
                dup_packet = self._build_packet(src, dst, message, encrypted)
                dup_packet.trace = trace
                if proxy is not None:
                    dup_packet = proxy.process(dup_packet)
                    dup_packet.via_proxy = proxy.name
                self._trace_stack.append(trace)
                try:
                    dup_response = destination.handler(dup_packet)
                except RequestRejected as exc:
                    self._record(
                        Exchange(dup_packet, _rejection(exc), error_code=exc.code)
                    )
                else:
                    self._record(Exchange(dup_packet, dup_response))
                finally:
                    self._trace_stack.pop()
                break
        return response

    def broadcast(self, src: str, message: Message, encrypted: bool = False) -> List[Exchange]:
        """Deliver *message* to every other handler on *src*'s LAN (SSDP-style)."""
        entry = self._require(src)
        if entry.lan_id is None:
            raise NetworkError(f"{src!r} is not on a LAN; cannot broadcast")
        lan = self._lans[entry.lan_id]
        exchanges: List[Exchange] = []
        members = sorted(lan.members())
        for filt in self._fault_filters.values():
            members = filt.deliver_order(src, members, self.env.now)
        # One trace for the whole broadcast; each member delivery is a
        # child hop so discovery fan-out renders as one causal tree.
        broadcast_trace = self._next_trace(src)
        for member in members:
            target = self._nodes.get(member)
            if member == src or target is None or target.handler is None:
                continue
            packet = self._build_packet(src, member, message, encrypted)
            packet.trace = broadcast_trace.child(self._next_span_id())
            self._trace_stack.append(packet.trace)
            try:
                response = target.handler(packet)
                exchange = Exchange(packet, response)
            except RequestRejected as exc:
                exchange = Exchange(packet, _rejection(exc), error_code=exc.code)
            finally:
                self._trace_stack.pop()
            self._record(exchange)
            exchanges.append(exchange)
        return exchanges

    # -- trace-minting state (warm-start restore) -----------------------------

    def trace_state(self) -> Dict[str, int]:
        """The monotonic trace/span counters, for world capture.

        Trace ids land in audit entries and forensic events, so a
        restored world must mint its next id exactly where the captured
        world left off or every post-restore trace id diverges.
        """
        return {"trace_seq": self._trace_seq, "span_seq": self._span_seq}

    def restore_trace_state(self, state: Dict[str, int]) -> None:
        """Resume trace minting from a captured :meth:`trace_state`."""
        self._trace_seq = int(state.get("trace_seq", 0))
        self._span_seq = int(state.get("span_seq", 0))

    # -- internals -------------------------------------------------------------

    def _next_span_id(self) -> str:
        """Mint the next span id from the plain per-network counter."""
        self._span_seq += 1
        return f"s{self._span_seq:06d}"

    def _next_trace(self, src: str) -> TraceContext:
        """The trace context for a request originating at *src* now.

        A fresh root chain when no handler is running; a child of the
        in-flight request's context otherwise (nested call).
        """
        if self._trace_stack:
            return self._trace_stack[-1].child(self._next_span_id())
        self._trace_seq += 1
        return TraceContext(
            trace_id=f"T{self._trace_seq:06d}",
            span_id=self._next_span_id(),
            parent_id=None,
            origin=src,
        )

    def _build_packet(self, src: str, dst: str, message: Message, encrypted: bool) -> Packet:
        source = self._require(src)
        destination = self._require(dst)
        observed_ip = self._observed_ip(source, destination)
        return Packet(src, dst, observed_ip, message, encrypted, self.env.now)

    def _observed_ip(self, source: _Node, destination: _Node) -> IpAddress:
        src_lan = self._lans.get(source.lan_id) if source.lan_id else None
        dst_on_same_lan = (
            destination.lan_id is not None and destination.lan_id == source.lan_id
        )
        if dst_on_same_lan:
            lease = src_lan.lease_of(source.name) if src_lan else None
            if lease is None:  # pragma: no cover - defensive
                raise NetworkError(f"{source.name!r} lost its DHCP lease")
            return lease.ip
        if destination.lan_id is not None:
            # Destination is behind someone else's NAT: unreachable.
            raise FirewallBlocked(
                f"{source.name!r} cannot reach {destination.name!r} behind "
                f"LAN {destination.lan_id!r} (WPA2/NAT boundary)"
            )
        if destination.wan_ip is None:
            # Neither on a LAN nor on the internet: a factory-fresh node.
            raise FirewallBlocked(
                f"{destination.name!r} has no network presence to reach"
            )
        # Destination on the internet.
        if src_lan is not None:
            return src_lan.router.public_ip
        if source.wan_ip is not None:
            return source.wan_ip
        raise NetworkError(f"{source.name!r} has no connectivity")

    def _record(self, exchange: Exchange) -> None:
        for tap in self._taps:
            tap(exchange)

    def _ensure_new(self, name: str) -> None:
        if name in self._nodes:
            raise ProtocolError(f"node {name!r} already registered")

    def _require(self, name: str) -> _Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def _require_lan(self, lan_id: str) -> Lan:
        try:
            return self._lans[lan_id]
        except KeyError:
            raise NetworkError(f"unknown LAN {lan_id!r}") from None


def _rejection(exc: RequestRejected) -> Message:
    from repro.core.messages import Response

    return Response(ok=False, payload={"error": exc.code, "detail": exc.detail})
