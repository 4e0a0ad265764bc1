"""Causal trace contexts: correlation ids carried by every packet.

The PR 1 tracer records spans *per process*; nothing ties the app's
request, the device's resulting cloud call, and the cloud's audit entry
into one causal chain.  :class:`TraceContext` is the missing
correlation record: the network mints a context for every request at
the originating node (app, device, attacker), nested requests issued
while a handler is running become *children* of the inbound context,
and at-least-once duplicates reuse the original context verbatim — so
a delivery retry is visibly the *same* cause, not a new one.

Ids are drawn from plain per-network counters, never from the seeded
simulation RNG: tracing must not perturb the world it observes (two
same-seed runs, with or without any detection consumer attached, build
bit-identical worlds and mint bit-identical trace ids).
"""

from __future__ import annotations

from typing import Optional


class TraceContext:
    """One request's position in a cross-node causal chain.

    ``trace_id`` names the whole chain (shared by every causally related
    request); ``span_id`` names this hop; ``parent_id`` is the span id
    of the request whose handler issued this one (``None`` at the
    origin); ``origin`` is the node name where the chain started — for
    forged traffic, that is the attacker's own host, whatever identity
    the message layer claims.

    A ``__slots__`` value record (one is minted per simulated request,
    so construction is on the kernel hot path); treat instances as
    immutable — equality and hashing read all four fields.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "origin")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str] = None,
        origin: str = "",
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.origin = origin

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceContext):
            return NotImplemented
        return (
            self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.parent_id == other.parent_id
            and self.origin == other.origin
        )

    @property
    def is_root(self) -> bool:
        """Whether this context started its chain (no parent hop)."""
        return self.parent_id is None

    def child(self, span_id: str) -> "TraceContext":
        """A new hop in the same chain, parented to this one."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=span_id,
            parent_id=self.span_id,
            origin=self.origin,
        )

