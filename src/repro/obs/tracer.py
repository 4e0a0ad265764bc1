"""Hierarchical spans over the virtual clock.

A :class:`Span` is one timed piece of work — a scenario, a phase inside
it, or a single message exchange — positioned on the *simulation*
timeline (``start``/``end`` are virtual seconds) and annotated with the
*wall-clock* nanoseconds spent computing it (``wall_ns``), so one tree
answers both "what happened when in the modelled world" and "where did
the CPU go".

The :class:`Tracer` keeps an explicit open-span stack; spans opened
while another is open become its children, giving the
scenario → phase → exchange hierarchy the run report renders.  Virtual
timestamps are deterministic, so two runs with the same seed produce
identical trees (the determinism test keys on :meth:`Span.signature`,
which excludes wall-clock noise).
"""

from __future__ import annotations

import time as _time
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.core.errors import ConfigurationError

#: Span kinds, outermost to innermost.
SPAN_KINDS = ("scenario", "phase", "exchange")

#: The types a span attribute value may have: exact JSON scalars.
_SCALARS = (str, int, float, bool, type(None))


class Span:
    """One node of the trace tree.

    A ``__slots__`` record.  Spans opened with :meth:`Tracer.span` keep
    their children in a list; leaves share the empty tuple.  An
    exchange leaf is not stored as a span but as two consecutive items
    of its parent's list: its audit row (the tuple the cloud's log
    keeps anyway) and its rule trace (a string), neither of which the
    cyclic collector tracks.  :attr:`children`, :meth:`walk`,
    :meth:`signature` and :meth:`to_dict` build its
    :class:`ExchangeLeaf` view when read.
    """

    __slots__ = ("name", "kind", "start", "end", "outcome", "attrs", "_children", "wall_ns")

    def __init__(
        self,
        name: str,
        kind: str = "phase",
        start: float = 0.0,
        end: Optional[float] = None,
        outcome: str = "ok",
        attrs: Optional[Dict[str, Any]] = None,
        children: Optional[Sequence["Span"]] = None,
        wall_ns: int = 0,
    ) -> None:
        self.name = name
        self.kind = kind
        self.start = start                  # virtual seconds
        self.end = end                      # virtual seconds; None while open
        self.outcome = outcome
        self.attrs: Dict[str, Any] = {} if attrs is None else attrs
        self._children: Sequence[Any] = [] if children is None else children
        self.wall_ns = wall_ns              # wall-clock cost of the span body

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span(name={self.name!r}, kind={self.kind!r}, start={self.start!r}, "
            f"end={self.end!r}, outcome={self.outcome!r}, attrs={self.attrs!r}, "
            f"children={len(self._children)})"
        )

    @property
    def children(self) -> List["Span"]:
        """The child spans in order (exchange leaves as views)."""
        return list(_spans(self._children))

    @property
    def duration(self) -> float:
        """Virtual duration in seconds (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def walk(self):
        """Yield this span and every descendant, depth first."""
        yield self
        for child in _spans(self._children):
            yield from child.walk()

    def signature(self) -> tuple:
        """Deterministic shape of the subtree: names, kinds, virtual times.

        Excludes ``wall_ns`` (wall-clock noise) so that two runs with the
        same seed produce equal signatures.
        """
        return (
            self.name,
            self.kind,
            round(self.start, 9),
            None if self.end is None else round(self.end, 9),
            self.outcome,
            tuple(sorted((k, str(v)) for k, v in self.attrs.items())),
            tuple(child.signature() for child in _spans(self._children)),
        )

    def to_dict(self, include_wall: bool = True) -> Dict[str, Any]:
        """JSON-ready rendering of the subtree."""
        data = self.node_dict(include_wall)
        if self._children:
            data["children"] = [
                child.to_dict(include_wall) for child in _spans(self._children)
            ]
        return data

    def node_dict(self, include_wall: bool = True) -> Dict[str, Any]:
        """JSON-ready rendering of this span alone, without ``children``."""
        data: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "outcome": self.outcome,
        }
        if self.attrs:
            data["attrs"] = dict(self.attrs)
        if include_wall:
            data["wall_ns"] = self.wall_ns
        return data


class ExchangeLeaf(Span):
    """The read-side view of one stored exchange leaf: a zero-duration span.

    Named after the audit row's summary and timed at the row's virtual
    time, with ``attrs`` built from the row: ``source`` and ``outcome``,
    plus the causal ``trace`` id the packet brought in (so per-process
    span trees can be joined into end-to-end chains) and the
    decision's ``authz`` rule trace (which explains the outcome code),
    when set.
    """

    __slots__ = ("row", "authz")

    def __init__(self, row: tuple, authz: str) -> None:
        self.row = row
        self.authz = authz
        self.name = row[3]
        self.kind = "exchange"
        self.start = self.end = row[0]
        self.outcome = "ok"
        self._children = ()
        self.wall_ns = 0

    @property
    def attrs(self) -> Dict[str, Any]:
        """``source`` and ``outcome``, plus ``trace`` and ``authz`` if set."""
        row = self.row
        attrs = {"source": row[1], "outcome": row[4]}
        if row[6]:
            attrs["trace"] = row[6]
        if self.authz:
            attrs["authz"] = self.authz
        return attrs


def _spans(stored: Sequence[Any]) -> Iterator[Span]:
    """A stored child list as spans: each (row, rule trace) pair as its leaf view."""
    items = iter(stored)
    for item in items:
        yield ExchangeLeaf(item, next(items)) if item.__class__ is tuple else item


def _encode(stored: Sequence[Any]) -> List[Any]:
    """A stored child list as plain data (see :meth:`Tracer.encode`)."""
    return [_encode_span(item) if isinstance(item, Span) else item for item in stored]


def _encode_span(span: Span) -> List[Any]:
    for key, value in span.attrs.items():
        if value.__class__ not in _SCALARS:
            raise ConfigurationError(
                f"span {span.name!r}: attribute {key!r} is a "
                f"{type(value).__name__}, not a JSON scalar"
            )
    return [
        span.name, span.kind, span.start, span.end, span.outcome, span.attrs,
        _encode(span._children), span.wall_ns,
    ]


def decode_forest(encoded: Sequence[Any]) -> List[Span]:
    """The root spans of a :meth:`Tracer.encode` forest (leaves as views)."""
    return list(_spans(_decode(encoded)))


def _decode(encoded: Sequence[Any]) -> List[Any]:
    """An encoded child list back in stored form, spans rebuilt."""
    return [
        Span(*item[:6], _decode(item[6]), item[7]) if item.__class__ is list
        else item
        for item in encoded
    ]


class _SpanContext:
    """Context manager produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span", "_t0")

    def __init__(self, tracer: "Tracer", span: Optional[Span]) -> None:
        self._tracer = tracer
        self._span = span
        self._t0 = 0

    def __enter__(self) -> Optional[Span]:
        self._t0 = _time.perf_counter_ns()
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._span is None:
            return
        self._span.wall_ns += _time.perf_counter_ns() - self._t0
        self._tracer._close(self._span, ok=exc_type is None)


class Tracer:
    """Builds the span tree; bounded so huge campaigns cannot OOM it.

    ``max_spans`` caps the total number of recorded spans; once reached,
    further spans are counted in :attr:`dropped` instead of stored (the
    open-span stack still balances, so the tree stays well formed).
    """

    def __init__(self, max_spans: int = 100_000) -> None:
        #: top-level spans and exchange leaves, stored as in a span's list
        self._roots: List[Any] = []
        self.max_spans = max_spans
        self.dropped = 0
        self._stack: List[Span] = []
        self._count = 0
        self._now = lambda: 0.0

    def set_time_source(self, now) -> None:
        """Install the virtual-clock reader used to timestamp spans."""
        self._now = now

    # -- recording ----------------------------------------------------------

    def span(self, name: str, kind: str = "phase", **attrs: Any) -> _SpanContext:
        """Open a span as a child of the currently open span."""
        if self._count >= self.max_spans:
            self.dropped += 1
            return _SpanContext(self, None)
        span = Span(name=name, kind=kind, start=self._now(), attrs=attrs)
        self._attach(span)
        self._stack.append(span)
        self._count += 1
        return _SpanContext(self, span)

    def event(self, name: str, kind: str = "exchange", **attrs: Any) -> None:
        """Record a zero-duration leaf (e.g. one message exchange)."""
        self.add_leaf(Span(name, kind, attrs=attrs, children=()))

    def add_leaf(self, span: Span) -> None:
        """Attach a built leaf under the current span, at the current time."""
        if self._count >= self.max_spans:
            self.dropped += 1
            return
        span.start = span.end = self._now()
        self._attach(span)
        self._count += 1

    def add_exchange(self, row: tuple, authz: str) -> None:
        """Attach one exchange leaf under the current span, at its row's time.

        *row* is the exchange's :data:`~repro.cloud.audit.AuditRow` and
        *authz* the rule trace of its decision (empty when none was
        made); the pair is stored as is, and read as an
        :class:`ExchangeLeaf`.
        """
        if self._count >= self.max_spans:
            self.dropped += 1
            return
        stored = self._stack[-1]._children if self._stack else self._roots
        stored.append(row)
        stored.append(authz)
        self._count += 1

    def _attach(self, span: Span) -> None:
        if self._stack:
            self._stack[-1]._children.append(span)
        else:
            self._roots.append(span)

    def _close(self, span: Span, ok: bool) -> None:
        span.end = self._now()
        if not ok:
            span.outcome = "error"
        # Close any abandoned children first, then the span itself.
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def roots(self) -> List[Span]:
        """The top-level spans in order (exchange leaves as views)."""
        return list(_spans(self._roots))

    def walk(self):
        """Yield every recorded span, depth first across all roots."""
        for root in self.roots:
            yield from root.walk()

    def encode(self) -> List[Any]:
        """The stored forest as plain data that ``marshal`` can carry.

        Each span becomes the list of its :class:`Span` constructor
        arguments, its children encoded the same way; exchange leaves
        stay the (audit row, rule trace) pairs they are stored as.
        :func:`decode_forest` reads it back.  A span attribute that is
        not an exact JSON scalar (``str``, ``int``, ``float``, ``bool``
        or ``None``) raises :class:`~repro.core.errors.ConfigurationError`
        naming the span and the key.
        """
        return _encode(self._roots)

    def signature(self) -> tuple:
        """Deterministic shape of the whole forest (excludes wall clock)."""
        return tuple(root.signature() for root in self.roots)

    def render(self, max_exchanges_per_span: int = 12) -> str:
        """Indented text rendering of the span forest.

        Long runs of sibling *exchange* leaves are elided past
        ``max_exchanges_per_span`` so a 100-household campaign report
        stays readable.
        """
        lines: List[str] = []

        def emit(span: Span, depth: int) -> None:
            pad = "  " * depth
            end = f"{span.end:9.3f}" if span.end is not None else "     open"
            wall = f" wall={span.wall_ns / 1e6:.2f}ms" if span.wall_ns else ""
            mark = "" if span.outcome == "ok" else f" [{span.outcome}]"
            attrs = ""
            if span.attrs:
                attrs = " " + ",".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
            lines.append(
                f"{pad}{span.kind:<9} {span.name:<32} "
                f"t=[{span.start:9.3f} ..{end}]{wall}{mark}{attrs}"
            )
            shown = 0
            elided = 0
            for child in _spans(span._children):
                if child.kind == "exchange" and not child._children:
                    shown += 1
                    if shown > max_exchanges_per_span:
                        elided += 1
                        continue
                emit(child, depth + 1)
            if elided:
                lines.append(f"{'  ' * (depth + 1)}... {elided} more exchanges elided")

        for root in self.roots:
            emit(root, 0)
        if self.dropped:
            lines.append(f"(span cap reached: {self.dropped} spans dropped)")
        return "\n".join(lines)
