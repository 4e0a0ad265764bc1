"""Exporters: one observability run → JSON snapshot or text report.

Two formats, both self-contained:

* :func:`snapshot` / :func:`to_json` — a plain dict/JSON document with
  the span forest, the metric catalog and the wall-clock profile
  (schema documented in ``docs/observability.md``).  This is what
  ``repro obs --format json`` prints.
  Passing ``max_spans`` caps the exported span list (depth-first, so
  scenario/phase structure survives) with explicit drop accounting —
  large campaign snapshots stay reviewable.  A snapshot is built in two
  steps: :func:`capture` encodes a run once into one compact blob, and
  :func:`render` turns a blob into the dict; a sharded campaign ships
  the blob and renders only when its snapshot is read.
* :func:`render_report` — the human-readable run report behind the
  ``python -m repro obs`` subcommand: span tree, metrics table,
  profile table.

:func:`merge_snapshots` folds per-shard snapshots from a sharded
campaign (``repro.parallel``) into one document with shard provenance:
each shard's span forest is reparented under a synthetic ``shard:<i>``
root, metrics merge via :meth:`MetricsRegistry.merge_snapshot`, and
profiles add per section.
"""

from __future__ import annotations

import json
import marshal
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import Observability
from repro.obs.slo import RedAccounting, SLOTracker
from repro.obs.tracer import decode_forest

#: Schema version stamped into every JSON snapshot.
SNAPSHOT_VERSION = 2


def _cap_forest(
    roots: Sequence[Any], max_spans: Optional[int], include_wall: bool
) -> Tuple[List[Dict[str, Any]], int, int]:
    """Serialise a span forest under a span budget.

    Walks depth first, emitting each span until *max_spans* spans have
    been exported; everything past the budget is counted, not emitted.
    A parent is always exported before its children, so the surviving
    prefix is a well-formed tree.  Returns ``(dicts, exported, dropped)``.
    """
    budget = [max_spans if max_spans is not None else float("inf")]
    dropped = [0]
    exported = [0]

    def emit(span: Any) -> Optional[Dict[str, Any]]:
        if budget[0] <= 0:
            dropped[0] += sum(1 for _ in span.walk())
            return None
        budget[0] -= 1
        exported[0] += 1
        data = span.node_dict(include_wall)
        children = [emit(child) for child in span.children]
        kept = [child for child in children if child is not None]
        if kept:
            data["children"] = kept
        return data
    forest = [emit(root) for root in roots]
    return [root for root in forest if root is not None], exported[0], dropped[0]


def capture(obs: Observability) -> bytes:
    """Capture one run's observations once, as one ``marshal`` blob.

    The blob holds the tracer's stored forest
    (:meth:`~repro.obs.tracer.Tracer.encode`: spans plus the exchange
    leaves' audit-row and rule-trace pairs), the span and drop counts,
    and the SLO, profile and RED sections.  Bytes are immutable and the
    cyclic collector never tracks them, so a sharded campaign ships and
    keeps each shard's observations as one object and renders them only
    when read.  The metrics registry is not in the blob: :func:`render`
    takes its snapshot separately, so a shard result carries one copy.
    A span attribute that is not an exact JSON scalar raises
    :class:`~repro.core.errors.ConfigurationError` here.
    """
    tracer = obs.tracer
    return marshal.dumps((
        tracer.encode(),
        len(tracer),
        tracer.dropped,
        obs.slo.snapshot(),
        obs.profiler.snapshot(),
        {"requests": obs.red.snapshot(), "pdp": obs.pdp_red.snapshot()},
    ))


def render(
    blob: bytes,
    metrics: Dict[str, Any],
    include_wall: bool = True,
    max_spans: Optional[int] = None,
) -> Dict[str, Any]:
    """Render a :func:`capture` blob into the JSON-ready snapshot dict.

    *metrics* is the run's :meth:`MetricsRegistry.snapshot`, placed in
    the document as is.  ``include_wall=False`` strips wall-clock
    fields, leaving only deterministic content (two same-seed runs then
    produce identical snapshots — the determinism test relies on this).
    ``max_spans`` caps the exported span list; spans over the budget
    are counted in ``export_spans_dropped`` instead of serialised.
    """
    forest, span_count, spans_dropped, slo, profile, red = marshal.loads(blob)
    spans, exported, export_dropped = _cap_forest(
        decode_forest(forest), max_spans, include_wall
    )
    data: Dict[str, Any] = {
        "version": SNAPSHOT_VERSION,
        "spans": spans,
        "span_count": span_count,
        "spans_exported": exported,
        "spans_dropped": spans_dropped,
        "export_spans_dropped": export_dropped,
        "metrics": metrics,
        # Deterministic: virtual-time bins over seeded-RNG fault events.
        "slo": slo,
    }
    if include_wall:
        data["profile"] = profile
        # Wall-clock latency sketches are nondeterministic by nature, so
        # they live strictly on the include_wall side of the split.
        data["red"] = red
    return data


def snapshot(
    obs: Observability,
    include_wall: bool = True,
    max_spans: Optional[int] = None,
) -> Dict[str, Any]:
    """Render one run into a JSON-ready dict: :func:`render` of :func:`capture`."""
    return render(capture(obs), obs.metrics.snapshot(), include_wall, max_spans)


def to_json(
    obs: Observability,
    include_wall: bool = True,
    indent: int = 2,
    max_spans: Optional[int] = None,
) -> str:
    """JSON-serialise :func:`snapshot`."""
    return json.dumps(
        snapshot(obs, include_wall, max_spans=max_spans),
        indent=indent,
        sort_keys=True,
    )


def merge_snapshots(
    snapshots: Sequence[Dict[str, Any]],
    shard_meta: Optional[Sequence[Dict[str, Any]]] = None,
    max_spans: Optional[int] = None,
) -> Dict[str, Any]:
    """Merge per-shard snapshot dicts into one fleet-wide document.

    Each input is one shard's :func:`snapshot`.  The merged document
    keeps shard provenance three ways: a ``shards`` list with one
    metadata row per shard (index plus whatever the caller passes in
    *shard_meta*, e.g. the derived seed), each shard's spans reparented
    under a synthetic ``shard:<i>`` scenario root, and per-shard span
    accounting.  Metrics merge via
    :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot` (counter
    and histogram totals equal the sum over shards); profiles add per
    section.  ``max_spans`` caps the merged span list with the same
    drop accounting as :func:`snapshot`.
    """
    registry = MetricsRegistry()
    spans: List[Dict[str, Any]] = []
    shards: List[Dict[str, Any]] = []
    profile: Dict[str, Dict[str, float]] = {}
    slo = SLOTracker()
    red: Optional[Dict[str, RedAccounting]] = None
    span_count = 0
    spans_dropped = 0
    budget = max_spans if max_spans is not None else float("inf")
    export_dropped = 0
    for index, snap in enumerate(snapshots):
        meta = dict(shard_meta[index]) if shard_meta else {}
        meta["shard"] = index
        shards.append(
            {**meta, "span_count": snap.get("span_count", 0),
             "spans_dropped": snap.get("spans_dropped", 0)}
        )
        shard_spans = snap.get("spans", [])
        shard_total = sum(_count_span_dicts(s) for s in shard_spans)
        if budget >= shard_total + 1:
            spans.append(
                {"name": f"shard:{index}", "kind": "scenario",
                 "start": 0.0, "end": None, "outcome": "ok",
                 "attrs": meta, "children": shard_spans}
            )
            budget -= shard_total + 1
        else:
            export_dropped += shard_total + 1
        span_count += snap.get("span_count", 0)
        spans_dropped += snap.get("spans_dropped", 0)
        export_dropped += snap.get("export_spans_dropped", 0)
        registry.merge_snapshot(snap.get("metrics", {}))
        slo.merge_snapshot(snap.get("slo", {}))
        shard_red = snap.get("red")
        if shard_red is not None:
            if red is None:
                red = {"requests": RedAccounting(), "pdp": RedAccounting()}
            for section in red:
                red[section].merge_snapshot(shard_red.get(section, {}))
        for section, stats in snap.get("profile", {}).items():
            merged = profile.setdefault(section, {"calls": 0, "total_ms": 0.0})
            merged["calls"] += stats.get("calls", 0)
            merged["total_ms"] += stats.get("total_ms", 0.0)
    for section, stats in profile.items():
        stats["mean_us"] = (
            stats["total_ms"] * 1e3 / stats["calls"] if stats["calls"] else 0.0
        )
    merged_doc = {
        "version": SNAPSHOT_VERSION,
        "sharded": True,
        "shards": shards,
        "spans": spans,
        "span_count": span_count,
        "spans_dropped": spans_dropped,
        "export_spans_dropped": export_dropped,
        "metrics": registry.snapshot(),
        "slo": slo.snapshot(),
        "profile": {k: profile[k] for k in sorted(profile)},
    }
    if red is not None:
        merged_doc["red"] = {
            section: accounting.snapshot() for section, accounting in red.items()
        }
    return merged_doc


def _count_span_dicts(span: Dict[str, Any]) -> int:
    """Number of spans in one serialised subtree."""
    return 1 + sum(_count_span_dicts(c) for c in span.get("children", ()))


def render_red(obs: Observability) -> str:
    """Text table of the RED series: rate, errors, duration quantiles.

    One row per (scope, action): request count, error count, sketch
    p50/p90/p99 in microseconds, and the p99 exemplar trace id when one
    was captured (the jump-off point into the span waterfall and the
    forensic timeline).
    """
    lines: List[str] = []
    for heading, accounting in (
        ("requests", obs.red), ("pdp", obs.pdp_red)
    ):
        series = accounting.series()
        if not series:
            continue
        for (scope, action), row in sorted(series.items()):
            quantiles = "  ".join(
                f"{label}={value:.1f}us" if value is not None else f"{label}=-"
                for label, value in row.sketch.quantiles().items()
            )
            exemplar = row.sketch.exemplar(0.99)
            lines.append(
                f"{heading:<9} {scope:<18} {action:<12} n={row.requests:<6} "
                f"err={row.error_count:<5} {quantiles}"
                + (f"  exemplar={exemplar['trace']}" if exemplar else "")
            )
    return "\n".join(lines) if lines else "(no requests recorded)"


def render_report(obs: Observability, max_exchanges_per_span: int = 12) -> str:
    """The full text run report: spans, metrics, RED, then profile."""
    sections = [
        "== span tree (virtual time) ==",
        obs.tracer.render(max_exchanges_per_span=max_exchanges_per_span)
        or "(no spans recorded)",
        "",
        "== metrics ==",
        obs.metrics.render(),
        "",
        "== RED (rate / errors / duration) ==",
        render_red(obs),
        "",
        "== wall-clock profile ==",
        obs.profiler.render(),
    ]
    return "\n".join(sections)
