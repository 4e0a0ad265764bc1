"""Per-layer attribution for the perf benchmark, recorded from outside the program.

:class:`LayerTracer` replaces the class attributes of the public methods
listed in :data:`TARGETS` with timing wrappers, so nothing under
``src/`` changes.  It must start *before* a world is built: the cloud
binds ``handle_packet`` and its ``handle_*`` dispatch table at
construction, and devices hand ``heartbeat`` to the scheduler as a bound
method, so wrapping afterwards would miss them.

Every wrapped call is a span.  Self time (the span's duration minus the
time its child spans cover) is aggregated online per target; a layer's
self time is the sum over its targets.  Python's cyclic garbage
collector is a pseudo-layer (``py.gc``): ``gc.callbacks`` opens a span
for each collection, so pause time is taken out of whichever layer
happened to allocate.  Whatever no span covers is ``driver`` time, the
benchmark's own loop.  By construction the layer self times, the GC
pauses and the driver time sum to the traced window; :meth:`stop`
verifies that identity.

A *request* is an outermost ``Network.request`` span.  Each request's
spans are buffered while it runs and kept only when it is every 100th
request or slower than the running p99, which bounds memory on long
runs while keeping both the median sample and the tail.  From those the
tracer answers "which layer is the p99 tail made of": per layer, the
share of the extra latency of the top-1% requests over median requests.
"""

from __future__ import annotations

import fnmatch
import functools
import gc
import importlib
import inspect
import itertools
import json
import pathlib
from array import array
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``(layer, "module:Class" or "module", name patterns)``.  A class entry
#: also covers its subclasses; patterns match public attribute names
#: (``fnmatch``), and dunder names are matched only when spelled out.
TARGETS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.scheduler:Scheduler", ("run_until",)),
    ("net", "repro.net.network:Network", ("request", "broadcast")),
    ("chaos", "repro.chaos.injector:FaultInjector",
     ("on_request", "should_duplicate", "deliver_order")),
    ("cloud.dispatch", "repro.cloud.service:CloudService", ("handle_packet",)),
    ("cloud.handlers", "repro.cloud.handlers:EndpointHandlers", ("handle_*",)),
    ("cloud.pdp", "repro.cloud.pdp.engine:PolicyDecisionPoint", ("decide",)),
    ("cloud.authz", "repro.cloud.authz:AuthorizationCache",
     ("lookup", "store", "store_rejection")),
    ("cloud.state", "repro.cloud.bindings:BindingStore",
     ("create", "revoke", "confirm_device")),
    ("cloud.state", "repro.cloud.accounts:AccountStore",
     ("register", "login", "logout")),
    ("cloud.state", "repro.cloud.registry:DeviceRegistry",
     ("manufacture", "issue_dev_token", "rotate_for_new_binding")),
    ("cloud.state", "repro.identity.tokens:TokenService",
     ("issue", "revoke", "revoke_subject")),
    ("cloud.state", "repro.cloud.sharing:ShareStore",
     ("grant", "revoke", "revoke_all")),
    ("cloud.state", "repro.cloud.shadows:ShadowStore",
     ("create", "mark_registration", "sweep_offline")),
    ("cloud.state", "repro.core.shadow:DeviceShadow", ("apply", "mark_*")),
    ("cloud.state", "repro.cloud.relay:Relay",
     ("queue_command", "drain_commands", "set_schedule", "clear_schedule",
      "report_telemetry", "forget_device")),
    ("cloud.state", "repro.cloud.events:EventFeed", ("emit", "poll")),
    ("cloud.state", "repro.cloud.state.backends:MemoryBackend", ("append",)),
    ("cloud.audit", "repro.cloud.audit:AuditLog", ("record",)),
    ("obs.forensics", "repro.obs.detect.timeline:ForensicTimeline", ("record",)),
    ("obs", "repro.obs.runtime:Observability",
     ("on_*", "count", "gauge", "observe", "event")),
    ("fleet", "repro.fleet:FleetDeployment", ("__init__", "*")),
    ("scenario", "repro.scenario:Deployment", ("__init__", "*")),
    ("attacks", "repro.attacks.attacker:RemoteAttacker", ("*",)),
    ("attacks", "repro.attacks.runner", ("run_attack",)),
    ("app", "repro.app.mobile:MobileApp", ("*",)),
    ("device", "repro.device.base:DeviceFirmware", ("*",)),
    ("parallel", "repro.parallel.pool:WorkerPool", ("start", "run", "close")),
    ("parallel", "repro.parallel.engine", ("run_campaign",)),
)

#: Every layer with a ``<layer>.self_share`` metric, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: Layers a cloud request crosses; each gets a ``<layer>.tail_share``.
REQUEST_LAYERS: Tuple[str, ...] = (
    "net", "chaos", "cloud.dispatch", "cloud.handlers", "cloud.pdp",
    "cloud.authz", "cloud.state", "cloud.audit", "obs.forensics", "obs",
)

#: Phases reported as inclusive wall-time shares (a phase nests layers).
PHASES: Dict[str, Tuple[str, str]] = {
    "fleet.build_share": ("FleetDeployment", "__init__"),
    "fleet.setup_share": ("FleetDeployment", "setup_all"),
    "fleet.run_share": ("FleetDeployment", "run"),
    "scenario.build_share": ("Deployment", "__init__"),
}

#: Keep every N-th request's spans as the uniform (median) sample.
SAMPLE_EVERY = 100

#: Requests per running-p99 update.
P99_WINDOW = 4096

_GC_GENERATIONS = 3


def _targets() -> Iterator[Tuple[str, Any, str, Any]]:
    """Yield ``(layer, owner, attribute name, raw attribute)`` to wrap.

    Generator functions are skipped: a wrapper would time only the
    creation of the generator, not the work it does when iterated.
    """
    for layer, where, patterns in TARGETS:
        module_name, _, class_name = where.partition(":")
        module = importlib.import_module(module_name)
        if not class_name:
            for name in patterns:
                yield layer, module, name, getattr(module, name)
            continue
        pending = [getattr(module, class_name)]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for name, raw in list(vars(cls).items()):
                if not any(
                    name == pattern
                    or (not name.startswith("_") and fnmatch.fnmatchcase(name, pattern))
                    for pattern in patterns
                ):
                    continue
                func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if inspect.isfunction(func) and not inspect.isgeneratorfunction(func):
                    yield layer, cls, name, raw


def _records(spans: array) -> Iterator[Tuple[int, ...]]:
    """``(span id, parent id, target index, start, end)`` per span."""
    fields = iter(spans)
    return zip(fields, fields, fields, fields, fields)


class LayerTracer:
    """Wraps the :data:`TARGETS` methods and attributes time to layers.

    State lives on the instance; the class attributes it patches are
    restored by :meth:`stop`, so one process can run an untraced pass
    and then a traced one.
    """

    def __init__(self) -> None:
        self._names: List[str] = []
        self._layer_of: List[str] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self._self_ns: List[int] = []
        self._incl_ns: List[int] = []
        self._calls: List[int] = []
        # The open spans as two parallel int stacks (child time covered so
        # far, span id); entry 0 is the driver.  Plain ints and int arrays
        # keep the tracer from allocating objects the cyclic GC tracks,
        # which would inflate the very collections it attributes.
        self._child: List[int] = [0]
        self._span_ids: List[int] = [0]
        self._ids = itertools.count(1)
        #: the running request's spans, 5 ints each (None between requests)
        self._live: List[Optional[array]] = [None]
        self._durations = array("q")
        self._kept: List[Tuple[int, int, array]] = []
        self._threshold = 0
        self._gc_open = False
        self._gc_id = 0
        self._gc_start = 0
        self._gc_self = 0
        self._gc_pause = [0] * _GC_GENERATIONS
        self._gc_count = 0
        self._events = 0
        self._denies = 0
        self._authz = {"hits": 0, "lookups": 0, "invalidations": 0}
        self._started = 0
        self._stopped = 0
        self.layer_sum_ok = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Install every wrapper and the GC hook; the traced window opens."""
        request_index = None
        for layer, owner, name, raw in _targets():
            index = len(self._names)
            label = getattr(owner, "__name__", str(owner)).rpartition(".")[2]
            self._names.append(f"{label}.{name}")
            self._layer_of.append(layer)
            self._self_ns.append(0)
            self._incl_ns.append(0)
            self._calls.append(0)
            root = owner.__name__ == "Network" and name == "request"
            if root:
                request_index = index
            method = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            wrapped: Any = self._wrap(self._counted(label, name, method), index, root)
            if method is not raw:
                wrapped = type(raw)(wrapped)
            self._patched.append((owner, name, raw))
            setattr(owner, name, wrapped)
        if request_index is None:  # pragma: no cover - catalog drift
            raise RuntimeError("Network.request is not among the trace targets")
        self._started = perf_counter_ns()
        gc.callbacks.append(self._on_gc)

    def stop(self) -> None:
        """Close the traced window, restore the program, check the layer sum."""
        if self._stopped:
            return
        self._stopped = perf_counter_ns()
        gc.callbacks.remove(self._on_gc)
        for owner, name, raw in reversed(self._patched):
            setattr(owner, name, raw)
        self._patched.clear()
        if len(self._child) != 1:
            raise RuntimeError(f"trace stack left {len(self._child) - 1} spans open")
        # Telescoping: the driver's children cover exactly the spans' self
        # times plus the GC pauses; anything else is a leaked span.
        self.layer_sum_ok = sum(self._self_ns) + self._gc_self == self._child[0]

    # -- wrappers --------------------------------------------------------------

    def _counted(self, label: str, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn*, or for a counted target *fn* plus the counter it feeds.

        The counters are plain ints read off each call, so the tracer
        keeps no program object alive beyond the call.
        """
        if (label, name) == ("Scheduler", "run_until"):
            def run_until(*args: Any, **kwargs: Any) -> Any:
                events = fn(*args, **kwargs)
                self._events += events
                return events
            return run_until
        if (label, name) == ("PolicyDecisionPoint", "decide"):
            def decide(*args: Any, **kwargs: Any) -> Any:
                decision = fn(*args, **kwargs)
                if not decision.allowed:
                    self._denies += 1
                return decision
            return decide
        if (label, name) == ("AuthorizationCache", "lookup"):
            from repro.cloud.authz import MISS

            authz = self._authz

            def lookup(cache: Any, key: Any) -> Any:
                invalidations = cache.invalidations
                value = fn(cache, key)
                authz["lookups"] += 1
                authz["hits"] += value is not MISS
                authz["invalidations"] += cache.invalidations - invalidations
                return value
            return lookup
        return fn

    def _wrap(self, fn: Callable[..., Any], index: int, root: bool) -> Callable[..., Any]:
        child, span_ids = self._child, self._span_ids
        self_ns, incl_ns, calls = self._self_ns, self._incl_ns, self._calls
        live = self._live
        next_id = self._ids.__next__
        finish = self._finish_request
        clock = perf_counter_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            opened = root and live[0] is None
            if opened:
                live[0] = array("q")
            span_id = next_id()
            child.append(0)
            span_ids.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                covered = child.pop()
                span_ids.pop()
                duration = end - start
                self_ns[index] += duration - covered
                incl_ns[index] += duration
                calls[index] += 1
                child[-1] += duration
                buf = live[0]
                if buf is not None:
                    buf.extend((span_id, span_ids[-1], index, start, end))
                    if opened:
                        live[0] = None
                        finish(buf, start, end)

        return functools.wraps(fn)(wrapper)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        """``gc.callbacks`` hook: a collection is a span of layer ``py.gc``."""
        if phase == "start":
            self._gc_id = next(self._ids)
            self._child.append(0)
            self._span_ids.append(self._gc_id)
            self._gc_open = True
            self._gc_start = perf_counter_ns()
            return
        if not self._gc_open:
            return
        end = perf_counter_ns()
        self._gc_open = False
        covered = self._child.pop()
        self._span_ids.pop()
        duration = end - self._gc_start
        self._gc_self += duration - covered
        self._gc_pause[info["generation"]] += duration
        self._gc_count += 1
        self._child[-1] += duration
        buf = self._live[0]
        if buf is not None:
            buf.extend((self._gc_id, self._span_ids[-1], -1 - info["generation"],
                        self._gc_start, end))

    def _finish_request(self, buf: array, start: int, end: int) -> None:
        """Keep a finished request's spans if sampled or above the running p99."""
        duration = end - start
        number = len(self._durations)
        self._durations.append(duration)
        if number % SAMPLE_EVERY == 0 or duration > self._threshold:
            self._kept.append((number, duration, buf))
        if (number + 1) % P99_WINDOW == 0:
            recent = sorted(self._durations[-P99_WINDOW:])
            first = self._threshold == 0
            self._threshold = recent[int(0.99 * P99_WINDOW)]
            if first:  # until now every request was kept; prune to the rule
                self._kept = [
                    kept for kept in self._kept
                    if kept[0] % SAMPLE_EVERY == 0 or kept[1] > self._threshold
                ]

    # -- results ---------------------------------------------------------------

    @property
    def window_s(self) -> float:
        """Wall seconds between :meth:`start` and :meth:`stop`."""
        return (self._stopped - self._started) / 1e9

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric the tracer itself can produce.

        Times are shares of the traced window (``trace.window_s``), so a
        layer the run never entered reads 0 as a share, not as a time.
        """
        window = self._stopped - self._started
        out: Dict[str, float] = {f"{layer}.self_share": 0.0 for layer in LAYERS}
        for index, value in enumerate(self._self_ns):
            out[f"{self._layer_of[index]}.self_share"] += value / window
        for metric, (label, name) in PHASES.items():
            out[metric] = sum(
                self._incl_ns[i] for i, full in enumerate(self._names)
                if full == f"{label}.{name}"
            ) / window
        out["sim.events"] = self._events
        out["net.requests"] = self._count("Network.request")
        decisions = self._count("PolicyDecisionPoint.decide")
        out["cloud.pdp.decisions"] = decisions
        out["cloud.pdp.deny_ratio"] = self._denies / decisions if decisions else 0.0
        authz = self._authz
        out["cloud.authz.lookups"] = authz["lookups"]
        out["cloud.authz.invalidations"] = authz["invalidations"]
        out["cloud.authz.hit_rate"] = (
            authz["hits"] / authz["lookups"] if authz["lookups"] else 0.0
        )
        out["cloud.state.journal_entries"] = self._count("MemoryBackend.append")
        out["py.gc.collections"] = self._gc_count
        out["py.gc.pause_share"] = self._gc_self / window
        for generation, pause in enumerate(self._gc_pause):
            out[f"py.gc.gen{generation}.pause_share"] = pause / window
        out.update(self._tail_metrics())
        out["driver.self_share"] = (window - self._child[0]) / window
        out["trace.window_s"] = self.window_s
        out["trace.requests"] = len(self._durations)
        return out

    def _count(self, full_name: str) -> int:
        return sum(
            self._calls[i] for i, name in enumerate(self._names) if name == full_name
        )

    def _layer_name(self, index: int) -> str:
        return "py.gc" if index < 0 else self._layer_of[index]

    def _request_breakdown(self, spans: array) -> Dict[str, int]:
        """Self nanoseconds per layer inside one request's spans."""
        child: Dict[int, int] = {}
        for span_id, parent_id, _, start, end in _records(spans):
            child[parent_id] = child.get(parent_id, 0) + (end - start)
        per_layer: Dict[str, int] = {}
        for span_id, _, index, start, end in _records(spans):
            layer = self._layer_name(index)
            per_layer[layer] = (
                per_layer.get(layer, 0) + (end - start) - child.get(span_id, 0)
            )
        return per_layer

    def _tail_metrics(self) -> Dict[str, float]:
        """Where the top-1% requests spend their extra time, per layer.

        ``<layer>.tail_share`` is the layer's share of the mean excess
        latency of the above-p99 requests over the median band (p45-p55
        of the every-100th sample); across layers plus ``py.gc`` the
        shares sum to 1.  ``py.gc.tail_share`` is the fraction of
        above-p99 requests that overlapped a collection.
        """
        out = {f"{layer}.tail_share": 0.0 for layer in REQUEST_LAYERS}
        out["py.gc.tail_share"] = 0.0
        out["py.gc.excess_share"] = 0.0
        if len(self._durations) < SAMPLE_EVERY:
            return out
        ordered = sorted(self._durations)
        count = len(ordered)
        p99 = ordered[int(0.99 * count)]
        low, high = ordered[int(0.45 * count)], ordered[int(0.55 * count)]
        tail = [spans for _, duration, spans in self._kept if duration >= p99]
        median = [
            spans for number, duration, spans in self._kept
            if number % SAMPLE_EVERY == 0 and low <= duration <= high
        ]
        if not tail or not median:
            return out

        def mean_breakdown(group: list) -> Tuple[Dict[str, float], float]:
            totals: Dict[str, float] = {}
            for spans in group:
                for layer, ns in self._request_breakdown(spans).items():
                    totals[layer] = totals.get(layer, 0.0) + ns
            means = {layer: value / len(group) for layer, value in totals.items()}
            return means, sum(means.values())

        tail_means, tail_total = mean_breakdown(tail)
        median_means, median_total = mean_breakdown(median)
        excess = tail_total - median_total
        if excess > 0:
            for layer in REQUEST_LAYERS:
                out[f"{layer}.tail_share"] = (
                    tail_means.get(layer, 0.0) - median_means.get(layer, 0.0)
                ) / excess
            out["py.gc.excess_share"] = (
                tail_means.get("py.gc", 0.0) - median_means.get("py.gc", 0.0)
            ) / excess
        out["py.gc.tail_share"] = sum(
            1 for spans in tail if any(index < 0 for index in spans[2::5])
        ) / len(tail)
        return out

    def write_spans(self, path: pathlib.Path, workload: str) -> None:
        """Write the kept requests' full spans as JSON (times relative to start)."""
        origin = self._started
        ordered = sorted(self._durations)
        p99 = ordered[int(0.99 * len(ordered))] if ordered else 0

        def name_of(index: int) -> str:
            return f"gc.gen{-1 - index}" if index < 0 else self._names[index]

        requests = [
            {
                "request": number,
                "duration_ns": duration,
                "above_p99": duration >= p99,
                "spans": [
                    {"id": span_id, "parent": parent_id, "name": name_of(index),
                     "layer": self._layer_name(index),
                     "start_ns": start - origin, "end_ns": end - origin}
                    for span_id, parent_id, index, start, end in _records(spans)
                ],
            }
            for number, duration, spans in self._kept
        ]
        payload = {
            "workload": workload,
            "window_s": self.window_s,
            "requests_traced": len(self._durations),
            "p99_ns": p99,
            "sample_every": SAMPLE_EVERY,
            "requests": requests,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
