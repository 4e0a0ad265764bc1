"""The real :class:`Observer`: tracer + metrics + profiler in one handle.

Create one :class:`Observability`, pass it wherever a world is built
(``Deployment(..., observer=obs)``, ``FleetDeployment(..., observer=obs)``,
``run_attack(..., observer=obs)``) and every instrumented layer feeds it:
the cloud's audit log becomes message counters and exchange spans, shadow
stores report Figure 2 transitions, attacks report outcomes, and the
scheduler reports batch sizes, queue depth and heap compactions.

The same instance can observe several consecutive worlds (the attack
runner builds a fresh world per attempt); :meth:`attach` simply rebinds
the virtual-clock time source to the newest environment.
"""

from __future__ import annotations

from typing import Any, Callable, ContextManager, Dict, Optional, Tuple

from repro.cloud.audit import AuditRow
from repro.obs.metrics import Counter, LabelKey, MetricsRegistry
from repro.obs.observer import Observer, RequestRecord
from repro.obs.profiler import Profiler
from repro.obs.slo import RedAccounting, SLOTracker
from repro.obs.tracer import Tracer

#: Observer counters that double as SLO bad events: an infrastructure
#: failure (a chaos drop or timeout) is a request the service failed to
#: serve, charged against the availability error budget.  Policy
#: rejections are *not* here — denying an attacker is correct service.
_SLO_BAD_COUNTERS = {"chaos.drops": "drop", "chaos.timeouts": "timeout"}

_ENTRIES_HELP = "audit entries by (summary, outcome)"

#: The profiler section every observed request is timed into.
_HANDLE = "cloud.handle_packet"

#: The audit verdict counter, indexed by ``outcome == "ok"``.
_VERDICT = ("cloud.audit.rejected", "cloud.audit.ok")

#: One resolved observer slot: the entries counter, the row's label key,
#: the ok-or-rejected counter, then the pdp and endpoint RED recorders.
_Slot = Tuple[Counter, LabelKey, Counter, Callable[..., None], Callable[..., None]]


class Observability(Observer):
    """Collects spans, metrics and profiles from an instrumented run.

    ``trace_messages=False`` disables the per-request exchange leaves
    (counters still accumulate) — useful for very large campaigns where
    only aggregates matter.
    """

    def __init__(self, trace_messages: bool = True, max_spans: int = 100_000) -> None:
        self.tracer = Tracer(max_spans=max_spans)
        self.profiler = Profiler()
        #: the availability series behind SLO/burn-rate evaluation
        self.slo = SLOTracker()
        self.trace_messages = trace_messages
        self._env: Optional[Any] = None
        #: per (design, action, summary, outcome), what one observed
        #: request folds into: see :meth:`_slot`.  Resolved against the
        #: installed registry and RED accountings, so replacing any of
        #: them drops it.
        self._slots: Dict[Tuple[str, str, str, str], _Slot] = {}
        self.metrics = MetricsRegistry()
        #: RED series (rate, errors, duration sketch) per (design, action)
        self.red = RedAccounting()
        #: PDP decide timings per ("pdp", action): one per observed
        #: request the PDP decided (every handler decides exactly once)
        self.pdp_red = RedAccounting()

    @property
    def metrics(self) -> MetricsRegistry:
        """The metrics registry (a warm restore installs a new one)."""
        return self._metrics

    @metrics.setter
    def metrics(self, registry: MetricsRegistry) -> None:
        self._metrics = registry
        self._slots = {}

    @property
    def red(self) -> RedAccounting:
        """The endpoint RED accounting (replaceable, e.g. per time window)."""
        return self._red

    @red.setter
    def red(self, accounting: RedAccounting) -> None:
        self._red = accounting
        self._slots = {}

    @property
    def pdp_red(self) -> RedAccounting:
        """The PDP decide-time RED accounting (replaceable)."""
        return self._pdp_red

    @pdp_red.setter
    def pdp_red(self, accounting: RedAccounting) -> None:
        self._pdp_red = accounting
        self._slots = {}

    # -- Observer protocol ---------------------------------------------------

    def attach(self, env: Any) -> None:
        """Bind span timestamps to *env*'s virtual clock (latest wins)."""
        self._env = env
        self.tracer.set_time_source(lambda: env.clock.now)

    def span(self, name: str, kind: str = "phase", **attrs: Any) -> ContextManager[Any]:
        """Open a trace span (see :meth:`repro.obs.tracer.Tracer.span`)."""
        return self.tracer.span(name, kind=kind, **attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration leaf span."""
        self.tracer.event(name, **attrs)

    def profile(self, section: str) -> ContextManager[Any]:
        """Time one entry into a named wall-clock section."""
        return self.profiler.section(section)

    def count(self, name: str, n: int = 1, **labels: Any) -> None:
        """Increment the counter *name* (SLO-bad counters also feed SLO)."""
        self._metrics.counter(name).inc(n, **labels)
        cause = _SLO_BAD_COUNTERS.get(name)
        if cause is not None and self._env is not None:
            self.slo.record_bad(
                self._env.clock.now, labels.get("cause", cause), n
            )

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge *name*."""
        self._metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the histogram *name*."""
        self._metrics.histogram(name).observe(value)

    # -- domain hooks --------------------------------------------------------

    def on_audit(self, row: AuditRow) -> None:
        """Fold one audit row that no request record carries.

        Liveness sweeps and handler-side revocations write such rows;
        each feeds the ``cloud.audit.*`` counters and, when traced, adds
        an exchange leaf with no rule trace.
        """
        summary, outcome = row[3], row[4]
        metrics = self._metrics
        metrics.counter("cloud.audit.entries", help=_ENTRIES_HELP).inc(
            summary=summary, outcome=outcome
        )
        metrics.counter(_VERDICT[outcome == "ok"]).inc()
        if self.trace_messages:
            self.tracer.add_exchange(row, "")

    def on_request(self, record: RequestRecord) -> None:
        """Fold one finished request record into every surface it feeds.

        The one observer call an observed request makes, after its timed
        region: the ``cloud.handle_packet`` profiler section; then, once
        the request has an audit row, the ``cloud.audit.*`` counters,
        the ``pdp`` RED series (when the PDP decided) and the exchange
        leaf; then, once it has an outcome code, the endpoint RED series
        and the SLO bin.  RED sketches hold wall-clock durations and
        live beside the metrics registry, so instrumented runs keep
        their pinned metric fingerprints byte-identical.
        """
        duration_ns = record.duration_ns
        # Profiler.add, spelled out on the per-request path.
        profiler = self.profiler
        calls = profiler.calls
        calls[_HANDLE] = calls.get(_HANDLE, 0) + 1
        total_ns = profiler.total_ns
        total_ns[_HANDLE] = total_ns.get(_HANDLE, 0) + duration_ns
        row = record.row
        if row is None:
            return
        slot_key = (record.design, record.action, row[3], row[4])
        slot = self._slots.get(slot_key) or self._slot(*slot_key)
        entries, key, verdict, pdp_add, red_add = slot
        entries.inc_key(key)
        verdict.inc_key(())
        authz = record.authz
        if authz is not None:
            pdp_add("ok", record.pdp_ns / 1000.0, "")
        if self.trace_messages:
            self.tracer.add_exchange(row, authz or "")
        code = record.code
        if code is None:
            return
        red_add(code, duration_ns / 1000.0, row[6])
        self.slo.record_request(row[0])

    def _slot(self, design: str, action: str, summary: str, outcome: str) -> "_Slot":
        """Resolve (and cache) what a (design, action, summary, outcome) feeds.

        The entries counter with the row's label key, the ok-or-rejected
        counter, and the recorders of the ``("pdp", action)`` and
        ``(design, action)`` RED series.
        """
        metrics = self._metrics
        slot = self._slots[design, action, summary, outcome] = (
            metrics.counter("cloud.audit.entries", help=_ENTRIES_HELP),
            # label_key({"summary": summary, "outcome": outcome}), spelled out
            (("outcome", outcome), ("summary", summary)),
            metrics.counter(_VERDICT[outcome == "ok"]),
            self._pdp_red.recorder("pdp", action),
            self._red.recorder(design, action),
        )
        return slot

    def on_shadow_transition(
        self, device_id: str, event: Any, before: Any, after: Any, time: float
    ) -> None:
        """Count one Figure 2 transition by event and edge."""
        self.metrics.counter(
            "shadow.transitions", help="Figure 2 transitions by (event, edge)"
        ).inc(event=str(event), edge=f"{before}->{after}")

    def on_attack(self, report: Any) -> None:
        """Count one finished attack attempt by id and outcome."""
        self.metrics.counter(
            "attacks.attempts", help="attack attempts by (attack_id, outcome)"
        ).inc(attack_id=report.attack_id, outcome=report.outcome.value)
        if report.succeeded:
            self.metrics.counter("attacks.successes").inc()

    def on_scheduler_flush(self, executed: int, queue_depth: int) -> None:
        """Record one run_until batch: events executed + queue depth."""
        if executed:
            self.metrics.counter("scheduler.events").inc(executed)
            self.metrics.histogram("scheduler.batch").observe(executed)
        self.metrics.gauge(
            "scheduler.queue_depth", help="pending entries after a batch"
        ).set(queue_depth)

    def on_compaction(self, removed: int, compactions: int) -> None:
        """Record one heap compaction sweep."""
        self.metrics.counter("scheduler.compacted_entries").inc(removed)
        self.metrics.gauge("scheduler.compactions").set(compactions)

    # -- consistency ---------------------------------------------------------

    def matches_audit(self, audit: Any) -> bool:
        """True iff message counters agree exactly with an audit log.

        The acceptance check for instrumented campaigns: per-(summary,
        outcome) counts and ok/rejected totals must equal what the
        cloud's own append-only log recorded.
        """
        expected: Dict[tuple, int] = {}
        rejected = 0
        for row in audit.rows:
            key = (("outcome", row[4]), ("summary", row[3]))
            expected[key] = expected.get(key, 0) + 1
            rejected += row[4] != "ok"
        got = self.metrics.counter("cloud.audit.entries").series()
        if {k: float(v) for k, v in expected.items()} != got:
            return False
        return (
            self.metrics.counter("cloud.audit.ok").total() == len(audit) - rejected
            and self.metrics.counter("cloud.audit.rejected").total() == rejected
        )
