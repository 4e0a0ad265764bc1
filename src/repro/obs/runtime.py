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

from typing import Any, ContextManager, Dict, Optional, Tuple

from repro.cloud.audit import AuditRow
from repro.obs.metrics import Counter, LabelKey, MetricsRegistry, label_key
from repro.obs.observer import Observer, RequestRecord
from repro.obs.profiler import Profiler
from repro.obs.slo import RedAccounting, SLOTracker
from repro.obs.tracer import Span, Tracer

#: Observer counters that double as SLO bad events: an infrastructure
#: failure (a chaos drop or timeout) is a request the service failed to
#: serve, charged against the availability error budget.  Policy
#: rejections are *not* here — denying an attacker is correct service.
_SLO_BAD_COUNTERS = {"chaos.drops": "drop", "chaos.timeouts": "timeout"}


class ExchangeLeaf(Span):
    """The exchange span of one audit row: a zero-duration leaf.

    An observed run keeps one per audited request, so a leaf holds no
    ``attrs`` dict: it keeps the row (which the audit log keeps anyway)
    and the rule trace of the request's decision, and builds ``attrs``
    when read.  The trace id is the causal chain id the packet brought
    in, so per-process span trees can be joined into end-to-end chains;
    the rule trace explains the outcome code.
    """

    __slots__ = ("row", "authz")

    def __init__(self, row: AuditRow, authz: str) -> None:
        self.name = row[3]
        self.kind = "exchange"
        self.outcome = "ok"
        self.children = ()
        self.wall_ns = 0
        self.row = row
        self.authz = authz

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


class Observability(Observer):
    """Collects spans, metrics and profiles from an instrumented run.

    ``trace_messages=False`` disables the per-request exchange leaves
    (counters still accumulate) — useful for very large campaigns where
    only aggregates matter.
    """

    def __init__(self, trace_messages: bool = True, max_spans: int = 100_000) -> None:
        self.tracer = Tracer(max_spans=max_spans)
        self.metrics = MetricsRegistry()
        self.profiler = Profiler()
        #: RED series (rate, errors, duration sketch) per (design, action)
        self.red = RedAccounting()
        #: PDP decide timings per ("pdp", action): one per observed
        #: request the PDP decided (every handler decides exactly once)
        self.pdp_red = RedAccounting()
        #: the availability series behind SLO/burn-rate evaluation
        self.slo = SLOTracker()
        self.trace_messages = trace_messages
        self._env: Optional[Any] = None
        #: the audit instruments, resolved against ``_audit_registry``:
        #: the entries counter, and per (summary, outcome) the label key
        #: plus the ok-or-rejected counter
        self._audit_registry: Optional[MetricsRegistry] = None
        self._audit_entries: Optional[Counter] = None
        self._audit_keys: Dict[Tuple[str, str], Tuple[LabelKey, Counter]] = {}

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
        self.metrics.counter(name).inc(n, **labels)
        cause = _SLO_BAD_COUNTERS.get(name)
        if cause is not None and self._env is not None:
            self.slo.record_bad(
                self._env.clock.now, labels.get("cause", cause), n
            )

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge *name*."""
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the histogram *name*."""
        self.metrics.histogram(name).observe(value)

    # -- domain hooks --------------------------------------------------------

    def on_audit(self, row: AuditRow, request: Optional[RequestRecord] = None) -> None:
        """Fold one audit row into message counters (+ exchange leaf).

        Runs inside an observed request's timed region.  Label keys and
        counters are resolved once per (summary, outcome); the leaf's
        ``authz`` attribute is the rule trace of *request*'s decision,
        which explains the outcome code.  The PDP's decision time feeds
        the ``pdp`` RED series here too.
        """
        metrics = self.metrics
        if metrics is not self._audit_registry:
            # First entry, or a warm restore replaced the registry.
            self._audit_registry = metrics
            self._audit_entries = metrics.counter(
                "cloud.audit.entries", help="audit entries by (summary, outcome)"
            )
            self._audit_keys = {}
        summary, outcome = pair = row[3:5]
        resolved = self._audit_keys.get(pair)
        if resolved is None:
            verdict = "cloud.audit.ok" if outcome == "ok" else "cloud.audit.rejected"
            resolved = self._audit_keys[pair] = (
                label_key({"summary": summary, "outcome": outcome}),
                metrics.counter(verdict),
            )
        key, verdict_counter = resolved
        self._audit_entries.inc_key(key)
        verdict_counter.inc_key(())
        decision = request.decision if request is not None else None
        if decision is not None:
            self.pdp_red.record("pdp", request.action, "ok", request.pdp_ns / 1000.0)
        if self.trace_messages:
            self.tracer.add_leaf(
                ExchangeLeaf(row, decision.trace() if decision is not None else "")
            )

    def on_request(self, record: RequestRecord) -> None:
        """Fold one finished request record into profile, RED and SLO.

        Deliberately registry-free: RED sketches hold wall-clock
        durations and live beside the metrics registry, so instrumented
        runs keep their pinned metric fingerprints byte-identical.  A
        record without an outcome code (an error escaped before the
        audit) counts only towards the profiled section.
        """
        self.profiler.add("cloud.handle_packet", record.duration_ns)
        if record.code is None:
            return
        self.red.record(
            record.design, record.action, record.code,
            record.duration_ns / 1000.0, record.trace_id,
        )
        self.slo.record_request(record.now)

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
