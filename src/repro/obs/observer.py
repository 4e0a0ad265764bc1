"""The instrumentation seam: a no-op :class:`Observer` protocol.

Every instrumented layer (scheduler, cloud, attacks, fleet) talks to the
world through this interface instead of importing the tracer or metrics
registry directly.  The default implementation does nothing, and the
shared :data:`NULL_OBSERVER` singleton is what every
:class:`~repro.sim.environment.Environment` carries unless a caller
passes a real observer — so uninstrumented runs pay only the cost of a
handful of empty method calls per *batch* of work, never per event.

A real implementation lives in :mod:`repro.obs.runtime`
(:class:`~repro.obs.runtime.Observability`), which fans the hooks out to
a :class:`~repro.obs.tracer.Tracer`, a
:class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.profiler.Profiler`.
"""

from __future__ import annotations

from typing import Any, ContextManager, Optional


class _NullContext:
    """A reusable do-nothing context manager (shared singleton)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


#: Shared no-op context manager returned by the null span/profile hooks.
NULL_CONTEXT = _NullContext()


class RequestRecord:
    """Everything an observer learns about one observed cloud request.

    Built once at the enforcement point
    (``CloudService.handle_packet``) and filled in as the request runs:
    the PDP's rule trace and evaluation time, then the audit row that
    ``AuditLog.record`` wrote for the request, then the outcome code
    and the request's one wall-clock duration.  The finished record is
    the request's one observer call, :meth:`Observer.on_request`.
    ``row`` stays ``None`` when an error other than a policy rejection
    escaped before the request was audited, and ``code`` stays ``None``
    when it escaped before the request finished.
    """

    __slots__ = ("design", "action", "code", "duration_ns", "authz", "pdp_ns", "row")

    def __init__(self, design: str, action: str) -> None:
        self.design = design
        #: the PDP action the message type maps to (the RED key)
        self.action = action
        #: ``"ok"`` or the rejection code; None when the request errored
        self.code: Optional[str] = None
        #: wall-clock nanoseconds across dispatch, audit and forensics
        self.duration_ns = 0
        #: the rule trace of the PDP's decision; None if none was made
        self.authz: Optional[str] = None
        #: wall-clock nanoseconds the PDP spent on that decision
        self.pdp_ns = 0
        #: the :data:`~repro.cloud.audit.AuditRow` recording the outcome;
        #: it also carries the request's virtual time and trace id
        self.row: Optional[tuple] = None


class Observer:
    """Base observer: every hook is a no-op.

    Subclass and override the hooks you care about.  Hook call sites are
    chosen so that the no-op path stays off the per-event hot loop:

    * :meth:`on_request` / :meth:`on_audit` — only reached when a real
      observer is installed (the cloud's packet entry point and audit
      log test a precomputed flag);
    * :meth:`on_shadow_transition` — only wired when a real observer is
      installed (see :class:`~repro.cloud.shadows.ShadowStore`);
    * :meth:`on_scheduler_flush` — once per ``run_until`` batch, not per
      event;
    * :meth:`span` / :meth:`profile` — return a shared null context
      manager, no allocation.
    """

    def attach(self, env: Any) -> None:
        """Bind the observer to a simulation environment.

        Called by :class:`~repro.sim.environment.Environment` on
        construction so timestamps can come from the virtual clock.
        """

    # -- structured tracing -------------------------------------------------

    def span(self, name: str, kind: str = "phase", **attrs: Any) -> ContextManager[Any]:
        """Open a trace span; the default returns a shared null context."""
        return NULL_CONTEXT

    def event(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration leaf span under the current span."""

    # -- wall-clock profiling ----------------------------------------------

    def profile(self, section: str) -> ContextManager[Any]:
        """Time a named hot-path section; default is a shared null context."""
        return NULL_CONTEXT

    # -- metrics ------------------------------------------------------------

    def count(self, name: str, n: int = 1, **labels: str) -> None:
        """Increment a labelled counter."""

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to *value*."""

    def observe(self, name: str, value: float) -> None:
        """Record one histogram sample."""

    # -- domain hooks (called by the instrumented layers) -------------------

    def on_audit(self, row: Any) -> None:
        """One cloud audit row was recorded that no request record carries.

        *row* is the :data:`~repro.cloud.audit.AuditRow` tuple the log
        stores.  Liveness sweeps and handler-side revocations write such
        rows; a row that records an observed request's outcome rides on
        that request's record to :meth:`on_request` instead.
        """

    def on_request(self, record: RequestRecord) -> None:
        """One observed endpoint request finished: its one record.

        Fired once per ``CloudService.handle_packet`` call, after the
        request's single wall-clock timing, so the observer's own work
        is outside that timing; the record carries the request's audit
        row.  Only reached when a real observer is installed — the
        service guards the record and the ``perf_counter_ns`` reads
        behind its precomputed fast-path flag, so uninstrumented runs
        never reach it.
        """

    def on_shadow_transition(
        self, device_id: str, event: Any, before: Any, after: Any, time: float
    ) -> None:
        """A device shadow took a real (non-self-loop) Figure 2 transition."""

    def on_attack(self, report: Any) -> None:
        """One attack attempt finished (an :class:`AttackReport`)."""

    def on_scheduler_flush(self, executed: int, queue_depth: int) -> None:
        """A scheduler ``run_until`` batch finished."""

    def on_compaction(self, removed: int, compactions: int) -> None:
        """The scheduler compacted cancelled entries out of its heap."""


#: The process-wide default observer; shared, stateless, does nothing.
NULL_OBSERVER = Observer()


