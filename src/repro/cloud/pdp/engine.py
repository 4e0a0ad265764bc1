"""The policy decision point: one evaluator for every endpoint.

A :class:`PolicyDecisionPoint` binds a validated
:class:`~repro.cloud.pdp.spec.PolicySpec` to one cloud's stores and
answers :class:`~repro.cloud.pdp.model.AuthzRequest`\\ s with
:class:`~repro.cloud.pdp.model.Decision`\\ s.  :func:`compile_spec`
validates a spec and compiles its rule lists to ``(name, impl, params)``
tuples, so the per-request loop does no registry lookups; evaluation
stops at the first denial (exactly where the inline handler would have
raised).

A cloud built from a :class:`~repro.cloud.policy.VendorDesign`
(:meth:`PolicyDecisionPoint.for_design`) takes its spec and compiled
table from a bounded per-process memo of :func:`compile_design`, so a
battery of short-lived worlds compiles and validates each design once.
The memo holds only specs and rule tables, never a service; every PDP
of one design shares the table, which no rule writes to.

The decision most recently produced is retained until
:meth:`take_last_decision` collects it — the service's audit/forensic
recording step runs *after* dispatch returns and uses this to attach
the rule trace (and, when observed, the decision's wall time) to the
exchange's evidence without threading decisions through every handler
signature.
"""

from __future__ import annotations

from functools import lru_cache
from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple

from repro.cloud.pdp.model import AuthzRequest, Decision, RuleEval
from repro.cloud.pdp.rules import RULES, EvalContext
from repro.cloud.pdp.spec import PolicySpec, validate_spec
from repro.cloud.policy import VendorDesign

#: per action, the compiled rules ``(name, impl, params, shared
#: pass-eval)`` — the pass-side :class:`RuleEval` is immutable, so one
#: instance per compiled rule serves every decision without allocating
CompiledRules = Dict[str, Tuple[Tuple[str, Any, Dict[str, Any], RuleEval], ...]]

#: how many designs' compiled policies one process keeps (the catalog's
#: 13 fit with room for a few synthetic ones)
DESIGN_CACHE_SIZE = 32


def compile_spec(spec: PolicySpec) -> CompiledRules:
    """Validate *spec* and compile its rule lists for evaluation.

    The one compile routine: raises
    :class:`~repro.cloud.pdp.spec.PolicySpecError` on a malformed spec.
    """
    validate_spec(spec)
    return {
        action: tuple(
            (ref.rule, RULES[ref.rule].impl, dict(ref.params),
             RuleEval(ref.rule, "pass"))
            for ref in refs
        )
        for action, refs in spec.actions.items()
    }


def compile_design(design: VendorDesign) -> Tuple[PolicySpec, CompiledRules]:
    """*design*'s knobs as a validated spec plus its compiled rules."""
    spec = PolicySpec.from_design(design)
    return spec, compile_spec(spec)


@lru_cache(maxsize=DESIGN_CACHE_SIZE)
def _design_memo(design: VendorDesign, knob_types: tuple) -> Tuple[PolicySpec, CompiledRules]:
    """:func:`compile_design`, memoised per design.

    *knob_types* keeps designs apart whose knobs compare equal but differ
    in type (``1`` and ``True``, ``30`` and ``30.0``): they validate and
    serialise differently.
    """
    return compile_design(design)


class PolicyDecisionPoint:
    """Evaluates one cloud's :class:`PolicySpec` over its live stores."""

    __slots__ = (
        "service", "spec", "_compiled", "_traces", "_last", "_timed", "last_ns",
    )

    def __init__(
        self, service: Any, spec: PolicySpec,
        compiled: Optional[CompiledRules] = None,
    ) -> None:
        self.service = service
        self.spec = spec
        #: *spec* compiled by :func:`compile_spec` (validated), unless the
        #: caller passes that result in
        self._compiled = compile_spec(spec) if compiled is None else compiled
        #: rendered traces shared by every decision that took the same
        #: path: an allow by its action (it passes every rule, in
        #: order), a denial by (action, deny position, code); filled
        #: when timed
        self._traces: Dict[Any, str] = {}
        self._last: Optional[Decision] = None
        #: the service's precomputed observed flag, read once
        self._timed = bool(getattr(service, "_observed", False))
        #: wall-clock nanoseconds of the most recent decision (timed
        #: services only)
        self.last_ns = 0

    @classmethod
    def for_design(cls, service: Any, design: VendorDesign) -> "PolicyDecisionPoint":
        """A PDP for *design*, compiled once per process and design."""
        spec, compiled = _design_memo(design, tuple(map(type, vars(design).values())))
        return cls(service, spec, compiled)

    def decide(self, request: AuthzRequest) -> Decision:
        """Evaluate *request* against its action's rule list, in order.

        Each endpoint handler decides its request here once.  On
        observed services the evaluation is wall-clock timed into
        :attr:`last_ns`, which the enforcement point copies onto its
        request record next to the decision — authorization-cache hits
        inside the rule primitives show up as faster evaluations.  The
        calm path pays a flag test here and one on each allow.
        """
        if self._timed:
            started = perf_counter_ns()
            decision = self._decide(request)
            self.last_ns = perf_counter_ns() - started
            return decision
        return self._decide(request)

    def _decide(self, request: AuthzRequest) -> Decision:
        ctx = EvalContext(self.service, request)
        evaluations = []
        for name, impl, params, passed in self._compiled[request.action]:
            rejection = impl(ctx, params)
            if rejection is not None:
                code = getattr(rejection, "code", "")
                evaluations.append(RuleEval(name, "deny", code))
                obligations = ctx.obligations
                return self._finish(Decision(
                    False, rejection, tuple(evaluations),
                    tuple(obligations) if obligations else (), ctx.out,
                    self._shared_trace(
                        (request.action, len(evaluations), code), evaluations
                    ) if self._timed else None,
                ))
            evaluations.append(passed)
        obligations = ctx.obligations
        return self._finish(Decision(
            True, None, tuple(evaluations),
            tuple(obligations) if obligations else (), ctx.out,
            self._shared_trace(request.action, evaluations) if self._timed else None,
        ))

    def _shared_trace(self, key: Any, evaluations: List[RuleEval]) -> str:
        """The trace of the decision path *key* names, rendered once.

        Observed services render every decision's trace for its
        evidence.  The rules of an action run in a fixed order, so the
        action alone names an allow's trail, and the action, the deny's
        position and its code name a denial's; every decision on one
        path shares one string.
        """
        trace = self._traces.get(key)
        if trace is None:
            trace = self._traces[key] = ">".join(e.render() for e in evaluations)
        return trace

    def take_last_decision(self) -> Optional[Decision]:
        """Collect (and clear) the decision of the most recent request."""
        decision = self._last
        self._last = None
        return decision

    def _finish(self, decision: Decision) -> Decision:
        self._last = decision
        return decision
