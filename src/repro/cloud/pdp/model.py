"""Typed PDP request/verdict model.

An :class:`AuthzRequest` is everything an enforcement point knows about
one incoming request: the claimed principal, the credentials presented,
the action, and the resource (device) it targets.  Pre-state lives in
the cloud's stores, which the rules consult directly — only decisions,
never store objects, travel through the cache.

A :class:`Decision` is the explainable verdict: allow/deny, the exact
rejection the enforcement point must raise (same class, code and detail
the inline handlers produced), the ordered list of rule evaluations
(the forensic trace), any obligations the enforcement point must apply
even on denial, and the context facts the rules resolved along the way
(the authenticated user, the live binding, ...).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

#: Every endpoint action a :class:`~repro.cloud.pdp.spec.PolicySpec`
#: must cover, in dispatch-table order.
ACTIONS = (
    "login",
    "dev-token",
    "bind-token",
    "status",
    "bind",
    "unbind",
    "control",
    "schedule",
    "query",
    "binding-info",
    "event-poll",
    "share",
    "share-revoke",
    "fetch",
)


class AuthzRequest:
    """One authorization question, as the enforcement point phrases it.

    A ``__slots__`` record on the per-request hot path.  Credentials are
    optional because their *absence* is itself policy-relevant (e.g. a
    bare-DevId unbind); the rules decide what missing material means.
    """

    __slots__ = (
        "action",
        "source",
        "source_ip",
        "user_token",
        "user_id",
        "user_pw",
        "device_id",
        "dev_token",
        "signature",
        "payload",
        "bind_token",
        "post_binding_token",
        "grantee",
    )

    def __init__(
        self,
        action: str,
        source: str = "",
        source_ip: Any = None,
        user_token: Optional[str] = None,
        user_id: Optional[str] = None,
        user_pw: Optional[str] = None,
        device_id: Optional[str] = None,
        dev_token: Optional[str] = None,
        signature: Optional[str] = None,
        payload: Optional[dict] = None,
        bind_token: Optional[str] = None,
        post_binding_token: Optional[str] = None,
        grantee: Optional[str] = None,
    ) -> None:
        self.action = action
        self.source = source
        self.source_ip = source_ip
        self.user_token = user_token
        self.user_id = user_id
        self.user_pw = user_pw
        self.device_id = device_id
        self.dev_token = dev_token
        self.signature = signature
        self.payload = payload
        self.bind_token = bind_token
        self.post_binding_token = post_binding_token
        self.grantee = grantee


class RuleEval:
    """One rule's evaluation within a decision: the forensic unit."""

    __slots__ = ("rule", "outcome", "code")

    def __init__(self, rule: str, outcome: str, code: str = "") -> None:
        self.rule = rule
        self.outcome = outcome  # "pass" | "deny"
        self.code = code  # rejection code when denied, else ""

    def render(self) -> str:
        """Compact ``rule:outcome[(code)]`` rendering for traces."""
        if self.code:
            return f"{self.rule}:{self.outcome}({self.code})"
        return f"{self.rule}:{self.outcome}"


class Decision:
    """The PDP's explainable verdict for one :class:`AuthzRequest`."""

    __slots__ = (
        "allowed", "rejection", "evaluations", "obligations", "context",
        "_trace",
    )

    def __init__(
        self,
        allowed: bool,
        rejection: Optional[Exception],
        evaluations: Tuple[RuleEval, ...],
        obligations: Tuple[Tuple[str, Any], ...] = (),
        context: Optional[Dict[str, Any]] = None,
        trace: Optional[str] = None,
    ) -> None:
        self.allowed = allowed
        #: the exact exception the enforcement point raises on denial —
        #: same class / code / detail the inline handler checks produced
        self.rejection = rejection
        #: ordered rule evaluations, stopping at the first denial
        self.evaluations = evaluations
        #: deny-path side effects the enforcement point must apply
        #: *before* raising (e.g. the bind-probe enumeration counter)
        self.obligations = obligations
        #: facts resolved while deciding (authenticated user, binding,
        #: owner/grantee flag, rebind-replacement flag, ...)
        self.context = context if context is not None else {}
        #: the rendered :meth:`trace`, when the caller already has it
        self._trace = trace

    def trace(self) -> str:
        """The ordered rule trail as one compact string (memoized).

        This is what flows into tracer exchange leaves and rides on
        forensic events, e.g.
        ``require-user:pass>check-rebind:deny(already-bound)``.
        """
        trace = self._trace
        if trace is None:
            trace = ">".join(e.render() for e in self.evaluations)
            self._trace = trace
        return trace

    def explain(self) -> str:
        """Multi-line human rendering (diagnostics, ``repro designs``)."""
        verdict = "allow" if self.allowed else "deny"
        lines = [f"decision: {verdict}"]
        if self.rejection is not None:
            code = getattr(self.rejection, "code", "")
            detail = getattr(self.rejection, "detail", "")
            lines.append(f"rejection: {type(self.rejection).__name__} "
                         f"{code}: {detail}")
        for evaluation in self.evaluations:
            lines.append(f"  {evaluation.render()}")
        return "\n".join(lines)
