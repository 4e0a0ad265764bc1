"""Declarative authorization policy: a vendor design as *data*.

A :class:`PolicySpec` is an ordered list of :class:`RuleRef`\\ s per
endpoint action — nothing else.  Every one of the paper's ten vendors
and the three secure baselines compiles to one
(:meth:`PolicySpec.from_design`); synthetic design-space points compile
the same way, which is what lets ``repro designs enumerate`` sweep
thousands of policies without touching handler code.

Specs round-trip losslessly through plain JSON data
(:meth:`PolicySpec.to_data` / :meth:`PolicySpec.from_data`) and are
checked by :func:`validate_spec` before a
:class:`~repro.cloud.pdp.engine.PolicyDecisionPoint` will evaluate
them: unknown actions or rules, malformed parameters, rules unreachable
behind an unconditional ``deny``, and rule lists whose dataflow is
inconsistent (a rule evaluated before anything resolved the fact it
needs; an endpoint that can allow without resolving the facts its
enforcement point must have) are all rejected as
:class:`PolicySpecError`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.cloud.pdp.model import ACTIONS
from repro.cloud.pdp.rules import DENY_KINDS, RULES
from repro.cloud.policy import BindSchema, DeviceAuthMode, VendorDesign
from repro.core.errors import ConfigurationError


class PolicySpecError(ConfigurationError):
    """A policy spec is structurally malformed."""


#: scalar parameter type checks (bool is not an int here)
_TYPE_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}

#: per-parameter value vocabularies/ranges beyond the scalar type
_VALUE_CHECKS = {
    ("deny", "kind"): lambda v: v in DENY_KINDS,
    ("require-bind-principal", "sender"): lambda v: v in ("app", "device"),
    ("authenticate-device", "mode"): lambda v: v in ("DevId", "DevToken", "PubKey"),
    ("limit-bind-probes", "limit"): lambda v: v >= 1,
    ("require-fresh-same-ip-registration", "window"): lambda v: v > 0,
}

#: facts an action's rule list must have resolved by the time it can
#: allow — what the enforcement point's mutation step consumes.
ACTION_REQUIRES: Dict[str, Tuple[str, ...]] = {
    "login": (),
    "dev-token": ("user", "registered"),
    "bind-token": ("user",),
    "status": ("device",),
    "bind": ("user", "registered", "bind-resolution"),
    "unbind": ("registered", "binding", "revocation"),
    "control": ("access", "online"),
    "schedule": ("owner",),
    "query": ("access",),
    "binding-info": ("owner",),
    "event-poll": ("user",),
    "share": ("owner", "grantee"),
    "share-revoke": ("owner",),
    "fetch": ("device",),
}


class RuleRef:
    """One spec entry: a rule name plus its parameter values."""

    __slots__ = ("rule", "params")

    def __init__(self, rule: str, params: Optional[Mapping[str, Any]] = None) -> None:
        self.rule = rule
        self.params: Dict[str, Any] = dict(params or {})

    def to_data(self) -> Dict[str, Any]:
        """Plain-data form (rule name; params only when present)."""
        data: Dict[str, Any] = {"rule": self.rule}
        if self.params:
            data["params"] = dict(self.params)
        return data

    def render(self) -> str:
        """Compact one-line rendering for CLI/describe output."""
        if not self.params:
            return self.rule
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{self.rule}({args})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RuleRef):
            return NotImplemented
        return self.rule == other.rule and self.params == other.params


class PolicySpec:
    """One complete authorization policy: ordered rules per action."""

    __slots__ = ("name", "actions")

    def __init__(self, name: str, actions: Mapping[str, List[RuleRef]]) -> None:
        self.name = name
        self.actions: Dict[str, Tuple[RuleRef, ...]] = {
            action: tuple(rules) for action, rules in actions.items()
        }

    # -- data round-trip -----------------------------------------------------

    def to_data(self) -> Dict[str, Any]:
        """The spec as plain JSON-able data (the canonical form)."""
        return {
            "name": self.name,
            "actions": {
                action: [ref.to_data() for ref in self.actions[action]]
                for action in ACTIONS
                if action in self.actions
            },
        }

    @classmethod
    def from_data(cls, data: Mapping[str, Any]) -> "PolicySpec":
        """Load and validate a spec from plain data (e.g. parsed JSON)."""
        if not isinstance(data, Mapping):
            raise PolicySpecError("policy spec must be a mapping")
        name = data.get("name")
        actions_data = data.get("actions")
        if not isinstance(name, str) or not name:
            raise PolicySpecError("policy spec needs a non-empty 'name'")
        if not isinstance(actions_data, Mapping):
            raise PolicySpecError(f"{name}: 'actions' must be a mapping")
        actions: Dict[str, List[RuleRef]] = {}
        for action, refs in actions_data.items():
            if not isinstance(refs, (list, tuple)):
                raise PolicySpecError(f"{name}.{action}: rule list must be a list")
            rules = []
            for ref in refs:
                if not isinstance(ref, Mapping) or "rule" not in ref:
                    raise PolicySpecError(
                        f"{name}.{action}: each entry needs a 'rule' key"
                    )
                params = ref.get("params", {})
                if not isinstance(params, Mapping):
                    raise PolicySpecError(
                        f"{name}.{action}.{ref['rule']}: params must be a mapping"
                    )
                rules.append(RuleRef(ref["rule"], params))
            actions[action] = rules
        spec = cls(name, actions)
        validate_spec(spec)
        return spec

    def digest(self) -> str:
        """sha256 of the canonical JSON form (spec identity/distinctness)."""
        canonical = json.dumps(self.to_data(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolicySpec):
            return NotImplemented
        return self.to_data() == other.to_data()

    # -- compilation from the knob space -------------------------------------

    @classmethod
    def from_design(cls, design: VendorDesign) -> "PolicySpec":
        """Compile a :class:`VendorDesign`'s knobs into declarative rules.

        The compiled spec preserves the exact check *order* the paper's
        endpoint walkthroughs establish (and the pre-PDP handlers
        implemented inline), so decisions — and their cache hit/miss
        sequences — are bit-identical to the branching code it replaces.
        """
        mode = design.device_auth.value
        capability = design.bind_schema is BindSchema.CAPABILITY
        actions: Dict[str, List[RuleRef]] = {}

        actions["login"] = [RuleRef("allow")]

        if design.device_auth is DeviceAuthMode.DEV_TOKEN:
            actions["dev-token"] = [
                RuleRef("require-user"),
                RuleRef("require-registered-device"),
                RuleRef("require-unbound-or-owner"),
            ]
        else:
            actions["dev-token"] = [RuleRef("deny", {
                "code": "unsupported",
                "detail": "this vendor does not use DevTokens",
            })]

        if capability:
            actions["bind-token"] = [RuleRef("require-user")]
            actions["bind"] = [
                RuleRef("require-bind-capability"),
                RuleRef("require-registered-device"),
                RuleRef("require-device-channel"),
                RuleRef("require-unbound"),
            ]
        else:
            actions["bind-token"] = [RuleRef("deny", {
                "code": "unsupported",
                "detail": "this vendor does not use BindTokens",
            })]
            bind = [RuleRef("require-bind-principal",
                            {"sender": design.bind_sender.value})]
            if design.bind_probe_rate_limit is not None:
                bind.append(RuleRef("limit-bind-probes",
                                    {"limit": design.bind_probe_rate_limit}))
                bind.append(RuleRef("require-registered-device",
                                    {"count_probe_failures": True}))
            else:
                bind.append(RuleRef("require-registered-device"))
            if design.ip_match_required:
                bind.append(RuleRef("require-fresh-same-ip-registration",
                                    {"window": design.bind_window_seconds}))
            if design.bind_requires_online_device:
                bind.append(RuleRef("require-online-device"))
            bind.append(RuleRef("check-rebind",
                                {"replaces": design.rebind_replaces_existing}))
            actions["bind"] = bind

        if design.unbind_supported:
            actions["unbind"] = [
                RuleRef("require-registered-device"),
                RuleRef("require-existing-binding"),
                RuleRef("authorize-revocation", {
                    "accepts_bare_dev_id": design.unbind_accepts_bare_dev_id,
                    "checks_bound_user": design.unbind_checks_bound_user,
                }),
            ]
        else:
            actions["unbind"] = [RuleRef("deny", {
                "code": "unbind-unsupported",
                "detail": "vendor has no revocation endpoint",
            })]

        actions["status"] = [RuleRef("authenticate-device", {"mode": mode})]
        actions["fetch"] = [RuleRef("authenticate-device", {"mode": mode})]

        control = [RuleRef("require-device-access"), RuleRef("require-online-shadow")]
        if design.post_binding_token:
            control.append(RuleRef("require-post-binding-token"))
        actions["control"] = control

        actions["query"] = [RuleRef("require-device-access")]
        actions["schedule"] = [RuleRef("require-bound-user")]
        actions["binding-info"] = [RuleRef("require-bound-user")]
        actions["event-poll"] = [RuleRef("require-user")]
        actions["share"] = [RuleRef("require-bound-user"),
                            RuleRef("require-known-grantee")]
        actions["share-revoke"] = [RuleRef("require-bound-user")]

        return cls(design.name, actions)


def validate_spec(spec: PolicySpec) -> None:
    """Reject structurally malformed specs (see module docstring)."""
    if not spec.name:
        raise PolicySpecError("policy spec needs a non-empty name")
    missing = set(ACTIONS) - set(spec.actions)
    if missing:
        raise PolicySpecError(
            f"{spec.name}: no rules for action(s) {sorted(missing)}"
        )
    unknown = set(spec.actions) - set(ACTIONS)
    if unknown:
        raise PolicySpecError(
            f"{spec.name}: unknown action(s) {sorted(unknown)}"
        )
    for action in ACTIONS:
        _validate_action(spec.name, action, spec.actions[action])


def _validate_action(name: str, action: str, refs: Tuple[RuleRef, ...]) -> None:
    where = f"{name}.{action}"
    if not refs:
        raise PolicySpecError(f"{where}: empty rule list")
    provided: set = set()
    terminated = False
    for ref in refs:
        if terminated:
            raise PolicySpecError(
                f"{where}: rule {ref.rule!r} is unreachable after a 'deny'"
            )
        rule = RULES.get(ref.rule)
        if rule is None:
            raise PolicySpecError(f"{where}: unknown rule {ref.rule!r}")
        _validate_params(where, ref, rule)
        needs = set(rule.needs)
        if ref.params.get("count_probe_failures"):
            # The deny-path obligation charges the resolved account.
            needs.add("user")
        unmet = needs - provided
        if unmet:
            raise PolicySpecError(
                f"{where}: rule {ref.rule!r} needs {sorted(unmet)} "
                "but no earlier rule provides it"
            )
        provided |= rule.provides
        terminated = rule.terminal
    if not terminated:
        required = set(ACTION_REQUIRES[action])
        unmet = required - provided
        if unmet:
            raise PolicySpecError(
                f"{where}: an allowing decision would leave {sorted(unmet)} "
                "unresolved for the enforcement point"
            )


def _validate_params(where: str, ref: RuleRef, rule: Any) -> None:
    unknown = set(ref.params) - set(rule.params)
    if unknown:
        raise PolicySpecError(
            f"{where}.{ref.rule}: unknown param(s) {sorted(unknown)}"
        )
    absent = rule.required - set(ref.params)
    if absent:
        raise PolicySpecError(
            f"{where}.{ref.rule}: missing required param(s) {sorted(absent)}"
        )
    for key, value in ref.params.items():
        kind = rule.params[key]
        if not _TYPE_CHECKS[kind](value):
            raise PolicySpecError(
                f"{where}.{ref.rule}.{key}: expected {kind}, got {value!r}"
            )
        check = _VALUE_CHECKS.get((ref.rule, key))
        if check is not None and not check(value):
            raise PolicySpecError(
                f"{where}.{ref.rule}.{key}: value {value!r} out of range"
            )
