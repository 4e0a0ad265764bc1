"""The PDP/PEP split: declarative specs, decisions, delegation authz.

Four concerns, one per test class group:

* compiling every studied design (and the baselines) to a validated
  :class:`~repro.cloud.pdp.spec.PolicySpec` and round-tripping it
  through plain data;
* the validator rejecting malformed specs (unknown rules, bad
  parameters, unreachable rules, broken dataflow);
* decisions as explainable artifacts — ordered rule traces, deny-path
  obligations, and the trace flowing into tracer leaves and forensic
  events;
* the share/delegation authorization paths (grant, revoke, control by
  a grantee) including authz-cache epoch invalidation on revoke.
"""

import pytest

from repro.cloud.pdp import (
    ACTIONS,
    AuthzRequest,
    PolicyDecisionPoint,
    PolicySpec,
    PolicySpecError,
    RuleRef,
    RULES,
    validate_spec,
)
from repro.cloud.policy import VendorDesign
from repro.core.messages import (
    BindMessage,
    ControlMessage,
    DevTokenRequest,
    LoginRequest,
    QueryRequest,
    ShareRequest,
    ShareRevoke,
    StatusMessage,
)
from repro.secure import SECURE_BASELINES
from repro.vendors import STUDIED_VENDORS
from tests.helpers import CloudHarness

ALL_DESIGNS = tuple(STUDIED_VENDORS) + tuple(SECURE_BASELINES)


def make_harness(**overrides) -> CloudHarness:
    defaults = dict(name="T", device_type="smart-plug", id_scheme="serial-number")
    defaults.update(overrides)
    harness = CloudHarness(VendorDesign(**defaults))
    harness.cloud.accounts.register("alice", "pw-a")
    harness.cloud.accounts.register("grace", "pw-g")
    harness.cloud.accounts.register("mallory", "pw-m")
    harness.cloud.manufacture_device("dev-1", "smart-plug")
    return harness


def login(harness: CloudHarness, user: str = "alice", pw: str = "pw-a") -> str:
    return harness.must(LoginRequest(user, pw)).user_token


def bring_online(harness: CloudHarness, token: str, device_id: str = "dev-1") -> None:
    """Fetch a DevToken and heartbeat so the shadow is online."""
    dev_token = harness.must(DevTokenRequest(token, device_id)).token
    harness.must(StatusMessage(device_id=device_id, dev_token=dev_token),
                 src="probe-b")


# ---------------------------------------------------------------------------
# compilation from the knob space
# ---------------------------------------------------------------------------


class TestSpecCompilation:
    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.name)
    def test_every_design_compiles_and_validates(self, design):
        spec = PolicySpec.from_design(design)
        validate_spec(spec)  # must not raise
        assert set(spec.actions) == set(ACTIONS)

    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.name)
    def test_round_trip_through_plain_data(self, design):
        spec = PolicySpec.from_design(design)
        assert PolicySpec.from_data(spec.to_data()) == spec

    def test_all_thirteen_specs_distinct(self):
        digests = {PolicySpec.from_design(d).digest() for d in ALL_DESIGNS}
        assert len(digests) == len(ALL_DESIGNS)

    def test_knobs_shape_the_bind_rule_list(self):
        hue = next(d for d in STUDIED_VENDORS if d.name == "Philips Hue")
        rules = [ref.rule for ref in PolicySpec.from_design(hue).actions["bind"]]
        assert "require-fresh-same-ip-registration" in rules
        ozwi = next(d for d in STUDIED_VENDORS if d.name == "OZWI")
        refs = PolicySpec.from_design(ozwi).actions["bind"]
        assert refs[-1] == RuleRef("check-rebind", {"replaces": False})

    def test_unsupported_endpoints_compile_to_deny(self):
        design = VendorDesign(name="no-unbind", unbind_supported=False,
                              rebind_replaces_existing=True)
        spec = PolicySpec.from_design(design)
        (ref,) = spec.actions["unbind"]
        assert ref.rule == "deny" and ref.params["code"] == "unbind-unsupported"


# ---------------------------------------------------------------------------
# validator: malformed specs are rejected as data, not at decision time
# ---------------------------------------------------------------------------


def valid_spec() -> PolicySpec:
    return PolicySpec.from_design(VendorDesign(name="base"))


class TestSpecValidation:
    def _reject(self, mutate, match: str) -> None:
        spec = valid_spec()
        mutate(spec)
        with pytest.raises(PolicySpecError, match=match):
            validate_spec(spec)

    def test_missing_action(self):
        self._reject(lambda s: s.actions.pop("control"), "no rules for action")

    def test_unknown_action(self):
        self._reject(
            lambda s: s.actions.update({"frobnicate": (RuleRef("allow"),)}),
            "unknown action",
        )

    def test_empty_rule_list(self):
        self._reject(lambda s: s.actions.update({"login": ()}), "empty rule list")

    def test_unknown_rule(self):
        self._reject(
            lambda s: s.actions.update({"login": (RuleRef("no-such-rule"),)}),
            "unknown rule",
        )

    def test_rule_after_terminal_deny_unreachable(self):
        deny = RuleRef("deny", {"code": "x", "detail": "y"})
        self._reject(
            lambda s: s.actions.update({"login": (deny, RuleRef("allow"))}),
            "unreachable",
        )

    def test_unknown_param(self):
        self._reject(
            lambda s: s.actions.update(
                {"login": (RuleRef("allow", {"bogus": 1}),)}
            ),
            "unknown param",
        )

    def test_missing_required_param(self):
        self._reject(
            lambda s: s.actions.update({"unbind": (
                RuleRef("require-registered-device"),
                RuleRef("require-existing-binding"),
                RuleRef("authorize-revocation", {"checks_bound_user": True}),
            )}),
            "missing required param",
        )

    def test_param_type_checked(self):
        self._reject(
            lambda s: s.actions.update({"event-poll": (
                RuleRef("require-user"),
                RuleRef("limit-bind-probes", {"limit": "three"}),
            )}),
            "expected int",
        )

    def test_param_value_range_checked(self):
        self._reject(
            lambda s: s.actions.update({"event-poll": (
                RuleRef("require-user"),
                RuleRef("limit-bind-probes", {"limit": 0}),
            )}),
            "out of range",
        )

    def test_bool_is_not_an_int(self):
        self._reject(
            lambda s: s.actions.update({"event-poll": (
                RuleRef("require-user"),
                RuleRef("limit-bind-probes", {"limit": True}),
            )}),
            "expected int",
        )

    def test_dataflow_needs_unmet(self):
        # limit-bind-probes consumes the resolved user; nothing provides it.
        self._reject(
            lambda s: s.actions.update(
                {"login": (RuleRef("limit-bind-probes", {"limit": 3}),)}
            ),
            "needs",
        )

    def test_allow_path_must_resolve_enforcement_facts(self):
        # A control list that never resolves device access can't allow.
        self._reject(
            lambda s: s.actions.update(
                {"control": (RuleRef("require-online-shadow"),)}
            ),
            "unresolved",
        )

    def test_from_data_rejects_non_mapping(self):
        with pytest.raises(PolicySpecError):
            PolicySpec.from_data([])

    def test_from_data_rejects_missing_name(self):
        with pytest.raises(PolicySpecError, match="name"):
            PolicySpec.from_data({"actions": {}})

    def test_engine_refuses_malformed_spec(self):
        spec = valid_spec()
        spec.actions.pop("bind")
        with pytest.raises(PolicySpecError):
            PolicyDecisionPoint(object(), spec)


# ---------------------------------------------------------------------------
# decisions: explainable verdicts, obligations, trace flow
# ---------------------------------------------------------------------------


class TestDecisions:
    def test_allow_decision_records_every_passed_rule(self):
        harness = make_harness()
        token = login(harness)
        decision = harness.cloud.pdp.decide(
            AuthzRequest("bind", user_token=token, device_id="dev-1")
        )
        assert decision.allowed
        assert decision.trace() == (
            "require-bind-principal:pass>require-registered-device:pass"
            ">check-rebind:pass"
        )
        assert decision.context["user"] == "alice"

    def test_deny_decision_stops_at_first_failing_rule(self):
        harness = make_harness()
        token = login(harness)
        decision = harness.cloud.pdp.decide(
            AuthzRequest("bind", user_token=token, device_id="ghost")
        )
        assert not decision.allowed
        assert decision.rejection.code == "unknown-device"
        assert decision.trace().endswith(
            "require-registered-device:deny(unknown-device)"
        )
        assert "explain" not in decision.trace()
        assert "decision: deny" in decision.explain()

    def test_bind_probe_obligation_charged_before_rejection(self):
        harness = make_harness(bind_probe_rate_limit=2)
        token = login(harness)
        for _ in range(2):
            accepted, code, _ = harness.send(
                BindMessage(device_id="ghost", user_token=token)
            )
            assert not accepted and code == "unknown-device"
        assert harness.cloud.bind_probe_failures["alice"] == 2
        accepted, code, _ = harness.send(
            BindMessage(device_id="ghost", user_token=token)
        )
        assert not accepted and code == "rate-limited"

    def test_trace_reaches_tracer_leaf_and_forensics(self):
        from repro.obs import Observability
        from repro.net.network import Network
        from repro.sim.environment import Environment
        from repro.cloud.service import CloudService

        obs = Observability(trace_messages=True)
        env = Environment(seed=0, observer=obs)
        network = Network(env)
        cloud = CloudService(env, network, VendorDesign(name="T"))
        network.add_internet_node("probe-a", None, "198.51.100.1")
        cloud.accounts.register("alice", "pw-a")
        cloud.manufacture_device("dev-1", "smart-plug")
        token = network.request(
            "probe-a", cloud.node_name, LoginRequest("alice", "pw-a")
        ).user_token
        network.request(
            "probe-a", cloud.node_name,
            BindMessage(device_id="dev-1", user_token=token),
        )
        leaves = [
            span for root in obs.tracer.walk() for span in root.walk()
            if "authz" in span.attrs
        ]
        assert leaves, "no exchange leaf carried an authz trace"
        assert any(
            "require-bind-principal:pass" in span.attrs["authz"]
            for span in leaves
        )
        (bind_event,) = [
            e for e in cloud.forensics.events() if e.kind == "bind"
        ]
        assert "check-rebind:pass" in bind_event.decision_trace

    def test_decision_trace_is_volatile_evidence(self):
        harness = make_harness()
        token = login(harness)
        # traces are rendered only when someone watches: a live sink
        # (or a real observer) opts this world in
        harness.cloud.forensics.add_sink(lambda event: None)
        harness.must(BindMessage(device_id="dev-1", user_token=token))
        (event,) = [e for e in harness.cloud.forensics.events()
                    if e.kind == "bind"]
        assert event.decision_trace  # live events carry the trail
        record = harness.cloud.forensics.to_record(event)
        assert "decision_trace" not in record  # identity/serialization don't
        replayed = harness.cloud.forensics.from_record(record)
        assert replayed.decision_trace == ""
        assert replayed == event  # equality ignores the volatile slot


# ---------------------------------------------------------------------------
# share/delegation authorization (grant, revoke, epoch invalidation)
# ---------------------------------------------------------------------------


class TestShareDelegation:
    def _bound_online_harness(self):
        harness = make_harness()
        owner = login(harness)
        harness.must(BindMessage(device_id="dev-1", user_token=owner))
        bring_online(harness, owner)
        return harness, owner

    def test_owner_can_share_with_existing_account(self):
        harness, owner = self._bound_online_harness()
        response = harness.must(ShareRequest(owner, "dev-1", "grace"))
        assert response.payload["shared_with"] == "grace"

    def test_share_to_unknown_grantee_rejected(self):
        harness, owner = self._bound_online_harness()
        accepted, code, _ = harness.send(ShareRequest(owner, "dev-1", "nobody"))
        assert not accepted and code == "unknown-grantee"

    def test_non_owner_cannot_share(self):
        harness, _owner = self._bound_online_harness()
        mallory = login(harness, "mallory", "pw-m")
        accepted, code, _ = harness.send(
            ShareRequest(mallory, "dev-1", "grace")
        )
        assert not accepted and code == "not-bound-user"

    def test_grantee_gains_control_and_query(self):
        harness, owner = self._bound_online_harness()
        harness.must(ShareRequest(owner, "dev-1", "grace"))
        grace = login(harness, "grace", "pw-g")
        assert harness.must(
            ControlMessage(grace, "dev-1", "on")
        ).payload["queued"] == "on"
        assert harness.must(QueryRequest(grace, "dev-1")).payload["state"]

    def test_revoke_cuts_grantee_control_despite_warm_cache(self):
        harness, owner = self._bound_online_harness()
        harness.must(ShareRequest(owner, "dev-1", "grace"))
        grace = login(harness, "grace", "pw-g")
        # Warm the ("access", grace, dev-1) decision and hit it at least once.
        harness.must(ControlMessage(grace, "dev-1", "on"))
        hits_before = harness.cloud.authz_cache.stats()["hits"]
        harness.must(ControlMessage(grace, "dev-1", "on"))
        assert harness.cloud.authz_cache.stats()["hits"] > hits_before
        # Revoking bumps the authz epoch: the cached grant must die.
        harness.must(ShareRevoke(owner, "dev-1", "grace"))
        accepted, code, _ = harness.send(ControlMessage(grace, "dev-1", "on"))
        assert not accepted and code == "not-bound-user"

    def test_revoke_of_unshared_grantee_reports_not_shared(self):
        harness, owner = self._bound_online_harness()
        accepted, code, _ = harness.send(ShareRevoke(owner, "dev-1", "grace"))
        assert not accepted and code == "not-shared"

    def test_non_owner_cannot_revoke(self):
        harness, owner = self._bound_online_harness()
        harness.must(ShareRequest(owner, "dev-1", "grace"))
        mallory = login(harness, "mallory", "pw-m")
        accepted, code, _ = harness.send(
            ShareRevoke(mallory, "dev-1", "grace")
        )
        assert not accepted and code == "not-bound-user"
        # The grant survives a rejected revocation.
        grace = login(harness, "grace", "pw-g")
        harness.must(ControlMessage(grace, "dev-1", "on"))


# ---------------------------------------------------------------------------
# the declarative design space
# ---------------------------------------------------------------------------


class TestPolicySpace:
    def test_enumerator_yields_many_distinct_valid_specs(self):
        from repro.analysis.policy_space import enumerate_policy_space

        digests = set()
        count = 0
        for point in enumerate_policy_space():
            count += 1
            digests.add(point.rules_digest)
        assert count >= 100
        assert len(digests) >= 100

    def test_enumerator_raises_instead_of_yielding_an_invalid_spec(self, monkeypatch):
        from repro.analysis.policy_space import enumerate_policy_space

        compiled = PolicySpec.from_design

        def from_design(design):
            spec = compiled(design)
            if len(yielded) == 2:
                spec.actions.pop("bind")
            return spec

        monkeypatch.setattr(PolicySpec, "from_design", staticmethod(from_design))
        yielded = []
        with pytest.raises(PolicySpecError, match="no rules for action"):
            for point in enumerate_policy_space(limit=5):
                yielded.append(point)
        assert len(yielded) == 2

    def test_differential_check_flags_divergence_classes(self):
        from repro.analysis.policy_space import differential_check

        report = differential_check()
        assert report.policies > 0
        assert report.distinct_specs >= 100
        # The oracles model different abstraction levels; composing
        # attack moves changes reachability for at least one goal.
        assert len(report.classes) >= 1
        assert report.agreements + len(
            {d.design for d in report.divergences}
        ) == report.policies
        rendered = report.render()
        assert "divergence classes" in rendered
