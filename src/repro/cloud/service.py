"""The IoT cloud service: wiring, dispatch, liveness sweep.

One :class:`CloudService` instance is one vendor's cloud, configured by
a :class:`~repro.cloud.policy.VendorDesign`.  It attaches to the
simulated internet as a node, dispatches incoming packets to
:class:`~repro.cloud.handlers.EndpointHandlers`, and runs the periodic
liveness sweep that moves silent shadows offline (Figure 2's timeout
transitions).
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Dict, Optional

from repro.cloud.accounts import AccountStore
from repro.cloud.audit import AuditLog
from repro.cloud.authz import AuthorizationCache, AuthzVersion
from repro.cloud.bindings import BindingStore
from repro.cloud.handlers import EndpointHandlers
from repro.cloud.pdp import PolicyDecisionPoint
from repro.cloud.policy import VendorDesign
from repro.cloud.registry import DeviceRegistry
from repro.cloud.events import EventFeed, UserEvent
from repro.cloud.relay import Relay
from repro.cloud.shadows import ShadowStore
from repro.cloud.sharing import ShareStore
from repro.cloud.state.backends import StateBackend
from repro.cloud.state.journal import meta_entry
from repro.cloud.state.protocol import RecordStoreBase
from repro.cloud.state.snapshot import build_snapshot, load_snapshot
from repro.core.errors import ConfigurationError, ProtocolError, RequestRejected
from repro.core.messages import (
    BindingInfoRequest,
    BindMessage,
    BindTokenRequest,
    ControlMessage,
    DeviceFetch,
    DevTokenRequest,
    EventPollRequest,
    LoginRequest,
    Message,
    QueryRequest,
    Response,
    ScheduleUpdate,
    ShareRequest,
    ShareRevoke,
    StatusMessage,
    UnbindMessage,
    describe,
)
from repro.core.shadow import DeviceShadow
from repro.identity.keys import PublicKey
from repro.identity.tokens import TokenKind, TokenService
from repro.net.network import Network
from repro.net.packet import Packet
from repro.obs.detect.timeline import ForensicTimeline
from repro.obs.observer import NULL_OBSERVER, RequestRecord
from repro.sim.environment import Environment

#: Message types that land on a device shadow's forensic timeline,
#: mapped to the timeline's event kind.
_FORENSIC_KINDS = {
    StatusMessage: "status",
    BindMessage: "bind",
    UnbindMessage: "unbind",
    ControlMessage: "control",
    DeviceFetch: "fetch",
}

#: Message type -> PDP action name, the RED accounting key (matches
#: :data:`repro.cloud.pdp.model.ACTIONS`); used only on observed runs.
_ENDPOINT_ACTIONS = {
    LoginRequest: "login",
    DevTokenRequest: "dev-token",
    BindTokenRequest: "bind-token",
    StatusMessage: "status",
    BindMessage: "bind",
    UnbindMessage: "unbind",
    ControlMessage: "control",
    ScheduleUpdate: "schedule",
    QueryRequest: "query",
    BindingInfoRequest: "binding-info",
    EventPollRequest: "event-poll",
    ShareRequest: "share",
    ShareRevoke: "share-revoke",
    DeviceFetch: "fetch",
}


class CloudService:
    """A vendor's IoT cloud on the simulated internet."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        design: VendorDesign,
        node_name: str = "cloud",
        public_ip: str = "52.0.0.1",
    ) -> None:
        self.env = env
        self.network = network
        self.design = design
        self.node_name = node_name
        #: where this cloud sits on the simulated internet (a restart
        #: rebuilds the successor at the same address)
        self.public_ip = public_ip
        self.tokens = TokenService(env.rng.fork(f"cloud-tokens-{design.name}"))
        self.accounts = AccountStore(self.tokens)
        self.registry = DeviceRegistry(self.tokens)
        self.bindings = BindingStore()
        self.shares = ShareStore()
        # Authorization epoch + decision cache: every mutation of a store
        # that feeds authorization decisions bumps the shared version,
        # which wholesale-invalidates the cache (see repro.cloud.authz).
        self.authz_version = AuthzVersion()
        for authz_store in (
            self.accounts,
            self.tokens,
            self.registry,
            self.bindings,
            self.shares,
        ):
            authz_store.bind_authz_version(self.authz_version)
        self.authz_cache = AuthorizationCache(self.authz_version)
        # Observability: the audit log feeds the observer (one source of
        # truth for message counters/spans) and shadows report Figure 2
        # transitions.  With the null observer installed, both stores
        # keep their fast uninstrumented paths.
        self._observer = env.observer
        #: precomputed fast-path flag: when False no request record is
        #: built and no clock is read per packet (the PDP reads it too)
        self._observed = self._observer is not NULL_OBSERVER
        # Authorization policy: the design's knobs compiled to ordered
        # declarative rules (once per process and design), evaluated by
        # one decision point; handlers are thin enforcement points over
        # its decisions.
        self.pdp = PolicyDecisionPoint.for_design(self, design)
        instrumented = self._observer if self._observed else None
        self.shadows = ShadowStore(observer=instrumented)
        self.relay = Relay()
        self.audit = AuditLog(observer=instrumented)
        #: per-account unknown-device bind failures (enumeration defence)
        self.bind_probe_failures: dict = {}
        self.events = EventFeed()
        #: per-shadow forensic evidence (always on; read-only consumers
        #: subscribe via ``forensics.add_sink``)
        self.forensics = ForensicTimeline()
        self._handlers = EndpointHandlers(self)
        handlers = self._handlers
        #: type -> bound handler; replaces a 14-branch isinstance chain on
        #: the per-packet dispatch path (message types are never subclassed)
        self._dispatch_table = {
            LoginRequest: handlers.handle_login,
            DevTokenRequest: handlers.handle_dev_token_request,
            BindTokenRequest: handlers.handle_bind_token_request,
            StatusMessage: handlers.handle_status,
            BindMessage: handlers.handle_bind,
            UnbindMessage: handlers.handle_unbind,
            ControlMessage: handlers.handle_control,
            ScheduleUpdate: handlers.handle_schedule,
            QueryRequest: handlers.handle_query,
            BindingInfoRequest: handlers.handle_binding_info,
            EventPollRequest: handlers.handle_event_poll,
            ShareRequest: handlers.handle_share,
            ShareRevoke: handlers.handle_share_revoke,
            DeviceFetch: handlers.handle_fetch,
        }
        self._sweep_handle = None
        self._sweep_active = False
        self._journal_backend: Optional[StateBackend] = None
        network.add_internet_node(node_name, self.handle_packet, public_ip)
        self.start_liveness_sweep()

    # -- lifecycle -----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.env.now

    def start_liveness_sweep(self, start_delay: Optional[float] = None) -> None:
        """Periodically move silent shadows offline.

        ``start_delay`` offsets the first firing from *now* (defaulting
        to one full interval): the warm-start path uses it to re-arm the
        sweep at exactly the virtual time the captured world's next
        sweep would have fired, keeping offline-timeout audit entries on
        the same schedule as a cold-built world.
        """
        if self._sweep_handle is not None:
            return
        interval = self.design.heartbeat_interval
        self._sweep_active = True

        def sweep() -> None:
            if not self._sweep_active:
                return
            expired = self.shadows.sweep_offline(self.now, self.design.offline_timeout)
            for device_id in expired:
                self.audit.record(
                    self.now, "cloud", "-", f"offline-timeout:{device_id}", "ok"
                )
                bound = self.bindings.bound_user(device_id)
                if bound is not None:
                    self.notify(bound, "device-offline", device_id,
                                "heartbeats stopped")

        self._sweep_handle = self.env.every(interval, sweep, start_delay=start_delay)

    def shutdown(self) -> None:
        """Take this cloud off the air (simulated restart/crash).

        Silences the liveness sweep (the scheduler idiom: cancel the
        pending handle and flag the chain inert), detaches the journal,
        and removes the node so a successor cloud can claim the name.
        """
        self._sweep_active = False
        if self._sweep_handle is not None:
            self._sweep_handle.cancel()
            self._sweep_handle = None
        self.detach_journal()
        if self.network.has_node(self.node_name):
            self.network.remove_node(self.node_name)

    @classmethod
    def restore(
        cls,
        env: Environment,
        network: Network,
        design: VendorDesign,
        data: Dict[str, Any],
        node_name: str = "cloud",
        public_ip: str = "52.0.0.1",
    ) -> "CloudService":
        """Build a cloud from a snapshot, through the real constructor.

        Replaces the old ``CloudService.__new__`` restart hack: the
        successor is wired exactly like any other cloud (handlers, sweep,
        observer) and then loads the v2 snapshot *data*.  Any
        previous holder of *node_name* must have been :meth:`shutdown`
        first; a leftover node of that name is replaced.
        """
        if network.has_node(node_name):
            network.remove_node(node_name)
        cloud = cls(env, network, design, node_name, public_ip)
        load_snapshot(cloud, data)
        return cloud

    # -- the unified state layer ---------------------------------------------

    def state_stores(self) -> Dict[str, RecordStoreBase]:
        """Every state store, keyed by section name, in restore order.

        Order matters on restore/replay: accounts and tokens come back
        before the stores whose checks may consult them.  The shadow
        store is listed (gauges, clones) but is volatile — snapshots and
        journals skip it.
        """
        return {
            "accounts": self.accounts,
            "tokens": self.tokens,
            "devices": self.registry,
            "bindings": self.bindings,
            "shares": self.shares,
            "shadows": self.shadows,
            "relay": self.relay,
            "events": self.events,
            "forensics": self.forensics,
        }

    def state_counts(self) -> Dict[str, Dict[str, int]]:
        """Per-store ``{records, mutations}`` numbers (metrics/reports)."""
        return {
            name: store.merge_counts() for name, store in self.state_stores().items()
        }

    def emit_state_gauges(self) -> None:
        """Publish per-store size and churn through the observer seam."""
        for name, counts in self.state_counts().items():
            self._observer.gauge(f"cloud.state.{name}.records", counts["records"])
            self._observer.count(
                "cloud.state.mutations", counts["mutations"], store=name
            )

    def attach_journal(self, backend: StateBackend, write_meta: bool = True) -> None:
        """Route every durable store mutation into *backend*.

        A fresh (empty) backend gets the self-describing ``_meta`` header
        first; recovery re-attaches with ``write_meta=False`` because the
        surviving journal already carries one.
        """
        self._journal_backend = backend
        if write_meta and backend.entry_count() == 0:
            backend.append(meta_entry(self.design.name))
        for store in self.state_stores().values():
            store.bind_journal(backend.append)

    def detach_journal(self) -> None:
        """Stop journaling (the backend keeps its entries)."""
        self._journal_backend = None
        for store in self.state_stores().values():
            store.bind_journal(None)

    @property
    def journal_backend(self) -> Optional[StateBackend]:
        """The attached journal backend, if any."""
        return self._journal_backend

    # -- campaign warm start -------------------------------------------------

    def capture_campaign_state(self) -> Dict[str, Any]:
        """Everything needed to resume this cloud mid-run, as picklable data.

        Snapshot v2 is the durable core, but a *restart* deliberately
        sheds state a *warm start* must keep: live shadows (a restart is
        a mass-offline event), relay queues/telemetry, the enumeration
        defence counters, the full audit log, the token RNG's stream
        position, per-store churn counters, and the liveness sweep's
        phase.  This captures the durable snapshot plus those overlays;
        :meth:`restore_campaign_state` reinstalls both halves.
        """
        return {
            "snapshot": build_snapshot(self),
            "shadows": self.shadows.snapshot_state(),
            "relay_volatile": self.relay.capture_volatile(),
            "bind_probe_failures": dict(self.bind_probe_failures),
            "audit_rows": list(self.audit.rows),
            "token_rng": self.tokens.rng_state(),
            "mutations": {
                name: store.merge_counts()["mutations"]
                for name, store in self.state_stores().items()
            },
            "sweep_next": (
                self._sweep_handle.time if self._sweep_handle is not None else None
            ),
            "time": self.now,
        }

    def restore_campaign_state(self, state: Dict[str, Any]) -> None:
        """Resume a captured world image on this freshly built cloud.

        The fast path behind warm-started campaign shards: unlike
        :func:`~repro.cloud.state.snapshot.load_snapshot` (a *restart*,
        which demands a pristine cloud and sheds volatile state), this
        overlays the image onto a structurally rebuilt world — the
        rebuild's records (accounts registered at t=0, manufactured
        devices) are an identical subset of the image's, so every
        restore is an idempotent upsert.  After it returns, the next
        request this cloud serves is bit-identical to what the captured
        cloud would have produced: same store contents, same shadow
        states, same audit history, same token stream position, same
        churn counters, same sweep phase.
        """
        snapshot = state["snapshot"]
        design = snapshot.get("design")
        if design != self.design.name:
            raise ConfigurationError(
                f"world image is for design {design!r}, not {self.design.name!r}"
            )
        # Silence the constructor-armed sweep before moving the clock:
        # its pending entry sits at build-time + interval, which may be
        # in the restored world's past.
        self._sweep_active = False
        if self._sweep_handle is not None:
            self._sweep_handle.cancel()
            self._sweep_handle = None
        self.env.clock.advance_to(state["time"])
        # Durable stores: upsert overlay in store order (accounts and
        # tokens before the stores whose checks consult them).
        sections = snapshot.get("stores", {})
        stores = self.state_stores()
        for name, store in stores.items():
            if not store.durable:
                continue
            store.restore_state(sections.get(name, []))
        # Live (not mass-offline) shadows: apply_record re-creates each
        # shadow through create() — observer hook wired — and replays
        # its captured facts.
        self.shadows.restore_state(state["shadows"])
        self.relay.restore_volatile(state["relay_volatile"])
        self.bind_probe_failures = dict(state["bind_probe_failures"])
        # Audit rows are installed directly, NOT re-record()ed: the
        # observer's audit counters are restored wholesale from the
        # image's metrics snapshot by the fleet-level restore, so
        # observing them here would double-count.
        self.audit.rows = list(state["audit_rows"])
        self.tokens.restore_rng_state(state["token_rng"])
        # Replaying records as upserts inflated every churn counter;
        # rewind each to the captured value.
        for name, mutations in state["mutations"].items():
            stores[name].set_mutation_count(mutations)
        sweep_next = state.get("sweep_next")
        if sweep_next is not None:
            self.start_liveness_sweep(start_delay=sweep_next - self.now)

    # -- vendor-side provisioning ------------------------------------------------

    def manufacture_device(
        self, device_id: str, model: str, public_key: Optional[PublicKey] = None
    ) -> DeviceShadow:
        """Register a manufactured device and create its shadow."""
        self.registry.manufacture(device_id, model, public_key)
        return self.shadows.create(device_id)

    # -- notifications -----------------------------------------------------------

    def notify(self, user_id: str, kind: str, device_id: str, detail: str = "") -> None:
        """Emit a user event if this vendor runs a notification feed."""
        if self.design.notifies_user:
            self.events.emit(user_id, UserEvent(self.now, kind, device_id, detail))

    # -- request dispatch -----------------------------------------------------------

    def handle_packet(self, packet: Packet) -> Message:
        """Network entry point: dispatch by message type, audit everything.

        Binding-affecting messages additionally land on the forensic
        timeline — on both outcomes — with the pre-dispatch binding
        owner and claimed actor captured here, where the request's
        before/after states are both visible.
        """
        # NULL_OBSERVER fast path: a precomputed boolean, not a no-op
        # call — the calm path builds no record and reads no clock.
        if self._observed:
            return self._handle_observed(packet)
        return self._handle_and_record(packet)

    def _handle_observed(self, packet: Packet) -> Message:
        """Observed-path dispatch: time the request once, into one record.

        The timed region covers dispatch, the audit row (which goes onto
        the record, beside the PDP's rule trace and time) and forensic
        recording; the finished record then goes to
        ``Observer.on_request``, the request's one observer call.
        Rejections are requests the cloud *served* (denying an attacker
        is correct behaviour): the record carries the rejection code and
        the exception re-raises.
        """
        record = RequestRecord(
            self.design.name, _ENDPOINT_ACTIONS.get(type(packet.message), "")
        )
        started = perf_counter_ns()
        try:
            response = self._handle_and_record(packet, record)
            record.code = "ok"
            return response
        except RequestRejected as exc:
            record.code = exc.code
            raise
        finally:
            record.duration_ns = perf_counter_ns() - started
            self._observer.on_request(record)

    def _handle_and_record(
        self, packet: Packet, request: Optional[RequestRecord] = None
    ) -> Message:
        """Dispatch one packet, auditing and (when watched) evidencing it.

        *request* is the observed path's record; the PDP's rule trace
        and time go on it before the audit row that they explain.
        """
        message = packet.message
        forensic_kind = _FORENSIC_KINDS.get(type(message))
        bound_before = ""
        actor = ""
        if forensic_kind is not None:
            device_id = getattr(message, "device_id", None) or ""
            if device_id:
                bound_before = self.bindings.bound_user(device_id) or ""
            actor = self._claimed_actor(message)
        try:
            response = self._dispatch(packet, message)
        except RequestRejected as exc:
            self._record_evidence(
                packet, request, forensic_kind, exc.code, exc.detail, actor,
                bound_before,
            )
            raise
        replaced = (
            forensic_kind is not None
            and isinstance(response, Response)
            and bool(response.payload.get("replaced", False))
        )
        self._record_evidence(
            packet, request, forensic_kind, "ok", "", actor, bound_before, replaced
        )
        return response

    def _record_evidence(
        self,
        packet: Packet,
        request: Optional[RequestRecord],
        forensic_kind: Optional[str],
        outcome: str,
        detail: str,
        actor: str,
        bound_before: str,
        replaced: bool = False,
    ) -> None:
        """Audit one handled exchange and, when watched, evidence it.

        The audit row and the forensic row share one ``now`` float and
        one summary string, read once here.
        """
        decision_trace = self._collect_decision_trace(request)
        message = packet.message
        now = self.now
        summary = describe(message)
        origin_ip = str(packet.observed_src_ip)
        trace = packet.trace
        trace_id = trace.trace_id if trace is not None else ""
        self.audit.record(
            now, packet.src, origin_ip, summary, outcome, detail, trace_id, request
        )
        if forensic_kind is not None:
            # Positional, in ForensicTimeline.record's parameter order.
            self.forensics.record(
                now, getattr(message, "device_id", None) or "", forensic_kind,
                summary, packet.src, origin_ip, trace_id,
                trace.span_id if trace is not None else "", outcome, actor,
                bound_before, replaced, decision_trace,
            )

    def _collect_decision_trace(self, request: Optional[RequestRecord]) -> str:
        """Collect the PDP's decision for the exchange just dispatched.

        On the observed path the decision's rule trace and evaluation
        time go onto *request*, before the exchange's audit entry is
        recorded, so the observer can attach the rule trace to that
        entry's evidence.  Returns the compact trace for the forensic
        event; it is only rendered when someone is watching — a real
        observer or a live forensic sink — so uninstrumented runs keep
        the null-observer fast path.
        """
        decision = self.pdp.take_last_decision()
        if decision is None:
            return ""
        if request is None and not self.forensics.has_sinks():
            return ""
        trace = decision.trace()
        if request is not None:
            request.authz = trace
            request.pdp_ns = self.pdp.last_ns
        return trace

    def _claimed_actor(self, message: Message) -> str:
        """The identity a watched message claims, without enforcing it.

        Resolution is strictly read-only (token table lookups): a user
        token maps to its account, device-submitted credentials name
        their user, a capability BindToken names its subject, and pure
        device-credential messages claim the device id itself.
        """
        user_token = getattr(message, "user_token", None)
        if user_token is not None:
            return self.accounts.user_for_token(user_token) or ""
        user_id = getattr(message, "user_id", None)
        if user_id is not None:
            return user_id
        bind_token = getattr(message, "bind_token", None)
        if bind_token is not None:
            record = self.tokens.lookup(bind_token, TokenKind.BIND)
            return record.subject if record is not None else ""
        return getattr(message, "device_id", None) or ""

    def _dispatch(self, packet: Packet, message: Message) -> Message:
        handler = self._dispatch_table.get(type(message))
        if handler is None:
            raise ProtocolError(f"cloud has no endpoint for {type(message).__name__}")
        return handler(packet, message)

    # -- convenience accessors for experiments/tests ------------------------------

    def shadow_state(self, device_id: str) -> str:
        return self.shadows.get(device_id).state.value

    def bound_user_of(self, device_id: str) -> Optional[str]:
        return self.bindings.bound_user(device_id)
