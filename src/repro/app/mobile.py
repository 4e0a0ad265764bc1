"""The companion mobile app: the user's agent in remote binding.

Implements the user side of Figure 1 end to end: login, network
provisioning (SmartConfig broadcast), local binding (SSDP discovery or
reading the label), local configuration (delivering whatever secret the
vendor's design calls for), binding creation, control/schedules/queries,
and device removal.  One :class:`MobileApp` per phone; the phone's
network position (home Wi-Fi vs. cellular) is just its LAN membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.cloud.policy import BindSchema, BindSender, DeviceAuthMode, VendorDesign
from repro.core.errors import ProtocolError, RequestRejected
from repro.core.messages import (
    BindingInfoRequest,
    BindMessage,
    BindTokenRequest,
    ControlMessage,
    DevTokenRequest,
    EventPollRequest,
    LoginRequest,
    LoginResponse,
    QueryRequest,
    Response,
    ScheduleUpdate,
    ShareRequest,
    ShareRevoke,
    TokenResponse,
    UnbindMessage,
)
from repro.device.base import DeviceFirmware
from repro.device.local import (
    DeliverBindToken,
    DeliverDevToken,
    DeliverPostBindingToken,
    DeliverUserCredential,
)
from repro.net.discovery import SsdpDescription, ssdp_discover
from repro.net.network import Network
from repro.net.provisioning import ProvisioningAir, WifiCredentials
from repro.sim.environment import Environment


@dataclass
class KnownDevice:
    """What the app remembers about one of the user's devices."""

    device_id: str
    model: str = ""
    post_binding_token: Optional[str] = None


def _copy_known(devices: Dict[str, KnownDevice]) -> Dict[str, KnownDevice]:
    """A copy of an app's known devices that shares no mutable record."""
    return {
        device_id: KnownDevice(known.device_id, known.model, known.post_binding_token)
        for device_id, known in devices.items()
    }


class MobileApp:
    """A vendor companion app logged in (or not) as one user."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        air: ProvisioningAir,
        design: VendorDesign,
        user_id: str,
        password: str,
        location: str,
        node_name: Optional[str] = None,
        cloud_node: str = "cloud",
        cellular_ip: Optional[str] = None,
    ) -> None:
        self.env = env
        self.network = network
        self.air = air
        self.design = design
        self.user_id = user_id
        self.password = password
        self.location = location
        self.cloud_node = cloud_node
        self.node_name = node_name or f"app:{user_id}"
        network.add_node(self.node_name, None, wan_ip=cellular_ip)
        self.user_token: Optional[str] = None
        self.devices: Dict[str, KnownDevice] = {}
        #: optional resilient cloud client (installed by enable_resilience)
        self._client: Optional[Any] = None

    def enable_resilience(self, policy: Any = None, breaker: Any = None) -> None:
        """Route this app's cloud traffic through a resilient client.

        Same survival kit as the device side: retries with backoff +
        jitter, per-request timeouts and a circuit breaker, with the
        jitter RNG forked by node name so same-seed runs keep identical
        retry schedules.  Local (LAN) traffic is unaffected.
        """
        from repro.chaos.resilience import (
            DEFAULT_RESILIENCE,
            CircuitBreaker,
            ResilientClient,
        )

        chosen = policy if policy is not None else DEFAULT_RESILIENCE
        self._client = ResilientClient(
            self.network,
            self.node_name,
            chosen,
            self.env.rng.fork(f"resilience:{self.node_name}"),
            breaker=breaker if breaker is not None else CircuitBreaker(),
            role="app",
        )

    def capture_fields(self) -> Dict[str, Any]:
        """The session and known devices, as picklable data (world images)."""
        return {"user_token": self.user_token, "devices": _copy_known(self.devices)}

    def restore_fields(self, fields: Dict[str, Any]) -> None:
        """Overlay :meth:`capture_fields` onto this freshly built app."""
        self.user_token = fields["user_token"]
        self.devices = _copy_known(fields["devices"])

    # ------------------------------------------------------------------
    # network position
    # ------------------------------------------------------------------

    def join_wifi(self, lan_id: str, passphrase: str) -> None:
        """Connect the phone to a Wi-Fi network."""
        self.network.join_lan(self.node_name, lan_id, passphrase)

    # ------------------------------------------------------------------
    # user authentication (Figure 1 step 1)
    # ------------------------------------------------------------------

    def login(self) -> str:
        """Password login; stores and returns the session UserToken."""
        response = self._request(LoginRequest(self.user_id, self.password))
        if not isinstance(response, LoginResponse):
            raise ProtocolError("unexpected login response")
        self.user_token = response.user_token
        return self.user_token

    def require_token(self) -> str:
        if self.user_token is None:
            raise ProtocolError("app is not logged in")
        return self.user_token

    # ------------------------------------------------------------------
    # local configuration (Figure 1 step 2)
    # ------------------------------------------------------------------

    def provision_wifi(self, ssid: str, passphrase: str) -> int:
        """SmartConfig/Airkiss broadcast of the home Wi-Fi credentials.

        Reaches every listening device at the phone's physical location;
        returns how many devices heard it.
        """
        return self.air.broadcast(self.location, WifiCredentials(ssid, passphrase))

    def discover(self) -> list:
        """SSDP search on the phone's current LAN."""
        return ssdp_discover(self.network, self.node_name)

    def obtain_device_identity(self, device: DeviceFirmware) -> str:
        """Learn the device ID the way the vendor intends.

        Label-on-device vendors have the user type it in (physical
        access); the rest are discovered via SSDP on the shared LAN.
        """
        if self.design.id_label_on_device:
            return device.device_id  # read off the sticker
        for description in self.discover():
            if isinstance(description, SsdpDescription) and description.device_id == device.device_id:
                return description.device_id
        raise ProtocolError(f"device {device.device_id!r} not discoverable on this LAN")

    def local_configure(self, device: DeviceFirmware) -> str:
        """Deliver whatever secret the design needs to the device, locally.

        Returns the device ID (now known to the app).  Must be on the
        same LAN as the device.
        """
        device_id = self.obtain_device_identity(device)
        design = self.design
        if design.device_auth is DeviceAuthMode.DEV_TOKEN:
            token = self._fetch_dev_token(device_id)
            self.network.request(
                self.node_name, device.node_name, DeliverDevToken(dev_token=token)
            )
        if design.bind_sender is BindSender.DEVICE and design.bind_schema is BindSchema.ACL:
            self.network.request(
                self.node_name,
                device.node_name,
                DeliverUserCredential(user_id=self.user_id, user_pw=self.password),
            )
        self.devices.setdefault(device_id, KnownDevice(device_id, device.model))
        return device_id

    def _fetch_dev_token(self, device_id: str) -> str:
        response = self._request(DevTokenRequest(self.require_token(), device_id))
        if not isinstance(response, TokenResponse):
            raise ProtocolError("expected a TokenResponse")
        return response.token

    # ------------------------------------------------------------------
    # binding creation (Figure 1 step 3)
    # ------------------------------------------------------------------

    def bind_device(self, device: DeviceFirmware) -> bool:
        """Create the cloud binding for *device* per the vendor design."""
        design = self.design
        device_id = device.device_id
        if design.bind_schema is BindSchema.CAPABILITY:
            return self._bind_capability(device)
        if design.bind_sender is BindSender.DEVICE:
            # Figure 4b: the device submits the binding itself once it
            # has the credentials (delivered in local_configure).  Fetch
            # the user's half of the post-binding token if the design
            # uses one.
            if design.post_binding_token:
                self._learn_post_token(device_id, device.model)
            return True
        try:
            response = self._request(
                BindMessage(device_id=device_id, user_token=self.require_token())
            )
        except RequestRejected:
            return False
        if not isinstance(response, Response) or not response.ok:
            return False
        known = self.devices.setdefault(device_id, KnownDevice(device_id, device.model))
        post_token = response.payload.get("post_binding_token")
        if post_token:
            known.post_binding_token = post_token
            # Deliver the device's half locally (Section IV-B).
            self._try_local(device, DeliverPostBindingToken(token=post_token))
        rotated = response.payload.get("dev_token")
        if rotated:
            self._try_local(device, DeliverDevToken(dev_token=rotated))
        return True

    def _bind_capability(self, device: DeviceFirmware) -> bool:
        """Figure 4c: fetch a BindToken, hand it to the device locally."""
        response = self._request(BindTokenRequest(self.require_token()))
        if not isinstance(response, TokenResponse):
            return False
        self.network.request(
            self.node_name, device.node_name, DeliverBindToken(bind_token=response.token)
        )
        known = self.devices.setdefault(device.device_id, KnownDevice(device.device_id, device.model))
        known.post_binding_token = device.post_binding_token
        return device.post_binding_token is not None

    # ------------------------------------------------------------------
    # post-binding operation (remote connection)
    # ------------------------------------------------------------------

    def control(self, device_id: str, command: str, arguments: Optional[Mapping[str, Any]] = None) -> Response:
        """Send a command to one of my devices through the cloud."""
        known = self.devices.get(device_id)
        message = ControlMessage(
            user_token=self.require_token(),
            device_id=device_id,
            command=command,
            arguments=dict(arguments or {}),
            post_binding_token=known.post_binding_token if known else None,
        )
        return self._request(message)

    def set_schedule(self, device_id: str, schedule: Mapping[str, Any]) -> Response:
        return self._request(
            ScheduleUpdate(self.require_token(), device_id, dict(schedule))
        )

    def query(self, device_id: str, what: str = "telemetry") -> Response:
        return self._request(QueryRequest(self.require_token(), device_id, what))

    def poll_events(self) -> list:
        """Fetch new notifications from the cloud's event feed."""
        response = self._request(EventPollRequest(self.require_token()))
        return response.payload.get("events", [])

    def _learn_post_token(self, device_id: str, model: str = "") -> None:
        """Fetch my binding's post-binding token from the cloud."""
        try:
            response = self._request(
                BindingInfoRequest(self.require_token(), device_id)
            )
        except RequestRejected:
            return
        token = response.payload.get("post_binding_token")
        if token:
            known = self.devices.setdefault(device_id, KnownDevice(device_id, model))
            known.post_binding_token = token

    def share_device(self, device_id: str, grantee: str) -> bool:
        """Grant another account access to one of my devices."""
        try:
            self._request(ShareRequest(self.require_token(), device_id, grantee))
        except RequestRejected:
            return False
        return True

    def revoke_share(self, device_id: str, grantee: str) -> bool:
        """Withdraw a previously granted share."""
        try:
            self._request(ShareRevoke(self.require_token(), device_id, grantee))
        except RequestRejected:
            return False
        return True

    def remove_device(self, device_id: str) -> bool:
        """Revoke the binding (Figure 1 step 4, app-side)."""
        try:
            self._request(
                UnbindMessage(device_id=device_id, user_token=self.require_token())
            )
        except RequestRejected:
            return False
        self.devices.pop(device_id, None)
        return True

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _request(self, message) -> Response:
        if self._client is not None:
            return self._client.request(self.cloud_node, message)
        return self.network.request(self.node_name, self.cloud_node, message)

    def _try_local(self, device: DeviceFirmware, message) -> bool:
        """Local delivery that degrades gracefully when not co-located."""
        try:
            self.network.request(self.node_name, device.node_name, message)
            return True
        except Exception:
            return False
