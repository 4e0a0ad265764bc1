"""Scenario builder: a complete three-party world in one call.

A :class:`Deployment` reproduces the paper's experimental setup
(Section VI-A): one vendor cloud, a victim with her own home Wi-Fi,
phone, account and device, and an attacker with a *separate* access
point, phone, account — and, like the paper's authors, their own unit of
the same product ("for each pair, we assume one device belongs to the
victim, and the other one belongs to the attacker").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.app.mobile import MobileApp
from repro.cloud.policy import DeviceAuthMode, VendorDesign
from repro.cloud.service import CloudService
from repro.core.errors import ProtocolError, RequestRejected
from repro.device import DEVICE_CLASSES
from repro.device.base import DeviceFirmware
from repro.identity.device_ids import scheme_from_name
from repro.identity.keys import cached_keypair
from repro.net.network import Network
from repro.net.provisioning import ProvisioningAir
from repro.obs.observer import Observer
from repro.sim.environment import Environment


@dataclass
class Party:
    """One person in the experiment: account, phone/app, device, home."""

    role: str
    user_id: str
    password: str
    app: MobileApp
    device: DeviceFirmware
    lan_id: str
    ssid: str
    wifi_passphrase: str
    location: str


class Deployment:
    """A fully wired world: cloud + victim + attacker."""

    def __init__(
        self,
        design: VendorDesign,
        seed: int = 0,
        observer: Optional[Observer] = None,
    ) -> None:
        self.design = design
        self.env = Environment(seed=seed, observer=observer)
        self.network = Network(self.env)
        self.air = ProvisioningAir()
        self.cloud = CloudService(self.env, self.network, design)

        id_scheme = scheme_from_name(
            design.id_scheme, oui=design.id_oui, digits=design.id_serial_digits
        )
        self.id_scheme = id_scheme
        self.victim = self._build_party(
            role="victim",
            user_id="alice@example.com",
            password="alice-pw-123",
            lan_id="lan:victim-home",
            ssid="victim-wifi",
            wifi_passphrase="correct horse battery",
            public_ip="203.0.113.10",
            subnet="192.168.1",
            location="home:victim",
        )
        self.attacker_party = self._build_party(
            role="attacker",
            user_id="mallory@example.com",
            password="mallory-pw-456",
            lan_id="lan:attacker-lab",
            ssid="attacker-ap",
            wifi_passphrase="attacker ap pass",
            public_ip="198.51.100.77",
            subnet="192.168.9",
            location="lab:attacker",
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _build_party(
        self,
        role: str,
        user_id: str,
        password: str,
        lan_id: str,
        ssid: str,
        wifi_passphrase: str,
        public_ip: str,
        subnet: str,
        location: str,
    ) -> Party:
        design = self.design
        self.network.create_lan(lan_id, ssid, wifi_passphrase, public_ip, subnet)
        self.cloud.accounts.register(user_id, password, self.env.now)

        device = self._manufacture(design.device_type, location, f"device:{role}")
        app = MobileApp(
            env=self.env,
            network=self.network,
            air=self.air,
            design=design,
            user_id=user_id,
            password=password,
            location=location,
            node_name=f"app:{role}",
            cellular_ip=None,
        )
        app.join_wifi(lan_id, wifi_passphrase)
        return Party(
            role, user_id, password, app, device, lan_id, ssid, wifi_passphrase, location
        )

    # ------------------------------------------------------------------
    # extra devices (a user can manage several devices, Section III-B)
    # ------------------------------------------------------------------

    def add_victim_device(self, device_type: Optional[str] = None,
                          label: str = "extra") -> DeviceFirmware:
        """Manufacture a second device for the victim's home.

        Used by multi-device scenarios (e.g. the IFTTT cascade: a
        temperature sensor driving an AC plug).  The returned device is
        factory fresh; run ``setup_victim_device`` to bind it.
        """
        return self._manufacture(
            device_type or self.design.device_type,
            self.victim.location,
            f"device:victim-{label}",
        )

    def _manufacture(self, device_type: str, location: str, node_name: str) -> DeviceFirmware:
        """Issue an ID, make its factory keys if the design signs, build it."""
        device_id = self.id_scheme.issue(self.env.rng)
        keypair = None
        if self.design.device_auth is DeviceAuthMode.PUBKEY:
            keypair = cached_keypair(self.env.rng.fork(f"keys-{device_id}"), device_id)
        self.cloud.manufacture_device(
            device_id, device_type, keypair.public if keypair is not None else None
        )
        return DEVICE_CLASSES[device_type](
            env=self.env,
            network=self.network,
            air=self.air,
            design=self.design,
            device_id=device_id,
            location=location,
            keypair=keypair,
            node_name=node_name,
        )

    def setup_victim_device(self, device: DeviceFirmware) -> bool:
        """Run the Figure 1 flow for an extra victim device."""
        party = self.victim
        if party.app.user_token is None:
            party.app.login()
        device.power_on()
        party.app.provision_wifi(party.ssid, party.wifi_passphrase)
        try:
            party.app.local_configure(device)
        except RequestRejected:
            return False
        if self.design.ip_match_required:
            device.press_button()
        bound = party.app.bind_device(device)
        self.run_heartbeats(2)
        return bound

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    def run(self, seconds: float) -> None:
        """Advance the whole world."""
        self.env.run_for(seconds)

    def run_heartbeats(self, count: int = 2) -> None:
        """Advance long enough for *count* device heartbeats."""
        self.run(self.design.heartbeat_interval * count + 0.5)

    # ------------------------------------------------------------------
    # canonical flows
    # ------------------------------------------------------------------

    def setup_party(self, party: Party) -> bool:
        """Run the full Figure 1 flow for one party's own device."""
        with self.env.observer.span(
            f"setup:{party.role}", kind="phase", device=party.device.device_id
        ):
            return self._setup_party(party)

    def _setup_party(self, party: Party) -> bool:
        app, device = party.app, party.device
        if app.user_token is None:
            app.login()
        device.power_on()
        app.provision_wifi(party.ssid, party.wifi_passphrase)
        configure_failed = False
        try:
            app.local_configure(device)
        except RequestRejected:
            configure_failed = True
        if self.design.ip_match_required:
            # Device #7's flow: press the physical button, then bind
            # within the 30-second window.
            device.press_button()
        bound = app.bind_device(device)
        if bound and configure_failed:
            # Setup wizards retry configuration once the binding exists
            # (matters when recovering a device from a foreign binding).
            try:
                app.local_configure(device)
                configure_failed = False
            except RequestRejected:
                pass
        self.run_heartbeats(2)
        return bound and not configure_failed and self.victim_can_control(party)

    def victim_full_setup(self) -> bool:
        """Set up the victim's device; returns overall success."""
        return self.setup_party(self.victim)

    def victim_partial_setup_online_unbound(self) -> None:
        """Stop the victim's setup in the *online* state (A4-2's window):
        device provisioned and authenticated, binding not yet created."""
        party = self.victim
        if party.app.user_token is None:
            party.app.login()
        party.device.power_on()
        party.app.provision_wifi(party.ssid, party.wifi_passphrase)
        try:
            party.app.local_configure(party.device)
        except RequestRejected:
            pass
        self.run_heartbeats(1)

    # ------------------------------------------------------------------
    # ground truth
    # ------------------------------------------------------------------

    def shadow_state(self, party: Optional[Party] = None) -> str:
        party = party or self.victim
        return self.cloud.shadow_state(party.device.device_id)

    def bound_user(self, party: Optional[Party] = None) -> Optional[str]:
        party = party or self.victim
        return self.cloud.bound_user_of(party.device.device_id)

    def victim_can_control(self, party: Optional[Party] = None) -> bool:
        """Can the party actually operate their device end to end?"""
        party = party or self.victim
        marker = f"ping-{self.env.now:.3f}"
        try:
            party.app.control(party.device.device_id, marker)
        except (RequestRejected, ProtocolError):
            return False
        before = len(party.device.executed_commands)
        self.run_heartbeats(1)
        executed = [
            c for c in party.device.executed_commands[before:] if c.command == marker
        ]
        return bool(executed)

    def device_executed_for(self, user_id: str, party: Optional[Party] = None) -> bool:
        """Did the party's *physical* device run a command issued by *user_id*?"""
        party = party or self.victim
        return any(c.issued_by == user_id for c in party.device.executed_commands)
