"""Tests for SSDP discovery and SmartConfig provisioning."""

import pytest

from repro.core.errors import ProtocolError
from repro.core.messages import Response
from repro.net.discovery import SsdpDescription, SsdpSearch, ssdp_discover
from repro.net.network import Network
from repro.net.provisioning import ProvisioningAir, WifiCredentials
from repro.sim.environment import Environment


@pytest.fixture
def world():
    env = Environment(seed=1)
    network = Network(env)
    network.create_lan("lan:home", "home", "pass", "203.0.113.10")

    def device_handler(packet):
        if isinstance(packet.message, SsdpSearch):
            return SsdpDescription(device_id="dev-42", model="plug", vendor="T")
        return Response()

    network.add_node("phone", None)
    network.add_node("device", device_handler)
    network.join_lan("phone", "lan:home", "pass")
    network.join_lan("device", "lan:home", "pass")
    return network


class TestSsdp:
    def test_discover_finds_lan_devices(self, world):
        found = ssdp_discover(world, "phone")
        assert len(found) == 1
        assert found[0].device_id == "dev-42"

    def test_discover_ignores_non_describing_nodes(self, world):
        world.add_node("printer", lambda packet: Response())
        world.join_lan("printer", "lan:home", "pass")
        found = ssdp_discover(world, "phone")
        assert len(found) == 1  # only the IoT device self-describes


class TestProvisioningAir:
    def test_broadcast_reaches_listeners_at_same_location(self):
        air = ProvisioningAir()
        heard = []
        air.listen("home", heard.append)
        count = air.broadcast("home", WifiCredentials("ssid", "pass"))
        assert count == 1
        assert heard[0].ssid == "ssid"

    def test_broadcast_does_not_cross_locations(self):
        air = ProvisioningAir()
        heard = []
        air.listen("home", heard.append)
        count = air.broadcast("elsewhere", WifiCredentials("ssid", "pass"))
        assert count == 0
        assert not heard

    def test_unsubscribe_stops_listening(self):
        air = ProvisioningAir()
        heard = []
        stop = air.listen("home", heard.append)
        stop()
        air.broadcast("home", WifiCredentials("ssid", "pass"))
        assert not heard
        stop()  # idempotent

    def test_listener_needs_location(self):
        with pytest.raises(ProtocolError):
            ProvisioningAir().listen("", lambda c: None)

    def test_listener_count(self):
        air = ProvisioningAir()
        air.listen("home", lambda c: None)
        air.listen("home", lambda c: None)
        assert air.listener_count("home") == 2
        assert air.listener_count("lab") == 0
