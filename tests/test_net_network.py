"""Tests for the network delivery rules: NAT, firewall, taps, proxies.

These rules *are* the adversary model: a remote attacker can reach the
cloud but never the victim's LAN.
"""

import pytest

from repro.core.errors import FirewallBlocked, NetworkError, ProtocolError, RequestRejected
from repro.core.messages import Response, StatusMessage
from repro.net.mitm import MitmProxy
from repro.net.network import Network
from repro.sim.environment import Environment


def echo_handler(packet):
    return Response(payload={"from_ip": str(packet.observed_src_ip), "src": packet.src})


@pytest.fixture
def world():
    env = Environment(seed=1)
    network = Network(env)
    network.add_internet_node("cloud", echo_handler, "52.0.0.1")
    network.create_lan("lan:home", "home", "pass-home", "203.0.113.10")
    network.create_lan("lan:lab", "lab", "pass-lab", "198.51.100.77", subnet_prefix="192.168.9")
    network.add_node("phone", echo_handler)
    network.add_node("device", echo_handler)
    network.add_node("attacker", echo_handler, wan_ip="198.51.100.5")
    network.join_lan("phone", "lan:home", "pass-home")
    network.join_lan("device", "lan:home", "pass-home")
    return env, network


class TestReachability:
    def test_lan_node_reaches_internet_with_router_ip(self, world):
        _, network = world
        response = network.request("phone", "cloud", StatusMessage(device_id="d"))
        assert response.payload["from_ip"] == "203.0.113.10"  # NAT

    def test_internet_node_reaches_internet_with_own_ip(self, world):
        _, network = world
        response = network.request("attacker", "cloud", StatusMessage(device_id="d"))
        assert response.payload["from_ip"] == "198.51.100.5"

    def test_same_lan_nodes_reach_each_other_with_local_ip(self, world):
        _, network = world
        response = network.request("phone", "device", StatusMessage(device_id="d"))
        assert response.payload["from_ip"].startswith("192.168.1.")

    def test_internet_cannot_reach_lan_node(self, world):
        _, network = world
        with pytest.raises(FirewallBlocked):
            network.request("attacker", "device", StatusMessage(device_id="d"))

    def test_cross_lan_blocked(self, world):
        _, network = world
        network.add_node("lab-box", echo_handler)
        network.join_lan("lab-box", "lan:lab", "pass-lab")
        with pytest.raises(FirewallBlocked):
            network.request("lab-box", "device", StatusMessage(device_id="d"))

    def test_unconnected_node_cannot_send(self, world):
        _, network = world
        network.add_node("fresh-device", echo_handler)
        with pytest.raises(NetworkError):
            network.request("fresh-device", "cloud", StatusMessage(device_id="d"))

    def test_leaving_lan_cuts_connectivity(self, world):
        _, network = world
        network.leave_lan("phone")
        with pytest.raises(NetworkError):
            network.request("phone", "cloud", StatusMessage(device_id="d"))

    def test_wrong_wifi_passphrase_blocks_join(self, world):
        _, network = world
        network.add_node("intruder", None)
        with pytest.raises(NetworkError):
            network.join_lan("intruder", "lan:home", "wrong")

    def test_unknown_node_or_lan(self, world):
        _, network = world
        with pytest.raises(NetworkError):
            network.request("ghost", "cloud", StatusMessage(device_id="d"))
        with pytest.raises(NetworkError):
            network.join_lan("phone", "lan:ghost", "x")

    def test_duplicate_registration_rejected(self, world):
        _, network = world
        with pytest.raises(ProtocolError):
            network.add_node("phone")
        with pytest.raises(ProtocolError):
            network.create_lan("lan:home", "x", "y", "1.2.3.4")

    def test_node_without_handler_rejects_requests(self, world):
        _, network = world
        network.add_node("mute", None, wan_ip="8.8.8.8")
        with pytest.raises(NetworkError):
            network.request("attacker", "mute", StatusMessage(device_id="d"))

    def test_find_lan_by_ssid(self, world):
        _, network = world
        assert network.find_lan_by_ssid("home") == "lan:home"
        assert network.find_lan_by_ssid("nope") is None

    def test_repeated_ssid_finds_the_first_created_lan(self, world):
        _, network = world
        network.create_lan("lan:twin", "home", "pass-twin", "203.0.113.99")
        network.create_lan("lan:twin2", "lab", "pass-twin2", "203.0.113.98")
        assert network.find_lan_by_ssid("home") == "lan:home"
        assert network.find_lan_by_ssid("lab") == "lan:lab"


class TestTapsAndProxies:
    def test_tap_sees_exchanges(self, world):
        _, network = world
        seen = []
        network.add_tap(seen.append)
        network.request("phone", "cloud", StatusMessage(device_id="d"))
        assert len(seen) == 1
        assert seen[0].request.src == "phone"
        assert seen[0].ok

    def test_tap_sees_rejections_with_code(self, world):
        _, network = world

        def rejecting(packet):
            raise RequestRejected("nope", "refused")

        network.set_handler("cloud", rejecting)
        seen = []
        network.add_tap(seen.append)
        with pytest.raises(RequestRejected):
            network.request("phone", "cloud", StatusMessage(device_id="d"))
        assert seen[0].error_code == "nope"

    def test_proxy_observes_own_traffic_only(self, world):
        _, network = world
        proxy = MitmProxy(name="p")
        network.set_proxy("attacker", proxy)
        network.request("attacker", "cloud", StatusMessage(device_id="d"))
        network.request("phone", "cloud", StatusMessage(device_id="x"))
        assert len(proxy.log) == 1
        assert proxy.log[0].src == "attacker"

    def test_proxy_rewrite_changes_message(self, world):
        _, network = world
        proxy = MitmProxy(name="p")
        proxy.add_rewrite(
            lambda m: StatusMessage(device_id="substituted")
            if isinstance(m, StatusMessage)
            else None
        )
        network.set_proxy("attacker", proxy)
        seen = []
        network.add_tap(seen.append)
        network.request("attacker", "cloud", StatusMessage(device_id="original"))
        assert seen[0].request.message.device_id == "substituted"
        assert seen[0].request.via_proxy == "p"

    def test_proxy_can_be_removed(self, world):
        _, network = world
        proxy = MitmProxy(name="p")
        network.set_proxy("attacker", proxy)
        network.set_proxy("attacker", None)
        network.request("attacker", "cloud", StatusMessage(device_id="d"))
        assert not proxy.log


class TestBroadcast:
    def test_broadcast_reaches_lan_members_only(self, world):
        _, network = world
        exchanges = network.broadcast("phone", StatusMessage(device_id="d"))
        assert [e.request.dst for e in exchanges] == ["device"]

    def test_broadcast_requires_lan(self, world):
        _, network = world
        with pytest.raises(NetworkError):
            network.broadcast("attacker", StatusMessage(device_id="d"))
