"""Network substrate: addressing, LANs, NAT/firewall, discovery, MITM."""

from repro.net.address import (
    FLEET_IP_BLOCKS,
    MAC_SUFFIX_SPACE,
    FleetIpAllocator,
    IpAddress,
    MacAddress,
)
from repro.net.discovery import SsdpDescription, SsdpSearch, ssdp_discover
from repro.net.lan import DhcpLease, Lan, Router
from repro.net.mitm import MitmProxy
from repro.net.network import Network
from repro.net.packet import Exchange, Packet
from repro.net.provisioning import ProvisioningAir, WifiCredentials

__all__ = [
    "DhcpLease",
    "Exchange",
    "FLEET_IP_BLOCKS",
    "FleetIpAllocator",
    "IpAddress",
    "Lan",
    "MAC_SUFFIX_SPACE",
    "MacAddress",
    "MitmProxy",
    "Network",
    "Packet",
    "ProvisioningAir",
    "Router",
    "SsdpDescription",
    "SsdpSearch",
    "WifiCredentials",
    "ssdp_discover",
]
