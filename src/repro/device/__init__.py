"""Simulated device firmware: base behaviour plus concrete device types."""

from repro.device.base import DeviceFirmware, ExecutedCommand
from repro.device.bulb import ButtonBulbBridge, SmartBulb
from repro.device.camera import IpCamera
from repro.device.firmware import (
    FirmwareImage,
    ProtocolKnowledge,
    image_for,
    reverse_engineer,
    try_reverse_engineer,
)
from repro.device.local import (
    DeliverBindToken,
    DeliverDevToken,
    DeliverPostBindingToken,
    DeliverUserCredential,
    LocalAck,
)
from repro.device.plug import SmartPlug, SmartSocket
from repro.device.sensors import TemperatureSensor

#: Map from a vendor profile's ``device_type`` to the firmware class.
DEVICE_CLASSES = {
    "smart-plug": SmartPlug,
    "smart-socket": SmartSocket,
    "smart-bulb": SmartBulb,
    "bulb-bridge": ButtonBulbBridge,
    "ip-camera": IpCamera,
    "temp-sensor": TemperatureSensor,
}

__all__ = [
    "ButtonBulbBridge",
    "DEVICE_CLASSES",
    "DeliverBindToken",
    "DeliverDevToken",
    "DeliverPostBindingToken",
    "DeliverUserCredential",
    "DeviceFirmware",
    "ExecutedCommand",
    "FirmwareImage",
    "IpCamera",
    "LocalAck",
    "ProtocolKnowledge",
    "SmartBulb",
    "SmartPlug",
    "SmartSocket",
    "TemperatureSensor",
    "image_for",
    "reverse_engineer",
    "try_reverse_engineer",
]
