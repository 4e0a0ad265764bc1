"""Smart plugs and sockets (devices #1, #2, #3, #4, #5, #10)."""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.device.base import DeviceFirmware
from repro.device.peripherals import PowerMeter


class SmartPlug(DeviceFirmware):
    """A Wi-Fi plug: on/off relay plus a power meter.

    The paper's A1 case study (device #10) forges exactly this device's
    power-consumption reports and steals its on/off schedule.
    """

    model = "smart-plug"
    firmware_version = "2.3.1"

    def initial_state(self) -> Dict[str, Any]:
        """Per-outlet relay states plus the master flag."""
        self._meter = self.sensor = PowerMeter(self.env.rng.fork(f"meter-{self.device_id}"))
        return {"on": False}

    def read_telemetry(self) -> Dict[str, Any]:
        return {"power_w": self._meter.read(self.state["on"], self.env.now)}

    def apply_command(self, command: str, arguments: Mapping[str, Any]) -> None:
        """Handle per-outlet and master on/off commands."""
        if command in ("on", "off"):
            self.state["on"] = command == "on"
        else:
            super().apply_command(command, arguments)


class SmartSocket(SmartPlug):
    """A multi-outlet socket (device #3): independent outlet relays."""

    model = "smart-socket"
    firmware_version = "1.8.0"
    outlets = 4

    def initial_state(self) -> Dict[str, Any]:
        """Per-outlet relay states plus the master flag."""
        state = super().initial_state()
        state["outlets"] = [False] * self.outlets
        return state

    def apply_command(self, command: str, arguments: Mapping[str, Any]) -> None:
        """Handle per-outlet and master on/off commands."""
        if command == "outlet":
            index = int(arguments.get("index", 0))
            if 0 <= index < self.outlets:
                self.state["outlets"][index] = bool(arguments.get("on", False))
                self.state["on"] = any(self.state["outlets"])
            return
        super().apply_command(command, arguments)
        if command in ("on", "off"):
            self.state["outlets"] = [self.state["on"]] * self.outlets
