"""Stand-alone sensor device: the temperature sensor.

This is the paper's cascade-effect example (Section V-B): a forged
temperature reading flips an IFTTT-style rule that drives the air
conditioning (see the report's "A1 cascade" section).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.device.base import DeviceFirmware
from repro.device.peripherals import Thermometer


class TemperatureSensor(DeviceFirmware):
    """An ambient temperature sensor (drives rule-based automations)."""

    model = "temp-sensor"
    firmware_version = "1.0.9"

    def initial_state(self) -> Dict[str, Any]:
        self._thermo = self.sensor = Thermometer(self.env.rng.fork(f"thermo-{self.device_id}"))
        return {"on": True}

    def read_telemetry(self) -> Dict[str, Any]:
        return {"temperature_c": self._thermo.read(self.env.now)}
