"""IP cameras (devices #6, #9) — the class behind the paper's motivating
spying incidents (6/7-digit enumerable IDs, Section I)."""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.device.base import DeviceFirmware
from repro.device.peripherals import MotionSensor


class IpCamera(DeviceFirmware):
    """A Wi-Fi camera: motion events up, stream toggles down."""

    model = "ip-camera"
    firmware_version = "4.0.2"

    def initial_state(self) -> Dict[str, Any]:
        self._motion = self.sensor = MotionSensor(self.env.rng.fork(f"motion-{self.device_id}"))
        return {"on": True, "streaming": False, "pan_deg": 0}

    def read_telemetry(self) -> Dict[str, Any]:
        return {"motion": self._motion.read(), "streaming": self.state["streaming"]}

    def apply_command(self, command: str, arguments: Mapping[str, Any]) -> None:
        if command == "stream":
            self.state["streaming"] = bool(arguments.get("enable", True))
        elif command == "pan":
            self.state["pan_deg"] = int(arguments.get("deg", 0)) % 360
        else:
            super().apply_command(command, arguments)
