"""Tests for the concrete device types: telemetry and command sets."""

from repro.cloud.policy import DeviceAuthMode, VendorDesign
from repro.device import DEVICE_CLASSES
from repro.net.network import Network
from repro.net.provisioning import ProvisioningAir
from repro.sim.environment import Environment


def make_device(device_type: str):
    env = Environment(seed=4)
    network = Network(env)
    air = ProvisioningAir()
    design = VendorDesign(
        name="T", device_type=device_type,
        device_auth=DeviceAuthMode.DEV_ID, id_scheme="serial-number",
    )
    cls = DEVICE_CLASSES[device_type]
    return cls(
        env=env, network=network, air=air, design=design,
        device_id="dev-1", location="home", node_name="device:test",
    )


class TestRegistryOfTypes:
    def test_all_types_constructible(self):
        for device_type in DEVICE_CLASSES:
            device = make_device(device_type)
            assert device.device_id == "dev-1"
            assert isinstance(device.read_telemetry(), dict)

    def test_models_are_distinct(self):
        models = {cls.model for cls in DEVICE_CLASSES.values()}
        assert len(models) == len(DEVICE_CLASSES)


class TestSmartPlug:
    def test_on_off_commands(self):
        plug = make_device("smart-plug")
        plug.apply_command("on", {})
        assert plug.state["on"] is True
        plug.apply_command("off", {})
        assert plug.state["on"] is False

    def test_power_telemetry_tracks_state(self):
        plug = make_device("smart-plug")
        off_reading = plug.read_telemetry()["power_w"]
        plug.apply_command("on", {})
        on_reading = plug.read_telemetry()["power_w"]
        assert on_reading > off_reading
        assert off_reading < 2.0  # vampire draw only


class TestSmartSocket:
    def test_individual_outlets(self):
        socket = make_device("smart-socket")
        socket.apply_command("outlet", {"index": 2, "on": True})
        assert socket.state["outlets"][2] is True
        assert socket.state["on"] is True
        socket.apply_command("outlet", {"index": 2, "on": False})
        assert socket.state["on"] is False

    def test_master_switch_drives_all_outlets(self):
        socket = make_device("smart-socket")
        socket.apply_command("on", {})
        assert all(socket.state["outlets"])

    def test_out_of_range_outlet_ignored(self):
        socket = make_device("smart-socket")
        socket.apply_command("outlet", {"index": 99, "on": True})
        assert not any(socket.state["outlets"])


class TestSmartBulb:
    def test_brightness_clamped(self):
        bulb = make_device("smart-bulb")
        bulb.apply_command("brightness", {"level": 250})
        assert bulb.state["brightness"] == 100
        bulb.apply_command("brightness", {"level": -5})
        assert bulb.state["brightness"] == 0
        assert bulb.state["on"] is False

    def test_color_temp_clamped(self):
        bulb = make_device("smart-bulb")
        bulb.apply_command("color_temp", {"kelvin": 9000})
        assert bulb.state["color_temp_k"] == 6500


class TestIpCamera:
    def test_stream_toggle_and_pan(self):
        camera = make_device("ip-camera")
        camera.apply_command("stream", {"enable": True})
        assert camera.state["streaming"] is True
        camera.apply_command("pan", {"deg": 370})
        assert camera.state["pan_deg"] == 10

    def test_motion_telemetry_is_boolean(self):
        camera = make_device("ip-camera")
        assert camera.read_telemetry()["motion"] in (True, False)


class TestSensors:
    def test_temperature_sensor_plausible_range(self):
        sensor = make_device("temp-sensor")
        reading = sensor.read_telemetry()["temperature_c"]
        assert 10.0 < reading < 35.0
