"""Tests for device-ID inference: probing, enumeration, targeted search."""

import itertools

from repro.attacks.attacker import RemoteAttacker
from repro.attacks.id_inference import enumerate_ids, probe_device_id, targeted_search
from repro.identity.device_ids import SerialDeviceId
from repro.identity.entropy import SECONDS_PER_HOUR
from repro.scenario import Deployment
from repro.vendors import vendor


def make_attacker(vendor_name: str = "OZWI", seed: int = 0):
    deployment = Deployment(vendor(vendor_name), seed=seed)
    attacker = RemoteAttacker(deployment)
    attacker.login()
    return deployment, attacker


class TestProbe:
    def test_registered_id_confirmed(self):
        deployment, attacker = make_attacker()
        assert probe_device_id(attacker, deployment.victim.device.device_id)

    def test_unregistered_id_denied(self):
        # OZWI serials are sequential from 0000000, so a high serial is
        # guaranteed unregistered in a two-device world.
        _, attacker = make_attacker()
        assert not probe_device_id(attacker, "9999999")

    def test_bound_device_still_confirmed(self):
        # Even when the probe bind is rejected (already-bound), the error
        # code discloses the ID's existence.
        deployment, attacker = make_attacker()
        assert deployment.victim_full_setup()
        assert probe_device_id(attacker, deployment.victim.device.device_id)


class TestEnumeration:
    def test_sweep_finds_sequential_ids(self):
        # OZWI serials are sequential from 0, so both purchased devices
        # sit at the very start of the candidate space.
        deployment, attacker = make_attacker()
        stats = enumerate_ids(attacker, deployment.id_scheme, max_probes=10)
        assert deployment.victim.device.device_id in stats.found
        assert deployment.attacker_party.device.device_id in stats.found
        assert stats.attempted == 10
        assert stats.hit_rate == 0.2
        assert stats.virtual_seconds < SECONDS_PER_HOUR

    def test_stop_after_limits_probing(self):
        deployment, attacker = make_attacker()
        stats = enumerate_ids(
            attacker, deployment.id_scheme, max_probes=10, stop_after=1
        )
        assert len(stats.found) == 1
        assert stats.attempted <= 10

    def test_virtual_time_models_request_rate(self):
        deployment, attacker = make_attacker()
        stats = enumerate_ids(
            attacker, deployment.id_scheme, max_probes=10, request_rate=2.0
        )
        assert stats.virtual_seconds == 5.0

    def test_sweep_is_the_scalable_dos(self):
        # Section V-C: enumerating IDs occupies bindings product-wide.
        deployment, attacker = make_attacker()
        enumerate_ids(attacker, deployment.id_scheme, max_probes=10)
        assert (
            deployment.cloud.bound_user_of(deployment.victim.device.device_id)
            == attacker.party.user_id
        )


class TestTargetedSearch:
    def test_finds_known_target(self):
        deployment, attacker = make_attacker()
        target = deployment.victim.device.device_id
        scheme = deployment.id_scheme
        stats = targeted_search(
            attacker, itertools.islice(scheme.candidates(), 100), target
        )
        assert stats.found == [target]
        assert stats.attempted == int(target) + 1  # sequential position

    def test_misses_absent_target(self):
        _, attacker = make_attacker()
        scheme = SerialDeviceId(digits=7)
        stats = targeted_search(
            attacker, itertools.islice(scheme.candidates(), 5), "9999999"
        )
        assert not stats.found
        assert stats.attempted == 5
