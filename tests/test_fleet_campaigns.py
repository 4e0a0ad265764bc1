"""Tests for fleet deployments and product-line-wide campaigns."""

import pytest

from repro.attacks.campaign import campaign_binding_dos, campaign_mass_unbind
from repro.core.errors import ConfigurationError
from repro.fleet import FleetDeployment
from repro.secure import SECURE_CAPABILITY
from repro.vendors import vendor


class TestFleetDeployment:
    def test_households_are_isolated_worlds(self):
        fleet = FleetDeployment(vendor("OZWI"), households=4, seed=1)
        ids = {h.device.device_id for h in fleet.households}
        users = {h.user_id for h in fleet.households}
        lans = {h.lan_id for h in fleet.households}
        assert len(ids) == len(users) == len(lans) == 4

    def test_setup_all_binds_every_household(self):
        fleet = FleetDeployment(vendor("OZWI"), households=4, seed=1)
        assert fleet.setup_all() == 4
        fleet.run(12.0)
        bound = fleet.bound_users()
        for household in fleet.households:
            assert bound[household.device.device_id] == household.user_id
            assert fleet.cloud.shadow_state(household.device.device_id) == "control"

    def test_sequential_ids_are_adjacent_fleet_wide(self):
        fleet = FleetDeployment(vendor("OZWI"), households=3, seed=1)
        serials = sorted(int(h.device.device_id) for h in fleet.households)
        assert serials == [0, 1, 2]  # the attack surface in one line

    def test_needs_at_least_one_household(self):
        with pytest.raises(ConfigurationError):
            FleetDeployment(vendor("OZWI"), households=0)

    def test_attacker_token_is_cached(self):
        fleet = FleetDeployment(vendor("OZWI"), households=1, seed=1)
        assert fleet.attacker_token() == fleet.attacker_token()

    def test_public_ips_stay_valid_past_the_old_octet_overflow(self):
        # index // 200 arithmetic used to overflow the third octet; the
        # allocator hands out 760+ households without an invalid address
        fleet = FleetDeployment(vendor("OZWI"), households=800, seed=1)
        ips = {str(fleet.network.lan(h.lan_id).router.public_ip) for h in fleet.households}
        assert len(ips) == 800
        assert "100.64.0.1" in ips  # spilled into the RFC 6598 block


class TestCloneBuiltFleet:
    def test_clone_build_matches_replayed_bound_state(self):
        replay = FleetDeployment(vendor("OZWI"), households=5, seed=4)
        assert replay.setup_all() == 5
        clone = FleetDeployment(vendor("OZWI"), households=5, seed=4, build="clone")
        assert clone.prebound
        assert clone.bound_users() == replay.bound_users()
        states = [
            clone.cloud.shadow_state(h.device.device_id) for h in clone.households
        ]
        assert states.count("control") == 5

    def test_clone_build_setup_all_is_a_noop(self):
        fleet = FleetDeployment(vendor("OZWI"), households=3, seed=4, build="clone")
        audit_before = len(fleet.cloud.audit)
        assert fleet.setup_all() == 3
        assert len(fleet.cloud.audit) == audit_before

    def test_clone_build_issues_far_fewer_cloud_requests(self):
        replay = FleetDeployment(vendor("OZWI"), households=6, seed=4)
        replay.setup_all()
        clone = FleetDeployment(vendor("OZWI"), households=6, seed=4, build="clone")
        clone.setup_all()
        assert len(clone.cloud.audit) < len(replay.cloud.audit)

    def test_clone_build_works_for_pubkey_vendor(self):
        design = vendor("Philips Hue")  # PUBKEY device auth
        clone = FleetDeployment(design, households=4, seed=4, build="clone")
        bound = clone.bound_users()
        assert all(user is not None for user in bound.values())

    def test_clone_built_devices_still_heartbeat(self):
        fleet = FleetDeployment(vendor("OZWI"), households=3, seed=4, build="clone")
        fleet.run(12.0)
        states = [
            fleet.cloud.shadow_state(h.device.device_id) for h in fleet.households
        ]
        assert states.count("control") == 3

    def test_unknown_build_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetDeployment(vendor("OZWI"), households=1, build="magic")


class TestBindingDosCampaign:
    def test_whole_product_series_denied_on_ozwi(self):
        fleet = FleetDeployment(vendor("OZWI"), households=5, seed=2)
        report = campaign_binding_dos(fleet, max_probes=32)
        assert report.ids_hit == 5          # every manufactured unit found
        assert report.victims_denied == 5   # nobody can set up
        assert report.denial_rate == 1.0
        assert report.modelled_seconds < 1.0

    def test_campaign_fails_on_capability_design(self):
        fleet = FleetDeployment(SECURE_CAPABILITY, households=3, seed=2)
        report = campaign_binding_dos(fleet, max_probes=16)
        assert report.victims_denied == 0
        assert report.denial_rate == 0.0

    def test_campaign_fails_on_philips_ip_match(self):
        fleet = FleetDeployment(vendor("Philips Hue"), households=3, seed=2)
        report = campaign_binding_dos(fleet, max_probes=16)
        assert report.victims_denied == 0

    def test_rate_limited_answers_are_misses(self):
        # Same oracle as repro.attacks.id_inference: once the lockout
        # engages, a rate-limited reply says nothing about the candidate.
        from repro.cloud.policy import DeviceAuthMode, VendorDesign

        design = VendorDesign(
            name="RateLimited", device_type="ip-camera",
            device_auth=DeviceAuthMode.DEV_ID,
            device_auth_known=DeviceAuthMode.DEV_ID,
            firmware_available=True, bind_probe_rate_limit=5,
            id_scheme="serial-number", id_serial_digits=7,
        )
        fleet = FleetDeployment(design, households=4, seed=1)
        report = campaign_binding_dos(fleet, max_probes=50)
        assert report.ids_probed == 50
        assert report.ids_hit == 4

    def test_render(self):
        fleet = FleetDeployment(vendor("OZWI"), households=2, seed=2)
        report = campaign_binding_dos(fleet, max_probes=8)
        text = report.render()
        assert "binding-dos" in text and "denied" in text.lower()


class TestMassUnbindCampaign:
    def test_unchecked_unbind_vendor_loses_whole_fleet(self):
        # An Orvibo-style design (unchecked Type-1 unbind) that also uses
        # sequential serials — the worst-case combination.
        from repro.cloud.policy import DeviceAuthMode, VendorDesign

        design = VendorDesign(
            name="Orvibo-like", device_type="smart-plug",
            device_auth=DeviceAuthMode.DEV_TOKEN,
            unbind_checks_bound_user=False,
            id_scheme="serial-number", id_serial_digits=6,
        )
        fleet = FleetDeployment(design, households=4, seed=3)
        assert fleet.setup_all() == 4
        fleet.run(12.0)
        report = campaign_mass_unbind(fleet, max_probes=64)
        assert report.ids_hit == 4
        assert report.victims_denied == 4

    def test_checked_unbind_vendor_survives(self):
        fleet = FleetDeployment(vendor("Lightstory"), households=3, seed=3)
        assert fleet.setup_all() == 3
        fleet.run(12.0)
        report = campaign_mass_unbind(fleet, max_probes=64)
        assert report.ids_hit == 0
        assert report.victims_denied == 0
