"""Tests for the protocol-cost metrics."""

from repro.analysis.metrics import compare_designs, measure_setup_cost, render_costs
from repro.secure import SECURE_BASELINES, SECURE_CAPABILITY, SECURE_DEVTOKEN
from repro.vendors import STUDIED_VENDORS, vendor


class TestSetupCost:
    def test_flow_completes_and_counts(self):
        cost = measure_setup_cost(vendor("Belkin"), seed=4)
        assert cost.setup_succeeded
        assert cost.total == cost.to_cloud + cost.local
        assert cost.to_cloud > 0
        assert cost.by_summary.get("Login:(UserId,UserPw)") == 1
        assert cost.by_summary.get("Bind:(DevId,UserToken)") == 1

    def test_dev_token_designs_have_local_delivery(self):
        cost = measure_setup_cost(vendor("Belkin"), seed=4)
        assert cost.local >= 1  # DeliverDevToken rides the LAN

    def test_dev_id_designs_can_skip_local_configuration(self):
        cost = measure_setup_cost(vendor("OZWI"), seed=4)
        # label-on-device + DevId: no local secret delivery at all —
        # exactly the "user-friendly feature" Section IV-A describes.
        assert cost.local == 0

    def test_capability_flow_counts_bind_token(self):
        cost = measure_setup_cost(SECURE_CAPABILITY, seed=4)
        assert cost.setup_succeeded
        assert cost.by_summary.get("Bind:BindToken") == 1
        assert cost.local >= 2  # dev token + bind token delivered locally

    def test_attacker_traffic_excluded(self):
        cost = measure_setup_cost(vendor("Belkin"), seed=4)
        # the attacker never acted in this flow; nothing counted twice
        assert cost.total < 25

    def test_compare_and_render(self):
        costs = compare_designs([vendor("Belkin"), SECURE_DEVTOKEN], seed=4)
        text = render_costs(costs)
        assert "Belkin" in text and "Secure-DevToken" in text
        assert "setup" in text

    def test_secure_baselines_cost_little_over_the_cheapest_weak_design(self):
        costs = compare_designs(
            list(STUDIED_VENDORS) + list(SECURE_BASELINES), seed=4
        )
        assert all(cost.setup_succeeded for cost in costs)
        by_name = {cost.design: cost.total for cost in costs}
        cheapest_weak = min(by_name[design.name] for design in STUDIED_VENDORS)
        for baseline in SECURE_BASELINES:
            assert by_name[baseline.name] <= cheapest_weak + 8, baseline.name
