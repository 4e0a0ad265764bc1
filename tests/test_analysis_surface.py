"""Tests for the Table II surface exploration and taxonomy."""

from repro.analysis.surface import (
    build_taxonomy,
    explore_surface,
    render_table_ii,
)
from repro.core.states import ShadowEvent, ShadowState


class TestSurfaceExploration:
    def test_probes_every_state_with_every_forgeable_event(self):
        assert len(explore_surface()) == 4 * 3  # 4 states x 3 forgeable primitives

    def test_state_changing_probes_match_the_machine(self):
        # Of the 12 probes, exactly 6 change state: the numbered Figure 2
        # transitions (timeouts are not forgeable).
        assert sum(p.changes_state for p in explore_surface()) == 6

    def test_points_carry_computed_end_states(self):
        points = {(p.state, p.event): p.end_state for p in explore_surface()}
        assert points[(ShadowState.INITIAL, ShadowEvent.BIND_CREATED)] is ShadowState.BOUND
        assert points[(ShadowState.CONTROL, ShadowEvent.BIND_REVOKED)] is ShadowState.ONLINE
        assert points[(ShadowState.CONTROL, ShadowEvent.STATUS_RECEIVED)] is ShadowState.CONTROL


class TestTaxonomy:
    def test_nine_attack_rows(self):
        rows = build_taxonomy()
        assert [r.attack_id for r in rows] == [
            "A1", "A2", "A3-1", "A3-2", "A3-3", "A3-4", "A4-1", "A4-2", "A4-3",
        ]

    def test_end_states_match_paper_table_ii(self):
        by_id = {r.attack_id: r for r in build_taxonomy()}
        assert by_id["A1"].end_state is ShadowState.CONTROL
        assert by_id["A2"].end_state is ShadowState.BOUND
        for variant in ("A3-1", "A3-2", "A3-3", "A3-4"):
            assert by_id[variant].end_state is ShadowState.ONLINE, variant
        for variant in ("A4-1", "A4-2", "A4-3"):
            assert by_id[variant].end_state is ShadowState.CONTROL, variant

    def test_targeted_states_match_paper_table_ii(self):
        by_id = {r.attack_id: r for r in build_taxonomy()}
        assert by_id["A1"].targeted_states == (ShadowState.CONTROL, ShadowState.BOUND)
        assert by_id["A2"].targeted_states == (ShadowState.INITIAL,)
        assert by_id["A4-2"].targeted_states == (ShadowState.ONLINE,)

    def test_forged_messages_use_paper_notation(self):
        by_id = {r.attack_id: r for r in build_taxonomy()}
        assert by_id["A1"].forged_messages == "Status:DevId"
        assert by_id["A2"].forged_messages == "Bind:(DevId,UserToken)"
        assert by_id["A3-1"].forged_messages == "Unbind:DevId"
        assert "Unbind" in by_id["A4-3"].forged_messages
        assert "Bind" in by_id["A4-3"].forged_messages

    def test_render_contains_all_rows_and_consequences(self):
        text = render_table_ii()
        for attack_id in ("A1", "A2", "A3-4", "A4-3"):
            assert attack_id in text
        assert "denial-of-service" in text
        assert "absolute control" in text
