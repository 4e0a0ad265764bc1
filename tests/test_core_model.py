"""Tests for the formal model of the Figure 2 machine."""

from repro.core.model import (
    check_paper_properties,
    effective_transitions,
    reachable_states,
    render_figure_2,
    run,
    next_state,
    shortest_paths,
)
from repro.core.states import ShadowEvent, ShadowState


class TestReachability:
    def test_all_states_reachable_from_initial(self):
        assert reachable_states() == frozenset(ShadowState)

    def test_all_states_reachable_from_any_state(self):
        for start in ShadowState:
            assert reachable_states(start) == frozenset(ShadowState)


class TestPaths:
    def test_two_orders_to_control(self):
        paths = shortest_paths(ShadowState.INITIAL, ShadowState.CONTROL)
        assert len(paths) == 2
        assert all(len(p) == 2 for p in paths)
        assert (ShadowEvent.BIND_CREATED, ShadowEvent.STATUS_RECEIVED) in paths
        assert (ShadowEvent.STATUS_RECEIVED, ShadowEvent.BIND_CREATED) in paths

    def test_trivial_path_to_self(self):
        assert shortest_paths(ShadowState.ONLINE, ShadowState.ONLINE) == [()]

    def test_run_folds_events(self):
        assert (
            run([ShadowEvent.STATUS_RECEIVED, ShadowEvent.BIND_CREATED])
            is ShadowState.CONTROL
        )

    def test_run_empty_sequence(self):
        assert run([]) is ShadowState.INITIAL


class TestTables:
    def test_transition_table_is_total(self):
        table = {
            (state, event): next_state(state, event)
            for state in ShadowState
            for event in ShadowEvent
        }
        assert len(table) == len(ShadowState) * len(ShadowEvent)
        assert set(table.values()) <= set(ShadowState)

    def test_effective_transitions_count(self):
        assert len(effective_transitions()) == 8

    def test_paper_properties_all_hold(self):
        properties = check_paper_properties()
        failing = [name for name, holds in properties.items() if not holds]
        assert not failing, f"paper properties violated: {failing}"

    def test_figure_2_rendering_mentions_all_states(self):
        text = render_figure_2()
        for state in ShadowState:
            assert state.value in text
        for label in ("(1)", "(2)", "(3)", "(4)", "(5)", "(6)"):
            assert label in text
