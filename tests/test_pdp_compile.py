"""One compile routine, memoised per design.

Every cloud's :class:`~repro.cloud.pdp.engine.PolicyDecisionPoint` is
built by :meth:`~repro.cloud.pdp.engine.PolicyDecisionPoint.for_design`,
which takes its validated spec and compiled rule table from a bounded
per-process memo of :func:`~repro.cloud.pdp.engine.compile_design`.
These tests pin what sharing the table must not change: value-equal
designs share it, different ones do not, the memo stays within its
bound and keeps no world alive, no rule writes to a shared table, a
malformed design is still refused, and the policy-space enumerator
leaves the memo alone.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.analysis.design_space import enumerate_design_space
from repro.analysis.policy_space import enumerate_policy_space
from repro.attacks.runner import run_all_attacks
from repro.cloud.pdp import PolicyDecisionPoint, PolicySpec, PolicySpecError
from repro.cloud.pdp import engine
from repro.cloud.pdp.engine import DESIGN_CACHE_SIZE, compile_spec
from repro.scenario import Deployment
from repro.secure import SECURE_BASELINES
from repro.vendors import STUDIED_VENDORS, vendor

ALL_DESIGNS = tuple(STUDIED_VENDORS) + tuple(SECURE_BASELINES)


def comparable(compiled):
    """A compiled table as plain values (rule evals compare by fields)."""
    return {
        action: [
            (name, impl, params, (passed.rule, passed.outcome, passed.code))
            for name, impl, params, passed in rules
        ]
        for action, rules in compiled.items()
    }


def pdp(design) -> PolicyDecisionPoint:
    return PolicyDecisionPoint.for_design(None, design)


class TestDesignMemo:
    def test_two_worlds_of_one_design_share_the_table(self):
        design = vendor("KONKE")
        first = Deployment(design, seed=1).cloud.pdp
        second = Deployment(design, seed=2).cloud.pdp
        assert first is not second
        assert first._compiled is second._compiled
        assert first.spec is second.spec
        assert first.service is not second.service

    def test_value_equal_design_hits_and_changed_knob_misses(self):
        design = vendor("OZWI")
        same = dataclasses.replace(design)
        assert same is not design and same == design
        assert pdp(same)._compiled is pdp(design)._compiled
        changed = dataclasses.replace(
            design, post_binding_token=not design.post_binding_token
        )
        assert pdp(changed)._compiled is not pdp(design)._compiled
        assert pdp(changed).spec != pdp(design).spec

    def test_equal_knobs_of_another_type_compile_apart(self):
        design = vendor("Philips Hue")
        as_float = dataclasses.replace(design, bind_window_seconds=30.0)
        as_int = dataclasses.replace(design, bind_window_seconds=30)
        assert as_int == as_float
        assert pdp(as_int).spec is not pdp(as_float).spec
        assert pdp(as_int).spec.digest() == PolicySpec.from_design(as_int).digest()
        assert pdp(as_int).spec.digest() != pdp(as_float).spec.digest()

    def test_memo_never_exceeds_its_bound(self):
        for index, design in enumerate(enumerate_design_space()):
            if index > DESIGN_CACHE_SIZE + 8:
                break
            pdp(design)
            assert engine._design_memo.cache_info().currsize <= DESIGN_CACHE_SIZE
        assert engine._design_memo.cache_info().currsize == DESIGN_CACHE_SIZE

    def test_dropped_world_is_collectable(self):
        deployment = Deployment(vendor("D-LINK"), seed=4)
        world = weakref.ref(deployment)
        cloud = weakref.ref(deployment.cloud)
        del deployment
        gc.collect()
        assert world() is None
        assert cloud() is None

    def test_battery_leaves_every_shared_table_as_compiled(self):
        for design in ALL_DESIGNS:
            run_all_attacks(design, seed=7)
        for design in ALL_DESIGNS:
            shared = pdp(design)
            fresh = PolicySpec.from_design(design)
            assert shared.spec.to_data() == fresh.to_data(), design.name
            assert comparable(shared._compiled) == comparable(compile_spec(fresh)), design.name

    def test_enumerator_leaves_the_memo_alone(self):
        before = engine._design_memo.cache_info()
        points = list(enumerate_policy_space(limit=DESIGN_CACHE_SIZE + 8))
        after = engine._design_memo.cache_info()
        assert len(points) == DESIGN_CACHE_SIZE + 8
        assert (after.hits, after.misses, after.currsize) == (
            before.hits, before.misses, before.currsize
        )


def test_for_design_refuses_ill_typed_knob_even_after_its_equal():
    # A spec-built PDP refusing a malformed spec is
    # tests/test_pdp.py::TestSpecValidation::test_engine_refuses_malformed_spec.
    design = vendor("OZWI")
    pdp(dataclasses.replace(design, bind_probe_rate_limit=1))
    for _ in range(2):  # a refused design is not memoised either
        with pytest.raises(PolicySpecError, match="expected int"):
            pdp(dataclasses.replace(design, bind_probe_rate_limit=True))
