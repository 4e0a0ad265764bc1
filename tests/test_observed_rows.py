"""Pins for the observed request path: untracked leaves, batched RED.

An observed request costs one observer call
(:meth:`~repro.obs.runtime.Observability.on_request`) and leaves no
object the cyclic collector must walk:

* its exchange leaf is stored as its audit row plus its rule trace, and
  read as an :class:`~repro.obs.tracer.ExchangeLeaf` view;
* its RED samples wait in bounded per-series buffers of floats and
  strings, and are folded into the sketches in recording order.

The tests check the heap growth of observed worlds for all 13 designs
(the 10 studied vendors plus the 3 secure baselines), that a batched
:class:`~repro.obs.slo.RedAccounting` reads exactly like one fed a
sample at a time through :meth:`LatencySketch.observe`, and that a
replaced accounting keeps only the samples recorded while it was
installed.
"""

import gc
import random

import pytest

from repro.core.errors import RequestRejected
from repro.core.messages import DeviceFetch, UnbindMessage
from repro.fleet import FleetDeployment
from repro.obs.runtime import Observability
from repro.obs.slo import RED_BATCH, LatencySketch, RedAccounting, RedSeries
from repro.obs.tracer import ExchangeLeaf
from repro.secure.designs import SECURE_BASELINES
from repro.vendors import vendor
from repro.vendors.profiles import STUDIED_VENDORS

ALL_DESIGNS = {d.name: d for d in list(STUDIED_VENDORS) + list(SECURE_BASELINES)}

#: probe cycles sent before and while the tracked heap is measured
WARMUP_CYCLES = 1
MEASURED_CYCLES = 20
#: probe bursts per cycle: each cycle's 10 virtual seconds add a span
#: and a few SLO bins whatever the traffic, so a cycle carries enough
#: requests for those not to read as per-request growth
BURSTS = 4


def _send(fleet, messages):
    """Send *messages* from the attacker node; rejections are answers."""
    for message in messages:
        try:
            fleet.network.request("attacker:host", fleet.cloud.node_name, message)
        except RequestRejected:
            pass


def observed_world(design):
    """One settled observed world, probed; returns it and its heap growth."""
    obs = Observability(trace_messages=True)
    fleet = FleetDeployment(design, households=3, seed=5, observer=obs)
    fleet.setup_all()
    fleet.run(30.0)
    token = fleet.attacker_token()
    ids = [household.device.device_id for household in fleet.households]
    ids += [f"no-such-device-{index}" for index in range(9)]
    cycle = [
        message
        for device_id in ids
        for message in (DeviceFetch(device_id=device_id),
                        UnbindMessage(device_id=device_id, user_token=token))
    ]
    for _ in range(WARMUP_CYCLES):
        _send(fleet, cycle * BURSTS)
        fleet.run(10.0)
    gc.collect()
    tracked_before, audited_before = len(gc.get_objects()), len(fleet.cloud.audit)
    for _ in range(MEASURED_CYCLES):
        _send(fleet, cycle * BURSTS)
        fleet.run(10.0)
    gc.collect()
    requests = len(fleet.cloud.audit) - audited_before
    growth = (len(gc.get_objects()) - tracked_before) / requests
    return obs, fleet, requests, growth


@pytest.mark.parametrize("name", sorted(ALL_DESIGNS))
def test_observed_requests_leave_no_tracked_objects(name):
    obs, fleet, requests, growth = observed_world(ALL_DESIGNS[name])
    outcomes = {row[4] for row in fleet.cloud.audit.rows[-requests:]}
    assert "ok" in outcomes and outcomes - {"ok"}, "need accepted and rejected"
    leaves = [span for span in obs.tracer.walk() if isinstance(span, ExchangeLeaf)]
    assert len(leaves) == len(fleet.cloud.audit)
    gc.collect()
    assert not [leaf.row for leaf in leaves if gc.is_tracked(leaf.row)]
    assert growth < 0.1, f"{growth:.3f} tracked objects per request"
    assert obs.matches_audit(fleet.cloud.audit)


@pytest.mark.parametrize("name", ["KONKE", "OZWI", "Secure-Capability"])
def test_decisions_on_one_path_share_one_trace(name):
    """An observed PDP renders each decision path's trail once: the
    forensic rows of every denial, like every allow, of one message kind
    and trail hold the same string."""
    _, fleet, _, _ = observed_world(ALL_DESIGNS[name])
    objects = {}
    for event in fleet.cloud.forensics.events():
        trace = event.decision_trace
        objects.setdefault((event.kind, trace), set()).add(id(trace))
    assert [trace for _, trace in objects if ":deny(" in trace]
    assert {path: len(ids) for path, ids in objects.items() if len(ids) > 1} == {}


# -- batched RED accounting ----------------------------------------------------


class ReferenceRed:
    """RED accounting that folds each sample on arrival (the oracle)."""

    def __init__(self):
        self.series = {}

    def _series(self, key):
        if key not in self.series:
            self.series[key] = RedSeries()
        return self.series[key]

    def record(self, scope, action, outcome, duration_us, trace_id=""):
        series = self._series((scope, action))
        series.requests += 1
        if outcome != "ok":
            series.errors[outcome] = series.errors.get(outcome, 0) + 1
        series.sketch.observe(duration_us, trace_id)

    def merge_snapshot(self, snap):
        for joined, row in snap["series"].items():
            series = self._series(tuple(joined.split("|")))
            series.requests += row["requests"]
            for code, count in row["errors"].items():
                series.errors[code] = series.errors.get(code, 0) + count
            series.sketch.merge_snapshot(row["sketch"])

    def snapshot(self, alpha):
        return {
            "alpha": alpha,
            "series": {
                "|".join(key): {
                    "requests": series.requests,
                    "errors": dict(sorted(series.errors.items())),
                    "sketch": series.sketch.snapshot(),
                }
                for key, series in sorted(self.series.items())
            },
        }


KEYS = (("OZWI", "status"), ("OZWI", "fetch"), ("pdp", "status"))


def _sample(rng, index):
    """One seeded sample: errors, zero durations and missing traces included."""
    scope, action = KEYS[rng.randrange(len(KEYS))]
    outcome = "ok" if rng.random() < 0.8 else rng.choice(("bad-dev-token", "unbound"))
    duration = 0.0 if rng.random() < 0.01 else rng.uniform(1.0, 300.0)
    trace = f"trace-{index}" if rng.random() < 0.9 else ""
    return scope, action, outcome, duration, trace


def _largest_buffer(red):
    return max((len(p.durations) for p in red._pending.values()), default=0)


def test_batched_red_equals_one_at_a_time_reference():
    rng = random.Random(22)
    batched, reference = RedAccounting(), ReferenceRed()
    other = RedAccounting()
    for index in range(40):
        other.record(*_sample(rng, -index))
    # Reads and merges far enough apart for every buffer to fill up.
    samples = 8 * RED_BATCH * len(KEYS)
    for index in range(1, samples + 1):
        sample = _sample(rng, index)
        batched.record(*sample)
        reference.record(*sample)
        assert _largest_buffer(batched) < RED_BATCH
        if index % 1500 == 0:
            batched.merge_snapshot(other.snapshot())
            reference.merge_snapshot(other.snapshot())
        if index % 1000 == 0:
            assert batched.snapshot() == reference.snapshot(batched.alpha)
            assert batched.total_requests() == sum(
                s.requests for s in reference.series.values()
            )
    per_key = {key: s.requests for key, s in reference.series.items()}
    assert min(per_key.values()) > 3 * RED_BATCH  # crosses batch boundaries
    assert batched.snapshot() == reference.snapshot(batched.alpha)
    for scope in ("OZWI", "pdp", None):
        merged = LatencySketch()
        for (series_scope, _), series in sorted(reference.series.items()):
            if scope is None or series_scope == scope:
                merged.merge_snapshot(series.sketch.snapshot())
        assert batched.combined_sketch(scope).snapshot() == merged.snapshot()


def test_replaced_red_keeps_only_its_own_samples():
    obs = Observability(trace_messages=False)
    fleet = FleetDeployment(vendor("OZWI"), households=4, seed=7, observer=obs)
    fleet.setup_all()
    fleet.run(60.0)
    old_red, old_pdp = obs.red, obs.pdp_red
    before = obs.profiler.calls["cloud.handle_packet"]
    obs.red, obs.pdp_red = RedAccounting(), RedAccounting()
    # Samples still buffered when the swap happened belong to the old ones.
    assert old_red.total_requests() == old_pdp.total_requests() == before > 0
    fleet.run(60.0)
    after = obs.profiler.calls["cloud.handle_packet"] - before
    assert after > 0
    assert old_red.total_requests() == old_pdp.total_requests() == before
    assert obs.red.total_requests() == obs.pdp_red.total_requests() == after
    assert obs.matches_audit(fleet.cloud.audit)
