"""Output-identity pins for the observer's per-request recording.

One small seeded world per design (the 10 studied vendors plus the 3
secure baselines) runs under a real :class:`Observability` with chaos,
heartbeats and attacker probes.  Everything the observer derives from
the cloud's requests is pinned: the tracer's span forest (as a digest
of :meth:`Tracer.signature`), the RED and PDP RED request and error
counts per series, the SLO availability bins, the profiler's call
counts and the metrics registry snapshot (as a digest).  Wall-clock
values (sketch contents, profiler totals, span ``wall_ns``) are left
out because they differ from run to run.

Regenerate (only for a deliberate behaviour change)::

    PYTHONPATH=src REGEN_OBSERVER_FIXTURE=1 \
        python -m pytest tests/test_observer_identity.py -q
"""

import hashlib
import json
import os
import pathlib

import pytest

from repro.attacks.campaign import campaign_mass_unbind, campaign_shadow_probe
from repro.chaos import ChaosSpec, apply_chaos
from repro.fleet import FleetDeployment
from repro.obs.runtime import Observability
from repro.secure.designs import SECURE_BASELINES
from repro.vendors.profiles import STUDIED_VENDORS

FIXTURE = (
    pathlib.Path(__file__).resolve().parent / "fixtures" / "observer_identity.json"
)
REGEN = bool(os.environ.get("REGEN_OBSERVER_FIXTURE"))

ALL_DESIGNS = {d.name: d for d in list(STUDIED_VENDORS) + list(SECURE_BASELINES)}

_regenerated = {}


def _digest(data):
    """sha256 of the canonical JSON rendering of *data*."""
    canonical = json.dumps(data, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _red_counts(red):
    """Per-series request and error counts (no wall-clock sketch data)."""
    return {
        "|".join(key): {"requests": series.requests, "errors": dict(sorted(series.errors.items()))}
        for key, series in sorted(red.series().items())
    }


def observed_world(design):
    """Everything one observed world's requests leave in the observer."""
    obs = Observability(trace_messages=True)
    fleet = FleetDeployment(design, households=3, seed=11, observer=obs)
    apply_chaos(fleet, ChaosSpec(plan="flaky-wan"))
    fleet.setup_all()
    fleet.run(60.0)
    campaign_mass_unbind(fleet, max_probes=8, request_rate=3000.0)
    campaign_shadow_probe(fleet, max_probes=8, request_rate=3000.0)
    fleet.run(20.0)
    assert obs.matches_audit(fleet.cloud.audit)
    return {
        "signature": _digest(obs.tracer.signature()),
        "spans": len(obs.tracer),
        "red": _red_counts(obs.red),
        "pdp_red": _red_counts(obs.pdp_red),
        "slo": obs.slo.snapshot(),
        "profiler_calls": dict(sorted(obs.profiler.calls.items())),
        "metrics": _digest(obs.metrics.snapshot()),
    }


@pytest.mark.parametrize("name", sorted(ALL_DESIGNS))
def test_observer_outputs_are_pinned(name):
    got = json.loads(json.dumps(observed_world(ALL_DESIGNS[name]), sort_keys=True))
    if REGEN:
        _regenerated[name] = got
        if len(_regenerated) == len(ALL_DESIGNS):
            FIXTURE.write_text(
                json.dumps(_regenerated, indent=1, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        return
    assert got == json.loads(FIXTURE.read_text(encoding="utf-8"))[name]
