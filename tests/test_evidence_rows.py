"""Pins for the per-request evidence stores' untracked rows.

The audit log and the forensic timeline keep one row per handled
request: an exact tuple of ``str``/``float``/``int``/``bool`` fields,
which CPython's cyclic collector untracks at its first pass, so a long
campaign's evidence adds nothing for full collections to walk.  One
small unobserved world per design (the 10 studied vendors plus the 3
secure baselines) serves heartbeats (accepted) and attacker probes
(rejected, or served where a design allows it), and the tests check:

* no stored audit or forensic row is tracked after ``gc.collect()``;
* settled probing grows the tracked heap by under 0.1 objects per
  request;
* the read-side views (``AuditEntry``, ``ForensicEvent``) carry exactly
  the field values the earlier one-slotted-object-per-request stores
  recorded (pinned as digests).

Regenerate the digests (only for a deliberate behaviour change)::

    PYTHONPATH=src REGEN_EVIDENCE_FIXTURE=1 \
        python -m pytest tests/test_evidence_rows.py -q
"""

import gc
import hashlib
import json
import os
import pathlib

import pytest

from repro.core.errors import RequestRejected
from repro.core.messages import DeviceFetch, UnbindMessage
from repro.fleet import FleetDeployment
from repro.secure.designs import SECURE_BASELINES
from repro.vendors.profiles import STUDIED_VENDORS

FIXTURE = pathlib.Path(__file__).resolve().parent / "fixtures" / "evidence_rows.json"
REGEN = bool(os.environ.get("REGEN_EVIDENCE_FIXTURE"))

ALL_DESIGNS = {d.name: d for d in list(STUDIED_VENDORS) + list(SECURE_BASELINES)}

AUDIT_FIELDS = (
    "time", "source_node", "source_ip", "summary", "outcome", "detail", "trace_id",
)
FORENSIC_FIELDS = (
    "seq", "time", "device_id", "kind", "summary", "source", "origin_ip",
    "trace_id", "span_id", "outcome", "actor", "bound_before", "replaced",
    "decision_trace",
)

#: probe cycles sent before and while the tracked heap is measured
WARMUP_CYCLES = 1
MEASURED_CYCLES = 20

_regenerated = {}


def _digest(data):
    """sha256 of the canonical JSON rendering of *data*."""
    canonical = json.dumps(data, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _send(fleet, messages):
    """Send *messages* from the attacker node; rejections are answers."""
    for message in messages:
        try:
            fleet.network.request("attacker:host", fleet.cloud.node_name, message)
        except RequestRejected:
            pass


def probed_world(design):
    """One settled world, probed; returns it and its tracked-heap growth."""
    fleet = FleetDeployment(design, households=3, seed=5)
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
        _send(fleet, cycle)
        fleet.run(10.0)
    gc.collect()
    tracked_before, audited_before = len(gc.get_objects()), len(fleet.cloud.audit)
    for _ in range(MEASURED_CYCLES):
        _send(fleet, cycle)
        fleet.run(10.0)
    gc.collect()
    requests = len(fleet.cloud.audit) - audited_before
    growth = (len(gc.get_objects()) - tracked_before) / requests
    return fleet, requests, growth


def evidence_views(fleet):
    """Every audit entry's and forensic event's field values, in order."""
    audit = [
        [getattr(entry, name) for name in AUDIT_FIELDS]
        for entry in fleet.cloud.audit.entries
    ]
    forensics = [
        [getattr(event, name) for name in FORENSIC_FIELDS]
        for event in fleet.cloud.forensics.events()
    ]
    return audit, forensics


@pytest.fixture(scope="module")
def worlds():
    return {}


def world(worlds, name):
    if name not in worlds:
        worlds[name] = probed_world(ALL_DESIGNS[name])
    return worlds[name]


@pytest.mark.parametrize("name", sorted(ALL_DESIGNS))
def test_views_match_pinned_records(worlds, name):
    fleet, _, _ = world(worlds, name)
    audit, forensics = evidence_views(fleet)
    got = {
        "audit": len(audit),
        "audit_sha256": _digest(audit),
        "forensics": len(forensics),
        "forensics_sha256": _digest(forensics),
    }
    if REGEN:
        _regenerated[name] = got
        if len(_regenerated) == len(ALL_DESIGNS):
            FIXTURE.write_text(
                json.dumps(_regenerated, indent=1, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        return
    assert got == json.loads(FIXTURE.read_text(encoding="utf-8"))[name]


@pytest.mark.parametrize("name", sorted(ALL_DESIGNS))
def test_rows_are_untracked(worlds, name):
    fleet, requests, growth = world(worlds, name)
    outcomes = {row[4] for row in fleet.cloud.audit.rows[-requests:]}
    assert "ok" in outcomes and outcomes - {"ok"}, "need accepted and rejected"
    gc.collect()
    assert not [row for row in fleet.cloud.audit.rows if gc.is_tracked(row)]
    assert not [row for row in fleet.cloud.forensics._rows if gc.is_tracked(row)]
    assert growth < 0.1, f"{growth:.3f} tracked objects per request"
