"""Output-identity pins for the merged snapshot of a sharded campaign.

``ShardedCampaignResult.snapshot`` is the document ``repro campaign
--format json`` prints: every shard's span forest under its
``shard:<i>`` root, the merged metrics and SLO bins, and the per-shard
span accounting.  Each case runs one small detection campaign and pins
a digest of that document with its wall-clock content removed
(``wall_ns`` on every span, the ``profile`` and ``red`` sections).

Cases: four studied vendors x the four campaigns, inline
(``workers=1``) and pooled (``workers=2``), plus a ``lossy-lan`` chaos
campaign and a span cap small enough to drop spans.

Regenerate (only for a deliberate behaviour change)::

    PYTHONPATH=src REGEN_CAMPAIGN_SNAPSHOTS=1 \
        python -m pytest tests/test_campaign_snapshots.py -q
"""

import hashlib
import json
import os
import pathlib

import pytest

from repro.chaos import ChaosSpec
from repro.parallel import CAMPAIGNS, run_campaign
from repro.vendors import vendor

FIXTURE = (
    pathlib.Path(__file__).resolve().parent / "fixtures" / "campaign_snapshots.json"
)
REGEN = bool(os.environ.get("REGEN_CAMPAIGN_SNAPSHOTS"))

VENDORS = ("OZWI", "KONKE", "E-Link Smart", "D-LINK")

CASES = {
    f"{name}|{campaign}|w{workers}": dict(
        vendor=name, campaign=campaign, workers=workers
    )
    for name in VENDORS
    for campaign in CAMPAIGNS
    for workers in (1, 2)
}
CASES["OZWI|mass-unbind|w2|lossy-lan"] = dict(
    vendor="OZWI", campaign="mass-unbind", workers=2,
    chaos=ChaosSpec(plan="lossy-lan"),
)
CASES["KONKE|mass-rebind|w2|cap-40"] = dict(
    vendor="KONKE", campaign="mass-rebind", workers=2, snapshot_max_spans=40,
)

_regenerated = {}


def _strip_wall(node):
    """*node* without ``wall_ns`` keys, at any depth."""
    if isinstance(node, dict):
        return {k: _strip_wall(v) for k, v in node.items() if k != "wall_ns"}
    if isinstance(node, list):
        return [_strip_wall(item) for item in node]
    return node


def pinned_view(case):
    """The deterministic part of one case's merged snapshot."""
    options = dict(case)
    design = vendor(options.pop("vendor"))
    result = run_campaign(
        design, households=4, max_probes=16, seed=3, detect=True, **options
    )
    snap = {
        k: v for k, v in result.snapshot.items() if k not in ("profile", "red")
    }
    canonical = json.dumps(_strip_wall(snap), sort_keys=True)
    return {
        "digest": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "span_count": snap["span_count"],
        "export_spans_dropped": snap["export_spans_dropped"],
    }


@pytest.mark.parametrize("case_id", list(CASES))
def test_campaign_snapshot_is_pinned(case_id):
    got = pinned_view(CASES[case_id])
    if REGEN:
        _regenerated[case_id] = got
        if len(_regenerated) == len(CASES):
            FIXTURE.write_text(
                json.dumps(_regenerated, indent=1, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        return
    assert got == json.loads(FIXTURE.read_text(encoding="utf-8"))[case_id]


def test_the_cap_case_really_drops_spans():
    pinned = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert pinned["KONKE|mass-rebind|w2|cap-40"]["export_spans_dropped"] > 0
