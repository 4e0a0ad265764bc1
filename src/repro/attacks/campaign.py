"""Product-line-wide attack campaigns (Section V-C's scalable DoS).

A campaign is ID enumeration plus a per-ID attack primitive, run
against a whole fleet.  The two campaigns here bracket the paper's
scenarios:

* :func:`campaign_binding_dos` — enumerate the sequential ID space and
  occupy every binding *before* the customers set up ("binding
  denial-of-service to the entire product series");
* :func:`campaign_mass_unbind` — against an already-deployed fleet on
  an unchecked-unbind vendor, revoke every customer's binding;
* :func:`campaign_shadow_probe` — A1 at fleet scale: forged DeviceFetch
  polls across the ID space, stealing every exposed customer's data;
* :func:`campaign_mass_rebind` — A4 at fleet scale: hijack every
  deployed binding on a rebind-replaces vendor.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.attacks.id_inference import confirms_device
from repro.core.errors import ConfigurationError, NetworkError, RequestRejected
from repro.core.messages import BindMessage, DeviceFetch, UnbindMessage
from repro.fleet import FleetDeployment


@dataclass
class CampaignReport:
    """Fleet-wide damage assessment."""

    campaign: str
    vendor: str
    households: int
    ids_probed: int
    ids_hit: int
    victims_denied: int
    modelled_seconds: float
    details: List[str] = field(default_factory=list)

    @property
    def denial_rate(self) -> float:
        return self.victims_denied / self.households if self.households else 0.0

    @classmethod
    def merge(cls, reports: Sequence["CampaignReport"]) -> "CampaignReport":
        """Fold per-shard reports into one fleet-wide report.

        Counts sum (a sharded run partitions both the households and the
        probe budget, so the sums equal what one serial run over the
        whole fleet would have produced — see ``docs/parallelism.md``).
        Detail lines keep their shard of origin as a ``[shard i]``
        prefix.  Merging a single report returns it unchanged (no
        provenance prefix), so a one-shard run stays bit-identical to
        the serial path.
        """
        if not reports:
            raise ConfigurationError("cannot merge zero campaign reports")
        first = reports[0]
        if len(reports) == 1:
            return dataclasses.replace(first, details=list(first.details))
        for other in reports[1:]:
            if (other.campaign, other.vendor) != (first.campaign, first.vendor):
                raise ConfigurationError(
                    "cannot merge reports from different campaigns or vendors: "
                    f"{(first.campaign, first.vendor)} vs "
                    f"{(other.campaign, other.vendor)}"
                )
        details = [
            f"[shard {shard}] {line}"
            for shard, report in enumerate(reports)
            for line in report.details
        ]
        return cls(
            campaign=first.campaign,
            vendor=first.vendor,
            households=sum(r.households for r in reports),
            ids_probed=sum(r.ids_probed for r in reports),
            ids_hit=sum(r.ids_hit for r in reports),
            victims_denied=sum(r.victims_denied for r in reports),
            modelled_seconds=sum(r.modelled_seconds for r in reports),
            details=details,
        )

    def render(self) -> str:
        """Multi-line damage summary."""
        lines = [
            f"campaign {self.campaign!r} against {self.vendor} "
            f"({self.households} households)",
            f"  IDs probed: {self.ids_probed}  hits: {self.ids_hit}  "
            f"modelled time: {self.modelled_seconds:.1f}s",
            f"  customers denied service: {self.victims_denied}/{self.households} "
            f"({self.denial_rate:.0%})",
        ]
        lines.extend(f"  {detail}" for detail in self.details)
        return "\n".join(lines)


def _send(fleet: FleetDeployment, message) -> tuple:
    try:
        fleet.network.request("attacker:host", fleet.cloud.node_name, message)
        return True, "ok"
    except RequestRejected as exc:
        return False, exc.code
    except NetworkError:
        # Chaos dropped the probe; the attacker gets nothing for this ID.
        return False, "network-error"


def _attacker_token(fleet: FleetDeployment):
    """The attacker's session token, or ``None`` if chaos blocked login."""
    try:
        return fleet.attacker_token()
    except NetworkError:
        return None


def campaign_binding_dos(
    fleet: FleetDeployment, max_probes: int = 256, request_rate: float = 3000.0
) -> CampaignReport:
    """Occupy the whole product series before customers bind.

    Sweeps the ID space in order, sending a Bind for every candidate.
    Then every household attempts its normal setup; a household counts
    as denied if the flow fails end to end.
    """
    obs = fleet.env.observer
    with obs.span(
        "campaign:binding-dos", kind="scenario",
        vendor=fleet.design.name, households=len(fleet.households),
    ):
        token = _attacker_token(fleet)
        probed = hits = 0
        details = []
        if token is None:
            details.append("attacker login failed (network); probe sweep skipped")
        else:
            with obs.span("probe-sweep", kind="phase", max_probes=max_probes):
                for candidate in itertools.islice(
                    fleet.id_scheme.candidates(), max_probes
                ):
                    probed += 1
                    accepted, code = _send(
                        fleet, BindMessage(device_id=candidate, user_token=token)
                    )
                    if confirms_device(accepted, code):
                        hits += 1

        denied = 0
        with obs.span("victim-setups", kind="phase"):
            for household in fleet.households:
                ok = fleet.setup_household(household)
                if not ok:
                    denied += 1
                    details.append(f"{household.user_id}: setup DENIED")
        obs.count("campaign.probes", probed, campaign="binding-dos")
        obs.count("campaign.hits", hits, campaign="binding-dos")
        obs.count("campaign.denied", denied, campaign="binding-dos")
    return CampaignReport(
        campaign="binding-dos",
        vendor=fleet.design.name,
        households=len(fleet.households),
        ids_probed=probed,
        ids_hit=hits,
        victims_denied=denied,
        modelled_seconds=probed / request_rate,
        details=details,
    )


def campaign_mass_unbind(
    fleet: FleetDeployment, max_probes: int = 256, request_rate: float = 3000.0
) -> CampaignReport:
    """Revoke every deployed customer's binding (A3-2 at fleet scale).

    Requires an already-set-up fleet; effective only on vendors whose
    Type-1 unbind skips the bound-user check.
    """
    obs = fleet.env.observer
    with obs.span(
        "campaign:mass-unbind", kind="scenario",
        vendor=fleet.design.name, households=len(fleet.households),
    ):
        token = _attacker_token(fleet)
        probed = hits = 0
        details = []
        if token is None:
            details.append("attacker login failed (network); probe sweep skipped")
        else:
            with obs.span("probe-sweep", kind="phase", max_probes=max_probes):
                for candidate in itertools.islice(
                    fleet.id_scheme.candidates(), max_probes
                ):
                    probed += 1
                    accepted, _ = _send(
                        fleet, UnbindMessage(device_id=candidate, user_token=token)
                    )
                    if accepted:
                        hits += 1

        denied = sum(
            1
            for household in fleet.households
            if fleet.cloud.bound_user_of(household.device.device_id) != household.user_id
        )
        obs.count("campaign.probes", probed, campaign="mass-unbind")
        obs.count("campaign.hits", hits, campaign="mass-unbind")
        obs.count("campaign.denied", denied, campaign="mass-unbind")
    return CampaignReport(
        campaign="mass-unbind",
        vendor=fleet.design.name,
        households=len(fleet.households),
        ids_probed=probed,
        ids_hit=hits,
        victims_denied=denied,
        modelled_seconds=probed / request_rate,
        details=details,
    )


def campaign_shadow_probe(
    fleet: FleetDeployment, max_probes: int = 256, request_rate: float = 3000.0
) -> CampaignReport:
    """Steal every exposed customer's device data (A1 at fleet scale).

    Requires an already-set-up fleet.  The attacker sweeps the ID space
    with forged :class:`DeviceFetch` polls — no session, no token, just
    the guessable identifier (the device #10 weakness).  A household
    counts as a victim when a forged fetch for *its* device was
    accepted: the cloud handed the attacker that customer's command
    queue and schedule.
    """
    obs = fleet.env.observer
    with obs.span(
        "campaign:shadow-probe", kind="scenario",
        vendor=fleet.design.name, households=len(fleet.households),
    ):
        fleet_devices = {
            household.device.device_id for household in fleet.households
        }
        probed = hits = 0
        exposed = set()
        details = []
        with obs.span("probe-sweep", kind="phase", max_probes=max_probes):
            for candidate in itertools.islice(
                fleet.id_scheme.candidates(), max_probes
            ):
                probed += 1
                accepted, _ = _send(fleet, DeviceFetch(device_id=candidate))
                if accepted:
                    hits += 1
                    if candidate in fleet_devices:
                        exposed.add(candidate)
        if exposed:
            details.append(f"{len(exposed)} household device(s) EXPOSED")
        obs.count("campaign.probes", probed, campaign="shadow-probe")
        obs.count("campaign.hits", hits, campaign="shadow-probe")
        obs.count("campaign.denied", len(exposed), campaign="shadow-probe")
    return CampaignReport(
        campaign="shadow-probe",
        vendor=fleet.design.name,
        households=len(fleet.households),
        ids_probed=probed,
        ids_hit=hits,
        victims_denied=len(exposed),
        modelled_seconds=probed / request_rate,
        details=details,
    )


def campaign_mass_rebind(
    fleet: FleetDeployment, max_probes: int = 256, request_rate: float = 3000.0
) -> CampaignReport:
    """Hijack every deployed customer's binding (A4 at fleet scale).

    Requires an already-set-up fleet; effective only on vendors whose
    Bind replaces an existing binding (``rebind_replaces_existing``).
    A household counts as denied when its binding no longer names it
    after the sweep.
    """
    obs = fleet.env.observer
    with obs.span(
        "campaign:mass-rebind", kind="scenario",
        vendor=fleet.design.name, households=len(fleet.households),
    ):
        token = _attacker_token(fleet)
        probed = hits = 0
        details = []
        if token is None:
            details.append("attacker login failed (network); probe sweep skipped")
        else:
            with obs.span("probe-sweep", kind="phase", max_probes=max_probes):
                for candidate in itertools.islice(
                    fleet.id_scheme.candidates(), max_probes
                ):
                    probed += 1
                    accepted, _ = _send(
                        fleet, BindMessage(device_id=candidate, user_token=token)
                    )
                    if accepted:
                        hits += 1

        denied = sum(
            1
            for household in fleet.households
            if fleet.cloud.bound_user_of(household.device.device_id) != household.user_id
        )
        obs.count("campaign.probes", probed, campaign="mass-rebind")
        obs.count("campaign.hits", hits, campaign="mass-rebind")
        obs.count("campaign.denied", denied, campaign="mass-rebind")
    return CampaignReport(
        campaign="mass-rebind",
        vendor=fleet.design.name,
        households=len(fleet.households),
        ids_probed=probed,
        ids_hit=hits,
        victims_denied=denied,
        modelled_seconds=probed / request_rate,
        details=details,
    )
