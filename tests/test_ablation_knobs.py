"""Ablation: each design knob's marginal effect on the attack battery.

Starts from a deliberately weak straw-man design (DevId auth, no
checks) and turns on one mitigation at a time, re-running the full
nine-attack battery.  The grid shows which check closes which attack:
the causal story behind Table III's spread of outcomes.
"""

from repro.attacks.runner import ATTACK_IDS, run_all_attacks
from repro.cloud.policy import DeviceAuthMode, VendorDesign

BASE = dict(
    device_type="smart-plug",
    device_auth=DeviceAuthMode.DEV_ID,
    device_auth_known=DeviceAuthMode.DEV_ID,
    firmware_available=True,
    unbind_checks_bound_user=False,
    rebind_replaces_existing=True,
    single_connection_per_device=True,
    id_scheme="serial-number",
    id_serial_digits=6,
)

#: row label -> the knobs it changes from ``BASE``
ABLATIONS = {
    "weak-baseline": {},
    "+checked-unbind": {"unbind_checks_bound_user": True},
    "+no-rebind-replace": {"rebind_replaces_existing": False},
    "+multi-connection": {"single_connection_per_device": False},
    "+post-binding-token": {"post_binding_token": True},
    "+ip-match": {"ip_match_required": True},
    "+dev-token-auth": {
        "device_auth": DeviceAuthMode.DEV_TOKEN,
        "device_auth_known": DeviceAuthMode.DEV_TOKEN,
    },
}

#: The seven rows, outcomes in ``ATTACK_IDS`` order (A1, A2, A3-1 ..
#: A4-3), ``esc`` for escalated.  The straw man loses on every front
#: except A2: silent rebinding (as on KONKE) lets the victim's setup
#: replace the attacker's occupation, so the DoS never sticks, and
#: closing hijack-by-replacement re-opens it.  Each other mitigation
#: closes its own attack; dynamic device tokens wipe out the
#: device-forgery family (A1, A3-4, A4-1, A4-2) wholesale.
EXPECTED = {
    "weak-baseline":       "yes no  no yes esc yes yes yes yes",
    "+checked-unbind":     "yes no  no no  esc yes yes yes no",
    "+no-rebind-replace":  "yes yes no yes no  yes no  yes yes",
    "+multi-connection":   "yes no  no yes esc no  yes yes yes",
    "+post-binding-token": "yes no  no yes yes yes no  no  no",
    "+ip-match":           "yes no  no yes no  yes no  no  no",
    "+dev-token-auth":     "no  no  no yes yes no  no  no  no",
}


def outcomes(label):
    design = VendorDesign(name=f"ablation:{label}", **{**BASE, **ABLATIONS[label]})
    reports = run_all_attacks(design, seed=1)
    short = {"escalated": "esc"}
    return [
        short.get(reports[aid].outcome.value, reports[aid].outcome.value)
        for aid in ATTACK_IDS
    ]


def test_ablation_grid():
    grid = {label: outcomes(label) for label in ABLATIONS}
    assert grid == {label: row.split() for label, row in EXPECTED.items()}
