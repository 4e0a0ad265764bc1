"""The ten studied vendor designs (Table III, "Designs" columns).

Each profile is a :class:`~repro.cloud.policy.VendorDesign` whose knobs
were derived from the paper's per-device observations (Sections IV and
VI-B); DESIGN.md §4 walks through the derivation.  Vendor and product
names follow Table III.  Nothing in a profile states an attack outcome —
outcomes emerge from simulating the attacks against a cloud configured
with the profile.

ID-scheme assignments follow Section VI-A: five vendors use MAC-derived
IDs (vendor OUI + 3 free bytes), six print the ID on the device label,
and the camera vendors use short sequential serials like the incidents
the paper cites (7-digit and 6-digit).
"""

from __future__ import annotations

from typing import Dict, List

from repro.cloud.policy import BindSender, DeviceAuthMode, VendorDesign
from repro.core.errors import ConfigurationError

BELKIN = VendorDesign(
    name="Belkin",
    device_type="smart-plug",
    device_auth=DeviceAuthMode.DEV_TOKEN,
    device_auth_known=DeviceAuthMode.DEV_TOKEN,  # firmware reverse engineered
    firmware_available=True,
    unbind_checks_bound_user=False,  # A3-2: unbind does not verify the bound user
    id_scheme="mac-address",
    id_oui="94:10:3e",
    id_label_on_device=True,
)

BROADLINK = VendorDesign(
    name="BroadLink",
    device_type="smart-plug",
    device_auth=DeviceAuthMode.DEV_TOKEN,
    device_auth_known=None,  # "O": no firmware, status design undetermined
    firmware_available=False,
    id_scheme="mac-address",
    id_oui="78:0f:77",
)

KONKE = VendorDesign(
    name="KONKE",
    device_type="smart-socket",
    device_auth=DeviceAuthMode.DEV_TOKEN,
    device_auth_known=DeviceAuthMode.DEV_TOKEN,  # inferred from attack behaviour
    firmware_available=False,
    unbind_supported=False,           # N.A.: no revocation endpoint at all
    rebind_replaces_existing=True,    # a new binding replaces the previous one
    id_scheme="serial-number",
    id_serial_digits=8,
)

LIGHTSTORY = VendorDesign(
    name="Lightstory",
    device_type="smart-plug",
    device_auth=DeviceAuthMode.DEV_TOKEN,
    device_auth_known=DeviceAuthMode.DEV_TOKEN,  # documented in the vendor API
    firmware_available=False,
    id_scheme="serial-number",
    id_serial_digits=8,
    id_label_on_device=True,
)

ORVIBO = VendorDesign(
    name="Orvibo",
    device_type="smart-plug",
    device_auth=DeviceAuthMode.DEV_TOKEN,
    device_auth_known=None,  # "O"
    firmware_available=False,
    unbind_checks_bound_user=False,  # A3-2
    id_scheme="mac-address",
    id_oui="ac:cf:23",
)

OZWI = VendorDesign(
    name="OZWI",
    device_type="ip-camera",
    device_auth=DeviceAuthMode.DEV_ID,
    device_auth_known=DeviceAuthMode.DEV_ID,  # confirmed via binding attacks
    firmware_available=False,                 # A1 "O": cannot craft device msgs
    id_scheme="serial-number",
    id_serial_digits=7,                       # the 7-digit camera incident
    id_label_on_device=True,
)

PHILIPS_HUE = VendorDesign(
    name="Philips Hue",
    device_type="bulb-bridge",
    device_auth=DeviceAuthMode.DEV_TOKEN,
    device_auth_known=None,  # "O"
    firmware_available=False,
    ip_match_required=True,        # button press + source-IP comparison
    bind_window_seconds=30.0,      # "within 30 seconds"
    id_scheme="mac-address",
    id_oui="00:17:88",
)

TPLINK = VendorDesign(
    name="TP-LINK",
    device_type="smart-bulb",
    device_auth=DeviceAuthMode.DEV_ID,
    device_auth_known=DeviceAuthMode.DEV_ID,  # firmware reverse engineered
    firmware_available=True,
    status_yields_user_data=False,  # forged status accepted, but A1 still failed
    bind_sender=BindSender.DEVICE,  # the one device-initiated binding
    bind_requires_online_device=True,
    unbind_accepts_bare_dev_id=True,      # Type-2 Unbind:DevId (A3-1)
    single_connection_per_device=True,    # new device connection evicts old (A3-4)
    id_scheme="mac-address",
    id_oui="50:c7:bf",
    id_label_on_device=True,
)

ELINK = VendorDesign(
    name="E-Link Smart",
    device_type="ip-camera",
    device_auth=DeviceAuthMode.DEV_ID,
    device_auth_known=DeviceAuthMode.DEV_ID,  # confirmed via hijacking attack
    firmware_available=False,                 # A1 "O"
    bind_requires_online_device=True,
    rebind_replaces_existing=True,            # new Bind replaces the binding (A4-1)
    id_scheme="serial-number",
    id_serial_digits=6,                       # the 6-digit baby-monitor incident
    id_label_on_device=True,
)

DLINK = VendorDesign(
    name="D-LINK",
    device_type="smart-plug",
    device_auth=DeviceAuthMode.DEV_ID,
    device_auth_known=DeviceAuthMode.DEV_ID,  # firmware reverse engineered
    firmware_available=True,
    status_yields_user_data=True,             # A1 demonstrated on this device
    post_binding_token=True,                  # post-binding token blocks hijack
    id_scheme="serial-number",
    id_serial_digits=10,
    id_label_on_device=True,
)

#: Table III row order.
STUDIED_VENDORS: List[VendorDesign] = [
    BELKIN,
    BROADLINK,
    KONKE,
    LIGHTSTORY,
    ORVIBO,
    OZWI,
    PHILIPS_HUE,
    TPLINK,
    ELINK,
    DLINK,
]

VENDORS_BY_NAME: Dict[str, VendorDesign] = {v.name: v for v in STUDIED_VENDORS}


def vendor(name: str) -> VendorDesign:
    """Look up one of the ten studied designs by Table III name.

    Raises :class:`~repro.core.errors.ConfigurationError` for unknown
    names, listing the studied vendors so CLI typos are self-explaining.
    """
    try:
        return VENDORS_BY_NAME[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown vendor {name!r}; choose from {sorted(VENDORS_BY_NAME)}"
        ) from None
