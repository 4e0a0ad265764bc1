#!/usr/bin/env python
"""Device-ID inference: search spaces and a live enumeration sweep.

Quantifies the adversary model's first assumption (Section III-A): weak
device IDs can be inferred or enumerated.  Prints the enumerability
table for the schemes the studied vendors use, then runs a live sweep
against a simulated OZWI-style cloud, showing how ID enumeration turns
directly into the scalable binding-DoS of Section V-C.

Run:
    python examples/id_bruteforce.py
"""

from repro import Deployment, vendor
from repro.attacks import RemoteAttacker, enumerate_ids
from repro.identity import (
    MacDeviceId,
    RandomDeviceId,
    SerialDeviceId,
    analyze,
    render_report,
)


def main() -> None:
    schemes = [
        SerialDeviceId(digits=6),      # the Fredi baby-monitor incident
        SerialDeviceId(digits=7),      # the hijacked-camera incident
        MacDeviceId("50:c7:bf"),       # MAC-derived (5 of 10 vendors)
        RandomDeviceId(hex_chars=32),  # the safe alternative
    ]
    print(render_report([analyze(s) for s in schemes]))
    print()

    print("live enumeration sweep against an OZWI-style cloud "
          "(7-digit sequential serials):")
    world = Deployment(vendor("OZWI"), seed=2)
    mallory = RemoteAttacker(world)
    mallory.login()

    # reconnaissance: the attacker's OWN unit shows the ID format
    own_id = world.attacker_party.device.device_id
    space = analyze(world.id_scheme)
    print(f"  attacker's own serial: {own_id}")
    print(f"  search space: {space.space:,} IDs ({space.bits:.1f} bits)")
    print(f"  enumerable within an hour: {space.within_one_hour}")
    stats = enumerate_ids(mallory, world.id_scheme, max_probes=64)
    print(f"  probed {stats.attempted} candidate IDs "
          f"({stats.virtual_seconds:.3f}s at 3000 req/s)")
    print(f"  registered devices found: {stats.found}")
    for device_id in stats.found:
        owner = world.cloud.bound_user_of(device_id)
        print(f"  {device_id}: now bound to {owner}  <- scalable binding DoS")
    print()
    print("the victim can no longer set up her own camera:")
    print(f"  victim setup succeeds: {world.victim_full_setup()}")


if __name__ == "__main__":
    main()
