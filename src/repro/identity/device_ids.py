"""Device-ID schemes and their enumerability.

The paper's adversary model rests on how device IDs are minted:

* MAC-derived IDs: the first three bytes are the manufacturer OUI, so
  once any one device of the vendor is seen, the remaining search space
  is 3 bytes (Section I, III-A).  Five of the ten vendors do this.
* Sequential serial numbers: "some device IDs only contain 6 or 7
  digits, allowing attackers to traverse all possible IDs within an
  hour" (Section I, citing the Fredi baby-monitor and camera incidents).
* Random IDs: long enough to resist enumeration, but still *static* —
  and static identifiers can leak through ownership transfer, so even
  these must never double as authentication secrets (Section VII).

Each scheme knows how to issue IDs and what its enumeration space is;
the attacker's ID-inference tooling (``repro.attacks.id_inference``)
consumes the ``candidates`` iterators exactly like a brute-forcer.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Iterator, Optional

from repro.core.errors import ConfigurationError
from repro.net.address import MacAddress
from repro.sim.rand import DeterministicRandom


class DeviceIdScheme(ABC):
    """How a vendor mints device IDs."""

    #: short scheme name used in reports
    kind: str = "abstract"

    @abstractmethod
    def issue(self, rng: DeterministicRandom) -> str:
        """Mint a fresh device ID."""

    @abstractmethod
    def search_space(self) -> int:
        """Number of syntactically valid IDs an attacker must consider."""

    @abstractmethod
    def candidates(self) -> Iterator[str]:
        """Deterministic enumeration order of the full ID space."""


class MacDeviceId(DeviceIdScheme):
    """IDs equal to the device MAC address with a fixed vendor OUI."""

    kind = "mac-address"

    def __init__(self, oui: str) -> None:
        MacAddress.from_parts(oui, "00:00:00")  # validates the OUI
        self.oui = oui

    def issue(self, rng: DeterministicRandom) -> str:
        return str(MacAddress.from_parts(self.oui, rng.mac_suffix()))

    def search_space(self) -> int:
        return MacAddress.search_space_for_oui()

    def candidates(self) -> Iterator[str]:
        for value in range(self.search_space()):
            suffix = f"{value:06x}"
            yield str(
                MacAddress.from_parts(
                    self.oui, f"{suffix[0:2]}:{suffix[2:4]}:{suffix[4:6]}"
                )
            )


class SerialDeviceId(DeviceIdScheme):
    """Numeric serials, optionally sequential (the weakest practice)."""

    kind = "serial-number"

    def __init__(self, digits: int, prefix: str = "", sequential: bool = True,
                 start: int = 0) -> None:
        if digits < 1:
            raise ConfigurationError("serial needs at least one digit")
        self.digits = digits
        self.prefix = prefix
        self.sequential = sequential
        self._counter = itertools.count(start)

    def issue(self, rng: DeterministicRandom) -> str:
        if self.sequential:
            number = next(self._counter) % (10 ** self.digits)
            return f"{self.prefix}{number:0{self.digits}d}"
        return f"{self.prefix}{rng.serial_digits(self.digits)}"

    def search_space(self) -> int:
        return 10 ** self.digits

    def candidates(self) -> Iterator[str]:
        for number in range(self.search_space()):
            yield f"{self.prefix}{number:0{self.digits}d}"


class RandomDeviceId(DeviceIdScheme):
    """Long random hex IDs (resist enumeration; still static)."""

    kind = "random-hex"

    def __init__(self, hex_chars: int = 32) -> None:
        if hex_chars < 1:
            raise ConfigurationError("ID must have at least one hex char")
        self.hex_chars = hex_chars

    def issue(self, rng: DeterministicRandom) -> str:
        return rng.hex_string(self.hex_chars)

    def search_space(self) -> int:
        return 16 ** self.hex_chars

    def candidates(self) -> Iterator[str]:
        for value in range(self.search_space()):  # pragma: no cover - huge
            yield f"{value:0{self.hex_chars}x}"


def scheme_from_name(name: str, oui: Optional[str] = None, digits: int = 7) -> DeviceIdScheme:
    """Factory used by vendor profiles."""
    if name == "mac-address":
        return MacDeviceId(oui or "a4:77:33")
    if name == "serial-number":
        return SerialDeviceId(digits=digits)
    if name == "random-hex":
        return RandomDeviceId()
    raise ConfigurationError(f"unknown device-ID scheme {name!r}")
