"""Search-space and enumeration-time analysis of device-ID schemes.

Quantifies the paper's claims about weak device IDs:

* "with vendor-specific bytes excluded, the search space of MAC
  addresses is often within 3 bytes" (Section I) — 2^24 candidates;
* "some device IDs only contain 6 or 7 digits, allowing attackers to
  traverse all possible IDs within an hour" (Section I) — 10^6..10^7
  candidates at realistic cloud request rates.

``repro entropy`` prints the resulting table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import ConfigurationError
from repro.identity.device_ids import DeviceIdScheme

#: Requests/second a distributed attacker can sustain against a cloud
#: API; 3,000/s traverses a 7-digit space in under an hour, matching the
#: paper's "within an hour" claim for the reported incidents.
DEFAULT_REQUEST_RATE = 3000.0

SECONDS_PER_HOUR = 3600.0


def search_space_bits(space: int) -> float:
    """Entropy of a uniform ID space, in bits."""
    if space < 1:
        raise ConfigurationError("search space must be positive")
    return math.log2(space)


def expected_attempts(space: int) -> float:
    """Mean guesses to hit one specific ID by uniform random search."""
    return (space + 1) / 2.0


def time_to_enumerate(space: int, rate: float = DEFAULT_REQUEST_RATE) -> float:
    """Seconds to traverse the whole space at *rate* requests/second."""
    if rate <= 0:
        raise ConfigurationError("request rate must be positive")
    return space / rate



@dataclass(frozen=True)
class SearchSpaceReport:
    """Enumerability verdict for one ID scheme."""

    scheme: str
    space: int
    bits: float
    expected_guesses: float
    full_sweep_seconds: float
    within_one_hour: bool

    def row(self) -> str:
        """One fixed-width table row."""
        sweep = (
            f"{self.full_sweep_seconds:,.0f}s"
            if self.full_sweep_seconds < 10 * 365 * 24 * 3600
            else "infeasible"
        )
        space = f"{self.space:,}" if self.space < 10 ** 12 else f"{self.space:.2e}"
        flag = "YES" if self.within_one_hour else "no"
        return (
            f"{self.scheme:<22} {space:>18} {self.bits:>7.1f} "
            f"{sweep:>14} {flag:>9}"
        )


def analyze(scheme: DeviceIdScheme, rate: float = DEFAULT_REQUEST_RATE) -> SearchSpaceReport:
    """Build the enumerability report for one scheme."""
    space = scheme.search_space()
    sweep = time_to_enumerate(space, rate)
    return SearchSpaceReport(
        scheme=scheme.kind,
        space=space,
        bits=search_space_bits(space),
        expected_guesses=expected_attempts(space),
        full_sweep_seconds=sweep,
        within_one_hour=sweep <= SECONDS_PER_HOUR,
    )


def render_report(reports: Sequence[SearchSpaceReport], rate: float = DEFAULT_REQUEST_RATE) -> str:
    """Fixed-width table over several schemes."""
    header = (
        f"Device-ID enumerability at {rate:,.0f} req/s\n"
        f"{'scheme':<22} {'space':>18} {'bits':>7} {'full sweep':>14} {'<1 hour':>9}"
    )
    return "\n".join([header] + [report.row() for report in reports])
