"""Identity substrate: device-ID schemes, tokens, keys, entropy analysis."""

from repro.identity.device_ids import (
    DeviceIdScheme,
    MacDeviceId,
    RandomDeviceId,
    SerialDeviceId,
    scheme_from_name,
)
from repro.identity.entropy import (
    DEFAULT_REQUEST_RATE,
    SearchSpaceReport,
    analyze,
    expected_attempts,
    render_report,
    search_space_bits,
    time_to_enumerate,
)
from repro.identity.keys import (
    KeyPair,
    PrivateKey,
    PublicKey,
    cached_keypair,
    generate_keypair,
)
from repro.identity.tokens import TokenKind, TokenRecord, TokenService

__all__ = [
    "DEFAULT_REQUEST_RATE",
    "DeviceIdScheme",
    "KeyPair",
    "MacDeviceId",
    "PrivateKey",
    "PublicKey",
    "RandomDeviceId",
    "SearchSpaceReport",
    "SerialDeviceId",
    "TokenKind",
    "TokenRecord",
    "TokenService",
    "analyze",
    "expected_attempts",
    "cached_keypair",
    "generate_keypair",
    "render_report",
    "scheme_from_name",
    "search_space_bits",
    "time_to_enumerate",
]
