"""Seeded randomness for the simulation.

A single :class:`DeterministicRandom` instance is threaded through the
environment so that token generation, MAC assignment, telemetry noise
and attack sampling are all reproducible from one seed.  Tokens are
generated from the seeded stream — they model *unguessable* secrets, not
cryptographic ones (see DESIGN.md §7).

Identifier draws (:meth:`DeterministicRandom.token`,
:meth:`~DeterministicRandom.hex_string`,
:meth:`~DeterministicRandom.serial_digits`,
:meth:`~DeterministicRandom.mac_suffix`) are ``random.choice``-identical:
each character is drawn the way CPython's ``choice`` draws an index, so
the strings and the stream position after them equal a per-character
``random.Random.choice`` loop on the same seed, without its per-call
overhead.
"""

from __future__ import annotations

import random
import string
import zlib
from typing import Sequence, TypeVar

T = TypeVar("T")

_HEX = "0123456789abcdef"
_ALNUM = string.ascii_lowercase + string.digits


class DeterministicRandom:
    """Thin wrapper over :class:`random.Random` with domain helpers."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    # -- generic ---------------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def choice(self, options: Sequence[T]) -> T:
        return self._rng.choice(options)

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    # -- identifiers -----------------------------------------------------

    def _draw(self, alphabet: str, length: int) -> str:
        """*length* characters of *alphabet*, as ``random.choice`` picks them.

        CPython's ``choice`` indexes with ``_randbelow(n)``: draw
        ``getrandbits(n.bit_length())`` and redraw while the result is
        ``>= n``.  Doing the same here consumes the stream word for word.
        """
        getrandbits = self._rng.getrandbits
        size = len(alphabet)
        bits = size.bit_length()
        chars = []
        append = chars.append
        for _ in range(length):
            index = getrandbits(bits)
            while index >= size:
                index = getrandbits(bits)
            append(alphabet[index])
        return "".join(chars)

    def hex_string(self, length: int) -> str:
        """A lowercase hex string of *length* characters."""
        return self._draw(_HEX, length)

    def token(self, length: int = 32) -> str:
        """An opaque session/binding token (alphanumeric)."""
        return self._draw(_ALNUM, length)

    def mac_suffix(self) -> str:
        """The 3 device-specific bytes of a MAC address, as ``xx:xx:xx``."""
        digits = self._draw(_HEX, 6)
        return f"{digits[0:2]}:{digits[2:4]}:{digits[4:6]}"

    def serial_digits(self, digits: int) -> str:
        """A numeric serial of exactly *digits* digits (may lead with 0)."""
        return self._draw(string.digits, digits)

    # -- state capture ---------------------------------------------------

    def getstate(self):
        """The stream's full state (picklable; pairs with :meth:`setstate`).

        Lets a warm-started world resume the exact stream position a
        captured world had reached, so post-restore draws bit-match the
        original run's.
        """
        return (self.seed, self._rng.getstate())

    def setstate(self, state) -> None:
        """Restore a state captured by :meth:`getstate`.

        The derivation seed is restored too, so :meth:`fork` labels keep
        producing the same child streams they would have originally.
        """
        seed, rng_state = state
        self.seed = seed
        self._rng.setstate(rng_state)

    def fork(self, label: str) -> "DeterministicRandom":
        """A derived, independent stream (stable for a given seed+label).

        Uses CRC32 rather than ``hash()`` so the derivation survives
        Python's per-process hash randomization.
        """
        derived = zlib.crc32(f"{self.seed}/{label}".encode("utf-8"))
        return DeterministicRandom(derived)
