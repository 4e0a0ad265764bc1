"""Identifier draws are ``random.choice``-identical.

:class:`~repro.sim.rand.DeterministicRandom` draws tokens, hex IDs,
serials and MAC suffixes with its own index loop instead of one
``random.Random.choice`` call per character.  Every string, and the
stream position after it, must equal the per-character ``choice``
reference: tokens and IDs feed every pinned fixture, and warm-started
worlds resume from a captured stream position.
"""

import random
import string

import pytest

from repro.sim.rand import DeterministicRandom

HEX = "0123456789abcdef"
ALNUM = string.ascii_lowercase + string.digits
SEEDS = range(0, 4000, 37)
LENGTHS = (0, 1, 2, 32, 64)


def reference(seed: int, alphabet: str, length: int):
    rng = random.Random(seed)
    return "".join(rng.choice(alphabet) for _ in range(length)), rng.getstate()


@pytest.mark.parametrize("method, alphabet", [
    ("token", ALNUM),
    ("hex_string", HEX),
    ("serial_digits", string.digits),
])
@pytest.mark.parametrize("length", LENGTHS)
def test_draw_matches_choice_reference(method, alphabet, length):
    for seed in SEEDS:
        rng = DeterministicRandom(seed)
        drawn = getattr(rng, method)(length)
        want, state = reference(seed, alphabet, length)
        assert drawn == want, (method, seed, length)
        assert rng.getstate() == (seed, state), (method, seed, length)


def test_mac_suffix_matches_choice_reference():
    for seed in SEEDS:
        rng = DeterministicRandom(seed)
        ref = random.Random(seed)
        want = ":".join(
            "".join(ref.choice(HEX) for _ in range(2)) for _ in range(3)
        )
        assert rng.mac_suffix() == want, seed
        assert rng.getstate() == (seed, ref.getstate()), seed

