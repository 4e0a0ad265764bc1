"""Tests for device-ID schemes, tokens, keys and entropy analysis."""

import itertools

import pytest

from repro.core.errors import ConfigurationError
from repro.identity.device_ids import (
    MacDeviceId,
    RandomDeviceId,
    SerialDeviceId,
    scheme_from_name,
)
from repro.identity.entropy import (
    SECONDS_PER_HOUR,
    analyze,
    expected_attempts,
    render_report,
    search_space_bits,
    time_to_enumerate,
)
from repro.identity.keys import generate_keypair
from repro.identity.tokens import TokenKind, TokenService
from repro.sim.rand import DeterministicRandom


class TestIdSchemes:
    def test_mac_ids_share_oui(self):
        scheme = MacDeviceId("a4:77:33")
        rng = DeterministicRandom(3)
        ids = [scheme.issue(rng) for _ in range(10)]
        assert all(i.startswith("a4:77:33:") for i in ids)
        assert len(set(ids)) == 10

    def test_mac_search_space(self):
        assert MacDeviceId("a4:77:33").search_space() == 2 ** 24

    def test_mac_candidates_enumerate_in_order(self):
        scheme = MacDeviceId("a4:77:33")
        first = list(itertools.islice(scheme.candidates(), 3))
        assert first == [
            "a4:77:33:00:00:00",
            "a4:77:33:00:00:01",
            "a4:77:33:00:00:02",
        ]

    def test_sequential_serials(self):
        scheme = SerialDeviceId(digits=6, sequential=True, start=41)
        rng = DeterministicRandom(0)
        assert scheme.issue(rng) == "000041"
        assert scheme.issue(rng) == "000042"

    def test_random_serials_have_right_length(self):
        scheme = SerialDeviceId(digits=7, sequential=False)
        value = scheme.issue(DeterministicRandom(0))
        assert len(value) == 7 and value.isdigit()

    def test_serial_search_space(self):
        assert SerialDeviceId(digits=7).search_space() == 10 ** 7

    def test_random_hex_space_is_huge(self):
        scheme = RandomDeviceId(hex_chars=32)
        assert scheme.search_space() == 16 ** 32
        assert len(scheme.issue(DeterministicRandom(0))) == 32

    def test_factory(self):
        assert scheme_from_name("mac-address", oui="11:22:33").kind == "mac-address"
        assert scheme_from_name("serial-number", digits=6).search_space() == 10 ** 6
        assert scheme_from_name("random-hex").kind == "random-hex"
        with pytest.raises(ConfigurationError):
            scheme_from_name("carrier-pigeon")

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            SerialDeviceId(digits=0)
        with pytest.raises(ConfigurationError):
            RandomDeviceId(hex_chars=0)


class TestTokenService:
    def make(self):
        return TokenService(DeterministicRandom(9))

    def test_issue_and_validate(self):
        tokens = self.make()
        token = tokens.issue(TokenKind.USER, "alice")
        assert tokens.is_valid(token, TokenKind.USER)
        assert tokens.is_valid(token, TokenKind.USER, subject="alice")
        assert tokens.subject_of(token, TokenKind.USER) == "alice"

    def test_kind_mismatch_invalid(self):
        tokens = self.make()
        token = tokens.issue(TokenKind.USER, "alice")
        assert not tokens.is_valid(token, TokenKind.DEVICE)
        assert tokens.subject_of(token, TokenKind.DEVICE) is None

    def test_none_token_invalid(self):
        assert not self.make().is_valid(None, TokenKind.USER)

    def test_revoke(self):
        tokens = self.make()
        token = tokens.issue(TokenKind.DEVICE, "dev-1")
        assert tokens.revoke(token)
        assert not tokens.is_valid(token, TokenKind.DEVICE)
        assert not tokens.revoke(token)  # second revoke is a no-op

    def test_revoke_subject(self):
        tokens = self.make()
        tokens.issue(TokenKind.USER, "alice")
        tokens.issue(TokenKind.USER, "alice")
        device = tokens.issue(TokenKind.DEVICE, "alice")
        assert tokens.revoke_subject("alice", TokenKind.USER) == 2
        assert tokens.lookup(device, TokenKind.DEVICE) is not None

    def test_tokens_are_unique(self):
        tokens = self.make()
        issued = {tokens.issue(TokenKind.USER, f"u{i}") for i in range(100)}
        assert len(issued) == 100

    def test_short_tokens_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenService(DeterministicRandom(0), token_length=4)


class TestKeyPairs:
    def test_sign_verify_roundtrip(self):
        pair = generate_keypair(DeterministicRandom(1), "dev-1")
        payload = {"device_id": "dev-1", "model": "plug"}
        signature = pair.private.sign(payload)
        assert pair.public.verify(payload, signature)

    def test_tampered_payload_fails(self):
        pair = generate_keypair(DeterministicRandom(1), "dev-1")
        signature = pair.private.sign({"device_id": "dev-1"})
        assert not pair.public.verify({"device_id": "dev-2"}, signature)

    def test_wrong_key_fails(self):
        pair_a = generate_keypair(DeterministicRandom(1), "a")
        pair_b = generate_keypair(DeterministicRandom(2), "b")
        payload = {"device_id": "a"}
        assert not pair_b.public.verify(payload, pair_a.private.sign(payload))


class TestEntropy:
    def test_bits(self):
        assert search_space_bits(2 ** 24) == 24.0
        assert abs(search_space_bits(10 ** 6) - 19.93) < 0.01

    def test_expected_attempts_is_half_the_space(self):
        assert expected_attempts(1_000_000) == 500_000.5

    def test_seven_digit_ids_enumerable_within_an_hour(self):
        # Section I: 6-7 digit IDs traversable "within an hour".
        assert time_to_enumerate(10 ** 7, rate=3000) <= SECONDS_PER_HOUR
        assert time_to_enumerate(10 ** 6, rate=300) <= SECONDS_PER_HOUR

    def test_mac_suffix_not_enumerable_within_an_hour_at_same_rate(self):
        assert time_to_enumerate(2 ** 24, rate=3000) > SECONDS_PER_HOUR

    def test_random_hex_infeasible(self):
        report = analyze(RandomDeviceId(32))
        assert not report.within_one_hour
        assert "infeasible" in report.row()

    def test_time_to_enumerate(self):
        assert time_to_enumerate(3000, rate=3000) == 1.0
        with pytest.raises(ConfigurationError):
            time_to_enumerate(10, rate=0)
        with pytest.raises(ConfigurationError):
            search_space_bits(0)

    def test_render_report(self):
        reports = [analyze(SerialDeviceId(digits=7)), analyze(MacDeviceId("a4:77:33"))]
        text = render_report(reports)
        assert "serial-number" in text and "mac-address" in text
