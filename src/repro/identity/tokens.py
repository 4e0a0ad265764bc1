"""Token issuance and validation (UserToken, DevToken, BindToken).

Tokens are the *dynamic* credentials of Table I — "a piece of random
data".  The cloud owns one :class:`TokenService`; everything the paper
treats as unforgeable-because-random goes through it.  Tokens can be
revoked, which is how binding replacement invalidates a device's old
session token (the mechanism that turns bind-replacement into mere
disconnection instead of hijack under DevToken designs, Section VI-B,
device #3).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Dict, Optional

from repro.cloud.state.protocol import Record, RecordStoreBase
from repro.core.errors import ConfigurationError
from repro.sim.rand import DeterministicRandom


@unique
class TokenKind(Enum):
    """The four token roles of Table I (plus the post-binding token)."""
    USER = "user-token"
    DEVICE = "dev-token"
    BIND = "bind-token"
    POST_BINDING = "post-binding-token"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class TokenRecord:
    """A live token: its kind and the principal it was issued for."""

    token: str
    kind: TokenKind
    subject: str
    issued_at: float


class TokenService(RecordStoreBase):
    """Issues, validates and revokes random tokens.

    Also the cloud's ``tokens`` record store: live tokens keyed by their
    own random value.
    """

    state_name = "tokens"
    key_field = "token"

    def __init__(self, rng: DeterministicRandom, token_length: int = 32) -> None:
        if token_length < 8:
            raise ConfigurationError("tokens shorter than 8 chars are not tokens")
        self._rng = rng
        self._length = token_length
        self._records: Dict[str, TokenRecord] = {}

    # -- issuance ----------------------------------------------------------

    def issue(self, kind: TokenKind, subject: str, now: float = 0.0) -> str:
        """Mint a fresh token of *kind* for *subject*."""
        token = self._rng.token(self._length)
        while token in self._records:  # pragma: no cover - astronomically rare
            token = self._rng.token(self._length)
        record = TokenRecord(token, kind, subject, now)
        self._records[token] = record
        self._record_put(self.to_record(record))
        return token

    # -- validation ----------------------------------------------------------

    def lookup(self, token: Optional[str], kind: TokenKind) -> Optional[TokenRecord]:
        """The live record for *token* if it exists and has *kind*."""
        if token is None:
            return None
        record = self._records.get(token)
        if record is None or record.kind is not kind:
            return None
        return record

    def subject_of(self, token: Optional[str], kind: TokenKind) -> Optional[str]:
        """The principal a live token of *kind* belongs to, else ``None``."""
        record = self.lookup(token, kind)
        return record.subject if record else None

    def is_valid(self, token: Optional[str], kind: TokenKind, subject: Optional[str] = None) -> bool:
        """Whether the token is live, of the kind, and (optionally) the subject."""
        record = self.lookup(token, kind)
        if record is None:
            return False
        return subject is None or record.subject == subject

    # -- revocation ----------------------------------------------------------

    def revoke(self, token: str) -> bool:
        """Invalidate one token; returns whether it was live."""
        return self.discard_record(token)

    def revoke_subject(self, subject: str, kind: Optional[TokenKind] = None) -> int:
        """Invalidate all tokens of *subject* (optionally only one kind)."""
        doomed = [
            token
            for token, record in self._records.items()
            if record.subject == subject and (kind is None or record.kind is kind)
        ]
        for token in doomed:
            del self._records[token]
            self._record_del(token)
        return len(doomed)

    def live_count(self, kind: Optional[TokenKind] = None) -> int:
        if kind is None:
            return len(self._records)
        return sum(1 for record in self._records.values() if record.kind is kind)

    # -- record codec ---------------------------------------------------------

    def to_record(self, obj: TokenRecord) -> Record:
        """One live token as a snapshot/journal record."""
        return {
            "token": obj.token,
            "kind": obj.kind.value,
            "subject": obj.subject,
            "issued_at": obj.issued_at,
        }

    def from_record(self, record: Record) -> TokenRecord:
        """Decode one token record."""
        return TokenRecord(
            record["token"],
            TokenKind(record["kind"]),
            record["subject"],
            record["issued_at"],
        )

    # -- RNG stream capture (warm-start restore) ------------------------------

    def rng_state(self):
        """The issuing RNG's stream state (picklable)."""
        return self._rng.getstate()

    def restore_rng_state(self, state) -> None:
        """Resume the issuing RNG exactly where a captured service was.

        Restore-by-records replays *past* issuance without consuming the
        stream, so the first token minted after a warm start must come
        from the same stream position the captured cloud had reached —
        otherwise post-restore tokens (and everything derived from them)
        diverge from the original world's.
        """
        self._rng.setstate(state)
