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
from typing import Any, Callable, Dict, List, Optional

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


class TokenService:
    """Issues, validates and revokes random tokens.

    Also a :class:`~repro.cloud.state.protocol.StateStore` — implemented
    by hand (not via ``RecordStoreBase``) because ``repro.identity``
    deliberately does not import ``repro.cloud``; the protocol is
    structural, so the duck-typed methods below satisfy it all the same.
    """

    #: StateStore section name (tokens live in cloud snapshots/journals).
    state_name = "tokens"
    #: Tokens must survive a restart.
    durable = True

    def __init__(self, rng: DeterministicRandom, token_length: int = 32) -> None:
        if token_length < 8:
            raise ConfigurationError("tokens shorter than 8 chars are not tokens")
        self._rng = rng
        self._length = token_length
        self._live: Dict[str, TokenRecord] = {}
        self._journal_write: Optional[Callable[[Dict[str, Any]], None]] = None
        self._mutations = 0
        self._authz_version: Optional[Any] = None

    # -- issuance ----------------------------------------------------------

    def issue(self, kind: TokenKind, subject: str, now: float = 0.0) -> str:
        """Mint a fresh token of *kind* for *subject*."""
        token = self._rng.token(self._length)
        while token in self._live:  # pragma: no cover - astronomically rare
            token = self._rng.token(self._length)
        record = TokenRecord(token, kind, subject, now)
        self._live[token] = record
        self._journal_put(self.to_record(record))
        return token

    # -- validation ----------------------------------------------------------

    def lookup(self, token: Optional[str], kind: TokenKind) -> Optional[TokenRecord]:
        """The live record for *token* if it exists and has *kind*."""
        if token is None:
            return None
        record = self._live.get(token)
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
        revoked = self._live.pop(token, None) is not None
        if revoked:
            self._journal_del(token)
        return revoked

    def revoke_subject(self, subject: str, kind: Optional[TokenKind] = None) -> int:
        """Invalidate all tokens of *subject* (optionally only one kind)."""
        doomed = [
            token
            for token, record in self._live.items()
            if record.subject == subject and (kind is None or record.kind is kind)
        ]
        for token in doomed:
            del self._live[token]
            self._journal_del(token)
        return len(doomed)

    def live_count(self, kind: Optional[TokenKind] = None) -> int:
        if kind is None:
            return len(self._live)
        return sum(1 for record in self._live.values() if record.kind is kind)

    # -- persistence --------------------------------------------------------

    def export_records(self) -> list:
        """JSON-able dump of every live token (cloud persistence)."""
        return [
            {
                "token": record.token,
                "kind": record.kind.value,
                "subject": record.subject,
                "issued_at": record.issued_at,
            }
            for record in self._live.values()
        ]

    def import_records(self, records: list) -> int:
        """Restore tokens from :meth:`export_records`; returns count."""
        for item in records:
            self.apply_record(item)
        return len(records)

    # -- StateStore protocol (duck-typed; see class docstring) ---------------

    def _journal_put(self, record: Dict[str, Any]) -> None:
        """Count the mutation and, when journaled, append an upsert entry."""
        self._mutations += 1
        if self._authz_version is not None:
            self._authz_version.bump()
        if self._journal_write is not None:
            self._journal_write({"store": self.state_name, "op": "put", "record": record})

    def _journal_del(self, key: str) -> None:
        """Count the mutation and, when journaled, append a delete entry."""
        self._mutations += 1
        if self._authz_version is not None:
            self._authz_version.bump()
        if self._journal_write is not None:
            self._journal_write({"store": self.state_name, "op": "del", "key": key})

    def bind_journal(self, write: Optional[Callable[[Dict[str, Any]], None]]) -> None:
        """Attach (or detach, with ``None``) the journal append hook."""
        self._journal_write = write

    def bind_authz_version(self, version: Optional[Any]) -> None:
        """Attach the cloud's authorization epoch (mirrors RecordStoreBase).

        Token issuance/revocation changes who every UserToken/DevToken
        names, so each mutation here must invalidate cached decisions.
        """
        self._authz_version = version

    def to_record(self, obj: TokenRecord) -> Dict[str, Any]:
        """One live token as a snapshot/journal record."""
        return {
            "token": obj.token,
            "kind": obj.kind.value,
            "subject": obj.subject,
            "issued_at": obj.issued_at,
        }

    def from_record(self, record: Dict[str, Any]) -> TokenRecord:
        """Decode one token record."""
        return TokenRecord(
            record["token"],
            TokenKind(record["kind"]),
            record["subject"],
            record["issued_at"],
        )

    def record_key(self, record: Dict[str, Any]) -> str:
        """Tokens are keyed by their own random value."""
        return record["token"]

    def record_count(self) -> int:
        """Number of live tokens."""
        return len(self._live)

    def snapshot_state(self) -> List[Dict[str, Any]]:
        """Every live token record, sorted by token value."""
        return [self.to_record(self._live[token]) for token in sorted(self._live)]

    def restore_state(self, records: List[Dict[str, Any]]) -> None:
        """Apply every record in order (fresh-restore path)."""
        for record in records:
            self.apply_record(record)

    def apply_record(self, record: Dict[str, Any]) -> TokenRecord:
        """Upsert one token (restore / journal replay / clone)."""
        decoded = self.from_record(record)
        self._live[decoded.token] = decoded
        self._journal_put(record)
        return decoded

    def discard_record(self, key: str) -> bool:
        """Remove one token by value."""
        existed = self._live.pop(key, None) is not None
        if existed:
            self._journal_del(key)
        return existed

    def find_record(self, key: str) -> Optional[Dict[str, Any]]:
        """O(1) lookup of one token record."""
        record = self._live.get(key)
        return self.to_record(record) if record is not None else None

    def clone_record(
        self,
        key: str,
        transform: Optional[Callable[[Dict[str, Any]], Optional[Dict[str, Any]]]] = None,
        into: Optional["TokenService"] = None,
    ) -> Any:
        """Copy one token record into *into* (or back into self)."""
        record = self.find_record(key)
        if record is None:
            raise ConfigurationError(f"{self.state_name}: no record for key {key!r}")
        if transform is not None:
            transformed = transform(dict(record))
            if transformed is None:
                return None
            record = transformed
        target = into if into is not None else self
        return target.apply_record(record)

    def clone_into(
        self,
        dst: "TokenService",
        transform: Optional[Callable[[Dict[str, Any]], Optional[Dict[str, Any]]]] = None,
    ) -> int:
        """Copy every token record into *dst*; returns how many landed."""
        cloned = 0
        for record in self.snapshot_state():
            if transform is not None:
                record = transform(dict(record))
                if record is None:
                    continue
            dst.apply_record(record)
            cloned += 1
        return cloned

    def merge_counts(self) -> Dict[str, int]:
        """Per-store size/churn numbers for the metrics seam."""
        return {"records": self.record_count(), "mutations": self._mutations}

    def set_mutation_count(self, mutations: int) -> None:
        """Overwrite the churn counter (warm-start restore only)."""
        self._mutations = mutations

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
