"""User accounts and password login (Section II-B, user authentication).

The paper treats user authentication as a solved problem ("IoT vendors
usually deploy password-based schemes") and focuses elsewhere; the
reproduction still implements it for real, because the attacks depend
on both victim and attacker holding *valid* accounts and tokens of
their own — the adversary is a legitimate customer of the same vendor.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.cloud.state.protocol import Record, RecordStoreBase
from repro.core.errors import AuthenticationFailed, ConfigurationError
from repro.identity.tokens import TokenKind, TokenService


def _digest(password: str, salt: str) -> str:
    return hashlib.sha256(f"{salt}:{password}".encode("utf-8")).hexdigest()


@dataclass
class Account:
    """One registered user."""

    user_id: str
    salt: str
    password_digest: str
    created_at: float = 0.0


class AccountStore(RecordStoreBase):
    """Registration, login and token-based user authentication."""

    state_name = "accounts"
    key_field = "user_id"

    def __init__(self, tokens: TokenService) -> None:
        self._tokens = tokens
        self._records: Dict[str, Account] = {}

    # -- registration --------------------------------------------------------

    def register(self, user_id: str, password: str, now: float = 0.0) -> Account:
        """Create a new account (sign-up)."""
        if not user_id or not password:
            raise ConfigurationError("user id and password must be non-empty")
        if ":" in user_id:  # share keys are ``device:grantee``
            raise ConfigurationError(f"user id {user_id!r} must not contain ':'")
        if user_id in self._records:
            raise ConfigurationError(f"account {user_id!r} already exists")
        salt = hashlib.sha256(user_id.encode("utf-8")).hexdigest()[:16]
        account = Account(user_id, salt, _digest(password, salt), now)
        self._records[user_id] = account
        self._record_put(self.to_record(account))
        return account

    def exists(self, user_id: str) -> bool:
        return user_id in self._records

    # -- authentication --------------------------------------------------------

    def check_password(self, user_id: str, password: str) -> bool:
        """Constant-shape password check (no user-existence oracle)."""
        account = self._records.get(user_id)
        if account is None:
            return False
        return account.password_digest == _digest(password, account.salt)

    def login(self, user_id: str, password: str, now: float = 0.0) -> str:
        """Password login; returns a fresh ``UserToken``."""
        if not self.check_password(user_id, password):
            raise AuthenticationFailed("bad-credentials", f"login failed for {user_id!r}")
        return self._tokens.issue(TokenKind.USER, user_id, now)

    def user_for_token(self, user_token: Optional[str]) -> Optional[str]:
        """The account a live user token belongs to, else ``None``."""
        return self._tokens.subject_of(user_token, TokenKind.USER)

    def require_user(self, user_token: Optional[str]) -> str:
        """Resolve a token to a user or raise ``bad-user-token``."""
        user = self.user_for_token(user_token)
        if user is None:
            raise AuthenticationFailed("bad-user-token", "invalid or expired user token")
        return user

    def logout(self, user_token: str) -> bool:
        return self._tokens.revoke(user_token)

    # -- record codec ---------------------------------------------------------

    def to_record(self, obj: Account) -> Record:
        """One account as a snapshot/journal record."""
        return {
            "user_id": obj.user_id,
            "salt": obj.salt,
            "password_digest": obj.password_digest,
            "created_at": obj.created_at,
        }

    def from_record(self, record: Record) -> Account:
        """Decode one account record."""
        return Account(
            record["user_id"],
            record["salt"],
            record["password_digest"],
            record["created_at"],
        )
