"""The unified state-store protocol: one durability interface for seven stores.

The simulated cloud keeps its authoritative binding state in seven
bespoke stores (accounts, tokens, device registry, bindings, shares,
shadows, relay, events).  Before this layer existed, each had its own
hand-enumerated serialization and the fleet clone fast path mutated
store internals directly — exactly the class of cross-component state
inconsistency the logic-bug literature warns about.
:class:`StateStore` is the single contract they all implement instead:

* **typed records** — ``to_record``/``from_record`` codecs turn one
  domain object into one JSON-able dict and back;
* **snapshotting** — ``snapshot_state``/``restore_state`` move a whole
  store through its record form (snapshot v2 sections,
  ``repro.cloud.state.snapshot``);
* **journaling** — every durable mutation is offered to an optional
  write-ahead hook (``bind_journal``), which the backends in
  ``repro.cloud.state.backends`` persist and replay;
* **cloning** — ``clone_record``/``clone_into`` copy records (optionally
  transformed) between or within stores, which is how
  ``FleetDeployment`` installs template household state without reaching
  into store internals;
* **accounting** — ``merge_counts`` reports size and churn for the
  observability gauges and the sharded campaign merge path.

:class:`RecordStoreBase` supplies the generic halves (journal hooks,
bulk restore, cloning, counts) so a concrete store only writes its
codec, its key function and its upsert/discard primitives.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Protocol, runtime_checkable

from repro.core.errors import ConfigurationError

#: One store record: a flat, JSON-able dict (the unit of snapshot,
#: journal and clone traffic).
Record = Dict[str, Any]

#: A journal write hook: receives one JSON-able journal entry.
JournalWrite = Callable[[Record], None]

#: A record transform used while cloning (return the new record).
RecordTransform = Callable[[Record], Record]


@runtime_checkable
class StateStore(Protocol):
    """Structural protocol every cloud state store satisfies.

    Implementations also expose two plain class attributes:

    * ``state_name`` — the store's section name in snapshots/journals
      (``"accounts"``, ``"bindings"``, ...);
    * ``durable`` — whether the store's records belong in snapshots and
      journals (``False`` for derived/volatile stores like shadows,
      which are rebuilt from the registry and binding table).
    """

    def to_record(self, obj: Any) -> Record:
        """Encode one domain object as a JSON-able record."""
        ...

    def from_record(self, record: Record) -> Any:
        """Decode one record back into a domain object (pure)."""
        ...

    def record_key(self, record: Record) -> str:
        """The stable unique key of *record* within this store."""
        ...

    def record_count(self) -> int:
        """How many records :meth:`snapshot_state` would emit."""
        ...

    def snapshot_state(self) -> List[Record]:
        """Every record, sorted by :meth:`record_key` (deterministic)."""
        ...

    def restore_state(self, records: List[Record]) -> None:
        """Bulk-load records into this (fresh) store."""
        ...

    def apply_record(self, record: Record) -> Any:
        """Upsert one record (journal replay / clone install)."""
        ...

    def discard_record(self, key: str) -> bool:
        """Remove the record stored under *key*; True if it existed."""
        ...

    def find_record(self, key: str) -> Optional[Record]:
        """The current record under *key*, if any."""
        ...

    def clone_record(
        self,
        key: str,
        transform: Optional[RecordTransform] = None,
        into: Optional["StateStore"] = None,
    ) -> Record:
        """Copy one record (optionally transformed) into *into*/self."""
        ...

    def clone_into(
        self, dst: "StateStore", transform: Optional[RecordTransform] = None
    ) -> int:
        """Copy every record into *dst*; returns how many were written."""
        ...

    def merge_counts(self) -> Dict[str, int]:
        """Size/churn accounting (``records``, ``mutations``)."""
        ...

    def bind_journal(self, write: Optional[JournalWrite]) -> None:
        """Install (or clear) the write-ahead journal hook."""
        ...


class RecordStoreBase:
    """Shared :class:`StateStore` machinery for the concrete stores.

    Subclasses set :attr:`state_name` / :attr:`durable` and implement
    the store-specific primitives (``to_record``, ``from_record``,
    ``record_key``, ``record_count``, ``snapshot_state``,
    ``apply_record``, ``discard_record``); everything generic — journal
    emission, mutation counting, bulk restore, record cloning — lives
    here.  Mutating methods call :meth:`_record_put` /
    :meth:`_record_del` with the *current* serialized record so the
    journal always carries full upserts (replay is then insensitive to
    intermediate states).
    """

    #: Snapshot/journal section name; overridden by every subclass.
    state_name: str = "store"
    #: Volatile stores (``durable=False``) count churn but never journal.
    durable: bool = True

    _journal_write: Optional[JournalWrite] = None
    _mutations: int = 0
    #: Authorization epoch hook: set (via :meth:`bind_authz_version`) only
    #: on stores whose contents feed authorization decisions, so hot
    #: non-authz stores (shadows, forensics, relay) never pay the bump.
    _authz_version: Optional[Any] = None

    # -- journal seam -------------------------------------------------------

    def bind_journal(self, write: Optional[JournalWrite]) -> None:
        """Install (or clear, with ``None``) the journal write hook."""
        self._journal_write = write

    def bind_authz_version(self, version: Optional[Any]) -> None:
        """Attach the cloud's shared authorization epoch counter.

        Every subsequent mutation of this store bumps the epoch, which
        invalidates the cloud's
        :class:`~repro.cloud.authz.AuthorizationCache` wholesale — the
        mechanism that makes cached authorization decisions stale-proof.
        """
        self._authz_version = version

    def _record_put(self, record: Record) -> None:
        """Note one upsert: bump churn, journal it when durable+bound."""
        self._mutations = self._mutations + 1
        if self._authz_version is not None:
            self._authz_version.bump()
        if self._journal_write is not None and self.durable:
            self._journal_write(
                {"store": self.state_name, "op": "put", "record": record}
            )

    def _record_del(self, key: str) -> None:
        """Note one delete: bump churn, journal it when durable+bound."""
        self._mutations = self._mutations + 1
        if self._authz_version is not None:
            self._authz_version.bump()
        if self._journal_write is not None and self.durable:
            self._journal_write({"store": self.state_name, "op": "del", "key": key})

    def _note_mutation(self) -> None:
        """Count a volatile mutation (churn only, never journaled)."""
        self._mutations = self._mutations + 1
        if self._authz_version is not None:
            self._authz_version.bump()

    # -- generic bulk operations -------------------------------------------

    def restore_state(self, records: List[Record]) -> None:
        """Bulk-load *records* by upserting each one in order."""
        for record in records:
            self.apply_record(record)

    def find_record(self, key: str) -> Optional[Record]:
        """Linear-scan default; hot stores override with O(1) lookups."""
        for record in self.snapshot_state():
            if self.record_key(record) == key:
                return record
        return None

    def clone_record(
        self,
        key: str,
        transform: Optional[RecordTransform] = None,
        into: Optional[StateStore] = None,
    ) -> Record:
        """Copy the record under *key* (transformed) into *into* or self.

        This is the store-level cloning primitive the fleet's template
        fast path uses: the template household's record is read through
        the codec, rewritten by *transform* (new IDs, fresh tokens, new
        timestamps) and installed through :meth:`apply_record` — no
        caller ever touches store internals.
        """
        record = self.find_record(key)
        if record is None:
            raise ConfigurationError(
                f"store {self.state_name!r} has no record {key!r} to clone"
            )
        if transform is not None:
            record = transform(record)
        target = into if into is not None else self
        target.apply_record(record)
        return record

    def clone_into(
        self, dst: StateStore, transform: Optional[RecordTransform] = None
    ) -> int:
        """Copy every record into *dst* (optionally transformed).

        A ``transform`` returning ``None`` skips that record, so callers
        can clone a filtered subset in one pass.
        """
        written = 0
        for record in self.snapshot_state():
            if transform is not None:
                record = transform(record)  # type: ignore[assignment]
                if record is None:
                    continue
            dst.apply_record(record)
            written += 1
        return written

    def merge_counts(self) -> Dict[str, int]:
        """Size and churn: mergeable by summation across shards."""
        return {"records": self.record_count(), "mutations": self._mutations}

    def set_mutation_count(self, mutations: int) -> None:
        """Overwrite the churn counter (warm-start restore only).

        Bulk-restoring a captured world replays every record as an
        upsert, which would inflate ``mutations`` far past what the
        original world had counted; the campaign fast path rewinds the
        counter to the captured value so ``merge_counts`` — and the
        sharded engine's ``state_counts`` merge — stay bit-identical to
        a cold-built world.
        """
        self._mutations = mutations


def merge_state_counts(
    per_shard: List[Dict[str, Dict[str, int]]]
) -> Dict[str, Dict[str, int]]:
    """Fold per-shard ``state_counts`` maps by summing each counter.

    The sharded campaign engine's state-layer analogue of
    :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`: shard
    worlds share nothing, so fleet-wide record and mutation totals are
    exactly the per-shard sums, independent of completion order.
    """
    merged: Dict[str, Dict[str, int]] = {}
    for counts in per_shard:
        for store_name, store_counts in counts.items():
            into = merged.setdefault(store_name, {})
            for key, value in store_counts.items():
                into[key] = into.get(key, 0) + value
    return merged
