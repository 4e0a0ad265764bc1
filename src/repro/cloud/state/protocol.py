"""The record contract of the cloud's state stores, implemented once.

The simulated cloud keeps its authoritative binding state in nine
stores (accounts, tokens, device registry, bindings, shares, shadows,
relay, events, forensics).  :class:`RecordStoreBase` is the one
implementation of the contract they share:

* **typed records** — each store's ``to_record``/``from_record`` codec
  turns one domain object into one dict of exact JSON types and back;
  every decode goes through :meth:`RecordStoreBase._decode`, which turns
  a codec failure into one :class:`~repro.core.errors.ConfigurationError`
  naming the store and the missing field or the refused value;
* **snapshotting** — ``snapshot_state``/``restore_state`` move a whole
  store through its record form (snapshot v2 sections,
  ``repro.cloud.state.snapshot``);
* **journaling** — every durable mutation is offered to an optional
  write-ahead hook (``bind_journal``), which the backends in
  ``repro.cloud.state.backends`` persist and replay;
* **cloning** — ``clone_record`` copies one record (optionally
  transformed) through the codec, which is how ``FleetDeployment``
  installs template household state without reaching into store
  internals;
* **accounting** — ``merge_counts`` reports size and churn for the
  observability gauges and the sharded campaign merge path.

A *flat* store (accounts, tokens, devices, bindings, relay schedules)
keeps one dict ``_records`` from key to domain object and names the
record field that holds the key (``key_field``); it writes only its
codec.  The others override what their layout needs: nested grants
(shares), replay with the registration mark (shadows) and sequence rows
(events, forensics).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.errors import ConfigurationError

#: One store record: a flat dict of exact JSON types — ``str`` keys, no
#: tuples, sets or bytes (the unit of snapshot, journal and clone
#: traffic; ``MemoryBackend`` would keep what JSON normalises).
Record = Dict[str, Any]

#: A journal write hook: receives one journal entry, a record-level dict
#: or an append-only store's row put (``repro.cloud.state.backends``).
JournalWrite = Callable[[Any], None]

#: A record transform used while cloning (return the new record).
RecordTransform = Callable[[Record], Record]


class RecordStoreBase:
    """The record contract every cloud state store implements.

    Subclasses set :attr:`state_name` / :attr:`durable` and their codec
    (``to_record``, ``from_record``).  A flat store also sets
    :attr:`key_field` and fills ``self._records``; the record methods
    below then serve it unchanged.  Mutating methods call
    :meth:`_record_put` / :meth:`_record_del` with the *current*
    serialized record so the journal always carries full upserts
    (replay is then insensitive to intermediate states).
    """

    #: Snapshot/journal section name; overridden by every subclass.
    state_name: str = "store"
    #: Volatile stores (``durable=False``) count churn but never journal.
    durable: bool = True
    #: The record field a flat store's ``_records`` is keyed by.
    key_field: str
    #: A flat store's contents: record key -> domain object.
    _records: Dict[str, Any]

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

    # -- the decode point ---------------------------------------------------

    def _decode(self, record: Record) -> Any:
        """``from_record``, with a codec failure as one typed error.

        Snapshot loads, journal replay, warm restores and clones all
        decode here, so a malformed record is refused the same way
        wherever it comes from.
        """
        try:
            return self.from_record(record)
        except KeyError as exc:
            problem = f"has no field {exc.args[0]!r}"
        except (AttributeError, TypeError, ValueError) as exc:
            problem = f"has a bad field value ({exc})"
        raise ConfigurationError(
            f"{self.state_name} record {record!r} {problem}"
        ) from None

    # -- record methods (flat stores) ---------------------------------------

    def record_key(self, record: Record) -> str:
        """The stable unique key of *record* within this store."""
        return record[self.key_field]

    def record_count(self) -> int:
        """How many records :meth:`snapshot_state` would emit."""
        return len(self._records)

    def snapshot_state(self) -> List[Record]:
        """Every record, sorted by :meth:`record_key` (deterministic)."""
        records = self._records
        return [self.to_record(records[key]) for key in sorted(records)]

    def apply_record(self, record: Record) -> Any:
        """Upsert one record (restore / journal replay / clone)."""
        obj = self._decode(record)
        self._records[record[self.key_field]] = obj
        self._record_put(record)
        return obj

    def discard_record(self, key: str) -> bool:
        """Remove the record stored under *key*; True if it existed."""
        existed = self._records.pop(key, None) is not None
        if existed:
            self._record_del(key)
        return existed

    def find_record(self, key: str) -> Optional[Record]:
        """The current record under *key*, if any."""
        obj = self._records.get(key)
        return None if obj is None else self.to_record(obj)

    # -- generic bulk operations -------------------------------------------

    def restore_state(self, records: List[Record]) -> None:
        """Bulk-load *records* by upserting each one in order."""
        for record in records:
            self.apply_record(record)

    def clone_record(
        self,
        key: str,
        transform: Optional[RecordTransform] = None,
        into: Optional["RecordStoreBase"] = None,
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
