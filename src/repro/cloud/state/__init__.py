"""The unified cloud state layer: one record contract, pluggable backends.

See ``docs/state.md``.  Public surface:

* :class:`~repro.cloud.state.protocol.RecordStoreBase` — the record
  contract every cloud store implements;
* :class:`~repro.cloud.state.backends.MemoryBackend` /
  :class:`~repro.cloud.state.backends.JournalBackend` — durability
  backends (the latter an append-only JSON-lines WAL with crash fault
  injection);
* :func:`~repro.cloud.state.snapshot.build_snapshot` /
  :func:`~repro.cloud.state.snapshot.load_snapshot` /
  :func:`~repro.cloud.state.snapshot.check_snapshot` — self-describing
  snapshot v2, the only snapshot format;
* :func:`~repro.cloud.state.journal.recover_from_journal` — replay-based
  crash recovery.
"""

from repro.cloud.state.backends import (
    JournalBackend,
    JournalCrash,
    MemoryBackend,
    StateBackend,
)
from repro.cloud.state.journal import (
    META_STORE,
    JournalRecovery,
    meta_entry,
    recover_from_journal,
)
from repro.cloud.state.protocol import (
    Record,
    RecordStoreBase,
    merge_state_counts,
)
from repro.cloud.state.snapshot import (
    SNAPSHOT_VERSION,
    build_snapshot,
    check_snapshot,
    load_snapshot,
    rebuild_shadow_projection,
    snapshot_store_counts,
)

__all__ = [
    "JournalBackend",
    "JournalCrash",
    "JournalRecovery",
    "META_STORE",
    "MemoryBackend",
    "Record",
    "RecordStoreBase",
    "SNAPSHOT_VERSION",
    "StateBackend",
    "build_snapshot",
    "check_snapshot",
    "load_snapshot",
    "merge_state_counts",
    "meta_entry",
    "rebuild_shadow_projection",
    "recover_from_journal",
    "snapshot_store_counts",
]
