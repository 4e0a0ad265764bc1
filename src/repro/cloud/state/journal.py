"""Journaled restarts: attach a WAL to a cloud and replay it after a crash.

The write path is store-driven: every durable store mutation emits one
full-record entry through its
:meth:`~repro.cloud.state.protocol.RecordStoreBase.bind_journal` hook,
and the backend (:mod:`repro.cloud.state.backends`) persists it.  The
first entry of a fresh journal is a ``_meta`` header naming the design
and schema version, so a journal is self-describing the same way a v2
snapshot is.

Recovery (:func:`recover_from_journal`) is replay-based: build a fresh
:class:`~repro.cloud.service.CloudService` through its constructor,
stream every surviving entry into the named store (upserts and deletes),
rebuild the shadow projection (offline, like any restart) and only then
re-attach the journal so post-recovery mutations keep appending.  A
torn tail — the injected mid-write crash — is skipped by the backend's
tolerant replay and reported in the :class:`JournalRecovery` stats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cloud.state.backends import StateBackend
from repro.cloud.state.protocol import Record
from repro.cloud.state.snapshot import SNAPSHOT_VERSION, rebuild_shadow_projection
from repro.core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cloud.policy import VendorDesign
    from repro.cloud.service import CloudService
    from repro.net.network import Network
    from repro.sim.environment import Environment

#: Pseudo-store name of the journal's self-describing header entry.
META_STORE = "_meta"


def meta_entry(design_name: str) -> Record:
    """The self-describing header appended to every fresh journal."""
    return {
        "store": META_STORE,
        "op": "meta",
        "version": SNAPSHOT_VERSION,
        "design": design_name,
    }


@dataclass
class JournalRecovery:
    """What one replay-based recovery did (for reports and tests)."""

    cloud: "CloudService"
    entries_applied: int
    entries_discarded: int
    torn_tail: bool
    dropped_bytes: int

    def line(self) -> str:
        """One human-readable summary line."""
        tail = (
            f"; torn tail dropped ({self.dropped_bytes} bytes)"
            if self.torn_tail
            else ""
        )
        return (
            f"journal recovery: {self.entries_applied} upserts, "
            f"{self.entries_discarded} deletes replayed{tail}"
        )


def recover_from_journal(
    env: "Environment",
    network: "Network",
    design: "VendorDesign",
    backend: StateBackend,
    node_name: str = "cloud",
    public_ip: str = "52.0.0.1",
) -> JournalRecovery:
    """Rebuild a cloud from a journal's surviving prefix.

    Checks the journal first (:meth:`StateBackend.verify`), so a corrupt
    one raises before the network is touched.  Then constructs the
    service normally (constructor-based, no ``__new__`` tricks), streams
    every decodable entry from :meth:`StateBackend.replay` into its
    store without holding the decoded history, rebuilds shadows
    offline, and re-attaches *backend* so the recovered cloud keeps
    journaling.
    """
    from repro.cloud.service import CloudService

    backend.verify()
    if network.has_node(node_name):
        network.remove_node(node_name)
    cloud = CloudService(env, network, design, node_name, public_ip)
    stores = cloud.state_stores()
    applied = discarded = 0
    for entry in backend.replay():
        store_name = entry.get("store")
        if store_name == META_STORE:
            if entry.get("design") != design.name:
                raise ConfigurationError(
                    f"journal is for design {entry.get('design')!r}, "
                    f"not {design.name!r}"
                )
            continue
        store = stores.get(store_name)
        if store is None:
            raise ConfigurationError(f"journal names unknown store {store_name!r}")
        op = entry.get("op")
        if op == "put":
            store.apply_record(entry["record"])
            applied += 1
        elif op == "del":
            store.discard_record(entry["key"])
            discarded += 1
        else:
            raise ConfigurationError(f"journal entry has unknown op {op!r}")
    rebuild_shadow_projection(cloud)
    cloud.attach_journal(backend, write_meta=False)
    return JournalRecovery(
        cloud=cloud,
        entries_applied=applied,
        entries_discarded=discarded,
        torn_tail=bool(getattr(backend, "torn_tail", False)),
        dropped_bytes=int(getattr(backend, "dropped_bytes", 0)),
    )
