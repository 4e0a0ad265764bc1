"""Self-describing snapshot v2: every store contributes its own section.

Each durable :class:`~repro.cloud.state.protocol.RecordStoreBase`
store serializes its own records under its ``state_name``, so adding a
store column touches only that store::

    {
      "version": 2,
      "design": "<vendor design name>",
      "time":   <virtual seconds at capture>,
      "stores": {
        "accounts": [ {...}, ... ],
        "tokens":   [ {...}, ... ],
        "devices":  [ {...}, ... ],
        "bindings": [ {...}, ... ],
        "shares":   [ {...}, ... ],
        "relay":    [ {...}, ... ],   # schedules only; queues are volatile
        "events":   [ {...}, ... ],   # user inboxes + poll cursors
        "forensics": [ {...}, ... ]   # per-shadow evidence rows
      }
    }

Records are sorted by their store key and serialized with
``sort_keys=True``, so ``save -> load -> save`` is byte-identical.

The **shadow store is deliberately absent**: shadows are a projection
of the registry and the binding table, and a cloud restart is a *mass
offline event* (Figure 2's timeout arcs) — so :func:`load_snapshot`
rebuilds every shadow in its offline state (``bound`` for bound
devices, ``initial`` otherwise) and lets the next heartbeats bring the
fleet back.

Version 2 is the only format: :func:`check_snapshot` rejects any other
version, and any document whose shape is wrong, with a
:class:`~repro.core.errors.ConfigurationError` naming the field.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cloud.service import CloudService

#: Current snapshot schema version.
SNAPSHOT_VERSION = 2


def build_snapshot(cloud: "CloudService") -> Dict[str, Any]:
    """Serialize the cloud's durable state as a self-describing v2 dict."""
    return {
        "version": SNAPSHOT_VERSION,
        "design": cloud.design.name,
        "time": cloud.now,
        "stores": {
            name: store.snapshot_state()
            for name, store in cloud.state_stores().items()
            if store.durable
        },
    }


def check_snapshot(data: Any) -> Dict[str, Any]:
    """Return *data* if it is a v2 snapshot document.

    Raises :class:`ConfigurationError` naming the first field that is
    missing or of the wrong shape.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"snapshot must be a JSON object, not {type(data).__name__}"
        )
    version = data.get("version")
    if version != SNAPSHOT_VERSION:
        raise ConfigurationError(
            f"snapshot version {version!r} is not supported "
            f"(only version {SNAPSHOT_VERSION} loads)"
        )
    design = data.get("design")
    if not isinstance(design, str) or not design:
        raise ConfigurationError(
            "snapshot has no 'design' name" if design is None
            else f"snapshot 'design' must be a design name, not {design!r}"
        )
    if not isinstance(data.get("time", 0.0), (int, float)):
        raise ConfigurationError("snapshot 'time' must be a number")
    stores = data.get("stores")
    if not isinstance(stores, dict):
        raise ConfigurationError(
            "snapshot has no 'stores' object" if stores is None
            else f"snapshot 'stores' must be an object, not {type(stores).__name__}"
        )
    for name, records in stores.items():
        if not isinstance(records, list) or not all(
            isinstance(record, dict) for record in records
        ):
            raise ConfigurationError(
                f"snapshot store {name!r} must be a list of record objects"
            )
    return data


def rebuild_shadow_projection(cloud: "CloudService") -> None:
    """Recreate every shadow, offline, from the registry and bindings.

    The restart killed every connection, so shadows come back in their
    offline states: ``bound`` where a binding exists, ``initial``
    elsewhere.  Devices re-enter via their next heartbeat.
    """
    for device_id in cloud.registry.all_ids():
        if not cloud.shadows.has(device_id):
            cloud.shadows.create(device_id)
    for record in cloud.bindings.snapshot_state():
        shadow = cloud.shadows.get(record["device_id"])
        if not shadow.is_bound:
            shadow.mark_bound(record["user_id"], cloud.now)


def load_snapshot(cloud: "CloudService", data: Dict[str, Any]) -> None:
    """Load a v2 snapshot into a *fresh* cloud of the same design."""
    data = check_snapshot(data)
    if data["design"] != cloud.design.name:
        raise ConfigurationError(
            f"snapshot is for design {data['design']!r}, "
            f"not {cloud.design.name!r}"
        )
    if cloud.accounts.record_count() or cloud.bindings.record_count():
        raise ConfigurationError("restore requires a fresh cloud instance")
    sections = data["stores"]
    stores = cloud.state_stores()
    unknown = set(sections) - set(stores)
    if unknown:
        raise ConfigurationError(
            f"snapshot carries unknown store sections {sorted(unknown)!r}"
        )
    # Restore order follows the service's store order (accounts before
    # bindings, etc.); sections a snapshot omits simply restore empty.
    for name, store in stores.items():
        if not store.durable:
            continue
        store.restore_state(sections.get(name, []))
    rebuild_shadow_projection(cloud)


def snapshot_store_counts(data: Dict[str, Any]) -> Dict[str, int]:
    """Per-section record counts of a v2 snapshot dict."""
    return {
        name: len(records)
        for name, records in sorted(check_snapshot(data)["stores"].items())
    }
