"""Tests for the unified cloud state layer (repro.cloud.state).

Covers the four satellite scenarios from the refactor issue: v2
save -> load -> save byte equality, v1 -> v2 migration, journal replay
after a truncated tail, and clone-built vs replay-built fleet state
equality — plus unit coverage of the record primitives and backends.
"""

import gc
import json
import time

import pytest

from repro.chaos.campaign import ChaosSpec, apply_chaos
from repro.cloud.events import UserEvent
from repro.cloud.service import CloudService
from repro.cloud.sharing import ShareStore
from repro.cloud.state import (
    JournalBackend,
    JournalCrash,
    MemoryBackend,
    RecordStoreBase,
    build_snapshot,
    check_snapshot,
    merge_state_counts,
    meta_entry,
    recover_from_journal,
    snapshot_store_counts,
)
from repro.cloud.state.backends import expand_entry
from repro.core.errors import ConfigurationError
from repro.fleet import FleetDeployment
from repro.fuzz.corpus import all_designs
from repro.net.network import Network
from repro.obs.detect.timeline import ForensicTimeline
from repro.scenario import Deployment
from repro.sim.environment import Environment
from repro.vendors import vendor


def build_world(design_name="D-LINK", seed=81):
    world = Deployment(vendor(design_name), seed=seed)
    assert world.victim_full_setup()
    world.victim.app.set_schedule(world.victim.device.device_id, {"on": "19:00"})
    return world


def stores_json(data) -> str:
    """Canonical bytes of a snapshot's ``stores`` section only."""
    return json.dumps(data["stores"], sort_keys=True)


# ---------------------------------------------------------------------------
# protocol conformance
# ---------------------------------------------------------------------------


class TestProtocolConformance:
    def test_every_store_keeps_the_record_contract(self):
        world = build_world("D-LINK")
        cloud = world.cloud
        device_id = world.victim.device.device_id
        cloud.shares.grant(device_id, world.victim.user_id, "guest", cloud.now)
        # mixed-width ids: key order ("dev-10:b" < "dev-1:z") is not
        # (device id, grantee) order
        cloud.shares.grant("dev-1", world.victim.user_id, "z", cloud.now)
        cloud.shares.grant("dev-10", world.victim.user_id, "b", cloud.now)
        cloud.events.emit(world.victim.user_id, UserEvent(1.0, "binding-created", device_id))
        cloud.events.poll(world.victim.user_id)
        env = Environment(seed=3)
        fresh = CloudService(env, Network(env), world.design).state_stores()
        stores = cloud.state_stores()
        assert set(stores) == {
            "accounts", "tokens", "devices", "bindings",
            "shares", "shadows", "relay", "events", "forensics",
        }
        for name, store in stores.items():
            records = store.snapshot_state()
            assert records, name
            keys = [store.record_key(record) for record in records]
            assert keys == sorted(keys) and len(set(keys)) == len(keys), name
            assert len(records) == store.record_count(), name
            for key, record in zip(keys, records):
                assert store.find_record(key) == record, (name, key)
            fresh[name].restore_state(records)
            assert fresh[name].snapshot_state() == records, name

    def test_durable_flags(self):
        world = Deployment(vendor("OZWI"), seed=1)
        stores = world.cloud.state_stores()
        assert stores["shadows"].durable is False
        for name, store in stores.items():
            if name != "shadows":
                assert store.durable is True, name

    def test_state_names_match_section_names(self):
        world = Deployment(vendor("OZWI"), seed=1)
        for name, store in world.cloud.state_stores().items():
            assert store.state_name == name


# ---------------------------------------------------------------------------
# record primitives (clone_record / find / discard / the decode point)
# ---------------------------------------------------------------------------


class TestRecordPrimitives:
    def populated(self):
        store = ShareStore()
        store.grant("dev-1", "alice", "bob", 10.0)
        store.grant("dev-1", "alice", "carol", 11.0)
        store.grant("dev-2", "dan", "erin", 12.0)
        return store

    def test_find_record_hits_and_misses(self):
        store = self.populated()
        record = store.find_record("dev-1:bob")
        assert record == {
            "device_id": "dev-1", "owner": "alice",
            "grantee": "bob", "granted_at": 10.0,
        }
        assert store.find_record("dev-9:nobody") is None

    def test_clone_record_transforms_and_upserts(self):
        store = self.populated()
        cloned = store.clone_record(
            "dev-1:bob", lambda r: {**r, "grantee": "frank"}
        )
        assert cloned["grantee"] == "frank"
        assert store.is_granted("dev-1", "frank")
        assert store.is_granted("dev-1", "bob")  # source untouched

    def test_clone_record_into_other_store(self):
        src, dst = self.populated(), ShareStore()
        src.clone_record("dev-2:erin", into=dst)
        assert dst.is_granted("dev-2", "erin")
        assert dst.record_count() == 1

    def test_clone_record_missing_key_raises(self):
        store = self.populated()
        with pytest.raises(ConfigurationError):
            store.clone_record("dev-9:ghost")

    def test_discard_record_removes_and_reports(self):
        store = self.populated()
        assert store.discard_record("dev-1:bob") is True
        assert store.discard_record("dev-1:bob") is False
        assert not store.is_granted("dev-1", "bob")

    def test_a_flat_store_is_only_its_codec(self):
        class MinimalStore(RecordStoreBase):
            state_name = "minimal"
            key_field = "k"

            def __init__(self):
                self._records = {}

            def to_record(self, obj):
                return dict(obj)

            def from_record(self, record):
                return {"k": record["k"], "v": int(record["v"])}

        store, journal = MinimalStore(), MemoryBackend()
        store.bind_journal(journal.append)
        store.apply_record({"k": "b", "v": 2})
        store.apply_record({"k": "a", "v": 1})
        assert store.snapshot_state() == [{"k": "a", "v": 1}, {"k": "b", "v": 2}]
        assert store.find_record("b") == {"k": "b", "v": 2}
        assert store.find_record("z") is None
        assert store.discard_record("a") is True
        assert store.discard_record("a") is False
        assert store.merge_counts() == {"records": 1, "mutations": 3}
        assert [entry["op"] for entry in journal.entries()] == ["put", "put", "del"]
        with pytest.raises(ConfigurationError, match="minimal record .* no field 'v'"):
            store.apply_record({"k": "c"})
        with pytest.raises(ConfigurationError, match="minimal record .* bad field value"):
            store.apply_record({"k": "c", "v": "seven"})
        assert store.record_count() == 1

    def test_share_keys_split_at_the_last_colon(self):
        mac = "00:17:88:00:00:01"
        store = ShareStore()
        store.grant(mac, "alice", "bob", 10.0)
        key = store.record_key(store.snapshot_state()[0])
        assert key == f"{mac}:bob"
        assert store.find_record(key)["grantee"] == "bob"
        assert store.revoke(mac, "bob") is True
        assert store.record_count() == 0

    def test_merge_state_counts_sums_across_shards(self):
        merged = merge_state_counts([
            {"bindings": {"records": 3, "mutations": 5}},
            {"bindings": {"records": 2, "mutations": 1},
             "events": {"records": 4, "mutations": 4}},
        ])
        assert merged == {
            "bindings": {"records": 5, "mutations": 6},
            "events": {"records": 4, "mutations": 4},
        }


# ---------------------------------------------------------------------------
# snapshot v2 round trips
# ---------------------------------------------------------------------------


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("design_name", ["OZWI", "D-LINK", "Belkin"])
    @pytest.mark.parametrize("seed", [11, 47])
    def test_save_load_save_is_byte_identical(self, design_name, seed):
        world = build_world(design_name, seed=seed)
        world.cloud.shares.grant(
            world.victim.device.device_id, world.victim.user_id,
            world.attacker_party.user_id, world.env.now,
        )
        world.cloud.notify(
            world.victim.user_id, "binding-created",
            world.victim.device.device_id,
        )
        first = json.dumps(build_snapshot(world.cloud), sort_keys=True)
        world.cloud.shutdown()
        fresh = CloudService.restore(
            world.env, world.network, world.design, json.loads(first)
        )
        second = json.dumps(build_snapshot(fresh), sort_keys=True)
        assert second == first

    def test_pubkey_design_round_trips(self):
        from repro.secure import SECURE_PUBKEY

        world = Deployment(SECURE_PUBKEY, seed=23)
        assert world.victim_full_setup()
        first = json.dumps(build_snapshot(world.cloud), sort_keys=True)
        world.cloud.shutdown()
        fresh = CloudService.restore(
            world.env, world.network, world.design, json.loads(first)
        )
        assert json.dumps(build_snapshot(fresh), sort_keys=True) == first


# ---------------------------------------------------------------------------
# document checks: v2 is the only snapshot format
# ---------------------------------------------------------------------------


class TestMigration:
    def test_v2_documents_pass_through_unchanged(self):
        world = build_world()
        data = build_snapshot(world.cloud)
        assert check_snapshot(data) is data

    def test_unknown_version_is_rejected(self):
        # version 1 (the retired hand-enumerated format) no longer loads
        for version in (99, 1):
            with pytest.raises(ConfigurationError, match="version"):
                check_snapshot({"version": version, "design": "D-LINK",
                                "stores": {}})

    def test_store_counts(self):
        world = build_world()
        counts = snapshot_store_counts(build_snapshot(world.cloud))
        assert counts["bindings"] == 1
        assert counts["relay"] == 1


# ---------------------------------------------------------------------------
# journal backends
# ---------------------------------------------------------------------------


class TestJournalBackend:
    def test_append_and_replay(self):
        backend = JournalBackend()
        backend.append({"store": "x", "op": "put", "record": {"k": 1}})
        backend.append({"store": "x", "op": "del", "key": "k"})
        assert backend.entry_count() == 2
        assert backend.entries()[1] == {"store": "x", "op": "del", "key": "k"}
        assert backend.torn_tail is False
        assert backend.size_bytes() > 0

    def test_memory_and_journal_backends_record_identically(self):
        memory, journal = MemoryBackend(), JournalBackend()
        entries = [
            {"store": "x", "op": "put", "record": {"k": i}} for i in range(4)
        ]
        for entry in entries:
            memory.append(entry)
            journal.append(entry)
        assert memory.entries() == journal.entries() == entries

    def test_crash_mid_write_tears_only_the_tail(self):
        backend = JournalBackend()
        for i in range(3):
            backend.append({"store": "x", "op": "put", "record": {"k": i}})
        backend.crash_mid_write()
        survivors = backend.entries()
        assert [e["record"]["k"] for e in survivors] == [0, 1]
        assert backend.torn_tail is True
        assert backend.dropped_bytes > 0

    def test_fail_after_appends_raises_and_leaves_a_torn_tail(self):
        backend = JournalBackend(fail_after_appends=3)
        backend.append({"store": "x", "op": "put", "record": {"k": 0}})
        backend.append({"store": "x", "op": "put", "record": {"k": 1}})
        with pytest.raises(JournalCrash):
            backend.append({"store": "x", "op": "put", "record": {"k": 2}})
        assert [e["record"]["k"] for e in backend.entries()] == [0, 1]
        assert backend.torn_tail is True

    def test_mid_journal_corruption_is_an_error(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            json.dumps({"store": "x", "op": "put", "record": {}}) + "\n"
            + "{corrupt\n"
            + json.dumps({"store": "x", "op": "del", "key": "k"}) + "\n"
        )
        backend = JournalBackend(str(path))
        with pytest.raises(ConfigurationError):
            backend.entries()

    @pytest.mark.parametrize("backend_type", [MemoryBackend, JournalBackend])
    def test_appended_entries_are_isolated_from_later_mutation(self, backend_type):
        backend = backend_type()
        record = {"k": 1, "tags": ["a"]}
        entry = {"store": "x", "op": "put", "record": record}
        backend.append(entry)
        record["k"] = 2
        record["tags"].append("b")
        entry["op"] = "del"
        original = [{"store": "x", "op": "put", "record": {"k": 1, "tags": ["a"]}}]
        replayed = backend.entries()
        assert replayed == original
        replayed[0]["record"]["k"] = 3
        next(backend.replay())["record"]["tags"].clear()
        assert backend.entries() == original

    def test_many_appends_stay_linear(self):
        # A journal that re-copies its whole contents on every append
        # needs minutes for this; one list entry per line, well under 1 s.
        backend = JournalBackend()
        entry = {"store": "bindings", "op": "put", "record": {"k": "x" * 200}}
        started = time.perf_counter()
        for _ in range(50_000):
            backend.append(entry)
        assert time.perf_counter() - started < 5.0
        assert backend.entry_count() == len(backend.entries()) == 50_000

    def test_append_after_a_torn_tail_continues_that_line(self):
        # The medium has no line boundary after a torn write, so the next
        # append lands on the same line: the damage moves off the tail.
        backend = JournalBackend()
        for i in range(2):
            backend.append({"store": "x", "op": "put", "record": {"k": i}})
        backend.crash_mid_write()
        backend.append({"store": "x", "op": "put", "record": {"k": 2}})
        backend.append({"store": "x", "op": "put", "record": {"k": 3}})
        with pytest.raises(ConfigurationError, match="line 2"):
            backend.entries()

    def test_file_backed_journal_survives_a_new_process(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        first = JournalBackend(path)
        first.append({"store": "x", "op": "put", "record": {"k": 1}})
        # a brand-new backend on the same path models post-crash recovery
        second = JournalBackend(path)
        assert second.entries() == first.entries()
        second.clear()
        assert JournalBackend(path).entry_count() == 0


# ---------------------------------------------------------------------------
# journaled restarts (checkpoint + WAL end to end)
# ---------------------------------------------------------------------------


def attach_checkpointed_journal(world, backend):
    """Seed *backend* with a checkpoint of the world, then attach it.

    The deployment builder mutates the cloud before a journal can be
    attached, so tests seed the backend with one full-record ``put`` per
    existing record — the WAL equivalent of a base snapshot — and let
    every later mutation append live entries.
    """
    backend.append(meta_entry(world.design.name))
    for name, store in world.cloud.state_stores().items():
        if not store.durable:
            continue
        for record in store.snapshot_state():
            backend.append({"store": name, "op": "put", "record": record})
    world.cloud.attach_journal(backend)


class TestJournaledRestart:
    def test_recovery_replays_the_whole_history(self):
        world = Deployment(vendor("D-LINK"), seed=81)
        backend = JournalBackend()
        attach_checkpointed_journal(world, backend)
        assert world.victim_full_setup()
        world.victim.app.set_schedule(world.victim.device.device_id, {"on": "19:00"})
        expected = stores_json(build_snapshot(world.cloud))
        world.cloud.shutdown()

        recovery = recover_from_journal(
            world.env, world.network, world.design, backend
        )
        assert recovery.torn_tail is False
        assert recovery.entries_applied > 0
        assert stores_json(build_snapshot(recovery.cloud)) == expected
        # the recovered cloud is live: heartbeats restore full control
        world.cloud = recovery.cloud
        world.run_heartbeats(2)
        assert world.shadow_state() == "control"
        assert world.victim_can_control()

    @pytest.mark.parametrize("design", all_designs(), ids=lambda d: d.name)
    def test_recovery_replays_deletes(self, design):
        world = Deployment(design, seed=81)
        backend = MemoryBackend()
        attach_checkpointed_journal(world, backend)
        assert world.victim_full_setup()
        app, device_id = world.victim.app, world.victim.device.device_id
        app.set_schedule(device_id, {"on": "19:00"})
        # a vendor without a revocation endpoint (KONKE) keeps the binding
        assert app.remove_device(device_id) is design.unbind_supported
        assert world.cloud.accounts.logout(app.user_token)
        deleted = {
            entry["store"] for entry in backend.entries() if entry["op"] == "del"
        }
        if design.unbind_supported:
            assert deleted >= {"bindings", "relay", "tokens"}
        else:
            assert deleted >= {"tokens"}
        expected = stores_json(build_snapshot(world.cloud))
        world.cloud.shutdown()

        recovery = recover_from_journal(
            world.env, world.network, world.design, backend
        )
        assert recovery.entries_discarded == sum(
            entry["op"] == "del" for entry in backend.entries()
        )
        assert stores_json(build_snapshot(recovery.cloud)) == expected

    def test_recovery_skips_a_truncated_tail(self):
        world = Deployment(vendor("D-LINK"), seed=81)
        backend = JournalBackend()
        attach_checkpointed_journal(world, backend)
        assert world.victim_full_setup()
        expected = stores_json(build_snapshot(world.cloud))
        # one more durable mutation, then the power cut tears its entry
        world.cloud.relay.set_schedule(
            world.victim.device.device_id, {"on": "21:00"}
        )
        backend.crash_mid_write()
        world.cloud.shutdown()

        recovery = recover_from_journal(
            world.env, world.network, world.design, backend
        )
        assert recovery.torn_tail is True
        assert recovery.dropped_bytes > 0
        assert "torn tail" in recovery.line()
        # the unacknowledged schedule write is gone; everything else holds
        assert stores_json(build_snapshot(recovery.cloud)) == expected

    def test_mid_write_crash_still_recovers_all_bindings(self):
        world = Deployment(vendor("OZWI"), seed=7)
        backend = JournalBackend()
        attach_checkpointed_journal(world, backend)
        assert world.victim_full_setup()
        bindings_before = world.cloud.bindings.snapshot_state()
        # the very next journal append dies halfway through the write
        backend.fail_after_appends = backend.entry_count() + 1
        with pytest.raises(JournalCrash):
            world.cloud.relay.set_schedule(
                world.victim.device.device_id, {"on": "22:00"}
            )
        world.cloud.shutdown()

        recovery = recover_from_journal(
            world.env, world.network, world.design, backend
        )
        assert recovery.torn_tail is True
        assert recovery.cloud.bindings.snapshot_state() == bindings_before
        assert (
            recovery.cloud.bound_user_of(world.victim.device.device_id)
            == world.victim.user_id
        )

    def test_recovered_cloud_keeps_journaling(self):
        world = Deployment(vendor("D-LINK"), seed=81)
        backend = JournalBackend()
        attach_checkpointed_journal(world, backend)
        assert world.victim_full_setup()
        world.cloud.shutdown()
        recovery = recover_from_journal(
            world.env, world.network, world.design, backend
        )
        before = backend.entry_count()
        recovery.cloud.relay.set_schedule("any-device", {"on": "08:00"})
        assert backend.entry_count() == before + 1

    def test_recovery_streams_without_materializing_entries(self):
        class StreamOnly(MemoryBackend):
            def entries(self):
                raise AssertionError("recovery materialized the entry list")

        world = Deployment(vendor("D-LINK"), seed=81)
        backend = StreamOnly()
        attach_checkpointed_journal(world, backend)
        assert world.victim_full_setup()
        expected = stores_json(build_snapshot(world.cloud))
        world.cloud.shutdown()

        recovery = recover_from_journal(
            world.env, world.network, world.design, backend
        )
        assert recovery.torn_tail is False
        assert recovery.entries_applied > 0
        assert stores_json(build_snapshot(recovery.cloud)) == expected

    def test_recovery_ignores_mutations_of_replayed_entries(self):
        world = Deployment(vendor("D-LINK"), seed=81)
        backend = MemoryBackend()
        attach_checkpointed_journal(world, backend)
        assert world.victim_full_setup()
        expected = stores_json(build_snapshot(world.cloud))
        for entry in backend.entries():
            if entry["op"] == "put":
                entry["record"].clear()
        world.cloud.shutdown()

        recovery = recover_from_journal(
            world.env, world.network, world.design, backend
        )
        assert stores_json(build_snapshot(recovery.cloud)) == expected

    def test_mid_journal_corruption_leaves_the_network_alone(
        self, tmp_path, monkeypatch
    ):
        world = Deployment(vendor("D-LINK"), seed=81)
        path = tmp_path / "journal.jsonl"
        attach_checkpointed_journal(world, JournalBackend(str(path)))
        assert world.victim_full_setup()
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[2] = "{corrupt"
        path.write_text("\n".join(lines), encoding="utf-8")
        removed = []
        monkeypatch.setattr(world.network, "remove_node", removed.append)

        with pytest.raises(ConfigurationError, match="line 3"):
            recover_from_journal(
                world.env, world.network, world.design, JournalBackend(str(path))
            )
        assert removed == []
        # the live cloud still serves its victim
        assert world.victim_can_control()

    def test_journal_for_another_design_is_rejected(self):
        env = Environment(seed=1)
        network = Network(env)
        backend = JournalBackend()
        backend.append(meta_entry("OZWI"))
        with pytest.raises(ConfigurationError):
            recover_from_journal(env, network, vendor("D-LINK"), backend)

    def test_unknown_store_and_op_are_rejected(self):
        backend = JournalBackend()
        backend.append({"store": "nonsense", "op": "put", "record": {}})
        env = Environment(seed=1)
        with pytest.raises(ConfigurationError):
            recover_from_journal(env, Network(env), vendor("OZWI"), backend)
        backend = JournalBackend()
        backend.append({"store": "relay", "op": "frobnicate"})
        env = Environment(seed=2)
        with pytest.raises(ConfigurationError):
            recover_from_journal(env, Network(env), vendor("OZWI"), backend)


# ---------------------------------------------------------------------------
# journal entries hold exact JSON types
# ---------------------------------------------------------------------------


class TeeBackend(MemoryBackend):
    """A memory journal that feeds every entry to a JSON-lines WAL too.

    ``expected`` holds each entry's JSON round trip, taken at append
    time and expanded from a row put exactly as ``JournalBackend``
    expands it: what the on-disk journal replays.
    """

    def __init__(self):
        super().__init__()
        self.journal = JournalBackend()
        self.expected = []

    def append(self, entry):
        super().append(entry)
        self.journal.append(entry)
        self.expected.append(json.loads(json.dumps(expand_entry(entry))))


class TestJournalEntriesAreExactJson:
    """``MemoryBackend`` keeps what JSON would normalise (tuples,
    non-``str`` keys) or refuse (sets, bytes), so every store must
    journal exact JSON types for the two backends to replay alike."""

    @pytest.mark.parametrize("design", all_designs(), ids=lambda d: d.name)
    def test_memory_replay_is_a_json_round_trip(self, design, monkeypatch):
        monkeypatch.setattr("repro.chaos.campaign.MemoryBackend", TeeBackend)
        fleet = FleetDeployment(design, households=2, seed=13)
        controller = apply_chaos(fleet, ChaosSpec(plan="cloud-restart"))
        backend = fleet.cloud.journal_backend
        assert fleet.setup_all() == 2
        owner, guest = fleet.households
        device_id = owner.device.device_id
        assert owner.app.share_device(device_id, guest.user_id)
        owner.app.set_schedule(device_id, {"on": "19:00"})
        # no studied design runs a notification feed: feed the store directly
        fleet.cloud.events.emit(
            owner.user_id, UserEvent(fleet.env.now, "binding-created", device_id)
        )
        fleet.cloud.events.poll(owner.user_id)
        assert (
            guest.app.remove_device(guest.device.device_id)
            is design.unbind_supported
        )
        assert fleet.cloud.accounts.logout(guest.app.user_token)
        fleet.run(120.0)  # the crash at t=60 recovers from this journal
        assert len(controller.recoveries) == 1
        assert fleet.cloud.journal_backend is backend

        durable = {
            name for name, store in fleet.cloud.state_stores().items()
            if store.durable
        }
        assert {entry["store"] for entry in backend.expected} == durable | {"_meta"}
        assert {entry["op"] for entry in backend.expected} == {"meta", "put", "del"}
        assert backend.entries() == backend.expected
        snapshots = []
        for source in (backend, backend.journal):
            env = Environment(seed=1)
            recovered = recover_from_journal(env, Network(env), design, source)
            snapshots.append(
                json.dumps(build_snapshot(recovered.cloud), sort_keys=True)
            )
        assert snapshots[0] == snapshots[1]


# ---------------------------------------------------------------------------
# forensic events are journaled by reference
# ---------------------------------------------------------------------------


def record_events(timeline, count, start=0):
    """Record *count* live events with fresh strings, as a cloud would."""
    for index in range(start, start + count):
        timeline.record(
            float(index), f"dev-{index % 7}", "bind", f"Bind(dev-{index})",
            "attacker:host", "203.0.113.9", f"trace-{index}", f"span-{index}",
            "ok", "attacker", f"user-{index % 5}", index % 2 == 0,
            "require-user:pass>check-rebind:pass",
        )


class TestForensicRowPuts:
    def test_journaled_event_is_the_live_row(self):
        timeline, backend = ForensicTimeline(), MemoryBackend()
        timeline.bind_journal(backend.append)
        record_events(timeline, 3)
        assert backend.entry_count() == 3
        for seq, item in enumerate(backend._items):
            assert type(item) is tuple
            assert item[0] == "forensics"
            assert item[2] is timeline._rows[seq]
        assert backend.entries() == [
            {"store": "forensics", "op": "put", "record": record}
            for record in timeline.snapshot_state()
        ]

    def test_entries_are_untracked_after_a_collection(self):
        timeline, backend = ForensicTimeline(), MemoryBackend()
        timeline.bind_journal(backend.append)
        record_events(timeline, 100)
        gc.collect()
        tracked = len(gc.get_objects())
        record_events(timeline, 5000, start=100)
        gc.collect()
        assert not [item for item in backend._items if gc.is_tracked(item)]
        # the two lists' own growth aside, nothing per event stays tracked
        assert len(gc.get_objects()) - tracked < 50

    def test_journal_line_of_a_row_put_matches_the_dict_form(self, tmp_path):
        timeline = ForensicTimeline()
        row_path, dict_path = tmp_path / "rows.jsonl", tmp_path / "dicts.jsonl"
        rows, dicts = JournalBackend(str(row_path)), JournalBackend(str(dict_path))
        timeline.bind_journal(rows.append)
        record_events(timeline, 4)
        for event in timeline.events():
            assert event.decision_trace  # volatile: never journaled
            dicts.append({
                "store": "forensics", "op": "put",
                "record": timeline.to_record(event),
            })
        assert row_path.read_bytes() == dict_path.read_bytes()
        assert b"decision_trace" not in row_path.read_bytes()
        assert rows.entries() == dicts.entries()


# ---------------------------------------------------------------------------
# clone-built vs replay-built fleet state
# ---------------------------------------------------------------------------


class TestCloneVsReplayFleetState:
    def build_pair(self, households=5, seed=9):
        replay = FleetDeployment(
            vendor("OZWI"), households=households, seed=seed, build="replay"
        )
        assert replay.setup_all() == households
        clone = FleetDeployment(
            vendor("OZWI"), households=households, seed=seed, build="clone"
        )
        return replay, clone

    def test_same_store_record_counts(self):
        replay, clone = self.build_pair()
        replay_counts = snapshot_store_counts(build_snapshot(replay.cloud))
        clone_counts = snapshot_store_counts(build_snapshot(clone.cloud))
        # Forensic timelines record *message traffic*; the clone fast
        # path installs state without packets, so that store (and only
        # that store) legitimately differs between the two builds.
        replay_counts.pop("forensics", None)
        clone_counts.pop("forensics", None)
        assert clone_counts == replay_counts

    def test_every_household_bound_to_its_own_user(self):
        replay, clone = self.build_pair()
        for fleet in (replay, clone):
            bound = fleet.bound_users()
            assert len(bound) == len(fleet.households)
            for household in fleet.households:
                assert bound[household.device.device_id] == household.user_id

    def test_clone_built_state_round_trips_byte_identically(self):
        _, clone = self.build_pair(households=4, seed=5)
        first = json.dumps(build_snapshot(clone.cloud), sort_keys=True)
        clone.cloud.shutdown()
        fresh = CloudService.restore(
            clone.env, clone.network, clone.design, json.loads(first)
        )
        assert json.dumps(build_snapshot(fresh), sort_keys=True) == first

    def test_shadow_projection_matches_binding_table(self):
        _, clone = self.build_pair(households=4, seed=5)
        for household in clone.households:
            device_id = household.device.device_id
            assert clone.cloud.shadows.get(device_id).bound_user == (
                household.user_id
            )
