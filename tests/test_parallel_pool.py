"""Persistent worker pool + snapshot warm-start.

The load-bearing guarantee: every execution strategy — serial
in-process, worker pool, warm-started worlds, crash-respawned
workers — produces *bit-identical* campaign results:
reports, metric snapshots, audit trails, forensic timelines, state
counts.  The pool is an engine concern; it must never leak into what
the campaigns measure.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.chaos import ChaosSpec
from repro.core.errors import ConfigurationError
from repro.fleet import FleetDeployment, WorldImage
from repro.obs.detect.harness import run_detection
from repro.obs.runtime import Observability
from repro.parallel import (
    DEPLOYED_CAMPAIGNS,
    PoolError,
    ShardSpec,
    WorkerPool,
    WorkerTaskError,
    WorldImageCache,
    build_shard_specs,
    run_campaign,
    run_shard,
    world_key,
)
from repro.parallel.protocol import Heartbeat
from repro.parallel.pool import (
    HEARTBEAT_INTERVAL,
    MAX_TASK_ATTEMPTS,
    preferred_start_method,
    task_overdue,
)
from repro.sim.environment import Environment
from repro.vendors import vendor


def deployed_world(design_name="OZWI", households=5, seed=0, build="replay"):
    """A settled deployed fleet, the warm-start capture target."""
    obs = Observability(trace_messages=True)
    fleet = FleetDeployment(
        vendor(design_name), households=households, seed=seed,
        observer=obs, build=build,
    )
    fleet.setup_all()
    fleet.run(12.0)
    return fleet, obs


def world_fingerprint(fleet, obs, report=None):
    """Everything a campaign run leaves behind, for bit-level diffing."""
    fleet.cloud.emit_state_gauges()
    data = {
        "metrics": obs.metrics.snapshot(),
        "audit": list(fleet.cloud.audit.entries),
        "forensics": fleet.cloud.forensics.events(),
        "state_counts": fleet.cloud.state_counts(),
        "matches_audit": obs.matches_audit(fleet.cloud.audit),
        "bound": fleet.bound_users(),
    }
    if report is not None:
        data["report"] = report.__dict__
    return data


def campaign_runner(name):
    from repro.attacks.campaign import (
        campaign_mass_rebind,
        campaign_mass_unbind,
        campaign_shadow_probe,
    )

    return {
        "mass-unbind": campaign_mass_unbind,
        "shadow-probe": campaign_shadow_probe,
        "mass-rebind": campaign_mass_rebind,
    }[name]


class TestWarmStartEquality:
    """A restored world is indistinguishable from a freshly built one."""

    @pytest.mark.parametrize("design_name", ["OZWI", "TP-LINK"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_restored_world_runs_bit_identical_campaign(self, design_name, seed):
        runner = campaign_runner("mass-unbind")
        fleet_cold, obs_cold = deployed_world(design_name, seed=seed)
        report_cold = runner(fleet_cold, max_probes=20, request_rate=3000.0)

        fleet_src, _ = deployed_world(design_name, seed=seed)
        image = pickle.loads(pickle.dumps(fleet_src.capture_image()))
        obs_warm = Observability(trace_messages=True)
        fleet_warm = FleetDeployment.from_image(image, observer=obs_warm)
        report_warm = runner(fleet_warm, max_probes=20, request_rate=3000.0)

        cold = world_fingerprint(fleet_cold, obs_cold, report_cold)
        warm = world_fingerprint(fleet_warm, obs_warm, report_warm)
        for key in cold:
            assert cold[key] == warm[key], f"{key} diverged after restore"

    @pytest.mark.parametrize("campaign", DEPLOYED_CAMPAIGNS)
    def test_every_deployed_campaign_warm_matches_cold(self, campaign):
        runner = campaign_runner(campaign)
        fleet_cold, obs_cold = deployed_world()
        report_cold = runner(fleet_cold, max_probes=20, request_rate=3000.0)

        fleet_src, _ = deployed_world()
        image = fleet_src.capture_image()
        obs_warm = Observability(trace_messages=True)
        fleet_warm = FleetDeployment.from_image(image, observer=obs_warm)
        report_warm = runner(fleet_warm, max_probes=20, request_rate=3000.0)

        cold = world_fingerprint(fleet_cold, obs_cold, report_cold)
        warm = world_fingerprint(fleet_warm, obs_warm, report_warm)
        assert cold == warm

    def test_one_image_serves_all_deployed_campaigns(self):
        fleet_src, _ = deployed_world()
        image = fleet_src.capture_image()
        for campaign in DEPLOYED_CAMPAIGNS:
            obs = Observability(trace_messages=True)
            fleet = FleetDeployment.from_image(image, observer=obs)
            report = campaign_runner(campaign)(
                fleet, max_probes=20, request_rate=3000.0
            )
            assert report.households == 5

    def test_clone_built_world_round_trips(self):
        fleet_cold, obs_cold = deployed_world(build="clone")
        fleet_src, _ = deployed_world(build="clone")
        image = fleet_src.capture_image()
        fleet_warm = FleetDeployment.from_image(
            image, observer=Observability(trace_messages=True)
        )
        assert fleet_warm.bound_users() == fleet_cold.bound_users()
        assert (
            fleet_warm.cloud.state_counts() == fleet_cold.cloud.state_counts()
        )

    def test_capture_refuses_resilience_clients(self):
        from repro.chaos import apply_chaos

        fleet, _ = deployed_world()
        apply_chaos(fleet, ChaosSpec(plan="lossy-lan", resilience=True))
        with pytest.raises(ConfigurationError):
            fleet.capture_image()

    def test_capture_rejects_design_mismatch_on_restore(self):
        fleet, _ = deployed_world("OZWI")
        image = fleet.capture_image()
        image.design = vendor("TP-LINK")
        with pytest.raises(ConfigurationError):
            FleetDeployment.from_image(image)


class TestAuthzCacheNeutrality:
    """The authorization decision cache must be invisible to the
    identity oracles: hit/miss counts may differ wildly between two
    worlds whose campaign results are bit-identical, and disabling the
    cache outright must change nothing a fingerprint can see."""

    @pytest.mark.parametrize("campaign", ["mass-unbind", "shadow-probe"])
    def test_disabled_cache_runs_bit_identical(self, campaign, monkeypatch):
        runner = campaign_runner(campaign)
        fleet_cached, obs_cached = deployed_world(seed=3)
        report_cached = runner(fleet_cached, max_probes=20, request_rate=3000.0)
        cached = world_fingerprint(fleet_cached, obs_cached, report_cached)
        assert fleet_cached.cloud.authz_cache.stats()["hits"] > 0

        from repro.cloud.authz import MISS, AuthorizationCache

        monkeypatch.setattr(AuthorizationCache, "lookup", lambda self, key: MISS)
        fleet_cold, obs_cold = deployed_world(seed=3)
        report_cold = runner(fleet_cold, max_probes=20, request_rate=3000.0)
        uncached = world_fingerprint(fleet_cold, obs_cold, report_cold)
        assert fleet_cold.cloud.authz_cache.stats()["hits"] == 0
        for key in cached:
            assert cached[key] == uncached[key], f"{key} depends on the cache"

    def test_warm_world_matches_cold_despite_divergent_cache_stats(self):
        runner = campaign_runner("mass-unbind")
        fleet_cold, obs_cold = deployed_world(seed=5)
        report_cold = runner(fleet_cold, max_probes=20, request_rate=3000.0)

        fleet_src, _ = deployed_world(seed=5)
        image = fleet_src.capture_image()
        obs_warm = Observability(trace_messages=True)
        fleet_warm = FleetDeployment.from_image(image, observer=obs_warm)
        report_warm = runner(fleet_warm, max_probes=20, request_rate=3000.0)

        # The restored world skipped the deployment traffic, so its hit
        # counters differ from the cold build's...
        assert (
            fleet_warm.cloud.authz_cache.stats()
            != fleet_cold.cloud.authz_cache.stats()
        )
        # ...yet nothing a fingerprint compares noticed.
        cold = world_fingerprint(fleet_cold, obs_cold, report_cold)
        warm = world_fingerprint(fleet_warm, obs_warm, report_warm)
        assert cold == warm

    def test_mid_run_clear_changes_nothing(self):
        runner = campaign_runner("mass-unbind")
        fingerprints = []
        for clear in (False, True):
            fleet, obs = deployed_world(seed=9)
            if clear:
                fleet.cloud.authz_cache.clear()
            report = runner(fleet, max_probes=20, request_rate=3000.0)
            fingerprints.append(world_fingerprint(fleet, obs, report))
        assert fingerprints[0] == fingerprints[1]


class TestWorldKey:
    def spec(self, **overrides):
        return build_shard_specs(
            vendor("OZWI"),
            campaign=overrides.pop("campaign", "mass-unbind"),
            households=overrides.pop("households", 8),
            max_probes=16,
            shards=1,
            seed=overrides.pop("seed", 0),
            **overrides,
        )[0]

    def test_deployed_campaigns_share_one_world_key(self):
        keys = {
            world_key(self.spec(campaign=campaign))
            for campaign in DEPLOYED_CAMPAIGNS
        }
        assert len(keys) == 1
        assert keys != {None}

    def test_binding_dos_and_chaos_key_to_none(self):
        assert world_key(self.spec(campaign="binding-dos")) is None
        chaotic = self.spec(chaos=ChaosSpec(plan="lossy-lan"))
        assert world_key(chaotic) is None

    def test_key_separates_worlds(self):
        base = world_key(self.spec())
        assert world_key(self.spec(seed=1)) != base
        assert world_key(self.spec(households=9)) != base

    def test_cache_is_lru_with_accounting(self):
        cache = WorldImageCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("c") == 3
        assert cache.stats() == {"entries": 2, "hits": 2, "misses": 1}

    def test_cache_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            WorldImageCache(max_entries=0)


class TestPoolEquality:
    """Pooled sharded runs bit-match serial across worker counts."""

    def comparable(self, result):
        data = result.to_dict()
        data.pop("workers")
        return data

    def shard_payloads(self, result):
        return [
            (r.report.__dict__, r.metrics, r.audit_entries, r.matches_audit,
             r.state_counts)
            for r in result.shard_results
        ]

    def run(self, **overrides):
        kwargs = dict(
            campaign="mass-unbind", households=8, max_probes=24, seed=3,
            workers=1, shards=2,
        )
        kwargs.update(overrides)
        return run_campaign(vendor("OZWI"), **kwargs)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pooled_matches_serial(self, workers):
        serial = self.run()
        pooled = self.run(workers=workers)
        assert self.comparable(pooled) == self.comparable(serial)
        assert self.shard_payloads(pooled) == self.shard_payloads(serial)
        assert pooled.pool_stats is not None
        assert pooled.pool_stats["tasks"] == 2

    def test_pooled_chaos_matches_serial_chaos(self):
        chaos = ChaosSpec(plan="lossy-lan", intensity=0.5)
        serial = self.run(chaos=chaos)
        pooled = self.run(workers=2, chaos=chaos)
        assert self.comparable(pooled) == self.comparable(serial)
        # chaos shards never warm-start
        assert all(r.world_source == "cold" for r in pooled.shard_results)

    def test_pooled_detection_matches_serial(self):
        serial = self.run(detect=True)
        pooled = self.run(workers=2, detect=True)
        assert serial.detection is not None
        assert pooled.detection == serial.detection

    def test_persistent_pool_warm_starts_repeats(self):
        serial = self.run()
        with WorkerPool(workers=2) as pool:
            first = self.run(workers=2, worker_pool=pool)
            second = self.run(workers=2, worker_pool=pool)
            stats = pool.stats()
        assert self.comparable(first) == self.comparable(serial)
        assert self.comparable(second) == self.comparable(serial)
        assert stats["cold_builds"] == 2
        assert stats["warm_starts"] == 2
        assert all(r.world_source == "warm" for r in second.shard_results)

    def test_pool_stats_stay_out_of_default_dict(self):
        pooled = self.run(workers=2)
        assert "pool" not in pooled.to_dict()
        with_pool = pooled.to_dict(include_pool=True)
        assert with_pool["pool"]["tasks"] == 2
        assert [w["world_source"] for w in with_pool["shard_worlds"]] == [
            r.world_source for r in pooled.shard_results
        ]

    def test_inline_image_cache_warm_starts_in_process(self):
        cache = WorldImageCache()
        first = self.run(image_cache=cache)
        second = self.run(image_cache=cache)
        assert self.comparable(first) == self.comparable(second)
        assert all(r.world_source == "cold" for r in first.shard_results)
        assert all(r.world_source == "warm" for r in second.shard_results)
        assert cache.hits == 2

    def test_pool_observer_metrics_stay_out_of_shard_results(self):
        from repro.obs.metrics import MetricsRegistry

        serial = self.run()
        registry = MetricsRegistry()
        specs = build_shard_specs(
            vendor("OZWI"), campaign="mass-unbind", households=8,
            max_probes=24, shards=2, seed=3,
        )
        with WorkerPool(workers=2, observer=registry) as pool:
            results = pool.run(specs)
            pool.run(specs)
        snap = registry.snapshot()
        tasks = snap["counters"]["parallel.pool.tasks"]
        assert sum(row["value"] for row in tasks) == 4
        assert "parallel.pool.utilization" in snap["gauges"]
        assert (
            snap["histograms"]["parallel.pool.world_seconds"]["count"] == 4
        )
        # coordinator-side metrics never leak into the merged results
        assert [r.metrics for r in results] == [
            r.metrics for r in serial.shard_results
        ]

    def test_detection_harness_warm_equals_cold(self):
        from repro.obs.detect.harness import ATTACK_CAMPAIGNS

        design = vendor("OZWI")
        kwargs = dict(households=4, max_probes=12, workers=1, seed=1)
        warm = run_detection(design, **kwargs)
        # A3 and A4 restore the image A1 captured; A2 builds cold.
        assert [r.world_source for r in warm["A4"].shard_results] == ["warm"]
        for attack_id, result in warm.items():
            cold = run_campaign(
                design, campaign=ATTACK_CAMPAIGNS[attack_id],
                trace_messages=False, detect=True, **kwargs,
            )
            assert result.to_dict() == cold.to_dict()
            assert result.detection == cold.detection


class TestPoolRobustness:
    def specs(self, shards=2):
        return build_shard_specs(
            vendor("OZWI"), campaign="mass-unbind", households=8,
            max_probes=24, shards=shards, seed=3,
        )

    def test_killed_worker_respawns_and_result_is_identical(self):
        specs = self.specs()
        reference = [run_shard(spec) for spec in specs]
        killed = {"done": False}

        def kill_once(slot_index, task_id, pool):
            if task_id == 0 and not killed["done"]:
                killed["done"] = True
                pool.kill_worker(slot_index)

        with WorkerPool(workers=2) as pool:
            results = pool.run(
                specs,
                on_dispatch=lambda task_id, slot_index: kill_once(
                    slot_index, task_id, pool
                ),
            )
            stats = pool.stats()
        assert stats["respawns"] >= 1
        for got, want in zip(results, reference):
            assert got.report.__dict__ == want.report.__dict__
            assert got.metrics == want.metrics
            assert got.audit_entries == want.audit_entries
            assert got.state_counts == want.state_counts

    def test_worker_that_keeps_dying_raises_pool_error(self):
        with WorkerPool(workers=1, task_timeout=30.0) as pool:
            with pytest.raises(PoolError) as excinfo:
                pool.run(
                    self.specs(shards=1),
                    on_dispatch=lambda task_id, slot_index: pool.kill_worker(
                        slot_index
                    ),
                )
        assert str(MAX_TASK_ATTEMPTS) in str(excinfo.value)

    def test_python_exception_propagates_without_retry(self):
        bad = ShardSpec(
            shard_index=0, shards=1, design=vendor("OZWI"),
            campaign="no-such-campaign", households=4, max_probes=8, seed=0,
        )
        with WorkerPool(workers=1) as pool:
            with pytest.raises(WorkerTaskError) as excinfo:
                pool.run([bad])
            assert pool.stats()["respawns"] == 0
        assert "no-such-campaign" in str(excinfo.value)

    def test_task_overdue_logic(self):
        assert not task_overdue(None, 100.0, 5.0)
        assert not task_overdue(10.0, 100.0, None)
        assert not task_overdue(10.0, 14.0, 5.0)
        assert task_overdue(10.0, 16.0, 5.0)

    def test_preferred_start_method(self):
        assert preferred_start_method() in ("forkserver", "fork", "spawn")

    def test_close_leaves_no_queue_feeder_thread(self):
        def feeders():
            return {t for t in threading.enumerate() if t.name == "QueueFeederThread"}

        before = feeders()
        pool = WorkerPool(workers=2)
        pool.run(self.specs())
        pool.close()
        assert feeders() <= before

    def test_idle_pool_closes_cleanly_after_heartbeat_pipe_fills(self):
        # A caller-owned pool left idle: nobody reads the heartbeats, so
        # each worker's outbound pipe fills and the rest wait in its
        # queue buffer, which the worker must flush before it can exit.
        pipe_bytes = 64 * 1024  # the Linux default pipe capacity
        beat_bytes = len(pickle.dumps(Heartbeat(worker=1, seq=10**6))) + 4
        backlog = 4 * pipe_bytes // beat_bytes
        pool = WorkerPool(workers=2, heartbeat_interval=0.0005)
        pool.start()
        slots = pool._slots
        deadline = time.monotonic() + 60.0
        while min(slot.out_queue.qsize() for slot in slots) < backlog:
            if time.monotonic() > deadline:
                pool.close()
                pytest.fail("heartbeats never backed up past the pipe")
            time.sleep(0.05)
        started = time.monotonic()
        pool.close()
        assert time.monotonic() - started < 1.0  # the join timeout is 2 s
        assert [slot.process.exitcode for slot in slots] == [0, 0]

    def test_worker_that_fails_to_start_raises_without_respawn(self, tmp_path):
        # No __main__ guard: the worker re-runs the script on import,
        # cannot start a process of its own there, and exits with code 1.
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from repro.parallel import PoolError, WorkerPool, build_shard_specs\n"
            "from repro.vendors import vendor\n"
            "pool = WorkerPool(workers=1)\n"
            "try:\n"
            "    pool.run(build_shard_specs(vendor('OZWI'), households=2))\n"
            "except PoolError:\n"
            "    print(f'respawns={pool.respawns}')\n"
            "    raise\n"
        )
        done = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)), timeout=120,
        )
        assert done.returncode == 1 and "respawns=0" in done.stdout
        assert "PoolError: worker 0 exited with code 1 before it started" in done.stderr
        assert 'if __name__ == "__main__":' in done.stderr

    def test_worker_killed_while_coordinator_waits_is_respawned(self):
        specs = self.specs()
        reference = [run_shard(spec) for spec in specs]
        armed, kills, respawns = [], [], []
        with WorkerPool(workers=2, heartbeat_interval=1.0) as pool:
            wait = pool._await_message
            respawn = pool._respawn

            def kill_while_blocked(results):
                if not armed:
                    armed.append(True)
                    # Freeze the slot the coordinator is about to block
                    # on, so its task cannot finish first, then kill it
                    # while the coordinator waits.
                    target = next(s for s in pool._slots if s.outstanding)
                    os.kill(target.process.pid, signal.SIGSTOP)

                    def kill():
                        time.sleep(0.1)
                        kills.append(time.monotonic())
                        pool.kill_worker(target.index)

                    threading.Thread(target=kill).start()
                wait(results)

            def timed_respawn(slot, attempts, results):
                respawns.append(time.monotonic())
                respawn(slot, attempts, results)

            pool._await_message = kill_while_blocked
            pool._respawn = timed_respawn
            results = pool.run(specs)
            stats = pool.stats()
        assert stats["respawns"] >= 1
        # noticed within one heartbeat interval (plus scheduling slack)
        assert respawns[0] - kills[0] < pool.heartbeat_interval + 0.25
        for got, want in zip(results, reference):
            assert got.report.__dict__ == want.report.__dict__
            assert got.metrics == want.metrics
            assert got.audit_entries == want.audit_entries
            assert got.state_counts == want.state_counts

    @pytest.mark.skipif(
        preferred_start_method() != "forkserver", reason="needs a forkserver"
    )
    def test_forkserver_preload_spares_workers_the_engine_import(self, tmp_path):
        # The coordinator finds repro through sys.path alone, the way
        # benchmarks/perf/run.py does; the forkserver preloads the engine
        # so its workers fork with it imported.  -X importtime prints a
        # line per import of repro.parallel.engine in every process.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = tmp_path / "pooled.py"
        script.write_text(
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "from repro.parallel import run_campaign\n"
            "from repro.vendors import vendor\n"
            "if __name__ == '__main__' and sys.argv[1:] == ['pool']:\n"
            "    run_campaign(vendor('OZWI'), households=2, max_probes=4,\n"
            "                 shards=2, workers=2)\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

        def engine_imports(*args):
            done = subprocess.run(
                [sys.executable, "-X", "importtime", *args],
                capture_output=True, text=True, env=env, timeout=120,
                cwd=tmp_path,
            )
            assert done.returncode == 0, done.stderr[-2000:]
            return sum(
                line.endswith(" repro.parallel.engine")
                for line in done.stderr.splitlines()
            )

        coordinator = engine_imports(str(script))
        forkserver = engine_imports(
            "-c", f"import sys; sys.path.insert(0, {src!r}); "
            "__import__('repro.parallel.engine')",
        )
        assert coordinator >= 1 and forkserver >= 1
        assert engine_imports(str(script), "pool") == coordinator + forkserver

    @pytest.mark.skipif(
        preferred_start_method() != "forkserver" or not os.path.isdir("/proc"),
        reason="needs a forkserver and /proc",
    )
    def test_pool_processes_exit_when_the_coordinator_is_killed(self, tmp_path):
        # Nothing sends Shutdown to a SIGKILLed coordinator's workers.
        # Each notices its coordinator is gone within a heartbeat
        # interval; the forkserver and the resource tracker then lose
        # their last writer and exit too.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        pids_path = tmp_path / "pids.json"
        script = tmp_path / "coordinator.py"
        script.write_text(
            "import json, os, sys, time\n"
            f"sys.path.insert(0, {src!r})\n"
            "from multiprocessing import forkserver, resource_tracker\n"
            "from repro.parallel import WorkerPool\n"
            "if __name__ == '__main__':\n"
            "    pool = WorkerPool(workers=2)\n"
            "    pool.start()\n"
            "    pids = [slot.process.pid for slot in pool._slots]\n"
            "    pids += [forkserver._forkserver._forkserver_pid,\n"
            "             resource_tracker._resource_tracker._pid]\n"
            "    with open(sys.argv[1] + '.tmp', 'w') as out:\n"
            "        json.dump(pids, out)\n"
            "    os.replace(sys.argv[1] + '.tmp', sys.argv[1])\n"
            "    time.sleep(600)\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["TMPDIR"] = str(tmp_path)  # the forkserver's socket directory

        def running(pid):
            # an exited orphan may linger as a zombie of a non-reaping init
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    return stat.read().rpartition(")")[2].split()[0] != "Z"
            except FileNotFoundError:
                return False

        pids = []
        # Output goes to a file: orphans holding an inherited pipe would
        # keep a reader waiting for EOF.
        with open(tmp_path / "coordinator.log", "w") as log:
            coordinator = subprocess.Popen(
                [sys.executable, str(script), str(pids_path)],
                stdout=log, stderr=log, env=env, cwd=tmp_path,
            )
        try:
            deadline = time.monotonic() + 120
            while not pids_path.exists():
                assert coordinator.poll() is None, (
                    tmp_path / "coordinator.log").read_text()[-2000:]
                assert time.monotonic() < deadline, "pool did not start"
                time.sleep(0.05)
            pids = json.loads(pids_path.read_text())
            assert len(pids) == 4 and all(pids), pids
            coordinator.kill()
            coordinator.wait(timeout=10)
            deadline = time.monotonic() + HEARTBEAT_INTERVAL + 3.0
            while any(map(running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if running(pid)] == []
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.wait(timeout=10)
            for pid in filter(running, pids):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_pool_rejects_zero_workers(self):
        with pytest.raises(PoolError):
            WorkerPool(workers=0)


class TestRepeatingHandle:
    """Scheduler.every handles must track the live chain."""

    def test_time_follows_the_next_firing(self):
        env = Environment(seed=0)
        handle = env.every(2.0, lambda: None)
        assert handle.time == 2.0
        env.run_for(5.0)
        assert handle.time == 6.0

    def test_cancel_stops_the_chain_after_firings(self):
        env = Environment(seed=0)
        ticks = []
        handle = env.every(1.0, lambda: ticks.append(env.now))
        env.run_for(3.5)
        assert ticks == [1.0, 2.0, 3.0]
        handle.cancel()
        assert handle.cancelled
        env.run_for(5.0)
        assert ticks == [1.0, 2.0, 3.0]

    def test_start_delay_re_arms_at_captured_phase(self):
        env = Environment(seed=0)
        ticks = []
        env.every(2.0, lambda: ticks.append(env.now), start_delay=0.5)
        env.run_for(5.0)
        assert ticks == [0.5, 2.5, 4.5]


class TestWorldImageShape:
    def test_image_is_picklable_and_self_describing(self):
        fleet, _ = deployed_world()
        image = fleet.capture_image()
        assert isinstance(image, WorldImage)
        clone = pickle.loads(pickle.dumps(image))
        assert clone.households == 5
        assert clone.build == "replay"
        assert len(clone.device_states) == 5
        assert len(clone.app_states) == 5

    def test_restore_is_repeatable_from_one_image(self):
        fleet, _ = deployed_world()
        image = fleet.capture_image()
        first = FleetDeployment.from_image(
            image, observer=Observability(trace_messages=True)
        )
        second = FleetDeployment.from_image(
            image, observer=Observability(trace_messages=True)
        )
        assert first.bound_users() == second.bound_users()
        assert first.cloud.state_counts() == second.cloud.state_counts()
