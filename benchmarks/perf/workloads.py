"""The five fixed-work workloads of the perf benchmark.

Each workload is a function ``(RunConfig, end_trace) -> Outcome``.  It
builds its world (several times, so ``setup_s`` is a median), runs a
fixed amount of work in one closed loop, calls *end_trace* the moment
the measured window closes, and then checks the program's outputs.

The work is a count, never a time limit: each workload pins its
operation count below, so the same arguments always mean the same work.
A faster commit finishes sooner; it does not do more work, grow a larger
audit and forensic heap, and report a worse tail for it.  The counts are
sized so each window takes about ``run.RUN_SECONDS`` on a 2-core host at
the commit that introduced the benchmark.

All inputs derive from ``RunConfig.seed``; the program receives only
the generated inputs.
"""

from __future__ import annotations

import gc
import itertools
import json
import pathlib
import random
import resource
import statistics
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing import forkserver, resource_tracker
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.evaluator import VendorEvaluation
from repro.attacks import runner
from repro.chaos import ChaosSpec, apply_chaos
from repro.cloud.state.backends import MemoryBackend
from repro.cloud.state.journal import meta_entry, recover_from_journal
from repro.core.errors import RequestRejected
from repro.core.messages import BindMessage, DeviceFetch, UnbindMessage
from repro.fleet import FleetDeployment
from repro.net.network import Network
from repro.obs import Observability
from repro.obs.slo import LatencySketch, RedAccounting
from repro.parallel import engine
from repro.parallel.pool import WorkerPool
from repro.secure import SECURE_BASELINES
from repro.sim.environment import Environment
from repro.vendors import DLINK, ELINK, KONKE, OZWI, STUDIED_VENDORS

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
MATRIX_FIXTURE = ROOT / "tools" / "design_matrix_fixture.json"

#: The attacker's internet host in every fleet world.
ATTACKER = "attacker:host"

#: All thirteen designs: ten studied vendors plus three secure baselines.
ALL_DESIGNS = tuple(STUDIED_VENDORS) + tuple(SECURE_BASELINES)

EndTrace = Callable[[], None]


@dataclass(frozen=True)
class RunConfig:
    """What one run is asked to do (the generated inputs derive from it)."""

    seed: int
    scale: float = 1.0
    #: how many times the world is built; ``setup_s`` is their median
    setups: int = 5
    #: read the host gauge (a traced run reports no timings to scale)
    gauge: bool = True

    def size(self, full: int, floor: int = 1) -> int:
        """A world dimension or work count shrunk by ``--scale`` (never below *floor*)."""
        return max(floor, round(full * self.scale))


#: Operations per measured block; a block needs 1000 operations for its
#: p99 to have ten samples beyond it.
BLOCK_OPS = 1000


#: Steps of the reference loop.
REFERENCE_STEPS = 2500
#: The reference loop's time on the host the benchmark was sized on, a
#: 2-vCPU VM, while no neighbour slowed it.  Reported times are scaled
#: to a host that runs the loop in exactly this long.
REFERENCE_NS = 300_000


def _reference_loop(table: Dict[int, int]) -> None:
    """A fixed piece of interpreter work that allocates no tracked objects.

    It never triggers a collection, so reading the gauge leaves the
    program's collector schedule, and with it every count, unchanged.
    """
    total = 0
    for step in range(REFERENCE_STEPS):
        total = (total + table[step & 255] + step) & 0xFFFF
        table[step & 255] = total


@dataclass(frozen=True)
class Span:
    """A timed stretch of a run and how fast the host was during it."""

    wall_s: float
    #: mean reference-loop time (ns) over the readings at its start, inside
    #: it and at its end
    ref_ns: float


class HostGauge:
    """Gauges the host's speed by timing the reference loop.

    Other tenants of the host slow its vCPUs by up to 2x, in episodes of
    a fraction of a second to minutes, so a whole run can be slow.  The
    gauge is read at the start and end of every span (set-up, block) and,
    in long spans, between operations; a span's times then scale by
    ``REFERENCE_NS / span.ref_ns`` (see :func:`host_corrected`).
    Readings are never taken inside a timed operation.
    """

    def __init__(self, enabled: bool = True) -> None:
        #: a disabled gauge runs no loop and reads ``REFERENCE_NS``
        self.enabled = enabled
        self.readings = array("q")
        self._table = dict.fromkeys(range(256), 0)
        self._started = 0.0
        self._first = 0

    def sample(self) -> None:
        """Read the gauge (inside a span, between operations)."""
        if not self.enabled:
            self.readings.append(REFERENCE_NS)
            return
        started = perf_counter_ns()
        _reference_loop(self._table)
        self.readings.append(perf_counter_ns() - started)

    def start(self) -> None:
        """Read the gauge and start a span."""
        self.sample()
        self._first = len(self.readings) - 1
        self._started = time.perf_counter()

    def stop(self) -> Span:
        """End the span begun by the last :meth:`start`, reading the gauge."""
        wall = time.perf_counter() - self._started
        self.sample()
        return Span(wall, statistics.fmean(self.readings[self._first:]))

    def lap(self) -> Span:
        """End the current span and start the next; both share a reading."""
        span = self.stop()
        self._first = len(self.readings) - 1
        self._started = time.perf_counter()
        return span

    def median(self) -> float:
        """The median reading (ns): how fast the host ran over the run."""
        return statistics.median(self.readings)


@dataclass(frozen=True)
class Block:
    """A group of measured operations: how many, their quantiles, its span."""

    ops: int
    p50_us: float
    tail_us: float
    span: Span


@dataclass
class Outcome:
    """What a workload measured and whether its outputs were right."""

    op_name: str
    #: one span per set-up (see :func:`_set_up`)
    setups: List[Span]
    ops: int
    failed: int
    #: the measured window as blocks (see :func:`host_corrected`)
    blocks: List[Block]
    #: the gauge's median reading (ns) over the run
    median_ref_ns: float
    #: deterministic for a given seed; compared across repeats
    counts: Dict[str, Any]
    #: failed output checks (empty when every check passed)
    failures: List[str]
    #: per-layer values read from the program's own outputs
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def window_s(self) -> float:
        """The measured window's wall time, as measured (gauge readings excluded)."""
        return sum(block.span.wall_s for block in self.blocks)


def tail_quantile(samples: int) -> float:
    """The highest of p99/p98/p97/p95 that leaves at least ten samples
    beyond it; p90 for blocks too small for any of them."""
    for percentile in (99, 98, 97, 95):
        if samples * (100 - percentile) >= 1000:
            return percentile / 100
    return 0.90


def _rank(ordered: List[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def block_from_ns(samples: array, span: Span) -> Block:
    """A block from its per-operation latencies (ns) and its span."""
    ordered = sorted(samples)
    return Block(
        ops=len(ordered),
        p50_us=_rank(ordered, 0.5) / 1000.0,
        tail_us=_rank(ordered, tail_quantile(len(ordered))) / 1000.0,
        span=span,
    )


def _faster_half_mean(values: List[float]) -> float:
    ordered = sorted(values)
    return statistics.fmean(ordered[:(len(ordered) + 1) // 2])


def host_corrected(outcome: Outcome) -> Dict[str, float]:
    """The timing metrics, each span scaled to the reference host.

    A span's times scale by ``REFERENCE_NS`` over the span's mean
    reading, so a block run while another tenant slowed the vCPU counts
    about as if it had not been.  ``setup_s`` is the median set-up;
    ``ops_per_s`` is all operations over the whole window's scaled time.
    ``op_p50_us`` and ``op_tail_us`` average each block's scaled
    quantile over the faster half of the blocks: the loop tracks the
    interpreter better than the collector's memory-bound pauses, so the
    blocks a neighbour slowed most stay slow after scaling.  Every block
    is timed and scaled; the half is fixed in advance.
    """
    def scale(span: Span) -> float:
        return REFERENCE_NS / span.ref_ns

    blocks = outcome.blocks
    return {
        "setup_s": statistics.median(span.wall_s * scale(span) for span in outcome.setups),
        "ops_per_s": outcome.ops / sum(block.span.wall_s * scale(block.span)
                                       for block in blocks),
        "op_p50_us": _faster_half_mean([block.p50_us * scale(block.span) for block in blocks]),
        "op_tail_us": _faster_half_mean([block.tail_us * scale(block.span)
                                         for block in blocks]),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _set_up(
    count: int,
    build: Callable[[], Any],
    gauge: HostGauge,
    teardown: Optional[Callable[[Any], None]] = None,
) -> Tuple[Any, List[Span]]:
    """Build the world *count* times; keep the last, time each build.

    The previous world is torn down (untimed) before the next is built.
    """
    world, spans = None, []
    for _ in range(count):
        if world is not None and teardown is not None:
            teardown(world)
        world = None
        gc.collect()
        gauge.start()
        world = build()
        spans.append(gauge.stop())
    gc.collect()  # every window starts from the same collector state
    return world, spans


def _timed_requests(
    request: Callable[..., Any], cloud: str, messages: List[Any], codes: List[str],
    latencies: array, errors: List[str],
) -> None:
    """Send *messages* from the attacker, one at a time, timing each."""
    clock = perf_counter_ns
    append_code, append_latency = codes.append, latencies.append
    for message in messages:
        started = clock()
        try:
            request(ATTACKER, cloud, message)
            code = "ok"
        except RequestRejected as exc:
            code = exc.code
        except Exception:  # a failed operation, counted rather than fatal
            code = "error"
            if not errors:
                errors.append(traceback.format_exc())
        append_latency(clock() - started)
        append_code(code)


# -- probe-sweep -----------------------------------------------------------

PROBE_HOUSEHOLDS = 2000
PROBE_SETTLE_S = 12.0
#: probes cycle over this multiple of the fleet's ID span
PROBE_SPAN_FACTOR = 4
PROBE_REQUESTS = 450_000


def probe_sweep(config: RunConfig, end_trace: EndTrace) -> Outcome:
    """Read-path probes against a deployed OZWI fleet.

    Alternating ``DeviceFetch`` and token-bearing ``UnbindMessage`` over
    a seeded permutation of 4x the fleet's sequential ID span: 3 of 4
    IDs are unknown, known fetches succeed (OZWI authenticates devices
    by ID alone) and the attacker's unbinds are refused, so no request
    writes to a store and the authorization cache mostly hits.
    """
    households = config.size(PROBE_HOUSEHOLDS, 10)

    def build() -> FleetDeployment:
        fleet = FleetDeployment(OZWI, households=households, seed=config.seed)
        fleet.setup_all()
        fleet.run(PROBE_SETTLE_S)
        fleet.attacker_token()
        return fleet

    gauge = HostGauge(config.gauge)
    fleet, setups = _set_up(config.setups, build, gauge)
    known = {household.device.device_id for household in fleet.households}
    ids = list(itertools.islice(
        fleet.id_scheme.candidates(), PROBE_SPAN_FACTOR * households
    ))
    random.Random(config.seed).shuffle(ids)
    token = fleet.attacker_token()
    cycle = [
        message
        for device_id in ids
        for message in (DeviceFetch(device_id=device_id),
                        UnbindMessage(device_id=device_id, user_token=token))
    ]
    total = config.size(PROBE_REQUESTS, floor=2 * len(cycle))
    messages = [cycle[k % len(cycle)] for k in range(total)]
    audit_before = len(fleet.cloud.audit)
    bound_before = fleet.bound_users()
    codes: List[str] = []
    blocks: List[Block] = []
    errors: List[str] = []

    gauge.start()
    for start in range(0, total, BLOCK_OPS):
        latencies = array("q")
        _timed_requests(fleet.network.request, fleet.cloud.node_name,
                        messages[start:start + BLOCK_OPS], codes, latencies, errors)
        blocks.append(block_from_ns(latencies, gauge.lap()))
    end_trace()

    failures = list(errors)
    if not known <= set(ids):
        failures.append("fleet IDs fall outside the probed span")
    first = codes[:len(cycle)]
    for offset in range(len(cycle), total, len(cycle)):
        if codes[offset:offset + len(cycle)] != first[:total - offset]:
            failures.append(f"probe cycle at request {offset} differs from cycle 0")
            break
    for position, message in enumerate(cycle):
        code = first[position]
        if message.device_id in known and isinstance(message, DeviceFetch):
            ok = code == "ok"
        else:
            ok = code not in ("ok", "error")
        if not ok:
            failures.append(
                f"{type(message).__name__}({message.device_id}) answered {code!r}"
            )
            break
    if len(fleet.cloud.audit) - audit_before != total:
        failures.append("audit entries added != requests sent")
    if fleet.bound_users() != bound_before:
        failures.append("a probe changed a binding")
    return Outcome(
        op_name="requests",
        setups=setups,
        ops=total,
        failed=codes.count("error"),
        blocks=blocks,
        median_ref_ns=gauge.median(),
        counts={"requests": total, "codes": dict(sorted(Counter(codes).items()))},
        failures=failures,
    )


# -- rebind-storm ------------------------------------------------------------

REBIND_HOUSEHOLDS = 500
REBIND_SETTLE_S = 12.0
#: virtual seconds of heartbeats between two sweeps
REBIND_HEARTBEATS_S = 5.0
#: one sweep (500 binds at full size) is one measured block
REBIND_SWEEPS = 140


def _seed_journal(fleet: FleetDeployment) -> MemoryBackend:
    """Seed a journal with the cloud's durable state and attach it.

    The same construction ``repro.chaos.campaign`` uses before a cloud
    restart, so recovery replays a complete history.
    """
    cloud = fleet.cloud
    backend = MemoryBackend()
    backend.append(meta_entry(cloud.design.name))
    for name, store in cloud.state_stores().items():
        if store.durable:
            for record in store.snapshot_state():
                backend.append({"store": name, "op": "put", "record": record})
    cloud.attach_journal(backend, write_meta=False)
    return backend


def rebind_storm(config: RunConfig, end_trace: EndTrace) -> Outcome:
    """Write-path sweeps: mass rebind on KONKE with a journal attached.

    KONKE's Bind replaces an existing binding, so every request tears a
    binding down, creates one, appends journal records and bumps the
    authorization epoch: the cache is invalidated on every write.
    """
    households = config.size(REBIND_HOUSEHOLDS, 10)

    def build() -> Tuple[FleetDeployment, MemoryBackend]:
        fleet = FleetDeployment(KONKE, households=households, seed=config.seed)
        fleet.setup_all()
        fleet.run(REBIND_SETTLE_S)
        backend = _seed_journal(fleet)
        fleet.attacker_token()
        return fleet, backend

    gauge = HostGauge(config.gauge)
    (fleet, backend), setups = _set_up(config.setups, build, gauge)
    ids = [household.device.device_id for household in fleet.households]
    random.Random(config.seed).shuffle(ids)
    token = fleet.attacker_token()
    sweep = [BindMessage(device_id=device_id, user_token=token) for device_id in ids]
    sweeps = config.size(REBIND_SWEEPS)
    codes: List[str] = []
    blocks: List[Block] = []
    errors: List[str] = []

    gauge.start()
    for _ in range(sweeps):
        latencies = array("q")
        _timed_requests(fleet.network.request, fleet.cloud.node_name, sweep,
                        codes, latencies, errors)
        fleet.run(REBIND_HEARTBEATS_S)
        blocks.append(block_from_ns(latencies, gauge.lap()))
    end_trace()

    failures = list(errors)
    per_sweep = [
        Counter(codes[i:i + len(sweep)]) for i in range(0, len(codes), len(sweep))
    ]
    if any(counts != per_sweep[0] for counts in per_sweep):
        failures.append("sweeps disagree on their served/rejected counts")
    if set(fleet.bound_users().values()) != {fleet.attacker_user}:
        failures.append("a device escaped the rebind storm")
    recover_started = time.perf_counter()
    env = Environment(seed=config.seed)
    recovery = recover_from_journal(env, Network(env), fleet.design, backend)
    recover_s = time.perf_counter() - recover_started
    recovered = recovery.cloud
    for store in ("bindings", "accounts"):
        live = fleet.cloud.state_stores()[store].snapshot_state()
        if recovered.state_stores()[store].snapshot_state() != live:
            failures.append(f"journal recovery does not reproduce the {store}")
    return Outcome(
        op_name="bind requests",
        setups=setups,
        ops=len(codes),
        failed=codes.count("error"),
        blocks=blocks,
        median_ref_ns=gauge.median(),
        counts={
            "requests": len(codes),
            "codes": dict(sorted(Counter(codes).items())),
            "journal_entries": backend.entry_count(),
        },
        failures=failures,
        layers={
            "cloud.state.recover_entries_per_s": (
                (recovery.entries_applied + recovery.entries_discarded) / recover_s
            ),
        },
    )


# -- fleet-day ---------------------------------------------------------------

FLEET_DAY_HOUSEHOLDS = 32
FLEET_DAY_PLAN = "flaky-wan"
#: virtual seconds each of the 26 worlds runs
FLEET_DAY_HORIZON_S = 610.0
#: the worlds advance round-robin in this many equal chunks; each chunk
#: is one measured block
FLEET_DAY_CHUNKS = 40


def fleet_day(config: RunConfig, end_trace: EndTrace) -> Outcome:
    """A day of heartbeats under chaos for all 13 designs, observed and calm.

    Each design runs twice from the same seed: once under
    ``Observability(trace_messages=True)`` and once as a calm twin with
    the null observer, alternating which goes first.  The operation is
    one cloud request (an audit entry); its latency is the observed
    twins' RED handle time, merged across designs per chunk.
    """
    households = config.size(FLEET_DAY_HOUSEHOLDS, 2)
    # at least 10 virtual seconds (two heartbeats) per chunk
    horizon = max(10.0 * FLEET_DAY_CHUNKS, FLEET_DAY_HORIZON_S * config.scale)

    def build() -> List[Tuple[bool, Any, Any, Any]]:
        worlds = []
        for index, design in enumerate(ALL_DESIGNS):
            order = (True, False) if index % 2 == 0 else (False, True)
            for observed in order:
                obs = Observability(trace_messages=True) if observed else None
                fleet = FleetDeployment(design, households=households,
                                        seed=config.seed * 100 + index, observer=obs)
                controller = apply_chaos(fleet, ChaosSpec(plan=FLEET_DAY_PLAN))
                fleet.setup_all()
                worlds.append((observed, fleet, obs, controller))
        return worlds

    gauge = HostGauge(config.gauge)
    worlds, setups = _set_up(config.setups, build, gauge)
    walls = {True: 0.0, False: 0.0}
    served = {True: 0, False: 0}
    blocks: List[Block] = []

    gauge.start()
    for _ in range(FLEET_DAY_CHUNKS):
        for _, _, obs, _ in worlds:
            if obs is not None:
                obs.red = RedAccounting()  # this chunk's handle times only
        for observed, fleet, _, _ in worlds:
            before = len(fleet.cloud.audit)
            started = time.perf_counter()
            fleet.run(horizon / FLEET_DAY_CHUNKS)
            walls[observed] += time.perf_counter() - started
            served[observed] += len(fleet.cloud.audit) - before
        sketch = LatencySketch()
        for _, _, obs, _ in worlds:
            if obs is not None:
                sketch.merge_snapshot(obs.red.combined_sketch().snapshot())
        blocks.append(Block(
            ops=sketch.count,  # the observed twins' requests: the quantiles' sample
            p50_us=sketch.quantile(0.5),
            tail_us=sketch.quantile(tail_quantile(sketch.count)),
            span=gauge.lap(),
        ))
    end_trace()

    failures: List[str] = []
    counts: Dict[str, Any] = {}
    layers = {"chaos.dropped": 0, "chaos.duplicates": 0, "chaos.retries": 0}
    twins: Dict[str, Dict[bool, Tuple[int, Dict[str, int]]]] = {}
    for observed, fleet, obs, controller in worlds:
        name = fleet.design.name
        injector = controller.injector.summary()
        twins.setdefault(name, {})[observed] = (len(fleet.cloud.audit), injector)
        if observed:
            if not obs.matches_audit(fleet.cloud.audit):
                failures.append(f"{name}: observer counters disagree with the audit log")
            layers["chaos.dropped"] += injector["dropped"]
            layers["chaos.duplicates"] += injector["duplicates"]
            layers["chaos.retries"] += controller.resilience_stats().get("retries", 0)
    for name, pair in twins.items():
        if pair[True] != pair[False]:
            failures.append(f"{name}: observed and calm twins diverged")
        counts[name] = {"audit_entries": pair[True][0], "injector": pair[True][1]}
    layers["obs.overhead_ratio"] = (
        (served[False] / walls[False]) / (served[True] / walls[True]) - 1.0
    )
    return Outcome(
        op_name="cloud requests",
        setups=setups,
        ops=served[True] + served[False],
        failed=0,
        blocks=blocks,
        median_ref_ns=gauge.median(),
        counts=counts,
        failures=failures,
        layers=layers,
    )


# -- detect-sweep ------------------------------------------------------------

DETECT_DESIGNS = (OZWI, KONKE, ELINK, DLINK)
DETECT_HOUSEHOLDS = 200
DETECT_PROBES = 2000
DETECT_WORKERS = 2
DETECT_PASSES = 10


def _close_pool(pool: WorkerPool) -> None:
    """Close *pool* and the queues ``WorkerPool.close`` leaves open.

    The pool joins its workers but not each slot's queues, whose feeder
    threads keep the queues' semaphores alive; closing them releases
    the semaphores before the resource tracker is stopped.

    Follow-up: ``WorkerPool.close`` (``src/repro/parallel/pool.py``)
    should close its slot queues itself.  Once it does, delete the loop
    below, which reaches into the pool's private ``_slots``.
    """
    pool.close()
    for slot in pool._slots:
        for channel in (slot.task_queue, slot.out_queue):
            channel.close()
            channel.join_thread()


def _shut_down(pools: List[WorkerPool]) -> None:
    """Close the pools, then stop and reap the helper processes they used.

    The forkserver and the resource tracker otherwise outlive the pools
    until this process exits; stopping them here means every process
    the benchmark started has ended (and their peak RSS is visible
    through ``RUSAGE_CHILDREN``).  ``multiprocessing`` has no public
    call that stops either helper, hence the private ``_stop``; the
    ``getattr`` keeps a Python without it working, with the helpers
    then ending at this process's exit.
    """
    while pools:
        _close_pool(pools.pop())
    gc.collect()
    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def detect_sweep(config: RunConfig, end_trace: EndTrace) -> Outcome:
    """Sharded detection campaigns through one caller-owned worker pool.

    A pass is every campaign in ``engine.CAMPAIGNS`` against four
    designs.  Set-up is pool start plus the first (cold) pass; later
    passes restore cached world images, except ``binding-dos``, which
    always builds cold.  Each measured pass is one block of 16
    campaigns, so its tail is a p90.
    """
    households = config.size(DETECT_HOUSEHOLDS, 4)
    probes = config.size(DETECT_PROBES, 40)
    passes = config.size(DETECT_PASSES)
    gauge = HostGauge(config.gauge)

    def run_pass(pool: WorkerPool, walls: array) -> List[Any]:
        """One campaign per (design, campaign kind); appends each wall time (ns).

        A pass takes seconds, so the gauge is also read between campaigns.
        """
        results = []
        for design in DETECT_DESIGNS:
            for campaign in engine.CAMPAIGNS:
                started = perf_counter_ns()
                results.append(engine.run_campaign(
                    design, campaign=campaign, households=households,
                    max_probes=probes, workers=DETECT_WORKERS, seed=config.seed,
                    worker_pool=pool, detect=True,
                ))
                walls.append(perf_counter_ns() - started)
                gauge.sample()
        return results

    pools: List[WorkerPool] = []
    baselines: List[List[Dict[str, Any]]] = []

    def build() -> WorkerPool:
        pool = WorkerPool(workers=DETECT_WORKERS)
        pools.append(pool)
        pool.start()
        baselines.append([result.to_dict() for result in run_pass(pool, array("q"))])
        return pool

    pool = None
    try:
        setups = _set_up(config.setups, build, gauge, teardown=_close_pool)[1]
        pool = pools[-1]
        pass_walls = [array("q") for _ in range(passes)]
        window_passes, blocks = [], []
        gauge.start()
        for walls in pass_walls:
            window_passes.append(run_pass(pool, walls))
            blocks.append(block_from_ns(walls, gauge.lap()))
        end_trace()
        image_cache = pool.stats()["image_cache"]
    finally:
        pool = None
        _shut_down(pools)

    failures: List[str] = []
    reference = baselines[-1]
    if any(baseline != reference for baseline in baselines):
        failures.append("cold set-up passes disagree")
    for number, results in enumerate(window_passes, start=1):
        if any(not result.consistent for result in results):
            failures.append(f"pass {number}: merged metrics disagree with shard audits")
        if [result.to_dict() for result in results] != reference:
            failures.append(f"pass {number}: warm results differ from the cold pass")
    results = [result for results in window_passes for result in results]
    campaign_seconds = sum(sum(walls) for walls in pass_walls) / 1e9
    shards = [shard for result in results for shard in result.shard_results]
    shard_seconds = sum(shard.wall_seconds for shard in shards)
    pool_seconds = sum(result.wall_seconds for result in results)
    authz = {"hits": 0, "lookups": 0, "invalidations": 0}
    for result in results:
        for key in authz:
            authz[key] += result.runtime_stats["authz_cache"][key]
    lookups = image_cache["hits"] + image_cache["misses"]
    # Worker-side time comes from the returned ShardResults: shares of the
    # shards' own wall time, or of the coordinator's campaign wall time.
    layers = {
        "parallel.world_share": (
            sum(shard.world_seconds for shard in shards) / shard_seconds
        ),
        "fleet.restore_share": sum(
            shard.world_seconds for shard in shards if shard.world_source == "warm"
        ) / shard_seconds,
        "parallel.dispatch_share": sum(
            result.wall_seconds - max(shard.wall_seconds for shard in result.shard_results)
            for result in results
        ) / campaign_seconds,
        "parallel.merge_share": (campaign_seconds - pool_seconds) / campaign_seconds,
        "parallel.warm_ratio": (
            sum(shard.world_source == "warm" for shard in shards) / len(shards)
        ),
        "parallel.utilization": shard_seconds / (DETECT_WORKERS * pool_seconds),
        "parallel.image_hit_rate": image_cache["hits"] / lookups if lookups else 0.0,
        "cloud.authz.lookups": authz["lookups"],
        "cloud.authz.invalidations": authz["invalidations"],
        "cloud.authz.hit_rate": authz["hits"] / authz["lookups"] if authz["lookups"] else 0.0,
    }
    return Outcome(
        op_name="campaigns",
        setups=setups,
        ops=len(results),
        failed=0,
        blocks=blocks,
        median_ref_ns=gauge.median(),
        counts={
            "campaigns": len(results),
            "shards": len(shards),
            "audit_entries": sum(result.audit_entries_total for result in results),
            "ids_hit": sum(result.report.ids_hit for result in results),
        },
        failures=failures,
        layers=layers,
    )


# -- attack-battery ----------------------------------------------------------

#: seeds per measured block (351 attacks)
ATTACK_SEEDS_PER_BLOCK = 3
ATTACK_BLOCKS = 36
#: warm-up batteries per set-up (seeds outside the measured range)
ATTACK_WARMUP_SEEDS = 2


def attack_battery(config: RunConfig, end_trace: EndTrace) -> Outcome:
    """The Table III battery: every attack on every design, fresh worlds.

    Each ``run_attack`` builds a new ``Deployment`` and stages the
    targeted state through the Figure 1 flows, so world construction
    and the policy compile path dominate.  Consecutive seeds from
    ``seed * 100000``; outcomes must equal the pinned design matrix for
    every seed.
    """
    pinned = json.loads(MATRIX_FIXTURE.read_text(encoding="utf-8"))["designs"]
    base = config.seed * 100_000
    block_count = config.size(ATTACK_BLOCKS)
    outcomes: Counter = Counter()
    mismatches: List[str] = []

    def battery(seed: int, latencies: Optional[array]) -> None:
        """All attacks on all designs for *seed*, checked when recorded."""
        clock = perf_counter_ns
        for design in ALL_DESIGNS:
            reports = {}
            for attack_id in runner.ATTACK_IDS:
                started = clock()
                reports[attack_id] = runner.run_attack(design, attack_id, seed=seed)
                if latencies is not None:
                    latencies.append(clock() - started)
            if latencies is None:
                continue
            got = {attack_id: report.outcome.value for attack_id, report in reports.items()}
            outcomes.update(got.values())
            want = pinned[design.name]
            if got != want["outcomes"] or VendorEvaluation(design, reports).cells() != want["cells"]:
                mismatches.append(f"seed {seed} {design.name}: matrix differs from the fixture")

    def build() -> None:
        for offset in range(ATTACK_WARMUP_SEEDS):
            battery(base + 90_000 + offset, None)

    gauge = HostGauge(config.gauge)
    _, setups = _set_up(config.setups, build, gauge)
    blocks: List[Block] = []
    gauge.start()
    for block in range(block_count):
        latencies = array("q")
        for offset in range(ATTACK_SEEDS_PER_BLOCK):
            battery(base + block * ATTACK_SEEDS_PER_BLOCK + offset, latencies)
        blocks.append(block_from_ns(latencies, gauge.lap()))
    end_trace()
    attacks = sum(block.ops for block in blocks)
    return Outcome(
        op_name="attacks",
        setups=setups,
        ops=attacks,
        failed=0,
        blocks=blocks,
        median_ref_ns=gauge.median(),
        counts={"attacks": attacks, "outcomes": dict(sorted(outcomes.items()))},
        failures=(
            [f"{len(mismatches)} batteries differ, first: {mismatches[0]}"]
            if mismatches else []
        ),
    )


#: Workload name -> implementation, in report order.
WORKLOADS: Dict[str, Callable[[RunConfig, EndTrace], Outcome]] = {
    "probe-sweep": probe_sweep,
    "rebind-storm": rebind_storm,
    "fleet-day": fleet_day,
    "detect-sweep": detect_sweep,
    "attack-battery": attack_battery,
}
