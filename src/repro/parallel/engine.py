"""The sharded campaign engine: partition, fan out, merge.

Section V-C frames binding DoS as an attack on "the entire product
series of a vendor"; this module is what lets the reproduction actually
operate at product-series scale.  A campaign over N households is
partitioned into S independent shards (each its own simulated world —
own cloud, scheduler, RNG), the shards run across worker processes, and
the results are merged deterministically:

* shard *i* seeds its world with
  :func:`~repro.parallel.shards.derive_shard_seed`, so re-runs are
  reproducible and a one-worker run bit-matches the serial path;
* per-shard :class:`~repro.attacks.campaign.CampaignReport`\\ s merge via
  :meth:`CampaignReport.merge` and metric snapshots fold into one
  :class:`~repro.obs.metrics.MetricsRegistry` as the shards come back;
* each shard ships its observations as one
  :func:`~repro.obs.export.capture` blob (spans, SLO, profile, RED),
  and the merged snapshot — shard provenance via
  :func:`~repro.obs.export.merge_snapshots` — is rendered from the
  blobs on the first read of :attr:`ShardedCampaignResult.snapshot`,
  so a campaign nobody inspects never builds its span dicts;
* merge order is shard order, never completion order, so worker
  scheduling cannot leak into the results.

:func:`run_shard` is the worker entry point: a module-level function
over a picklable :class:`ShardSpec`, so it works under every
``multiprocessing`` start method.  One shard runs inline; more run
through a :class:`~repro.parallel.pool.WorkerPool`, whose workers
warm-start deployed worlds from cached
:class:`~repro.fleet.WorldImage`\\ s — see ``docs/performance.md`` for
the cost model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional

from repro.attacks.campaign import (
    CampaignReport,
    campaign_binding_dos,
    campaign_mass_rebind,
    campaign_mass_unbind,
    campaign_shadow_probe,
)
from repro.chaos.campaign import (
    ChaosSpec,
    apply_chaos,
    binding_liveness,
    merge_liveness,
)
from repro.cloud.policy import VendorDesign
from repro.core.errors import ConfigurationError
from repro.fleet import FleetDeployment
from repro.obs.detect.pipeline import DetectionPipeline
from repro.obs.detect.score import merge_detection, score_detection
from repro.obs.export import capture, merge_snapshots, render
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import Observability
from repro.parallel.pool import WorkerPool
from repro.parallel.protocol import DEPLOYED_CAMPAIGNS, WorldImageCache, world_key
from repro.parallel.shards import derive_shard_seed, partition

#: Campaigns the engine can shard.
CAMPAIGNS = ("binding-dos", "mass-unbind", "shadow-probe", "mass-rebind")


@dataclass(frozen=True)
class ShardSpec:
    """Everything one worker needs to run its shard (picklable)."""

    shard_index: int
    shards: int
    design: VendorDesign
    campaign: str
    households: int
    max_probes: int
    seed: int
    request_rate: float = 3000.0
    build: str = "replay"
    run_seconds: float = 12.0
    trace_messages: bool = True
    snapshot_max_spans: Optional[int] = None
    #: optional chaos configuration; the plan is materialized inside the
    #: shard world so its fault RNG derives from the shard seed
    chaos: Optional[ChaosSpec] = None
    #: attach a read-only detection pipeline to the shard cloud and
    #: score it against ground truth (never perturbs the world)
    detect: bool = False


@dataclass
class ShardResult:
    """What one shard hands back for merging (picklable)."""

    shard_index: int
    seed: int
    report: CampaignReport
    metrics: Dict[str, Any]
    #: the shard's observations as one :func:`~repro.obs.export.capture`
    #: blob: immutable, GC-untracked, rendered only when read
    observations: bytes
    audit_entries: int
    matches_audit: bool
    wall_seconds: float
    #: per-store ``{records, mutations}`` from the shard cloud's state
    #: layer (``CloudService.state_counts``), captured at shard end
    state_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: chaos summary for this shard (plan, injector stats, restarts,
    #: resilience totals, binding liveness); ``None`` on calm runs
    chaos: Optional[Dict[str, Any]] = None
    #: detection score for this shard (``repro.obs.detect.score``);
    #: ``None`` when the shard ran without detection
    detection: Optional[Dict[str, Any]] = None
    #: how this shard's world came to be: ``"cold"`` (built + set up in
    #: place) or ``"warm"`` (restored from a cached world image)
    world_source: str = "cold"
    #: wall seconds spent producing the ready-to-attack world (build +
    #: setup + settling run when cold, image restore when warm)
    world_seconds: float = 0.0
    #: observer-side runtime statistics (authorization-cache hit rates,
    #: …) captured at shard end.  Like pool stats, these describe the
    #: *execution*, not the campaign: they feed the report's "runtime"
    #: line only and never enter merged results, so pooled/warm runs
    #: stay bit-identical to serial.
    runtime: Dict[str, Any] = field(default_factory=dict)
    #: the span cap :attr:`obs_snapshot` applies (the spec's
    #: ``snapshot_max_spans``)
    snapshot_max_spans: Optional[int] = None

    @property
    def obs_snapshot(self) -> Dict[str, Any]:
        """The shard's observability snapshot, rendered on each read.

        Its ``metrics`` section is :attr:`metrics` itself, not a copy.
        """
        return render(
            self.observations, self.metrics, max_spans=self.snapshot_max_spans
        )


def run_shard(
    spec: ShardSpec, image_cache: Optional[WorldImageCache] = None
) -> ShardResult:
    """Run one shard in a fresh world; the worker-process entry point.

    Builds the shard's fleet from its derived seed, runs the campaign
    against it, and returns the report plus the shard's metric snapshot,
    its captured observations and its audit-consistency verdict.

    With an *image_cache*, deployed-campaign shards warm-start: the
    first run of a world captures a :class:`~repro.fleet.WorldImage`
    after setup + settling, and later shards over the same world key
    restore it instead of rebuilding (bit-identical results — the
    warm-start equality tests pin reports, audit logs, forensic
    timelines and metrics).  Chaos shards and ``binding-dos`` always
    run cold (:func:`~repro.parallel.protocol.world_key` is ``None``).
    """
    started = time.perf_counter()
    obs = Observability(trace_messages=spec.trace_messages)
    runner = {
        "binding-dos": campaign_binding_dos,
        "mass-unbind": campaign_mass_unbind,
        "shadow-probe": campaign_shadow_probe,
        "mass-rebind": campaign_mass_rebind,
    }.get(spec.campaign)
    if runner is None:
        raise ConfigurationError(f"unknown campaign {spec.campaign!r}")
    key = world_key(spec) if image_cache is not None else None
    image = image_cache.get(key) if key is not None else None
    controller = None
    if image is not None:
        # Warm start: restore the deployed world.  The detection pipeline
        # attached below sees campaign events live and back-fills history
        # via catch_up — alerts are seq-deduplicated, so this is
        # equivalent to having streamed the whole run.
        fleet = FleetDeployment.from_image(image, observer=obs)
    else:
        fleet = FleetDeployment(
            spec.design,
            households=spec.households,
            seed=spec.seed,
            observer=obs,
            build=spec.build,
        )
        if spec.chaos is not None:
            controller = apply_chaos(fleet, spec.chaos)
    pipeline: Optional[DetectionPipeline] = None
    if spec.detect:
        pipeline = DetectionPipeline()
        pipeline.attach(fleet.cloud)
    if image is None and spec.campaign in DEPLOYED_CAMPAIGNS:
        fleet.setup_all()
        fleet.run(spec.run_seconds)
    world_seconds = time.perf_counter() - started
    if key is not None and image is None:
        image_cache.put(key, fleet.capture_image())
    report = runner(
        fleet, max_probes=spec.max_probes, request_rate=spec.request_rate
    )
    # Publish per-store size/churn gauges before snapshotting metrics so
    # the shard's state-layer numbers ride the normal merge path.
    fleet.cloud.emit_state_gauges()
    chaos_summary: Optional[Dict[str, Any]] = None
    if controller is not None:
        chaos_summary = controller.summary()
        chaos_summary["intensity"] = spec.chaos.intensity
        chaos_summary["resilience_enabled"] = spec.chaos.resilience
        chaos_summary["liveness"] = binding_liveness(fleet)
    detection_score: Optional[Dict[str, Any]] = None
    if pipeline is not None:
        # A chaos CloudRestart replaces fleet.cloud with the recovered
        # successor; catch_up reads whichever cloud finished the run from
        # the first unseen seq (an unreplaced cloud has nothing new).
        pipeline.catch_up(fleet.cloud)
        detection_score = score_detection(
            fleet.cloud.forensics.events(), pipeline.alerts
        )
    return ShardResult(
        shard_index=spec.shard_index,
        seed=spec.seed,
        report=report,
        metrics=obs.metrics.snapshot(),
        observations=capture(obs),
        audit_entries=len(fleet.cloud.audit),
        matches_audit=obs.matches_audit(fleet.cloud.audit),
        wall_seconds=time.perf_counter() - started,
        state_counts=fleet.cloud.state_counts(),
        chaos=chaos_summary,
        detection=detection_score,
        world_source="cold" if image is None else "warm",
        world_seconds=world_seconds,
        runtime={"authz_cache": fleet.cloud.authz_cache.stats()},
        snapshot_max_spans=spec.snapshot_max_spans,
    )


@dataclass
class ShardedCampaignResult:
    """A merged sharded campaign: fleet-wide report plus provenance."""

    campaign: str
    vendor: str
    workers: int
    shards: int
    seed: int
    report: CampaignReport
    shard_results: List[ShardResult]
    metrics: MetricsRegistry
    wall_seconds: float
    details: List[str] = field(default_factory=list)
    #: :meth:`WorkerPool.stats` when the campaign ran through a worker
    #: pool; ``None`` on inline runs
    pool_stats: Optional[Dict[str, Any]] = None

    @cached_property
    def snapshot(self) -> Dict[str, Any]:
        """The merged observability snapshot, built on first read.

        :func:`~repro.obs.export.merge_snapshots` over the shards'
        :attr:`~ShardResult.obs_snapshot`\\ s in shard order, with each
        shard's seed as provenance and the campaign's span cap (every
        shard carries the same one).
        """
        return merge_snapshots(
            [result.obs_snapshot for result in self.shard_results],
            shard_meta=[{"seed": result.seed} for result in self.shard_results],
            max_spans=self.shard_results[0].snapshot_max_spans,
        )

    @property
    def audit_entries_total(self) -> int:
        """Sum of every shard's cloud audit-log length."""
        return sum(result.audit_entries for result in self.shard_results)

    @property
    def consistent(self) -> bool:
        """The sharded analogue of :meth:`Observability.matches_audit`.

        True iff every shard's counters matched its own audit log *and*
        the merged ``cloud.audit.entries`` total equals the sum of the
        shard audit-log lengths — i.e. no request was lost or double
        counted anywhere between the workers and the merge.
        """
        if not all(result.matches_audit for result in self.shard_results):
            return False
        merged_total = self.metrics.counter("cloud.audit.entries").total()
        return merged_total == self.audit_entries_total

    @property
    def liveness(self) -> Optional[Dict[str, float]]:
        """Fleet-wide binding liveness under chaos (``None`` when calm)."""
        per_shard = [
            result.chaos["liveness"]
            for result in self.shard_results
            if result.chaos is not None and "liveness" in result.chaos
        ]
        if not per_shard:
            return None
        return merge_liveness(per_shard)

    @property
    def state_counts(self) -> Dict[str, Dict[str, int]]:
        """Fleet-wide per-store ``{records, mutations}`` (summed shards)."""
        from repro.cloud.state.protocol import merge_state_counts

        return merge_state_counts(
            [result.state_counts for result in self.shard_results]
        )

    @property
    def detection(self) -> Optional[Dict[str, Any]]:
        """Fleet-wide detection score (``None`` when detection was off).

        Merged in shard order from the per-shard scores, so the result
        is bit-identical for any worker count over the same shards.
        """
        return merge_detection(
            [result.detection for result in self.shard_results]
        )

    @property
    def runtime_stats(self) -> Dict[str, Any]:
        """Execution-side statistics: authz-cache hit rates.

        Summed over shards from each :attr:`ShardResult.runtime`.  Part
        of the *runtime* report line only — deliberately excluded from
        merged campaign results and the default :meth:`to_dict`, so
        execution strategy never leaks into the bit-identical outputs.
        (Pool accounting lives in :attr:`pool_stats`.)
        """
        authz = {"hits": 0, "misses": 0, "lookups": 0, "invalidations": 0}
        for result in self.shard_results:
            stats = result.runtime.get("authz_cache", {})
            for key in authz:
                authz[key] += stats.get(key, 0)
        authz["hit_rate"] = (
            authz["hits"] / authz["lookups"] if authz["lookups"] else 0.0
        )
        return {"authz_cache": authz}

    def to_dict(self, include_pool: bool = False) -> Dict[str, Any]:
        """JSON-able report dict (what the benchmarks/CLI JSON consume).

        ``include_pool`` adds pool statistics and per-shard world
        provenance (warm vs cold, world-prep seconds).  It defaults off
        so the dict stays bit-identical to pre-pool runs — pool
        execution is an *engine* concern and must never leak into the
        campaign results themselves.
        """
        data: Dict[str, Any] = {
            "campaign": self.campaign,
            "vendor": self.vendor,
            "workers": self.workers,
            "shards": self.shards,
            "seed": self.seed,
            "households": self.report.households,
            "ids_probed": self.report.ids_probed,
            "ids_hit": self.report.ids_hit,
            "victims_denied": self.report.victims_denied,
            "denial_rate": self.report.denial_rate,
            "modelled_seconds": self.report.modelled_seconds,
            "details": list(self.report.details),
            "audit_entries": self.audit_entries_total,
            "consistent": self.consistent,
            "state_counts": self.state_counts,
        }
        liveness = self.liveness
        if liveness is not None:
            data["liveness"] = liveness
        detection = self.detection
        if detection is not None:
            data["detection"] = detection
        if include_pool:
            if self.pool_stats is not None:
                data["pool"] = dict(self.pool_stats)
            data["runtime"] = self.runtime_stats
            data["shard_worlds"] = [
                {
                    "shard": result.shard_index,
                    "world_source": result.world_source,
                    "world_seconds": result.world_seconds,
                }
                for result in self.shard_results
            ]
        return data

    def render(self) -> str:
        """Multi-line summary: merged report, shard table, consistency."""
        lines = [self.report.render(), ""]
        lines.append(
            f"sharded execution: {self.shards} shard(s) across "
            f"{self.workers} worker(s), base seed {self.seed}"
        )
        if self.pool_stats is not None:
            stats = self.pool_stats
            lines.append(
                f"worker pool: start={stats['start_method']} "
                f"tasks={stats['tasks']} warm={stats['warm_starts']} "
                f"cold={stats['cold_builds']} respawns={stats['respawns']} "
                f"utilization={stats['utilization']:.0%} world="
                f"{sum(r.world_seconds for r in self.shard_results):.2f}s"
            )
        authz = self.runtime_stats["authz_cache"]
        lines.append(
            f"runtime: authz-cache {authz['hits']}/{authz['lookups']} hits "
            f"({authz['hit_rate']:.0%})"
        )
        for result in self.shard_results:
            lines.append(
                f"  shard {result.shard_index}: seed={result.seed} "
                f"households={result.report.households} "
                f"probes={result.report.ids_probed} "
                f"denied={result.report.victims_denied} "
                f"audit={result.audit_entries} "
                f"wall={result.wall_seconds:.2f}s"
            )
        lines.append(
            "merged metrics vs shard audits: "
            f"{'consistent' if self.consistent else 'MISMATCH'} "
            f"({self.audit_entries_total} audit entries fleet-wide)"
        )
        liveness = self.liveness
        if liveness is not None:
            first = next(
                r.chaos for r in self.shard_results if r.chaos is not None
            )
            dropped = sum(
                r.chaos["injector"]["dropped"]
                for r in self.shard_results
                if r.chaos is not None
            )
            restarts = sum(
                r.chaos.get("restarts", 0)
                for r in self.shard_results
                if r.chaos is not None
            )
            lines.append(
                f"chaos: plan={first['plan']} "
                f"intensity={first.get('intensity', 1.0):g} "
                f"dropped={dropped} restarts={restarts}"
            )
            lines.append(
                f"binding liveness: bound {liveness['bound']}/"
                f"{liveness['households']} ({liveness['bound_fraction']:.0%})  "
                f"online {liveness['online']}/{liveness['households']} "
                f"({liveness['online_fraction']:.0%})"
            )
        state = self.state_counts
        if state:
            lines.append(
                "cloud state (records/mutations per store): "
                + "  ".join(
                    f"{name}={counts.get('records', 0)}/{counts.get('mutations', 0)}"
                    for name, counts in sorted(state.items())
                )
            )
        detection = self.detection
        if detection is not None:
            ttd = detection["time_to_detect"]
            lines.append(
                f"detection: precision={detection['precision']:.3f} "
                f"recall={detection['recall']:.3f} "
                f"fp-rate={detection['false_positive_rate']:.4f} "
                f"time-to-detect="
                + (f"{ttd:.3f}s" if ttd is not None else "undetected")
                + f" ({detection['alerts']} alerts over {detection['events']} events)"
            )
        return "\n".join(lines)


def build_shard_specs(
    design: VendorDesign,
    campaign: str = "binding-dos",
    households: int = 100,
    max_probes: int = 256,
    shards: int = 1,
    seed: int = 0,
    request_rate: float = 3000.0,
    build: str = "replay",
    run_seconds: float = 12.0,
    trace_messages: bool = True,
    snapshot_max_spans: Optional[int] = None,
    chaos: Optional[ChaosSpec] = None,
    detect: bool = False,
) -> List[ShardSpec]:
    """Partition one campaign into per-shard specs.

    Households and the probe budget are split with
    :func:`~repro.parallel.shards.partition` (parts sum back to the
    serial totals) and each shard's seed is derived from
    ``(seed, shard_index)``.
    """
    if campaign not in CAMPAIGNS:
        raise ConfigurationError(f"unknown campaign {campaign!r}")
    if campaign == "binding-dos" and build == "clone":
        raise ConfigurationError(
            "binding-dos attacks factory-fresh fleets; clone-built fleets "
            "are already bound (use build='replay')"
        )
    shards = max(1, min(shards, households))
    household_parts = partition(households, shards)
    probe_parts = partition(max_probes, shards)
    return [
        ShardSpec(
            shard_index=index,
            shards=shards,
            design=design,
            campaign=campaign,
            households=household_parts[index],
            max_probes=probe_parts[index],
            seed=derive_shard_seed(seed, index),
            request_rate=request_rate,
            build=build,
            run_seconds=run_seconds,
            trace_messages=trace_messages,
            snapshot_max_spans=snapshot_max_spans,
            chaos=chaos,
            detect=detect,
        )
        for index in range(shards)
    ]


def run_campaign(
    design: VendorDesign,
    campaign: str = "binding-dos",
    households: int = 100,
    max_probes: int = 256,
    workers: int = 1,
    seed: int = 0,
    shards: Optional[int] = None,
    request_rate: float = 3000.0,
    build: str = "replay",
    run_seconds: float = 12.0,
    trace_messages: bool = True,
    snapshot_max_spans: Optional[int] = None,
    chaos: Optional[ChaosSpec] = None,
    detect: bool = False,
    worker_pool: Optional[WorkerPool] = None,
    image_cache: Optional[WorldImageCache] = None,
) -> ShardedCampaignResult:
    """Run one fleet campaign sharded across *workers* processes.

    With ``workers=1`` (one shard) everything runs in-process and the
    result bit-matches the serial ``campaign_*`` path for the same
    seed.  With more workers, *shards* (default: one per worker) shards
    are mapped over worker processes and merged in shard order:
    reports via :meth:`CampaignReport.merge`, metrics into one
    registry; the observability snapshot is merged on first read
    (:attr:`ShardedCampaignResult.snapshot`).

    Shards run one of three ways, all producing bit-identical campaign
    results for the same specs:

    * ``worker_pool=...`` — through a caller-owned
      :class:`~repro.parallel.pool.WorkerPool`, which amortizes worker
      start *and* world builds over a whole sweep;
    * one shard (``workers=1`` or a single spec) — inline; sharing one
      ``image_cache`` across calls warm-starts repeat campaigns without
      any worker processes at all;
    * otherwise — through a throwaway ``WorkerPool`` of
      ``min(workers, shards)`` workers.
    """
    if workers < 1:
        raise ConfigurationError("need at least one worker")
    specs = build_shard_specs(
        design, campaign=campaign, households=households, max_probes=max_probes,
        shards=shards if shards is not None else workers, seed=seed,
        request_rate=request_rate, build=build, run_seconds=run_seconds,
        trace_messages=trace_messages, snapshot_max_spans=snapshot_max_spans,
        chaos=chaos, detect=detect,
    )
    started = time.perf_counter()
    pool_stats: Optional[Dict[str, Any]] = None
    if worker_pool is not None:
        results = worker_pool.run(specs)
        pool_stats = worker_pool.stats()
    elif workers == 1 or len(specs) == 1:
        results = [run_shard(spec, image_cache=image_cache) for spec in specs]
    else:
        with WorkerPool(workers=min(workers, len(specs))) as owned_pool:
            results = owned_pool.run(specs)
            pool_stats = owned_pool.stats()
    wall = time.perf_counter() - started

    merged_report = CampaignReport.merge([result.report for result in results])
    registry = MetricsRegistry()
    for result in results:
        registry.merge_snapshot(result.metrics)
    return ShardedCampaignResult(
        campaign=campaign,
        vendor=design.name,
        workers=workers,
        shards=len(specs),
        seed=seed,
        report=merged_report,
        shard_results=results,
        metrics=registry,
        wall_seconds=wall,
        pool_stats=pool_stats,
    )
