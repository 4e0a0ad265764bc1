"""Chaos & resilience: deterministic fault injection for the binding world.

The paper's binding protocols live or die on unreliable home networks:
``Status`` keepalives drive the shadow's online/offline transitions, and
the A2/A3 campaigns are only distinguishable from natural churn if the
simulation can model loss, delay and cloud outages.  This package is the
robustness axis of the reproduction:

* :mod:`repro.chaos.faults` — composable, seeded :class:`FaultPlan`
  objects (per-link loss, latency+jitter, duplicate delivery, reordered
  broadcasts, network partitions, cloud brownouts and journaled cloud
  restarts) plus a named preset catalog;
* :mod:`repro.chaos.injector` — the :class:`FaultInjector` that applies
  a plan through the :class:`~repro.net.network.Network` fault-filter
  seam, drawing every probabilistic decision from its own forked RNG so
  enabling chaos never perturbs the world's other draws;
* :mod:`repro.chaos.resilience` — client-side survival: retry policies
  with exponential backoff + jitter, per-request timeouts and a small
  circuit breaker, packaged as a :class:`ResilientClient` that devices
  and apps route their cloud traffic through;
* :mod:`repro.chaos.campaign` — fleet integration: ``apply_chaos``
  wires a plan plus resilience into a
  :class:`~repro.fleet.FleetDeployment`, schedules journal-backed cloud
  restarts, and measures binding liveness for degradation-aware
  campaign reports.

Everything is deterministic per seed: same seed, same plan, same fault
pattern — including across worker counts in the sharded campaign
engine, because every shard derives its own chaos RNG from its shard
seed (see ``docs/chaos.md``).
"""

from repro.chaos.campaign import (
    ChaosController,
    ChaosSpec,
    apply_chaos,
    binding_liveness,
)
from repro.chaos.faults import (
    Brownout,
    CloudRestart,
    FaultPlan,
    LinkFault,
    Partition,
    plan_from_name,
    plan_names,
)
from repro.chaos.injector import FaultInjector
from repro.chaos.resilience import (
    DEFAULT_RESILIENCE,
    NO_RETRY,
    CircuitBreaker,
    CircuitOpen,
    ResilientClient,
    RetryPolicy,
)

__all__ = [
    "Brownout",
    "ChaosController",
    "ChaosSpec",
    "CircuitBreaker",
    "CircuitOpen",
    "CloudRestart",
    "DEFAULT_RESILIENCE",
    "FaultInjector",
    "FaultPlan",
    "LinkFault",
    "NO_RETRY",
    "Partition",
    "ResilientClient",
    "RetryPolicy",
    "apply_chaos",
    "binding_liveness",
    "plan_from_name",
    "plan_names",
]
