"""Overload-resilient async gateway for the label-serving tier.

Everything needed to put the one-call-at-a-time
:class:`~repro.service.frontend.QueryService` behind a multi-tenant
front door that sheds load *explicitly*:

* :mod:`repro.gateway.loop` — a deterministic async event loop on
  virtual time (tasks, futures, timers; no wall clock anywhere);
* :mod:`repro.gateway.admission` — token-bucket quotas and a bounded
  waiting room drained by deficit round robin;
* :mod:`repro.gateway.cache` — a generation-keyed LRU label cache
  with negative caching, and a caching drop-in for the resilient
  client;
* :mod:`repro.gateway.gateway` — the :class:`AsyncGateway` itself:
  admission, fairness, coalescing, explicit shed reasons;
* :mod:`repro.gateway.traffic` — a seeded open-loop traffic model
  (Zipf popularity, tenant mixes, rate windows, fault windows) that
  reads the shape of its stream straight off a scenario trace.

The traffic battery is a generated scenario trace
(:func:`repro.scenario.generate.traffic_trace`) replayed by
:class:`repro.scenario.runner.ScenarioRunner`.
"""

from repro.gateway.admission import QuotaPolicy, TokenBucket, WaitingRoom
from repro.gateway.cache import (
    CacheMetrics,
    CachingLabelClient,
    LabelCache,
)
from repro.gateway.gateway import (
    AsyncGateway,
    GatewayConfig,
    GatewayMetrics,
    GatewayOutcome,
    GatewayRequest,
)
from repro.gateway.loop import Event, Future, Task, VirtualLoop
from repro.gateway.traffic import TimedRequest, TrafficGenerator, ZipfSampler

__all__ = [
    "AsyncGateway",
    "CacheMetrics",
    "CachingLabelClient",
    "Event",
    "Future",
    "GatewayConfig",
    "GatewayMetrics",
    "GatewayOutcome",
    "GatewayRequest",
    "LabelCache",
    "QuotaPolicy",
    "Task",
    "TimedRequest",
    "TokenBucket",
    "TrafficGenerator",
    "VirtualLoop",
    "WaitingRoom",
    "ZipfSampler",
]
