"""Simulation as a service: the robustness layer behind ``repro serve``.

The batch executor (:mod:`repro.exec`) runs a fixed cell matrix and
exits; this package keeps a simulator fleet alive behind an HTTP
endpoint, able to absorb crashes, hangs, floods and disk corruption
without falling over (design rationale in ``docs/serving.md``).  Its
workers are the executor's own warm pool
(:class:`repro.exec.WorkerPool`), it settles each attempt through the
executor's :meth:`repro.exec.OutcomeSink.settle`, so a served cell is
retried, counted and journaled exactly as :func:`repro.exec.run_cells`
does it, and its ledger, a checksummed :class:`repro.exec.RunJournal`,
is its result cache (:meth:`~repro.exec.RunJournal.results`).  The
pieces around them:

* :mod:`repro.serve.queue`     — bounded, coalescing job queue
  (:class:`JobQueue`, :class:`QueueFull`);
* :mod:`repro.serve.breaker`   — per-config-hash circuit breaker
  (:class:`CircuitBreaker`);
* :mod:`repro.serve.server`    — the HTTP front end and scheduler
  (:class:`ReproServer`, :class:`ServeConfig`);
* :mod:`repro.serve.events`    — live event fan-out and bounded metric
  history (:class:`EventBroker`, :class:`MetricsRing`);
* :mod:`repro.serve.client`    — stdlib client used by ``repro submit``
  (:class:`ServeClient`);
* :mod:`repro.serve.top`       — the self-refreshing ``repro top``
  terminal view.
"""

from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.events import EventBroker, EventSubscription, MetricsRing
from repro.serve.queue import (
    FAILED,
    OK,
    QUARANTINED_STATE,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobQueue,
    QueueFull,
)
from repro.serve.server import (
    Reject,
    ReproServer,
    ServeConfig,
    install_serve_metrics,
)

__all__ = [
    "CLOSED",
    "CircuitBreaker",
    "EventBroker",
    "EventSubscription",
    "FAILED",
    "HALF_OPEN",
    "Job",
    "MetricsRing",
    "JobQueue",
    "OK",
    "OPEN",
    "QUARANTINED_STATE",
    "QUEUED",
    "QueueFull",
    "RUNNING",
    "Reject",
    "ReproServer",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "TERMINAL_STATES",
    "install_serve_metrics",
]
