"""Deterministic fault injection and graceful-degradation primitives.

* :mod:`repro.faults.plan` — seeded :class:`FaultPlan` rules fired at
  named :func:`fault_point` sites (raise / delay / ``SIGKILL``), with a
  one-attribute-read disabled path and ``REPRO_FAULTS`` env propagation
  into process-pool workers.
* :mod:`repro.faults.breaker` — the :class:`CircuitBreaker` the batch
  distiller (process pool → serial) and retriever (open → refuse with a
  retry hint) degrade through, and the :class:`ShedError` base every
  "come back in ``retry_after`` seconds" refusal subclasses.

See the failure-modes runbook in ``docs/operations.md``.
"""

from repro.faults.breaker import CircuitBreaker, ShedError
from repro.faults.plan import (
    ENV_VAR,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    fault_point,
    injected,
    install,
    install_from_env,
    installed,
    uninstall,
)

__all__ = [
    "ENV_VAR",
    "CircuitBreaker",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "ShedError",
    "fault_point",
    "injected",
    "install",
    "install_from_env",
    "installed",
    "uninstall",
]
