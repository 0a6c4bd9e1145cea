"""Fault tolerance primitives: atomic writes, retry, checkpoints, faults.

The package holds the pieces the execution and serving layers compose
into a failure story (see the README "Resilience" section):

* :mod:`repro.resilience.atomic` — crash-safe file publication
  (write-temp + ``os.replace``) for every receipt the repo emits;
* :mod:`repro.resilience.retry` — :class:`RetryPolicy`, deterministic
  seeded-jitter exponential backoff shared by the executor and the
  serve client;
* :mod:`repro.resilience.checkpoint` — :class:`CheckpointStore`, the
  atomic per-cell JSONL + ``.npz`` record store behind
  ``--checkpoint``/``--resume``;
* :mod:`repro.resilience.faults` — :class:`FaultPlan`, the seeded
  deterministic fault-injection harness driving the chaos smokes.

Nothing here draws from a live RNG: backoff jitter and fault firing
are pure hash functions of (seed, site/key, attempt), so a retried or
resumed run reproduces the fault-free run bit for bit.
"""

from repro.resilience.atomic import atomic_write_bytes, atomic_write_text
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import (
    FaultInjected,
    FaultPlan,
    FaultRule,
    fault_point,
    install_fault_plan,
)
from repro.resilience.retry import RetryPolicy

__all__ = [
    "CheckpointStore",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "atomic_write_bytes",
    "atomic_write_text",
    "fault_point",
    "install_fault_plan",
]
