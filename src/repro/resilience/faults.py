"""Deterministic fault injection: a seeded plan over named fault sites.

Production code is instrumented with cheap :func:`fault_point` calls at
the places where real systems break::

    exec.task.pre        worker, before a task body runs
    exec.task.post       worker, after the body, before the result ships
    serve.conn.drop      server, before writing a response line
    io.atomic.truncate   the atomic write helper (simulated torn write)

With no plan installed a site is a single module-global read — the
``perf_gate.py --fault-overhead`` gate pins the disabled-path cost at
≤5%.  With a plan installed, whether a site *fires* is a pure function
of ``(plan.seed, site, key, index, attempt)`` — no live RNG — so a
chaos run is replayable and a retried task does not re-trip a
first-attempt-only kill rule.

Fork-pool workers inherit the installed plan at fork.  Actions:

* ``kill``  — ``SIGKILL`` the current process (worker crash).
* ``delay`` — sleep ``param`` seconds (straggler / race widening).
* ``raise`` — raise :class:`FaultInjected` (transient task error).
* ``flag``  — return ``True`` from the site; the caller implements the
  site-specific misbehaviour (drop a connection, tear a write).
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass, field

from repro.obs.metrics import REGISTRY

__all__ = [
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "fault_point",
    "install_fault_plan",
]

_ACTIONS = ("kill", "delay", "raise", "flag")


class FaultInjected(RuntimeError):
    """Raised by a firing ``raise``-action fault site."""

    def __init__(self, site: str, key=None):
        self.site = site
        self.key = key
        super().__init__(f"injected fault at {site!r}" + (f" (key={key!r})" if key is not None else ""))

    def __reduce__(self):
        # Preserve (site, key) through the pool's remote-traceback
        # pickling instead of re-wrapping the rendered message.
        return (type(self), (self.site, self.key))


@dataclass(frozen=True)
class FaultRule:
    """One activation rule: *where* and *when* a fault fires.

    ``indices``/``attempts`` of ``None`` match anything; ``attempts``
    defaults to ``(0,)`` so a kill rule does not chase its own retry.
    ``times`` caps firings per process; ``probability`` thins firings
    deterministically through a seeded hash.
    """

    site: str
    action: str = "raise"
    indices: tuple | None = None
    attempts: tuple | None = (0,)
    key: str | None = None
    times: int | None = None
    probability: float = 1.0
    param: float = 0.0

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; use one of {_ACTIONS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.indices is not None:
            object.__setattr__(self, "indices", tuple(self.indices))
        if self.attempts is not None:
            object.__setattr__(self, "attempts", tuple(self.attempts))

    def matches(self, site: str, key, index, attempt: int) -> bool:
        if site != self.site:
            return False
        if self.key is not None and key != self.key:
            return False
        if self.indices is not None and index not in self.indices:
            return False
        if self.attempts is not None and attempt not in self.attempts:
            return False
        return True


def _unit_hash(*parts) -> float:
    """A uniform float in ``[0, 1)`` as a pure function of ``parts``."""
    blob = "|".join(repr(p) for p in parts).encode()
    digest = hashlib.blake2b(blob, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass
class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s."""

    seed: int = 0
    rules: tuple = ()
    _fired: dict = field(default_factory=dict, repr=False, compare=False)

    # -- firing --------------------------------------------------------
    def fire(self, site: str, *, key=None, index=None, attempt: int = 0):
        """The matching rule that fires here, or ``None``."""
        for pos, rule in enumerate(self.rules):
            if not rule.matches(site, key, index, attempt):
                continue
            if rule.times is not None and self._fired.get(pos, 0) >= rule.times:
                continue
            if rule.probability < 1.0:
                if _unit_hash(self.seed, site, key, index, attempt) >= rule.probability:
                    continue
            self._fired[pos] = self._fired.get(pos, 0) + 1
            return rule
        return None


#: The process-wide plan; ``None`` disarms every site.
_PLAN: FaultPlan | None = None


def install_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install (or with ``None`` clear) the process-wide fault plan.

    Fork-pool workers forked after the install inherit it.
    """
    global _PLAN
    _PLAN = plan
    return plan


def fault_point(site: str, *, key=None, index=None, attempt: int = 0) -> bool:
    """A named fault site.  Returns ``True`` iff a ``flag`` rule fired.

    ``kill``/``delay``/``raise`` actions are executed here; callers of
    ``flag`` sites implement the misbehaviour themselves.
    """
    plan = _PLAN
    if plan is None:
        return False
    rule = plan.fire(site, key=key, index=index, attempt=attempt)
    if rule is None:
        return False
    REGISTRY.counter("faults.injected").add()
    if rule.action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(60)  # pragma: no cover - SIGKILL delivery is async
    elif rule.action == "delay":
        time.sleep(rule.param)
        return False
    elif rule.action == "raise":
        raise FaultInjected(site, key)
    return True
