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

Plans travel to subprocesses through the ``REPRO_FAULT_PLAN``
environment variable (JSON); fork-pool workers inherit the installed
plan directly.  Actions:

* ``kill``  — ``SIGKILL`` the current process (worker crash).
* ``delay`` — sleep ``param`` seconds (straggler / race widening).
* ``raise`` — raise :class:`FaultInjected` (transient task error).
* ``flag``  — return ``True`` from the site; the caller implements the
  site-specific misbehaviour (drop a connection, tear a write).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass, field

from repro.obs.metrics import REGISTRY

__all__ = [
    "ENV_VAR",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "fault_point",
    "install_fault_plan",
]

ENV_VAR = "REPRO_FAULT_PLAN"

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
    """A seeded set of :class:`FaultRule`\\ s, JSON-portable."""

    seed: int = 0
    rules: tuple = ()
    _fired: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.rules = tuple(
            r if isinstance(r, FaultRule) else FaultRule(**r) for r in self.rules
        )

    # -- wire format ---------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "rules": [
                    {
                        "site": r.site,
                        "action": r.action,
                        "indices": list(r.indices) if r.indices is not None else None,
                        "attempts": list(r.attempts) if r.attempts is not None else None,
                        "key": r.key,
                        "times": r.times,
                        "probability": r.probability,
                        "param": r.param,
                    }
                    for r in self.rules
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, raw: str) -> "FaultPlan":
        data = json.loads(raw)
        rules = []
        for spec in data.get("rules", ()):
            spec = dict(spec)
            for key in ("indices", "attempts"):
                if spec.get(key) is not None:
                    spec[key] = tuple(spec[key])
            rules.append(FaultRule(**spec))
        return cls(seed=int(data.get("seed", 0)), rules=tuple(rules))

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


#: The process-wide plan.  ``None`` + env-not-yet-checked is the cold
#: state; after the first check the hot no-plan path is one global read.
_PLAN: FaultPlan | None = None
_ENV_LOADED = False


def install_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install (or with ``None`` clear) the process-wide fault plan.

    An explicit install overrides the ``REPRO_FAULT_PLAN`` environment
    variable for this process.
    """
    global _PLAN, _ENV_LOADED
    _PLAN = plan
    _ENV_LOADED = True
    return plan


def active_plan() -> FaultPlan | None:
    """The installed plan, loading ``REPRO_FAULT_PLAN`` once if unset."""
    global _PLAN, _ENV_LOADED
    if not _ENV_LOADED:
        _ENV_LOADED = True
        raw = os.environ.get(ENV_VAR)
        if raw:
            _PLAN = FaultPlan.from_json(raw)
    return _PLAN


def fault_point(site: str, *, key=None, index=None, attempt: int = 0) -> bool:
    """A named fault site.  Returns ``True`` iff a ``flag`` rule fired.

    ``kill``/``delay``/``raise`` actions are executed here; callers of
    ``flag`` sites implement the misbehaviour themselves.
    """
    plan = _PLAN
    if plan is None:
        if _ENV_LOADED:
            return False
        plan = active_plan()
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
