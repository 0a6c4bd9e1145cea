"""Timing shim and per-layer accounting for traced benchmark runs.

The shim times each layer from outside the program: it rebinds the
attribute a caller looks a public function up through (for example
``repro.core.search.generate_obfuscation``, the name the Algorithm-1
search calls) to a wrapper that opens a :func:`repro.obs.trace.span`
named after the layer, and puts the originals back afterwards.  Nothing
under ``src/`` changes.  A site that no longer resolves raises
:class:`ShimError`, so a rename fails the run instead of silently
reading a layer as zero.

Worker processes fork from the parent after the shim is installed, so
they run the wrapped functions too; the executor's span grafting brings
their spans back under the parent's ``exec.map`` span.

:func:`layer_metrics` turns the finished span records into per-layer
self times (a span's wall time minus the wall time of its direct child
spans).  A site that still resolves but that its caller no longer looks
up (a call now routed through another module) records no span, and its
time would move silently into a remainder; :func:`silent_layers` names
every layer a workload must exercise that recorded none.
"""

from __future__ import annotations

import functools
import importlib

from repro.obs import trace

#: ``(layer, module, attribute path)``: every function the traced run
#: times, named as the caller looks it up.  Several sites may share a
#: layer; their self times add up.
SITES: tuple[tuple[str, str, str], ...] = (
    ("core.sampler", "repro.core.generate", "WeightedVertexSampler.sample"),
    ("core.perturb", "repro.core.generate", "pair_stream_uniforms"),
    ("core.perturb", "repro.core.generate", "perturbations_from_uniforms"),
    ("core.posterior_exact", "repro.core.generate", "degree_posterior_matrix"),
    ("core.posterior_fold", "repro.core.generate", "fold_in_staircase"),
    ("core.posterior_clt", "repro.core.generate", "normal_approx_pmf_batch"),
    ("core.entropy", "repro.core.generate", "column_mass_stack"),
    ("core.entropy", "repro.core.generate", "entropies_from_column_mass"),
    ("core.sigma_setup", "repro.core.generate", "SearchContext.sigma_setup"),
    ("core.probe", "repro.core.search", "generate_obfuscation"),
    ("graphs.dataset", "repro.graphs.datasets", "paper_scale_dataset"),
    ("graphs.dataset", "repro.graphs.datasets", "dblp_like"),
    ("worlds.sample", "repro.worlds.batch", "WorldBatch.sample"),
    ("worlds.csr", "repro.worlds.batch", "WorldBatch.csr"),
    ("worlds.degree", "repro.worlds.estimator", "degree_matrix"),
    ("worlds.degree", "repro.worlds.estimator", "degree_statistics_batch"),
    ("worlds.triangles", "repro.worlds.estimator", "triangle_counts_batch"),
    ("worlds.triangles", "repro.worlds.estimator", "clustering_coefficients_batch"),
    ("worlds.anf", "repro.worlds.estimator", "anf_distance_statistics_batch"),
    ("anf.original", "repro.anf.distance_stats", "anf_distance_histogram"),
    ("anf.original", "repro.stats.registry", "clustering_coefficient"),
    ("serve.bfs", "repro.serve.engine", "batch_distance_rows"),
    ("serve.execute", "repro.serve.engine", "QueryEngine.execute"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in SITES))


class ShimError(RuntimeError):
    """A timing site does not resolve, or the shim is misused."""


def _timed(func, layer: str):
    @functools.wraps(func)
    def timed(*args, **kwargs):
        with trace.span(layer):
            return func(*args, **kwargs)

    timed.__perfbench_layer__ = layer
    return timed


def _resolve(module: str, path: str):
    """``(owner, attribute, raw value)`` of one site, or :class:`ShimError`."""
    try:
        owner = importlib.import_module(module)
    except ImportError as exc:
        raise ShimError(f"timing site {module}:{path}: {exc}") from exc
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            raise ShimError(f"timing site {module}:{path}: no {part!r}")
    # Class attributes are rebound on the class that defines them, so
    # an inherited method cannot be wrapped by accident.
    namespace = vars(owner)
    if attr not in namespace:
        raise ShimError(f"timing site {module}:{path}: no {attr!r}")
    return owner, attr, namespace[attr]


class TimingShim:
    """Install/restore the timing wrappers (a context manager).

    Parameters
    ----------
    sites:
        ``(layer, module, attribute path)`` triples; defaults to
        :data:`SITES`.
    """

    def __init__(self, sites=SITES):
        self._sites = tuple(sites)
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise ShimError("timing shim is already installed")
        # Resolve and wrap every site before rebinding any, so a missing
        # name leaves the program unwrapped.
        plan = []
        for layer, module, path in self._sites:
            owner, attr, raw = _resolve(module, path)
            func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not callable(func):
                raise ShimError(f"timing site {module}:{path} is not callable")
            if hasattr(func, "__perfbench_layer__"):
                raise ShimError(f"timing site {module}:{path} is already wrapped")
            wrapped = _timed(func, layer)
            plan.append((owner, attr, raw, wrapped if func is raw else type(raw)(wrapped)))
        for owner, attr, raw, wrapped in plan:
            setattr(owner, attr, wrapped)
            self._saved.append((owner, attr, raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "TimingShim":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False


# ----------------------------------------------------------------------
# per-layer accounting over finished span records
# ----------------------------------------------------------------------
#: Slack for float rounding when span times are compared (s).
TOLERANCE_S = 1e-6


def _subtree(rec: dict, kids: dict[int, list[dict]]) -> list[dict]:
    out, stack = [], [rec]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(kids.get(node["id"], ()))
    return out


def layer_metrics(records: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer self times and span-derived counts, plus nesting errors.

    Returns ``(metrics, errors)``.  ``metrics`` holds ``<layer>_s`` (the
    summed self time of the layer's spans) for every layer in
    :data:`LAYERS`; the enclosing-span totals ``core.probe_s``,
    ``serve.execute_s`` and ``exec.map_s`` next to their remainders
    ``core.probe_self_s``, ``serve.execute_self_s``, ``exec.idle_s`` and
    ``worlds.eval_self_s``; the Q-sampler call count; and the executor's
    task, busy and utilisation figures.  Each remainder is the self time
    no named layer claims, so an enclosing span is its layers plus its
    remainder by construction.

    ``errors`` names every span whose child spans outlast it (children
    that do not nest inside their parent), and an ``exec.map`` whose
    worker spans exceed its worker-seconds.
    """
    kids: dict[int, list[dict]] = {}
    for rec in records:
        kids.setdefault(rec["parent"], []).append(rec)
    self_s = {
        rec["id"]: rec["wall_s"] - sum(c["wall_s"] for c in kids.get(rec["id"], ()))
        for rec in records
    }
    metrics: dict[str, float] = {f"{layer}_s": 0.0 for layer in LAYERS}
    for rec in records:
        if rec["name"] in LAYERS:
            metrics[f"{rec['name']}_s"] += self_s[rec["id"]]
    metrics["core.sampler_calls"] = sum(
        rec["name"] == "core.sampler" for rec in records
    )
    # The worker task spans under exec.map run in parallel; anywhere else
    # children run one after another inside their parent.
    errors = [
        f"{rec['name']} span {rec['id']}: child spans outlast it"
        for rec in records
        if rec["name"] != "exec.map" and self_s[rec["id"]] < -TOLERANCE_S
    ]

    def unclaimed(root: dict) -> float:
        """Self time of the spans in ``root``'s subtree that are no layer."""
        return sum(
            self_s[r["id"]] for r in _subtree(root, kids) if r["name"] not in LAYERS
        )

    # The self time of a probe or execute span is its own remainder.
    for name, remainder in (
        ("core.probe", "core.probe_self_s"),
        ("serve.execute", "serve.execute_self_s"),
    ):
        spans = [rec for rec in records if rec["name"] == name]
        metrics[f"{name}_s"] = sum(rec["wall_s"] for rec in spans)
        metrics[remainder] = sum(self_s[rec["id"]] + unclaimed(rec) for rec in spans)

    # exec.map is accounted in worker-seconds: workers x map wall = busy
    # + idle, and busy = kernel self times in the worker task spans +
    # worlds.eval_self_s.
    maps = [rec for rec in records if rec["name"] == "exec.map"]
    roots = [root for rec in maps for root in kids.get(rec["id"], ())]
    capacity = sum(rec["attrs"].get("workers", 1) * rec["wall_s"] for rec in maps)
    busy = sum(root["wall_s"] for root in roots)
    idle = capacity - busy
    if idle < -TOLERANCE_S:
        errors.append(f"exec.map: worker spans exceed workers x map wall by {-idle:.3g}s")
    metrics["exec.map_s"] = sum(rec["wall_s"] for rec in maps)
    metrics["exec.tasks"] = sum(rec["attrs"].get("tasks", 0) for rec in maps)
    metrics["exec.worker_busy_s"] = busy
    metrics["exec.idle_s"] = idle
    metrics["exec.utilisation"] = busy / capacity if capacity else 0.0
    metrics["worlds.eval_self_s"] = sum(unclaimed(root) for root in roots)
    return metrics, errors


def silent_layers(records: list[dict], expected) -> list[str]:
    """An error for each span name in ``expected`` that no record carries.

    A layer the workload must exercise but that recorded no span is
    bypassed: its site still resolves, but its caller no longer looks it
    up there.
    """
    seen = {rec["name"] for rec in records}
    return [
        f"layer {name} recorded no span: its timing site is bypassed"
        for name in expected
        if name not in seen
    ]
