"""The benchmark's three workloads, one per kind of user of the system.

* ``table2-search`` — a publisher runs Algorithm 1 until it yields a
  certified (k, ε) release (Table 2).
* ``table4-utility`` — an analyst measures two releases' utility over
  sampled possible worlds (Table 4).
* ``serve-mixed`` — clients query a release (Corollary 1) through the
  coalescing query engine, in library mode.

Each workload builds its inputs from the seed (``setup``), runs its
timed work (``measure``) and checks the outputs outside the timed phase
(``check``).  The program receives only the generated inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import statistics
import time
from types import SimpleNamespace

import numpy as np

from repro import uncertain as oracle
from repro.core.generate import generate_obfuscation
from repro.core.obfuscation_check import tolerance_achieved
from repro.core.search import obfuscate
from repro.core.types import ObfuscationParams, ObfuscationResult
from repro.exec import make_executor
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import SweepEntry, run_obfuscation_sweep, table4_rows
from repro.graphs import datasets
from repro.serve.engine import QueryEngine
from repro.serve.protocol import Query, wire_payload
from repro.stats.registry import PAPER_STATISTIC_NAMES

from perfbench.measure import children_cpu_s, counts_delta, exact_counts

#: Worlds behind ``rel_err`` for the search and serve releases, which
#: is computed after their timed phase.
QUALITY_WORLDS = 4

#: Seed of every workload's graph and release.  The workload seed drives
#: the randomness a user varies on fixed data (the search stream, the
#: sampled worlds, the request stream): across dataset seeds the same
#: search swings far more than any regression bound (σ* 0.16-1.02 over
#: dataset seeds 1-5 at n = 45,283, with c escalating on some), while
#: across search seeds on one graph σ* stays within a few percent.
DATA_SEED = 0


@dataclasses.dataclass
class Measurement:
    """What one timed phase produced.

    ``walls``/``cpus``/``outputs``/``counts`` hold one entry per pass of
    the timed work; serve runs one stream, timed by the engine's busy
    time.  ``counts`` are the exact registry deltas of each pass.
    ``ops`` counts one pass's operations: Algorithm-2 probes, evaluated
    worlds, or requests.  ``latencies``/``waits`` are the serve stream's
    sorted raw samples in seconds from each request's due time, to its
    answer and to the start of its window.
    """

    walls: list
    cpus: list
    outputs: list
    counts: list
    attempted: int
    failed: int
    ops: int
    latencies: np.ndarray | None = None
    waits: np.ndarray | None = None


def digest(obj) -> str:
    """Short SHA-256 of a JSON rendering (floats by repr, so exact)."""
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def release_digest(uncertain) -> str:
    """Short SHA-256 of a release's vertex count and pair arrays."""
    sha = hashlib.sha256(np.int64(uncertain.num_vertices).tobytes())
    for array in uncertain.pair_arrays():
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()[:16]


def repeat_passes(unit, seconds: float):
    """Run ``unit()`` until ``seconds`` have passed, at least once.

    Returns per-pass ``(walls, cpus, outputs, counts)``.  CPU time is the
    parent's plus every child reaped during the pass, so ``unit`` must
    join its worker pool before it returns.
    """
    walls, cpus, outputs, counts = [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        before = exact_counts()
        child0 = children_cpu_s()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        outputs.append(unit())
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - cpu0 + children_cpu_s() - child0)
        counts.append(counts_delta(before, exact_counts()))
    return walls, cpus, outputs, counts


def mean_rel_err(rows: list[dict]) -> float:
    """Mean Table-4 relative error over the release rows (not ``real``)."""
    return statistics.fmean(r["rel_err"] for r in rows if r["variant"] != "real")


# ----------------------------------------------------------------------
# table2-search
# ----------------------------------------------------------------------
class SearchWorkload:
    """Table 2: Algorithm 1 on two (k, ε) cells at n = 45,283, one worker.

    The paper protocol comes from :class:`ExperimentConfig`'s defaults:
    c escalates 2 → 3 → 5, q = 0.01, t = 3 attempts, δ = 10⁻³.
    """

    name = "table2-search"
    scale = 0.2
    k_values = (20, 100)
    eps = 1e-4
    #: Spans the traced run must record (see :func:`perfbench.shim.silent_layers`).
    layers = (
        "graphs.dataset", "core.sampler", "core.perturb", "core.posterior_exact",
        "core.posterior_fold", "core.posterior_clt", "core.entropy",
        "core.sigma_setup", "core.probe",
    )

    def setup(self, seed: int, seconds: float):
        graph = datasets.paper_scale_dataset("dblp", scale=self.scale, seed=DATA_SEED)
        config = ExperimentConfig(
            datasets=("dblp",), scale=self.scale, k_values=self.k_values,
            eps_values=(self.eps,), seed=seed, dataset_seed=DATA_SEED,
        )
        # The harness looks graphs up by (dataset, scale, dataset seed).
        config._graph_cache[("dblp", self.scale, DATA_SEED)] = graph
        return config

    def measure(self, config, seconds: float) -> Measurement:
        def sweep():
            with make_executor(1) as executor:
                return run_obfuscation_sweep(config, executor=executor)

        walls, cpus, outputs, counts = repeat_passes(sweep, seconds)
        return Measurement(
            walls, cpus, outputs, counts,
            attempted=sum(len(entries) for entries in outputs),
            failed=sum(not e.result.success for entries in outputs for e in entries),
            ops=counts[0]["search.probes"],
        )

    def fingerprint(self, entries) -> str:
        return digest([
            [e.k, e.result.params.c, e.result.sigma, e.result.eps_achieved,
             release_digest(e.result.uncertain) if e.result.success else None]
            for e in entries
        ])

    def check(self, config, m: Measurement):
        entries = m.outputs[0]
        errors, cells = [], []
        for e in entries:
            if not e.result.success:
                errors.append(f"cell k={e.k}: no certified release")
                continue
            # The unstacked posterior path, independent of the search's
            # stacked fold/CLT evaluation; is_k_eps_obfuscation tests
            # exactly eps_tilde <= eps.
            eps_tilde = tolerance_achieved(e.result.uncertain, e.graph.degrees(), e.k)
            if not eps_tilde <= e.eps_used:
                errors.append(
                    f"cell k={e.k}: re-derived eps {eps_tilde:.6g} > {e.eps_used:.6g}"
                )
            cells.append({
                "k": e.k, "c": e.result.params.c, "sigma": e.result.sigma,
                "eps": e.eps_used, "eps_rederived": eps_tilde,
                "release": release_digest(e.result.uncertain),
            })
        certified_entries = [e for e in entries if e.result.success]
        if not certified_entries:
            return errors, {"sigma_star": math.nan, "rel_err": math.nan}, {"cells": cells}
        quality_config = dataclasses.replace(config, worlds=QUALITY_WORLDS)
        with make_executor(2) as executor:
            rows = table4_rows(certified_entries, quality_config, executor=executor)
        quality = {
            "sigma_star": statistics.fmean(e.result.sigma for e in certified_entries),
            "rel_err": mean_rel_err(rows),
        }
        return errors, quality, {"cells": cells}


# ----------------------------------------------------------------------
# table4-utility
# ----------------------------------------------------------------------
class UtilityWorkload:
    """Table 4 over two releases at n = 22,641 on two workers.

    The releases load the world kernels in opposite ways: a near-certain
    k = 20 release (c = 2, σ ≈ 0.05) is ANF-heavy, a high-σ k = 100 one
    (c = 3, σ ≈ 1.0) triangle-heavy.  Set-up builds each with one
    Algorithm-2 call at a pinned σ, doubling σ until an attempt
    certifies, instead of a full σ search.  The workload seed drives the
    sampled worlds.
    """

    name = "table4-utility"
    scale = 0.1
    worlds = 10
    workers = 2
    eps = 1e-4
    layers = (
        "graphs.dataset", "worlds.sample", "worlds.csr", "worlds.degree",
        "worlds.triangles", "worlds.anf", "anf.original", "exec.map",
    )
    #: (k, c, first σ tried)
    releases = ((20, 2.0, 0.05), (100, 3.0, 1.0))

    def setup(self, seed: int, seconds: float):
        graph = datasets.paper_scale_dataset("dblp", scale=self.scale, seed=DATA_SEED)
        config = ExperimentConfig(
            datasets=("dblp",), scale=self.scale,
            k_values=tuple(k for k, _, _ in self.releases), eps_values=(self.eps,),
            worlds=self.worlds, seed=seed, dataset_seed=DATA_SEED,
        )
        config._graph_cache[("dblp", self.scale, DATA_SEED)] = graph
        eps = config.eps_for("dblp", self.eps)
        entries = [
            self._release(graph, config, k, c, sigma, eps)
            for k, c, sigma in self.releases
        ]
        return SimpleNamespace(config=config, entries=entries)

    def _release(self, graph, config, k, c, sigma, eps) -> SweepEntry:
        params = ObfuscationParams(
            k=k, eps=eps, c=c, q=config.q, attempts=config.attempts, delta=config.delta
        )
        rng = np.random.default_rng([DATA_SEED, k])
        outcome = generate_obfuscation(graph, sigma, params, seed=rng)
        while not outcome.success:
            sigma *= 2.0
            if sigma > params.sigma_max:
                raise RuntimeError(f"no certified k={k} release up to sigma_max")
            outcome = generate_obfuscation(graph, sigma, params, seed=rng)
        result = ObfuscationResult(
            uncertain=outcome.uncertain, sigma=sigma,
            eps_achieved=outcome.eps_achieved, params=params,
        )
        return SweepEntry("dblp", k, self.eps, eps, result, graph)

    def measure(self, state, seconds: float) -> Measurement:
        def evaluate():
            # The pool closes (and its workers are reaped) inside the pass.
            with make_executor(self.workers) as executor:
                return table4_rows(state.entries, state.config, executor=executor)

        walls, cpus, outputs, counts = repeat_passes(evaluate, seconds)
        worlds = len(state.entries) * self.worlds
        # The executor raises on a failed task rather than quarantining
        # it on this path, so a failed world fails the whole run.
        return Measurement(
            walls, cpus, outputs, counts,
            attempted=worlds * len(walls), failed=0, ops=worlds,
        )

    def fingerprint(self, rows) -> str:
        return digest(rows)

    def check(self, state, m: Measurement):
        rows = m.outputs[0]
        errors = [
            f"Table-4 row {row['variant']}: non-finite {name}"
            for row in rows
            for name in (*PAPER_STATISTIC_NAMES, "rel_err")
            if not math.isfinite(row.get(name, math.nan))
        ]
        quality = {
            "sigma_star": statistics.fmean(e.result.sigma for e in state.entries),
            "rel_err": mean_rel_err(rows),
        }
        receipt = {
            "releases": [
                {"k": e.k, "c": e.result.params.c, "sigma": e.result.sigma,
                 "release": release_digest(e.result.uncertain)}
                for e in state.entries
            ],
            "rel_err": {r["variant"]: r["rel_err"] for r in rows},
        }
        return errors, quality, receipt


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
#: Hot-traffic op mix (fractions), as in ``benchmarks/workload.py``.
MIX = {"reliability": 0.30, "degree": 0.25, "khop": 0.15, "distance": 0.15, "knn": 0.15}

#: The op of every cold request: it needs a BFS from its source, and the
#: least work after it, so each cold request costs about one BFS pass.
COLD_OP = "reliability"

#: Requests per second of the open-loop stream.
RATE = 1000.0
#: Hot pairs and the sources they share; sharing sources keeps the
#: set-up warm-up to HOT_SOURCES BFS passes.
HOT_PAIRS = 64
HOT_SOURCES = 16
#: Zipf exponent of hot-pair popularity.
THETA = 0.99
#: Every COLD_EVERY-th request is cold.
COLD_EVERY = 500


def make_query(op: str, source: int, target: int) -> Query:
    if op == "degree":
        return Query(op, source=source)
    if op in ("reliability", "distance"):
        return Query(op, source=source, target=target)
    if op == "khop":
        return Query(op, source=source, hops=2)
    return Query(op, source=source, k=10)


@dataclasses.dataclass
class Schedule:
    """An open-loop request stream: query ``i`` falls due at ``due[i]``.

    ``warm`` holds every distinct hot query (each op on each hot pair),
    answered during set-up; ``cold`` the indices of cold requests.
    """

    queries: list
    due: np.ndarray
    warm: list
    cold: list


def build_schedule(seed: int, n: int, seconds: float) -> Schedule:
    """The serve stream, a pure function of its arguments.

    Requests fall due at :data:`RATE` per second.  Traffic is zipfian
    (rank r drawn with probability ∝ 1/(r+1)^θ) over :data:`HOT_PAIRS`
    pairs that share :data:`HOT_SOURCES` sources, with the :data:`MIX`
    op mix; every :data:`COLD_EVERY`-th request instead is a
    :data:`COLD_OP` query from a source no earlier request used.
    """
    rng = np.random.default_rng(seed)
    pool = rng.choice(n, size=HOT_SOURCES, replace=False)
    sources = pool[np.arange(HOT_PAIRS) % HOT_SOURCES]
    targets = (sources + 1 + rng.integers(0, n - 1, size=HOT_PAIRS)) % n
    count = max(1, int(RATE * seconds))
    weights = 1.0 / np.arange(1, HOT_PAIRS + 1, dtype=np.float64) ** THETA
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(count), side="right")
    ops = list(MIX)
    probs = np.array([MIX[op] for op in ops])
    op_draws = rng.choice(len(ops), size=count, p=probs / probs.sum())
    unseen = rng.permutation(np.setdiff1d(np.arange(n), sources))
    cold_offsets = rng.integers(0, n - 1, size=count // COLD_EVERY + 1)
    queries, cold = [], []
    for i in range(count):
        if (i + 1) % COLD_EVERY == 0:
            j = len(cold)
            source = int(unseen[j])
            target = int((source + 1 + cold_offsets[j]) % n)
            queries.append(make_query(COLD_OP, source, target))
            cold.append(i)
        else:
            r = int(ranks[i])
            queries.append(make_query(ops[op_draws[i]], int(sources[r]), int(targets[r])))
    warm = list(dict.fromkeys(
        make_query(op, int(s), int(t)) for s, t in zip(sources, targets) for op in ops
    ))
    return Schedule(queries, np.arange(count) / RATE, warm, cold)


#: The generator sleeps until this long before a due time, then spins, so a
#: request goes out on time.  (Spinning throughout measured less steady
#: here: a busy virtual CPU gets preempted more.)
SPIN_S = 0.00025


def drive(engine: QueryEngine, schedule: Schedule):
    """Open loop in library mode: each pass sends every request now due as
    one window to :meth:`QueryEngine.execute`.

    Returns ``(answers, latencies, waits, busy_s, cpu_s)``: latency runs
    from a request's due time to the end of its window, wait to the start
    of its window (also how late the generator ran); busy and CPU time
    are summed over the ``execute`` calls.
    """
    queries, due = schedule.queries, schedule.due
    count = len(queries)
    answers: list = [None] * count
    latencies = np.empty(count)
    waits = np.empty(count)
    busy = cpu = 0.0
    t0 = time.perf_counter()
    i = 0
    while i < count:
        now = time.perf_counter() - t0
        if due[i] > now:
            if due[i] - now > SPIN_S:
                time.sleep(due[i] - now - SPIN_S)
            continue
        j = int(np.searchsorted(due, now, side="right"))
        cpu0 = time.process_time()
        start = time.perf_counter()
        answers[i:j] = engine.execute(queries[i:j])
        end = time.perf_counter()
        cpu += time.process_time() - cpu0
        busy += end - start
        latencies[i:j] = end - t0 - due[i:j]
        waits[i:j] = start - t0 - due[i:j]
        i = j
    return answers, latencies, waits, busy, cpu


def oracle_payload(release, query: Query, worlds: int, seed: int) -> dict:
    """The sequential :mod:`repro.uncertain.queries` answer, wire-shaped."""
    kw = {"worlds": worlds, "seed": seed}
    s = query.source
    if query.op == "degree":
        answer = float(release.expected_degrees()[s])
    elif query.op == "reliability":
        answer = oracle.reliability(release, s, query.target, **kw)
    elif query.op == "khop":
        answer = oracle.k_hop_reachable_size(release, s, query.hops, **kw)
    elif query.op == "knn":
        answer = oracle.k_nearest_neighbors(release, s, query.k, **kw)
    else:
        t = query.target
        answer = (
            oracle.distance_distribution(release, s, t, **kw),
            oracle.median_distance(release, s, t, **kw),
            oracle.majority_distance(release, s, t, **kw),
        )
    return {"result": wire_payload(query, answer)}


class ServeWorkload:
    """An open-loop 1,000 req/s stream against the surrogate-dblp release.

    Hot requests hit the answer cache warmed in set-up; each cold one
    costs a multi-root BFS over 64 worlds of n = 4,500 vertices.  The
    served release is the one the serve smoke test serves; the workload
    seed drives the traffic and the engine's sampling.
    """

    name = "serve-mixed"
    scale = 1.0
    worlds = 64
    layers = ("graphs.dataset", "worlds.sample", "serve.bfs", "serve.execute")

    def setup(self, seed: int, seconds: float):
        graph = datasets.dblp_like(scale=self.scale, seed=DATA_SEED)
        result = obfuscate(graph, k=5, eps=0.3, seed=DATA_SEED, attempts=2, delta=0.1)
        if not result.success:
            raise RuntimeError("surrogate release did not certify")
        schedule = build_schedule(seed, graph.num_vertices, seconds)
        engine = QueryEngine(result.uncertain, worlds=self.worlds, seed=seed)
        if any("error" in p for p in engine.execute(schedule.warm)):
            raise RuntimeError("a warm-up query failed")
        return SimpleNamespace(
            graph=graph, result=result, schedule=schedule, engine=engine, seed=seed
        )

    def measure(self, state, seconds: float) -> Measurement:
        before = exact_counts()
        answers, latencies, waits, busy, cpu = drive(state.engine, state.schedule)
        counts = counts_delta(before, exact_counts())
        return Measurement(
            [busy], [cpu], [answers], [counts],
            attempted=len(answers),
            failed=sum(a is None or "error" in a for a in answers),
            ops=len(answers),
            latencies=np.sort(latencies),
            waits=np.sort(waits),
        )

    def fingerprint(self, answers) -> str:
        return digest(answers)

    def spot_checks(self, schedule: Schedule) -> list[int]:
        """The first cold request and the first hot request of each other op.

        Every op is covered, and the cold answer was computed during the
        timed stream.  (An oracle answer costs 64 sequential world
        samples, so the check stays a sample.)
        """
        first = {COLD_OP: schedule.cold[0]}
        cold = set(schedule.cold)
        for i, query in enumerate(schedule.queries):
            if i not in cold:
                first.setdefault(query.op, i)
        return sorted(first.values())

    def check(self, state, m: Measurement):
        answers = m.outputs[0]
        errors = []
        if m.failed:
            errors.append(f"{m.failed} requests got an error or no answer")
        checked = self.spot_checks(state.schedule)
        release = state.result.uncertain
        for i in checked:
            query = state.schedule.queries[i]
            expected = oracle_payload(release, query, self.worlds, state.seed)
            if answers[i] != expected:
                errors.append(f"request {i} {query}: {answers[i]} != oracle {expected}")
        config = ExperimentConfig(
            datasets=("dblp",), scale=self.scale, k_values=(5,), eps_values=(0.3,),
            worlds=QUALITY_WORLDS, seed=DATA_SEED, dataset_seed=DATA_SEED,
        )
        entry = SweepEntry("dblp", 5, 0.3, 0.3, state.result, state.graph)
        quality = {
            "sigma_star": state.result.sigma,
            "rel_err": mean_rel_err(table4_rows([entry], config)),
        }
        receipt = {
            "release": release_digest(release),
            "sigma": state.result.sigma,
            "oracle_checked": len(checked),
            "cold_requests": len(state.schedule.cold),
        }
        return errors, quality, receipt


WORKLOADS = {w.name: w for w in (SearchWorkload(), UtilityWorkload(), ServeWorkload())}
