"""A release must not depend on how many threads the BLAS library runs.

OpenBLAS splits a matrix-vector product's sums over its threads, so a
BLAS product on the release path (the Eq. 7 normaliser μ_Q, or the
degree commonness behind uniqueness and Q) would give different bits,
and a different release, from the same seed under a different thread
count.  Each quantity below is computed in two fresh processes, at one
and at two BLAS threads, and must come out byte-equal.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"

_SCRIPT = """
import hashlib
import numpy as np
from repro.core.generate import SearchContext, generate_obfuscation
from repro.core.types import ObfuscationParams
from repro.core.uniqueness import degree_commonness_from_histogram
from repro.graphs.datasets import paper_scale_dataset

graph = paper_scale_dataset("dblp", scale=0.2)
params = ObfuscationParams(k=20, eps=1e-3, attempts=1)
context = SearchContext.for_params(graph, params)
print("mu_Q", float(context.sigma_setup(0.3).q_mean_uniqueness).hex())
hist = np.random.default_rng(0).integers(0, 50, 900).astype(np.float64)
commonness = degree_commonness_from_histogram(hist, 0.3)
print("commonness", hashlib.sha256(commonness.tobytes()).hexdigest())
release = generate_obfuscation(graph, 0.3, params, seed=0, context=context)
us, vs, ps = release.uncertain.pair_arrays()
print("release", hashlib.sha256(us.tobytes() + vs.tobytes() + ps.tobytes()).hexdigest())
"""


def _run(threads: int) -> str:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_DATASET_CACHE"}
    env["PYTHONPATH"] = str(_SRC)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_release_path_is_blas_thread_invariant():
    one, two = _run(1), _run(2)
    assert [line.split()[0] for line in one.splitlines()] == [
        "mu_Q", "commonness", "release",
    ]
    assert one == two
