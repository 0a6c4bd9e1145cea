"""SearchContext reuse + equivalence with the sequential oracle.

The headline regression pin: a full :func:`repro.core.obfuscate` run —
doubling phase, bisection, winning release — must match the per-draw
reference of ``tests/oracles/generate.py`` at a fixed seed, because
both consume the identical RNG stream and every vectorised stage is
bit-compatible with its sequential counterpart.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.generate import SearchContext, generate_obfuscation
from repro.core.search import obfuscate, obfuscate_with_fallback
from repro.core.types import ObfuscationParams
from repro.graphs.generators import erdos_renyi, powerlaw_cluster
from tests.oracles.generate import (
    generate_obfuscation as sequential_generate,
    run_sequential,
)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(90, 0.1, seed=7)


def _params(**kw):
    base = dict(k=4, eps=0.15, attempts=3)
    base.update(kw)
    return ObfuscationParams(**base)


class TestEngineEquivalence:
    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.3, 1.0])
    def test_generate_identical_at_fixed_seed(self, graph, sigma):
        array = generate_obfuscation(graph, sigma, _params(), seed=11)
        seq = sequential_generate(graph, sigma, _params(), seed=11)
        assert array.eps_achieved == seq.eps_achieved
        assert array.attempts_made == seq.attempts_made
        assert array.pairs_drawn == seq.pairs_drawn
        assert array.success == seq.success
        if array.success:
            assert sorted(array.uncertain.candidate_pairs()) == sorted(
                seq.uncertain.candidate_pairs()
            )

    def test_white_noise_path_identical(self, graph):
        array = generate_obfuscation(graph, 0.3, _params(q=0.4), seed=5)
        seq = sequential_generate(graph, 0.3, _params(q=0.4), seed=5)
        assert array.eps_achieved == seq.eps_achieved
        assert sorted(array.uncertain.candidate_pairs()) == sorted(
            seq.uncertain.candidate_pairs()
        )

    def test_uniform_weighting_identical(self, graph):
        kw = dict(weighting="uniform")
        array = generate_obfuscation(graph, 0.2, _params(**kw), seed=9)
        seq = sequential_generate(graph, 0.2, _params(**kw), seed=9)
        assert array.eps_achieved == seq.eps_achieved

    @pytest.mark.parametrize(
        "k,eps", [(3, 0.2), (4, 0.15), (8, 0.3)]
    )
    def test_full_obfuscate_trace_unchanged(self, graph, k, eps):
        """The pinned end-to-end regression: identical search traces."""
        kwargs = dict(k=k, eps=eps, seed=0, attempts=2, delta=0.02)
        array = obfuscate(graph, **kwargs)
        seq = run_sequential(obfuscate, graph, **kwargs)
        assert [(s.sigma, s.eps_achieved, s.phase) for s in array.trace] == [
            (s.sigma, s.eps_achieved, s.phase) for s in seq.trace
        ]
        assert array.sigma == seq.sigma
        assert array.eps_achieved == seq.eps_achieved
        assert array.edges_processed == seq.edges_processed
        assert sorted(array.uncertain.candidate_pairs()) == sorted(
            seq.uncertain.candidate_pairs()
        )

    def test_failure_trace_unchanged(self, star5):
        kwargs = dict(k=5, eps=0.0, seed=0, attempts=1, delta=0.1, sigma_max=4.0)
        array = obfuscate(star5, **kwargs)
        seq = run_sequential(obfuscate, star5, **kwargs)
        assert not array.success and not seq.success
        assert math.isnan(array.sigma) and math.isnan(seq.sigma)
        assert array.edges_processed == seq.edges_processed
        assert [(s.sigma, s.eps_achieved) for s in array.trace] == [
            (s.sigma, s.eps_achieved) for s in seq.trace
        ]

    def test_powerlaw_graph_trace_unchanged(self):
        graph = powerlaw_cluster(150, 3, 0.4, seed=1)
        kwargs = dict(k=5, eps=0.1, seed=2, attempts=2, delta=0.05)
        array = obfuscate(graph, **kwargs)
        seq = run_sequential(obfuscate, graph, **kwargs)
        assert [(s.sigma, s.eps_achieved) for s in array.trace] == [
            (s.sigma, s.eps_achieved) for s in seq.trace
        ]


class TestSearchContext:
    def test_sigma_setups_memoised(self, graph):
        ctx = SearchContext(graph, eps=0.15)
        first = ctx.sigma_setup(0.5)
        assert ctx.sigma_setup(0.5) is first
        assert ctx.sigma_setup(0.25) is not first

    def test_external_excluded_not_memoised(self, graph):
        ctx = SearchContext(graph, eps=0.15)
        excluded = np.array([0, 1, 2])
        setup = ctx.setup_for_excluded(0.5, excluded)
        np.testing.assert_array_equal(setup.excluded, excluded)
        assert not ctx._setups  # ad-hoc setups never pollute the memo

    def test_check_rejects_other_graph(self, graph):
        ctx = SearchContext.for_params(graph, ObfuscationParams(k=3, eps=0.1))
        other = erdos_renyi(20, 0.3, seed=1)
        with pytest.raises(ValueError, match="different graph"):
            ctx.check(other, ObfuscationParams(k=3, eps=0.1))

    def test_check_rejects_mismatched_params(self, graph):
        ctx = SearchContext.for_params(graph, ObfuscationParams(k=3, eps=0.1))
        with pytest.raises(ValueError, match="does not match"):
            ctx.check(graph, ObfuscationParams(k=3, eps=0.2))
        # c / k / q may differ freely
        ctx.check(graph, ObfuscationParams(k=8, eps=0.1, c=3.0, q=0.2))

    def test_generate_accepts_shared_context(self, graph):
        params = ObfuscationParams(k=4, eps=0.15, attempts=2)
        ctx = SearchContext.for_params(graph, params)
        a = generate_obfuscation(graph, 0.3, params, seed=4, context=ctx)
        b = generate_obfuscation(graph, 0.3, params, seed=4)
        assert a.eps_achieved == b.eps_achieved
        assert 0.3 in ctx._setups

    def test_obfuscate_with_context_kwarg(self, graph):
        params = ObfuscationParams(k=4, eps=0.15, attempts=2, delta=0.05)
        ctx = SearchContext.for_params(graph, params)
        with_ctx = obfuscate(graph, 4, 0.15, params=params, seed=1, context=ctx)
        without = obfuscate(graph, 4, 0.15, params=params, seed=1)
        assert with_ctx.sigma == without.sigma
        assert len(ctx._setups) > 0

    def test_fallback_shares_context_and_matches(self, star5):
        """c escalation reuses the σ memo and stays seed-equivalent."""
        kwargs = dict(
            c_values=(1.5, 2.0), seed=0, attempts=1, delta=0.1, sigma_max=2.0
        )
        array = obfuscate_with_fallback(star5, 5, 0.0, **kwargs)
        seq = run_sequential(obfuscate_with_fallback, star5, 5, 0.0, **kwargs)
        assert array.params.c == seq.params.c == 2.0
        assert array.edges_processed == seq.edges_processed


class TestOutcomeAccounting:
    def test_attempts_made_is_winning_attempt(self, graph):
        """The winning attempt index survives (no clobber to attempts)."""
        out = generate_obfuscation(graph, 0.4, _params(attempts=4), seed=2)
        assert out.success
        assert 1 <= out.attempts_made <= 4
        seq = sequential_generate(graph, 0.4, _params(attempts=4), seed=2)
        assert out.attempts_made == seq.attempts_made

    def test_attempts_made_on_failure_counts_all(self, star5):
        params = ObfuscationParams(k=5, eps=0.0, attempts=3)
        out = generate_obfuscation(star5, 0.1, params, seed=0)
        assert not out.success
        assert out.attempts_made == 3

    def test_pairs_drawn_counts_actual_draws(self, graph):
        out = generate_obfuscation(graph, 0.3, _params(), seed=1)
        # every attempt consumes at least one sampling batch of 4096 pairs
        assert out.pairs_drawn >= 4096 * 3

    def test_edges_processed_sums_probe_draws(self, graph):
        result = obfuscate(graph, k=4, eps=0.15, seed=0, attempts=2, delta=0.05)
        assert result.edges_processed > 0
        assert result.edges_processed % 4096 == 0  # whole batches only
        assert result.edges_per_second > 0
