"""Tests for parameter/result dataclasses."""

import dataclasses
import importlib
import math

import pytest

import repro.core
from repro.core.types import (
    GenerationOutcome,
    ObfuscationParams,
    ObfuscationResult,
    SearchStep,
)


class TestObfuscationParams:
    def test_paper_defaults(self):
        p = ObfuscationParams(k=20, eps=1e-3)
        assert p.c == 2.0
        assert p.q == 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0.5, "eps": 0.1},
            {"k": 2, "eps": 1.0},
            {"k": 2, "eps": -0.1},
            {"k": 2, "eps": 0.1, "c": 0.5},
            {"k": 2, "eps": 0.1, "q": 1.5},
            {"k": 2, "eps": 0.1, "attempts": 0},
            {"k": 2, "eps": 0.1, "delta": 0.0},
            {"k": 2, "eps": 0.1, "sigma_init": 0.0},
            {"k": 2, "eps": 0.1, "sigma_init": 4.0, "sigma_max": 2.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ObfuscationParams(**kwargs)

    @pytest.mark.parametrize(
        "field,value",
        [
            (name, math.nan)
            for name in (
                "k", "eps", "c", "q", "attempts", "sigma_init", "sigma_max", "delta"
            )
        ]
        + [
            (name, math.inf)
            for name in ("c", "sigma_init", "sigma_max", "delta")
        ],
    )
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError):
            ObfuscationParams(**{"k": 2, "eps": 0.1, field: value})

    def test_engine_option_removed(self):
        """Algorithm 2 has one implementation; no field selects another."""
        with pytest.raises(TypeError, match="engine"):
            ObfuscationParams(k=2, eps=0.1, engine="array")
        assert len(dataclasses.fields(ObfuscationParams)) == 10

    def test_frozen(self):
        p = ObfuscationParams(k=2, eps=0.1)
        with pytest.raises(AttributeError):
            p.k = 3


class TestOutcomes:
    def test_generation_success_flag(self):
        fail = GenerationOutcome(eps_achieved=float("inf"), uncertain=None, sigma=1.0)
        assert not fail.success

    def test_search_step_success(self):
        assert SearchStep(sigma=0.1, eps_achieved=0.01, phase="bisection").success
        assert not SearchStep(sigma=0.1, eps_achieved=float("inf"), phase="doubling").success

    def test_result_edges_per_second(self):
        params = ObfuscationParams(k=2, eps=0.1)
        res = ObfuscationResult(
            uncertain=None,
            sigma=float("nan"),
            eps_achieved=float("inf"),
            params=params,
            edges_processed=1000,
            elapsed_seconds=2.0,
        )
        assert res.edges_per_second == 500.0

    def test_result_zero_elapsed(self):
        params = ObfuscationParams(k=2, eps=0.1)
        res = ObfuscationResult(
            uncertain=None,
            sigma=float("nan"),
            eps_achieved=float("inf"),
            params=params,
        )
        assert res.edges_per_second == 0.0


@pytest.mark.parametrize(
    "name",
    [
        "compute_degree_posterior_scalar",
        "sample_perturbations",
        "sample_perturbation",
        "sample_perturbations_inverse",
        "redistribute_sigma",
        "poisson_binomial_pmf_batch",
    ],
)
def test_reference_code_not_in_library(name):
    """Reference implementations live in ``tests/oracles``, or are gone."""
    assert not hasattr(repro.core, name)


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.core.posterior_batch", "poisson_binomial_pmf_batch"),
        ("repro.core.posterior_batch", "poisson_binomial_pmf_tree"),
        ("repro.core.posterior_batch", "TREE_FFT_MIN_DEGREE"),
        ("repro.core.degree_distribution", "TREE_CROSSOVER_WIDTH"),
    ],
)
def test_second_exact_kernel_gone(module, name):
    """The Lemma-1 staircase is the only exact posterior kernel."""
    assert not hasattr(importlib.import_module(module), name)
