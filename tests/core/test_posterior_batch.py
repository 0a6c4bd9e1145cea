"""Equivalence tests: batched posterior engine vs the scalar ground truth.

The batched kernels of :mod:`repro.core.posterior_batch` must reproduce
the scalar §4 machinery — ``poisson_binomial_pmf`` bit-for-bit on every
exact row, whatever its width (the staircase performs identical IEEE
operations in identical order) and the full ``compute_degree_posterior``
matrix to 1e-12 (fold order over a vertex's incident pairs may differ
between the dict and CSR representations).
"""

import numpy as np
import pytest

from repro.core.degree_distribution import (
    AUTO_EXACT_LIMIT,
    degree_pmf,
    normal_approx_pmf,
    poisson_binomial_mean_var,
    poisson_binomial_pmf,
)
from repro.core.obfuscation_check import (
    compute_degree_posterior,
    tolerance_achieved,
)
from repro.core.posterior_batch import (
    degree_posterior_matrix,
    fold_in_staircase,
    normal_approx_pmf_batch,
)
from repro.uncertain.graph import UncertainGraph
from tests.oracles.fold import fold_in_bernoulli
from tests.oracles.posterior import (
    incident_probabilities,
    compute_degree_posterior_scalar,
    poisson_binomial_pmf_batch,
)

ATOL = 1e-12


def random_uncertain(rng, n, density=0.3) -> UncertainGraph:
    """A random uncertain graph on ``n`` vertices (dict-backed)."""
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                pairs.append((u, v, float(rng.random())))
    return UncertainGraph.from_pairs(n, pairs)


class TestPoissonBinomialBatch:
    def test_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for ell in (1, 2, 7, 40):
            P = rng.random((5, ell))
            batch = poisson_binomial_pmf_batch(P)
            for r in range(5):
                # Same fold, same order → identical IEEE arithmetic.
                assert np.array_equal(batch[r], poisson_binomial_pmf(P[r]))

    def test_truncated_fold_matches_truncated_scalar(self):
        rng = np.random.default_rng(1)
        P = rng.random((4, 20))
        for support in (0, 1, 5, 19, 30):
            batch = poisson_binomial_pmf_batch(P, support=support)
            assert batch.shape == (4, support + 1)
            for r in range(4):
                expected = degree_pmf(P[r], method="exact", support=support)
                assert np.array_equal(batch[r], expected)

    def test_zero_padding_is_noop(self):
        rng = np.random.default_rng(2)
        P = rng.random((3, 6))
        padded = np.hstack([P, np.zeros((3, 4))])
        assert np.array_equal(
            poisson_binomial_pmf_batch(padded, support=6),
            poisson_binomial_pmf_batch(P, support=6),
        )

    def test_zero_rows(self):
        out = poisson_binomial_pmf_batch(np.empty((0, 3)))
        assert out.shape == (0, 4)

    def test_no_addends(self):
        out = poisson_binomial_pmf_batch(np.empty((2, 0)), support=3)
        assert np.array_equal(out, [[1, 0, 0, 0], [1, 0, 0, 0]])

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            poisson_binomial_pmf_batch(np.array([[0.5, 1.5]]))
        with pytest.raises(ValueError):
            poisson_binomial_pmf_batch(np.array([0.5, 0.5]))  # 1-D


class TestFoldInOracle:
    def test_fold_in_matches_batch_dp(self, rng):
        """Folding the last addend into a finished row is bit-identical
        to having included it in the DP from the start."""
        P = rng.random((6, 9))
        full = poisson_binomial_pmf_batch(P, support=9)
        partial = poisson_binomial_pmf_batch(P[:, :-1], support=9)
        np.testing.assert_array_equal(
            fold_in_bernoulli(partial, P[:, -1]), full
        )


class TestNormalApproxBatch:
    def _moments(self, probs):
        mu, var = poisson_binomial_mean_var(probs)
        return np.array([mu]), np.array([var]), np.array([len(probs)])

    @pytest.mark.parametrize("ell", [1, 3, 10, 80])
    def test_matches_scalar(self, ell):
        rng = np.random.default_rng(ell)
        probs = rng.random(ell)
        for support in (0, 2, ell - 1, ell, ell + 5):
            mus, variances, lengths = self._moments(probs)
            batch = normal_approx_pmf_batch(
                mus, variances, lengths, support=support
            )
            expected = degree_pmf(probs, method="normal", support=support)
            assert batch.shape == (1, support + 1)
            np.testing.assert_allclose(batch[0], expected, atol=ATOL, rtol=0)

    def test_degenerate_rows(self):
        # All-certain addends: delta at round(μ), clipped like the scalar.
        probs = np.array([1.0, 1.0, 0.0])
        for support in (1, 2, 5):
            mus, variances, lengths = self._moments(probs)
            batch = normal_approx_pmf_batch(
                mus, variances, lengths, support=support
            )
            expected = degree_pmf(probs, method="normal", support=support)
            assert np.array_equal(batch[0], expected)

    def test_empty_vertex_row(self):
        batch = normal_approx_pmf_batch(
            np.array([0.0]), np.array([0.0]), np.array([0]), support=3
        )
        expected = degree_pmf(np.empty(0), method="normal", support=3)
        assert np.array_equal(batch[0], expected)

    def test_mixed_rows_in_one_call(self):
        rng = np.random.default_rng(7)
        vectors = [rng.random(5), np.ones(4), np.empty(0), rng.random(50)]
        moments = [poisson_binomial_mean_var(p) for p in vectors]
        batch = normal_approx_pmf_batch(
            np.array([m for m, _ in moments]),
            np.array([v for _, v in moments]),
            np.array([len(p) for p in vectors]),
            support=10,
        )
        for row, probs in zip(batch, vectors):
            expected = degree_pmf(probs, method="normal", support=10)
            np.testing.assert_allclose(row, expected, atol=ATOL, rtol=0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            normal_approx_pmf_batch(
                np.array([1.0]), np.array([1.0, 2.0]), np.array([3]), support=2
            )


class TestDegreePosteriorEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("method", ["exact", "normal", "auto"])
    def test_random_graphs_match_scalar(self, seed, method):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 50))
        ug = random_uncertain(rng, n, density=float(rng.uniform(0.05, 0.6)))
        for width in (None, 1, 4, n + 2):
            batch = compute_degree_posterior(ug, method=method, width=width)
            scalar = compute_degree_posterior_scalar(
                ug, method=method, width=width
            )
            assert batch.matrix.shape == scalar.matrix.shape
            np.testing.assert_allclose(
                batch.matrix, scalar.matrix, atol=ATOL, rtol=0
            )

    def test_auto_crosses_the_clt_threshold(self):
        # A hub vertex above AUTO_EXACT_LIMIT plus small vertices below it,
        # so one matrix mixes both engine paths.
        hub_deg = AUTO_EXACT_LIMIT + 10
        n = hub_deg + 1
        rng = np.random.default_rng(3)
        pairs = [(0, v, float(rng.random())) for v in range(1, n)]
        ug = UncertainGraph.from_pairs(n, pairs)
        batch = compute_degree_posterior(ug, method="auto", width=20)
        scalar = compute_degree_posterior_scalar(ug, method="auto", width=20)
        np.testing.assert_allclose(batch.matrix, scalar.matrix, atol=ATOL, rtol=0)
        # The hub row really took the CLT path: it differs from exact.
        exact = compute_degree_posterior(ug, method="exact", width=20)
        assert not np.allclose(batch.matrix[0], exact.matrix[0], atol=1e-15)

    def test_empty_graph(self):
        ug = UncertainGraph(4)
        batch = compute_degree_posterior(ug)
        scalar = compute_degree_posterior_scalar(ug)
        assert batch.matrix.shape == (4, 1)
        assert np.array_equal(batch.matrix, scalar.matrix)
        assert (batch.matrix[:, 0] == 1.0).all()

    def test_isolated_vertices_among_connected(self):
        ug = UncertainGraph.from_pairs(6, [(0, 1, 0.5), (0, 2, 0.25)])
        batch = compute_degree_posterior(ug, width=4)
        scalar = compute_degree_posterior_scalar(ug, width=4)
        np.testing.assert_allclose(batch.matrix, scalar.matrix, atol=ATOL, rtol=0)
        assert batch.matrix[5, 0] == 1.0

    def test_keep_zero_pairs_count_as_addends(self, fig1b):
        # A release may carry explicit p=0 pairs (a perturbation landing
        # on 0, or a keep_zero read); both engines must treat them as
        # (vacuous) Bernoulli addends.
        us, vs, ps = fig1b.pair_arrays()
        ug = UncertainGraph.from_arrays(
            4, [*us, 2], [*vs, 3], [*ps, 0.0], keep_zero=True
        )
        batch = compute_degree_posterior(ug, method="exact")
        scalar = compute_degree_posterior_scalar(ug, method="exact")
        np.testing.assert_allclose(batch.matrix, scalar.matrix, atol=ATOL, rtol=0)

    def test_tolerance_achieved_on_batched_engine(self, fig1a, fig1b):
        eps = tolerance_achieved(fig1b, fig1a.degrees(), k=2)
        posterior = compute_degree_posterior_scalar(
            fig1b, method="auto", width=int(fig1a.degrees().max()) + 1
        )
        eps_scalar = tolerance_achieved(
            fig1b, fig1a.degrees(), k=2, posterior=posterior
        )
        assert eps == eps_scalar

    @pytest.mark.parametrize("streamed", [False, True])
    @pytest.mark.parametrize("width", [None, 40])
    def test_exact_wide_rows_equal_scalar_dp(self, width, streamed, monkeypatch):
        """Exact rows of 97, 300 and 1000 addends, sharing one call with
        short and empty rows, are the scalar Lemma-1 DP bit for bit —
        untruncated and truncated, on the dense pad and on the streamed
        gather alike."""
        import repro.core.posterior_batch as pb

        rng = np.random.default_rng(23)
        hubs = (97, 300, 1000)
        n = len(hubs) + sum(hubs) + 5  # the last 5 vertices stay isolated
        pairs = []
        leaf = len(hubs)
        for hub, ell in enumerate(hubs):
            for _ in range(ell):
                pairs.append((hub, leaf, float(rng.random())))
                leaf += 1
        for u in range(len(hubs), len(hubs) + 12, 3):  # rows of 2-3 addends
            pairs.append((u, u + 1, float(rng.random())))
            pairs.append((u, u + 2, float(rng.random())))
        ug = UncertainGraph.from_pairs(n, pairs)
        scalar = compute_degree_posterior_scalar(ug, method="exact", width=width)
        # The CSR in the oracle's own per-vertex order, so both sides fold
        # each row's addends in the same sequence.
        rows = incident_probabilities(ug)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(r) for r in rows], out=indptr[1:])
        if streamed:
            monkeypatch.setattr(pb, "_DENSE_ADDEND_BUDGET", 0)
        batch = degree_posterior_matrix(
            indptr, np.concatenate(rows), method="exact", width=width
        )
        assert np.array_equal(batch, scalar.matrix)

    def test_degree_posterior_matrix_rejects_bad_input(self):
        with pytest.raises(ValueError, match="method"):
            degree_posterior_matrix(
                np.array([0, 1]), np.array([0.5]), method="bogus"
            )
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            degree_posterior_matrix(np.array([0, 1]), np.array([1.5]))
        with pytest.raises(ValueError, match="width"):
            degree_posterior_matrix(np.array([0, 1]), np.array([0.5]), width=0)


class TestOneExactKernel:
    """The Lemma-1 staircase is the only exact kernel: no posterior
    entry point takes a ``kernel=`` option."""

    @pytest.mark.parametrize(
        "call",
        [
            "degree_posterior_matrix",
            "fold_in_staircase",
            "compute_degree_posterior",
            "tolerance_achieved",
        ],
    )
    def test_kernel_keyword_rejected(self, call, fig1a, fig1b):
        indptr, data = np.array([0, 1]), np.array([0.5])
        calls = {
            "degree_posterior_matrix": lambda: degree_posterior_matrix(
                indptr, data, kernel="staircase"
            ),
            "fold_in_staircase": lambda: fold_in_staircase(
                np.ones((1, 2)), indptr, data, kernel="staircase"
            ),
            "compute_degree_posterior": lambda: compute_degree_posterior(
                fig1b, kernel="staircase"
            ),
            "tolerance_achieved": lambda: tolerance_achieved(
                fig1b, fig1a.degrees(), k=2, kernel="staircase"
            ),
        }
        with pytest.raises(TypeError, match="kernel"):
            calls[call]()


class TestArrayBackedGraph:
    def test_from_arrays_matches_from_pairs(self):
        rng = np.random.default_rng(11)
        n = 30
        ref = random_uncertain(rng, n, density=0.3)
        us, vs, ps = ref.pair_arrays()
        fast = UncertainGraph.from_arrays(n, us, vs, ps)
        assert fast.num_candidate_pairs == ref.num_candidate_pairs
        for u, v, p in ref.candidate_pairs():
            assert fast.probability(u, v) == p
        np.testing.assert_allclose(
            fast.expected_degrees(), ref.expected_degrees(), atol=ATOL, rtol=0
        )
        assert fast.expected_num_edges() == pytest.approx(ref.expected_num_edges())
        np.testing.assert_allclose(
            compute_degree_posterior(fast).matrix,
            compute_degree_posterior_scalar(ref).matrix,
            atol=ATOL,
            rtol=0,
        )

    def test_from_arrays_orients_and_drops_zeros(self):
        ug = UncertainGraph.from_arrays(
            4, [3, 2], [0, 1], [0.5, 0.0]
        )
        assert ug.num_candidate_pairs == 1
        assert ug.probability(0, 3) == 0.5
        kept = UncertainGraph.from_arrays(
            4, [3, 2], [0, 1], [0.5, 0.0], keep_zero=True
        )
        assert kept.num_candidate_pairs == 2
        assert kept.probability(1, 2) == 0.0

    def test_from_arrays_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            UncertainGraph.from_arrays(3, [1], [1], [0.5])
        with pytest.raises(ValueError, match="< n"):
            UncertainGraph.from_arrays(3, [0], [3], [0.5])
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            UncertainGraph.from_arrays(3, [0], [1], [1.5])
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            UncertainGraph.from_arrays(3, [0], [1], [np.nan])
        with pytest.raises(ValueError, match="duplicate"):
            UncertainGraph.from_arrays(3, [0, 1], [1, 0], [0.5, 0.6])
        with pytest.raises(ValueError, match="lengths"):
            UncertainGraph.from_arrays(3, [0], [1, 2], [0.5])

    def test_from_arrays_does_not_freeze_caller_buffer(self):
        ps = np.array([0.5, 0.25])
        UncertainGraph.from_arrays(3, np.array([0, 1]), np.array([1, 2]), ps)
        assert ps.flags.writeable
        ps[0] = 0.9  # still the caller's to mutate

    def test_incident_csr_groups_all_vertices(self):
        rng = np.random.default_rng(13)
        ug = random_uncertain(rng, 25, density=0.25)
        indptr, data = ug.incident_probability_csr()
        assert indptr.shape == (26,)
        assert len(data) == 2 * ug.num_candidate_pairs
        for v, scalar in enumerate(incident_probabilities(ug)):
            grouped = np.sort(data[indptr[v] : indptr[v + 1]])
            assert np.array_equal(grouped, np.sort(scalar))

    def test_expected_degrees_matches_pair_loop(self):
        rng = np.random.default_rng(17)
        ug = random_uncertain(rng, 40, density=0.2)
        reference = np.zeros(40)
        for u, v, p in ug.candidate_pairs():
            reference[u] += p
            reference[v] += p
        np.testing.assert_allclose(
            ug.expected_degrees(), reference, atol=ATOL, rtol=0
        )


class TestVectorisedErf:
    def test_normal_approx_matches_math_erf_reference(self):
        import math

        rng = np.random.default_rng(19)
        probs = rng.random(40)
        pmf = normal_approx_pmf(probs)
        mu = float(probs.sum())
        sigma = math.sqrt(float((probs * (1.0 - probs)).sum()))
        edges = (np.arange(len(probs) + 2) - 0.5 - mu) / (sigma * math.sqrt(2))
        cdf = np.array([0.5 * (1.0 + math.erf(x)) for x in edges])
        cdf[0], cdf[-1] = 0.0, 1.0
        np.testing.assert_allclose(pmf, np.diff(cdf), atol=ATOL, rtol=0)


def _csr(n, us, vs, ps):
    """Canonical incidence CSR of the *code-sorted* pair list."""
    order = np.argsort(us * n + vs, kind="stable")
    us, vs, ps = us[order], vs[order], ps[order]
    endpoints = np.concatenate([us, vs])
    dup = np.concatenate([ps, ps])
    counts = np.bincount(endpoints, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dup[np.argsort(endpoints, kind="stable")]


def _random_pairs(rng, n, m):
    codes = np.sort(rng.choice(n * (n - 1) // 2, size=m, replace=False))
    # decode the triangular index
    us = np.empty(m, dtype=np.int64)
    vs = np.empty(m, dtype=np.int64)
    for i, c in enumerate(codes.tolist()):
        u = 0
        while c >= n - 1 - u:
            c -= n - 1 - u
            u += 1
        us[i], vs[i] = u, u + 1 + c
    return us, vs


class TestRowIndependence:
    """Sub-CSR recompute == full compute, bit-for-bit, for every method.

    The array probe path rebuilds only the rows that lost an edge to
    candidate toggling, and relies on this to match a full pass.
    """

    @pytest.mark.parametrize("method", ["exact", "normal", "auto"])
    def test_subset_rows_bit_identical(self, method, rng):
        n = 40
        us, vs = _random_pairs(rng, n, 150)
        ps = rng.random(150)
        indptr, data = _csr(n, us, vs, ps)
        width = 12
        full = degree_posterior_matrix(indptr, data, method=method, width=width)
        subset = rng.choice(n, size=15, replace=False)
        counts = np.diff(indptr)[subset]
        sub_indptr = np.zeros(len(subset) + 1, dtype=np.int64)
        np.cumsum(counts, out=sub_indptr[1:])
        sub_data = np.concatenate(
            [data[indptr[v] : indptr[v] + c] for v, c in zip(subset, counts)]
        ) if counts.sum() else np.empty(0)
        rows = degree_posterior_matrix(
            sub_indptr, sub_data, method=method, width=width
        )
        np.testing.assert_array_equal(rows, full[subset])

    def test_streamed_addend_path_bit_identical(self, rng, monkeypatch):
        """Above the dense-pad budget (forced-exact on skewed graphs)
        the DP streams addend columns from the CSR — same bits."""
        import repro.core.posterior_batch as pb

        n = 40
        us, vs = _random_pairs(rng, n, 180)
        ps = rng.random(180)
        indptr, data = _csr(n, us, vs, ps)
        dense = degree_posterior_matrix(indptr, data, method="exact", width=10)
        monkeypatch.setattr(pb, "_DENSE_ADDEND_BUDGET", 0)
        streamed = degree_posterior_matrix(indptr, data, method="exact", width=10)
        np.testing.assert_array_equal(streamed, dense)
