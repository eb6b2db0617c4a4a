"""Fisher metric and cubic tensor against closed forms."""

import re
from dataclasses import replace

import numpy as np
import pytest

from weylprior import (QuadratureSpec, amari_chentsov, fisher_metric, get_model,
                       kernels, weyl_one_form)
from weylprior.errors import DomainError, NotSPDError
from weylprior.numerics import sample_nodes
from weylprior.tensors import (CHUNK_BYTES, _chunk_rows, cubic_trace, inverse_metric,
                               metric_and_cubic, sqrt_det_metric)

from conftest import vech_theta


def gaussian1d_metric(s2):
    return np.diag([1.0 / s2, 0.5 / s2 ** 2])


def gaussian1d_cubic(s2):
    # nonzero entries: C_111 = 1/sigma^6, C_100 = C_010 = C_001 = 1/sigma^4
    c = np.zeros((2, 2, 2))
    c[1, 1, 1] = 1.0 / s2 ** 3
    c[1, 0, 0] = c[0, 1, 0] = c[0, 0, 1] = 1.0 / s2 ** 2
    return c


class TestGaussian1d:
    @pytest.mark.parametrize("mu,s2", [(0.0, 1.0), (2.0, 0.5), (-3.0, 4.0)])
    def test_metric(self, g1, mu, s2):
        met = fisher_metric(g1, [mu, s2])
        np.testing.assert_allclose(met.g, gaussian1d_metric(s2), atol=1e-12)

    @pytest.mark.parametrize("mu,s2", [(0.0, 1.0), (2.0, 0.5), (-3.0, 4.0)])
    def test_cubic(self, g1, mu, s2):
        cub = amari_chentsov(g1, [mu, s2])
        np.testing.assert_allclose(cub, gaussian1d_cubic(s2), atol=1e-10)

    def test_sqrt_det(self, g1):
        met = fisher_metric(g1, [0.0, 1.0])
        assert sqrt_det_metric(met) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-14)

    def test_mu_sigma_chart(self, g1):
        # in (mu, sigma) the metric is diag(1/sigma^2, 2/sigma^2)
        met = fisher_metric(g1, [0.0, 2.0], chart="mu_sigma")
        np.testing.assert_allclose(met.g, np.diag([0.25, 0.5]), atol=1e-12)

    def test_inverse(self, g1):
        met = fisher_metric(g1, [1.0, 3.0])
        np.testing.assert_allclose(inverse_metric(met) @ met.g, np.eye(2),
                                   atol=1e-12)


class TestGaussianMV:
    def test_identity_covariance(self, mv2):
        # g = blockdiag(Sigma^{-1}, vech metric); at Sigma = I the vech block
        # is diag(1/2, 1, 1/2): g_ab = 1/2 tr(S^-1 D_a S^-1 D_b) with the
        # off-diagonal basis matrix D counted twice
        met = fisher_metric(mv2, vech_theta([0, 0], np.eye(2)))
        np.testing.assert_allclose(
            met.g, np.diag([1.0, 1.0, 0.5, 1.0, 0.5]), atol=1e-10)

    def test_general_covariance(self, mv2):
        sigma = np.array([[2.0, 0.7], [0.7, 1.5]])
        mu = np.array([0.4, -0.9])
        met = fisher_metric(mv2, vech_theta(mu, sigma))
        p = np.linalg.inv(sigma)
        np.testing.assert_allclose(met.g[:2, :2], p, atol=1e-9)
        np.testing.assert_allclose(met.g[:2, 2:], 0.0, atol=1e-9)
        # covariance block from the trace formula over the vech basis
        basis = []
        for (i, j) in [(0, 0), (0, 1), (1, 1)]:
            d = np.zeros((2, 2))
            d[i, j] = d[j, i] = 1.0
            basis.append(d)
        want = np.array([[0.5 * np.trace(p @ a @ p @ b) for b in basis]
                         for a in basis])
        np.testing.assert_allclose(met.g[2:, 2:], want, atol=1e-9)

    def test_cubic_mu_entries(self, mv2):
        # C_{a, i, j} with one vech index and two mean indices equals
        # (Sigma^-1 D_a Sigma^-1)_{ij}
        sigma = np.array([[1.5, -0.3], [-0.3, 1.0]])
        cub = amari_chentsov(mv2, vech_theta([0, 0], sigma))
        p = np.linalg.inv(sigma)
        basis = []
        for (i, j) in [(0, 0), (0, 1), (1, 1)]:
            d = np.zeros((2, 2))
            d[i, j] = d[j, i] = 1.0
            basis.append(d)
        for a, d in enumerate(basis):
            np.testing.assert_allclose(cub[2 + a, :2, :2], p @ d @ p,
                                       atol=1e-9)
        # pure mean-index entries vanish by symmetry
        np.testing.assert_allclose(cub[:2, :2, :2], 0.0, atol=1e-9)


class TestDiscrete:
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_bernoulli(self, bern, p):
        met = fisher_metric(bern, [p])
        assert met.g[0, 0] == pytest.approx(1.0 / (p * (1 - p)), rel=1e-12)
        cub = amari_chentsov(bern, [p])
        want = (1.0 - 2.0 * p) / (p * (1 - p)) ** 2
        assert cub[0, 0, 0] == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_poisson(self, pois, lam):
        assert fisher_metric(pois, [lam]).g[0, 0] == pytest.approx(
            1.0 / lam, rel=1e-10)
        # E[(x/lam - 1)^3] = kappa_3 / lam^3 = 1 / lam^2
        assert amari_chentsov(pois, [lam])[0, 0, 0] == pytest.approx(
            1.0 / lam ** 2, rel=1e-8)


def test_metric_and_cubic_matches_separate(g1):
    theta = [1.0, 2.0]
    met, cub = metric_and_cubic(g1, theta)
    np.testing.assert_allclose(met.g, fisher_metric(g1, theta).g, atol=1e-14)
    np.testing.assert_allclose(cub, amari_chentsov(g1, theta), atol=1e-14)


class TestChecks:
    def test_rank_deficient_metric_names_theta(self, mv2):
        # 2 nodes per sample dimension give 4 score vectors for 5 parameters
        theta = [0.0, 0.0, 1.0, 0.2, 1.0]
        with pytest.raises(NotSPDError) as exc:
            weyl_one_form(mv2, theta, quad=QuadratureSpec(2))
        assert "theta=[0.0, 0.0, 1.0, 0.2, 1.0]" in str(exc.value)

    def test_non_finite_trace_names_theta(self, g1, monkeypatch):
        def nan_second_row(w, s, a):
            t = np.einsum("pn,pni,pnj,pjk,pnk->pi", w, s, s, a, s)
            t[1, 0] = np.nan
            return t

        monkeypatch.setattr(kernels, "trace_contract_stack", nan_second_row)
        with pytest.raises(NotSPDError, match=r"non-finite trace of the cubic tensor "
                                              r"at theta=\[0\.5, 2\.0\]"):
            cubic_trace(g1, [[0.0, 1.0], [0.5, 2.0], [0.0, 3.0]])
        with pytest.raises(NotSPDError, match=r"theta=\[0\.5, 2\.0\]"):
            weyl_one_form(g1, [[0.0, 1.0], [0.5, 2.0], [0.0, 3.0]])

    @pytest.mark.parametrize("compute", [fisher_metric, metric_and_cubic, cubic_trace])
    def test_each_metric_is_factored_once(self, g1, monkeypatch, compute):
        # one chunk: one Cholesky call gives the SPD check, g^-1 for the
        # trace and the kept factor
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(np.shape(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        compute(g1, [[0.0, 1.0], [0.5, 2.0], [0.0, 3.0]])
        assert calls == [(3, 2, 2)]

    def test_non_finite_cubic_raises(self, g1, monkeypatch):
        monkeypatch.setattr(kernels, "triple_contract_stack",
                            lambda w, s: np.full((len(w), 2, 2, 2), np.nan))
        with pytest.raises(NotSPDError, match="non-finite cubic tensor"):
            metric_and_cubic(g1, [0.0, 1.0])

    @pytest.mark.parametrize("compute", [fisher_metric, metric_and_cubic])
    def test_non_finite_metric_names_theta(self, g1, monkeypatch, compute):
        # np.linalg.cholesky accepts a NaN on the diagonal
        monkeypatch.setattr(kernels, "pair_contract_stack",
                            lambda w, s: np.broadcast_to(np.diag([1.0, np.nan]),
                                                         (len(w), 2, 2)))
        with pytest.raises(NotSPDError, match=r"non-finite Fisher metric at "
                                              r"theta=\[0\.0, 1\.0\]"):
            compute(g1, [0.0, 1.0])


def stack_points(model_id, chart):
    """Interior points of each case; gaussian1d gets more than one chunk."""
    rng = np.random.default_rng(7)
    if model_id == "gaussian1d":
        n = 2 * CHUNK_BYTES // (8 * 64 * 2 * 2) + 3    # 64 nodes, m = 2
        mu, s = rng.uniform(-2, 2, n), np.exp(rng.uniform(-1.5, 1.5, n))
        second = {"mu_sigma2": s, "mu_sigma": np.sqrt(s), "natural": -0.5 / s}[chart]
        first = mu / s if chart == "natural" else mu
        return np.column_stack([first, second])
    if model_id == "gaussian_mv:2":
        return np.array([vech_theta([0.1 * k, -0.2], [[1.0 + 0.2 * k, 0.1 * k],
                                                       [0.1 * k, 1.5 - 0.1 * k]])
                         for k in range(5)])
    if model_id == "bernoulli":
        return rng.uniform(0.05, 0.95, (9, 1))
    # rates whose truncated supports differ in width, evaluated in groups
    return np.array([[0.5], [3.0], [40.0], [1.2], [12.0]])


class TestStackIndependence:
    """Every point of a stack gets bitwise the values of a one-point call."""

    CASES = [("gaussian1d", "mu_sigma2"), ("gaussian1d", "mu_sigma"),
             ("gaussian1d", "natural"), ("gaussian_mv:2", "mu_vech"),
             ("bernoulli", "p"), ("poisson", "lam")]

    @pytest.mark.parametrize("model_id,chart", CASES,
                             ids=[f"{m}-{c}" for m, c in CASES])
    def test_matches_one_point_calls(self, model_id, chart):
        model = get_model(model_id)
        pts = stack_points(model_id, chart)
        met, cub = metric_and_cubic(model, pts, chart)
        phi = weyl_one_form(model, pts, chart)
        root = sqrt_det_metric(met)
        assert met.g.shape == (len(pts), model.dim, model.dim)
        for k, t in enumerate(pts):
            one_met, one_cub = metric_and_cubic(model, t, chart)
            assert np.array_equal(met.g[k], one_met.g)
            assert np.array_equal(met.g[k], fisher_metric(model, t, chart).g)
            assert np.array_equal(cub[k], one_cub)
            assert np.array_equal(cub[k], amari_chentsov(model, t, chart))
            assert np.array_equal(phi[k], weyl_one_form(model, t, chart))
            assert root[k] == sqrt_det_metric(one_met)

    def test_mixed_support_widths_refused(self, pois):
        # a point's sums depend on its node count, so no support is padded to
        # a common width: sample_nodes takes one width per stack
        with pytest.raises(ValueError, match=r"one support width, got widths "
                                             r"\[28, 124\]"):
            sample_nodes(pois, np.array([[0.5], [40.0]]))
        rates = np.array([[3.0], [3.1]])
        x, w = sample_nodes(pois, rates)
        for k, lam in enumerate(rates):
            one_x, one_w = sample_nodes(pois, lam)
            assert np.array_equal(x[k], one_x)
            assert np.array_equal(w[k], one_w)

    def test_inverse_and_sqrt_det_from_one_factor(self, mv2):
        met = fisher_metric(mv2, vech_theta([0.4, -0.9], [[2.0, 0.7], [0.7, 1.5]]))
        np.testing.assert_allclose(inverse_metric(met) @ met.g, np.eye(5), atol=1e-12)
        assert sqrt_det_metric(met) == pytest.approx(np.sqrt(np.linalg.det(met.g)),
                                                     rel=1e-12)
        assert np.array_equal(met.chol, np.linalg.cholesky(met.g))


class TestSupportWidths:
    """A discrete stack evaluates its supports once and its tensors in
    groups of one width."""

    def test_one_support_size_evaluation_per_stack(self, pois, monkeypatch):
        from weylprior import numerics, tensors
        sizes, widths = [], []
        space = pois.sample_space

        def counted_size(t):
            sizes.append(np.shape(t))
            return space.support_size(t)

        def recorded_nodes(model, theta_ref, quad=None, width=None):
            widths.append((len(theta_ref), width))
            return numerics.sample_nodes(model, theta_ref, quad, width)

        model = replace(pois, sample_space=replace(space, support_size=counted_size))
        monkeypatch.setattr(tensors, "sample_nodes", recorded_nodes)
        rates = stack_points("poisson", "lam")
        met, cub = metric_and_cubic(model, rates)
        assert sizes == [rates.shape]
        # one sample_nodes call per distinct width, each given its width
        want = sorted(set(space.support_size(rates).tolist()))
        assert sorted(w for _, w in widths) == want
        assert sum(n for n, _ in widths) == len(rates)
        for k, lam in enumerate(rates):
            assert np.array_equal(met.g[k], fisher_metric(pois, lam).g)
            assert np.array_equal(cub[k], amari_chentsov(pois, lam))


class TestEmptyStack:
    @pytest.mark.parametrize("model_id", ["gaussian1d", "gaussian_mv:2", "poisson"])
    def test_empty_stack_gives_empty_arrays(self, model_id):
        model = get_model(model_id)
        m = model.dim
        empty = np.empty((0, m))
        assert fisher_metric(model, empty).g.shape == (0, m, m)
        assert amari_chentsov(model, empty).shape == (0, m, m, m)
        assert cubic_trace(model, empty).shape == (0, m)
        assert weyl_one_form(model, empty).shape == (0, m)


class TestStackErrors:
    def test_outside_point_is_named(self, g1):
        pts = [[0.0, 1.0], [0.5, 2.0], [0.25, -1.0], [0.0, 3.0]]
        with pytest.raises(DomainError, match=r"theta=\[0\.25, -1\.0\] is not interior"):
            metric_and_cubic(g1, pts)
        with pytest.raises(DomainError, match=r"theta=\[0\.25, -1\.0\]"):
            weyl_one_form(g1, pts)

    def test_non_finite_metric_names_its_point(self, g1, monkeypatch):
        def nan_second_row(w, s):
            g = np.einsum("pn,pni,pnj->pij", w, s, s)
            g[1, 1, 1] = np.nan
            return g

        monkeypatch.setattr(kernels, "pair_contract_stack", nan_second_row)
        with pytest.raises(NotSPDError, match=r"non-finite Fisher metric at "
                                              r"theta=\[0\.5, 2\.0\]"):
            metric_and_cubic(g1, [[0.0, 1.0], [0.5, 2.0], [0.0, 3.0]])

    def test_not_spd_in_a_later_trace_chunk_names_its_point(self, g1, monkeypatch):
        # the second chunk's factorisation fails at its sixth point: its trace
        # is NaN, and the stack's SPD check names that point
        pts = stack_points("gaussian1d", "mu_sigma2")
        rows = _chunk_rows(64, 2)
        assert len(pts) > 2 * rows
        calls = []

        def indefinite_in_second_chunk(w, s):
            g = np.einsum("pn,pni,pnj->pij", w, s, s)
            calls.append(len(g))
            if len(calls) == 2:
                g[5] = [[1.0, 2.0], [2.0, 1.0]]
            return g

        monkeypatch.setattr(kernels, "pair_contract_stack", indefinite_in_second_chunk)
        want = "not positive-definite at theta=" + re.escape(str(pts[rows + 5].tolist()))
        with pytest.raises(NotSPDError, match=want):
            cubic_trace(g1, pts)
        assert calls == [rows, rows, len(pts) - 2 * rows]

    def test_not_spd_names_its_point(self, g1, monkeypatch):
        def indefinite_last_row(w, s):
            g = np.einsum("pn,pni,pnj->pij", w, s, s)
            g[-1] = [[1.0, 2.0], [2.0, 1.0]]
            return g

        monkeypatch.setattr(kernels, "pair_contract_stack", indefinite_last_row)
        with pytest.raises(NotSPDError, match=r"not positive-definite at "
                                              r"theta=\[0\.0, 3\.0\]"):
            metric_and_cubic(g1, [[0.0, 1.0], [0.5, 2.0], [0.0, 3.0]])
