"""Model registry: charts, densities, scores, normalization."""

import math
import re
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from weylprior import get_model, log_density, score
from weylprior.errors import (DataError, DomainError, InvalidConfigError,
                              UnknownModelError)
from weylprior.models import _log_factorial, vech_from_mat, vech_indices
from weylprior.numerics import sample_nodes

from conftest import expect, vech_theta


def _fd_score(model, x, theta_ref, rel_step=1e-5):
    """Central differences of the log-density, the oracle for the analytic
    scores."""
    theta_ref = np.asarray(theta_ref, dtype=float)
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(model.dim):
        h = rel_step * (np.abs(theta_ref[..., i]) + 1.0)
        tp = theta_ref.copy()
        tm = theta_ref.copy()
        tp[..., i] += h
        tm[..., i] -= h
        cols.append((model.log_density(x, tp) - model.log_density(x, tm))
                    / (2.0 * h[..., None]))
    return np.stack(cols, axis=-1)


class TestRegistry:
    def test_gaussian1d_charts(self, g1):
        assert g1.dim == 2
        assert set(g1.charts) == {"mu_sigma2", "mu_sigma", "natural"}
        assert g1.reference == "mu_sigma2"

    def test_mv_dimension(self):
        for n in (1, 2, 3):
            m = get_model("gaussian_mv", n=n)
            assert m.dim == n + n * (n + 1) // 2

    def test_bernoulli_support(self, bern):
        assert bern.dim == 1
        assert bern.sample_space.support_size(np.array([0.3])) == 2
        np.testing.assert_array_equal(
            sample_nodes(bern, np.array([0.3]))[0], [0.0, 1.0])

    def test_unknown_id(self):
        with pytest.raises(UnknownModelError):
            get_model("cauchy")

    def test_bad_config(self):
        with pytest.raises(InvalidConfigError):
            get_model("gaussian_mv", n=0)

    def test_mv_dimension_bound(self):
        # 4^7 nodes per point of gaussian_mv:7 (m = 35) keep one point's
        # score products within numerics.MAX_STEP_DOUBLES; 4^8 of
        # gaussian_mv:8 (m = 44) do not, and no rule under 4 nodes is exact
        assert get_model("gaussian_mv", n=7).dim == 35
        with pytest.raises(InvalidConfigError, match=re.escape(
                "gaussian_mv:8: 8 sample dimensions need at least 4^8 nodes "
                "per point; at most 17331 at dimension 44")):
            get_model("gaussian_mv", n=8)

    def test_colon_syntax(self):
        assert get_model("gaussian_mv:3").dim == 9


class TestLogDensity:
    def test_standard_normal_at_mode(self, g1):
        assert log_density(g1, 0.0, [0.0, 1.0]) == pytest.approx(
            -0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_one_sigma_offset(self, g1):
        for mu, s2 in [(0.0, 1.0), (2.0, 3.0), (-1.0, 0.5)]:
            lo = log_density(g1, mu, [mu, s2])
            hi = log_density(g1, mu + np.sqrt(s2), [mu, s2])
            assert hi == pytest.approx(lo - 0.5, abs=1e-12)

    def test_mv_standard(self, mv2):
        th = vech_theta([0, 0], np.eye(2))
        val = log_density(mv2, np.array([[0.0, 0.0]]), th)
        assert val[0] == pytest.approx(-np.log(2 * np.pi), abs=1e-12)

    def test_domain_violation(self, g1):
        with pytest.raises(DomainError):
            log_density(g1, 0.0, [0.0, -1.0])

    def test_mv_not_spd(self, mv2):
        with pytest.raises(DomainError):
            log_density(mv2, np.array([[0.0, 0.0]]),
                        vech_theta([0, 0], [[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("model_id, x, theta", [
        ("poisson", 2.5, [3.0]), ("poisson", -0.5, [3.0]),
        ("poisson", -1.0, [3.0]), ("poisson", 2.0 ** 53 + 2.0, [3.0]),
        ("poisson", 1e19, [3.0]), ("bernoulli", 0.5, [0.3])])
    def test_x_outside_the_sample_space(self, model_id, x, theta):
        model = get_model(model_id)
        with pytest.raises(DataError, match="row 1: observation"):
            log_density(model, x, theta)
        with pytest.raises(DataError, match="row 2: observation"):
            log_density(model, np.array([0.0, x]), theta)


class TestLogFactorial:
    def test_within_3_ulp_of_exact(self):
        k = np.arange(3001, dtype=float)
        got = _log_factorial(k).tolist()
        assert got[:2] == [0.0, 0.0]
        # steps of one ulp from the correctly rounded value of log k!
        with localcontext() as ctx:
            ctx.prec = 40
            exact = Decimal(0)
            for j in range(2, 3001):
                exact += Decimal(j).ln()
                near = float(exact)
                assert abs(got[j] - near) <= 3 * math.ulp(near), j

    def test_counts_past_the_table(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for big in (4096.0, 1e6, 1e9, 2.0 ** 53):
                x = np.array([[3.0, big], [big, 0.0]])
                want = [[math.lgamma(v + 1.0) for v in row] for row in x.tolist()]
                assert _log_factorial(x).tolist() == want


class TestScore:
    def test_gaussian1d_values(self, g1):
        np.testing.assert_allclose(score(g1, 1.0, [0.0, 1.0]), [1.0, 0.0],
                                   atol=1e-14)
        for mu, s2 in [(0.0, 1.0), (1.5, 4.0)]:
            np.testing.assert_allclose(score(g1, mu, [mu, s2]),
                                       [0.0, -0.5 / s2], atol=1e-14)

    def test_mv_at_mean(self, mv2):
        th = vech_theta([0.3, -0.2], np.eye(2))
        s = score(mv2, np.array([[0.3, -0.2]]), th)[0]
        # mu block vanishes; Sigma block is vech of -1/2 Sigma^{-1}
        np.testing.assert_allclose(s[:2], 0.0, atol=1e-14)
        np.testing.assert_allclose(s[2:], [-0.5, 0.0, -0.5], atol=1e-14)

    @pytest.mark.parametrize("model_id,theta,x", [
        ("gaussian1d", [0.7, 2.3], 1.9),
        ("bernoulli", [0.37], 1.0),
        ("poisson", [2.5], 4.0),
    ])
    def test_analytic_matches_fd(self, model_id, theta, x):
        model = get_model(model_id)
        analytic = score(model, x, theta)
        fd = _fd_score(model, np.array([x]), np.asarray(theta, dtype=float))[0]
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-8)

    def test_mv_analytic_matches_fd(self, mv2):
        th = vech_theta([0.5, -1.0], [[2.0, 0.4], [0.4, 1.0]])
        x = np.array([[1.2, -0.3]])
        np.testing.assert_allclose(score(mv2, x, th)[0],
                                   _fd_score(mv2, x, th)[0],
                                   rtol=1e-6, atol=1e-7)

    def test_mv1_matches_gaussian1d(self, g1):
        # gaussian_mv:1 is gaussian1d in the same (mu, sigma^2) coordinates;
        # both take the samples of a 1-D space without a trailing axis
        mv1 = get_model("gaussian_mv:1")
        theta = np.array([[0.7, 2.3], [-1.0, 0.4]])
        x = np.array([[1.9, -0.3, 0.0], [2.0, 0.5, -4.0]])
        np.testing.assert_allclose(mv1.log_density(x, theta),
                                   g1.log_density(x, theta), rtol=1e-14)
        np.testing.assert_allclose(mv1.score_ref(x, theta),
                                   g1.score_ref(x, theta), rtol=1e-13, atol=1e-15)
        assert log_density(mv1, 1.9, theta[0]) == log_density(g1, 1.9, theta[0])


def matrix_and_stack_mv_score(n, x, t):
    """The gaussian_mv score as first written: dl/dSigma as an (..., q, n, n)
    matrix, its vech columns gathered by np.stack."""
    idx = vech_indices(n)
    mu = t[..., :n]
    sig = np.empty(t.shape[:-1] + (n, n))
    for k, (i, j) in enumerate(idx):
        sig[..., i, j] = sig[..., j, i] = t[..., n + k]
    x = x[..., None] if n == 1 else x
    p = np.linalg.inv(sig)
    z = (x - mu[..., None, :]) @ p
    a = 0.5 * (z[..., :, None] * z[..., None, :] - p[..., None, :, :])
    cols = [z[..., i] for i in range(n)]
    for i, j in idx:
        cols.append(a[..., i, j] if i == j else 2.0 * a[..., i, j])
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mv_score_bits_match_matrix_and_stack_formula(n):
    # the score writes its columns into one array; the float operations and
    # their order are those of the matrix-and-stack formula, so the bits are too
    model = get_model(f"gaussian_mv:{n}")
    rng = np.random.default_rng(n)
    a = rng.standard_normal((3, n, n))
    sig = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(n)
    theta = np.array([vech_theta(mu, s) for mu, s in zip(rng.standard_normal((3, n)), sig)])
    x, _ = sample_nodes(model, theta)
    got = model.score_ref(x, theta)
    assert got.shape == (3, len(x[0]), model.dim)
    assert np.array_equal(got, matrix_and_stack_mv_score(n, x, theta))


class TestInvariants:
    @pytest.mark.parametrize("model_id,thetas", [
        ("gaussian1d", [[0.0, 1.0], [2.0, 0.5], [-1.0, 9.0]]),
        ("gaussian_mv:2", [None]),
        ("bernoulli", [[0.2], [0.5], [0.9]]),
        ("poisson", [[0.5], [3.0], [20.0]]),
    ])
    def test_normalization_and_zero_mean_score(self, model_id, thetas):
        model = get_model(model_id)
        if model_id == "gaussian_mv:2":
            thetas = [vech_theta([0.5, -0.5], [[2.0, 0.7], [0.7, 1.5]])]
        for theta in thetas:
            theta = np.asarray(theta, dtype=float)
            assert expect(model, theta, lambda x: np.ones(np.shape(x)[0] if np.ndim(x) else 1)) \
                == pytest.approx(1.0, abs=1e-8)
            for i in range(model.dim):
                mean_score = expect(
                    model, theta,
                    lambda x, i=i, t=theta: model.score_ref(np.atleast_1d(x), t)[:, i])
                assert abs(mean_score) < 1e-8

    def test_chart_round_trips(self, g1):
        rng = np.random.default_rng(1)
        for chart in g1.charts.values():
            for _ in range(20):
                if chart.name == "natural":
                    theta = np.array([rng.normal(), -np.exp(rng.normal())])
                else:
                    theta = np.array([rng.normal(), np.exp(rng.normal())])
                back = chart.from_reference(chart.to_reference(theta))
                np.testing.assert_allclose(back, theta, rtol=1e-12, atol=1e-12)
                assert np.linalg.det(chart.jacobian(theta)) != 0.0

    def test_jacobian_consistency_fd(self, g1):
        # chart Jacobians match finite differences of to_reference
        theta = np.array([0.4, 1.7])
        for name in ("mu_sigma", "natural"):
            ch = g1.chart(name)
            t = theta if name == "mu_sigma" else ch.from_reference(theta)
            jac = ch.jacobian(t)
            h = 1e-6
            for a in range(2):
                tp, tm = t.copy(), t.copy()
                tp[a] += h
                tm[a] -= h
                fd = (ch.to_reference(tp) - ch.to_reference(tm)) / (2 * h)
                np.testing.assert_allclose(jac[:, a], fd, rtol=1e-6, atol=1e-8)

    def test_poisson_truncation_tail(self, pois):
        for lam in (0.5, 3.0, 40.0):
            pts = np.arange(pois.sample_space.support_size(np.array([lam])))
            mass = np.exp(pois.log_density(pts, np.array([lam]))).sum()
            assert 1.0 - mass < 1e-12
        # over a wide sweep the mass dropped beyond the support is summed
        # directly: 1 - (kept mass) carries the pmf's rounding, about 1e-11
        # at lam = 1e4, which would hide the tail
        for lam in np.geomspace(1e-6, 1e4, 41):
            n = int(pois.sample_space.support_size(np.array([lam])))
            dropped = np.exp(pois.log_density(np.arange(n, 3 * n),
                                              np.array([lam]))).sum()
            assert dropped < 1e-12, lam

    def test_poisson_support_width_closed_form(self, pois):
        # N + 1 points with N = floor(lam + 10 sqrt(lam) + 20); Bennett's
        # inequality bounds the mass beyond N by e^-30
        lam = np.concatenate([np.geomspace(1e-9, 1e9, 2001),
                              np.linspace(0.01, 100.0, 2001)])
        want = [int(v + 10.0 * np.sqrt(v) + 20.0) + 1 for v in lam.tolist()]
        size = pois.sample_space.support_size
        assert size(lam[:, None]).tolist() == want
        assert [int(size(np.array([v]))) for v in lam[::50]] == want[::50]

    def test_vech_round_trip(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3))
        sym = a + a.T
        v = vech_from_mat(sym)
        assert len(v) == 6
        assert vech_indices(3)[0] == (0, 0)
        rebuilt = np.zeros((3, 3))
        for val, (i, j) in zip(v, vech_indices(3)):
            rebuilt[i, j] = val
            rebuilt[j, i] = val
        np.testing.assert_array_equal(rebuilt, sym)


def _interior_draws(chart, rng, count):
    """``count`` interior points of ``chart``: coordinates of either sign on
    scales from 1e-6 to 10, kept if the point is interior."""
    out = np.empty((0, chart.dim))
    while len(out) < count:
        size = (4 * count, chart.dim)
        t = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-6.0, 1.0, size)
        out = np.vstack([out, t[chart.interior(t)]])
    return out[:count]


class TestChartImages:
    """A point of another chart is interior only if its reference image is."""

    @pytest.mark.parametrize("model_id,eta,inside", [
        ("bernoulli", 800.0, False), ("bernoulli", -800.0, False),
        ("poisson", -800.0, False), ("poisson", 710.0, False),
        ("bernoulli", 36.0, True), ("bernoulli", -30.0, True),
        ("poisson", -30.0, True), ("poisson", 709.0, True),
    ])
    def test_natural_chart(self, model_id, eta, inside):
        chart = get_model(model_id).chart("natural")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert chart.interior([[eta]]).tolist() == [inside]


class TestChartConvexity:
    # potentials and grid sweeps integrate along straight segments without
    # testing that they stay interior, which holds only on convex domains
    @pytest.mark.parametrize("model_id", ["gaussian1d", "gaussian_mv:2",
                                          "bernoulli", "poisson"])
    def test_segments_between_interior_points_stay_interior(self, model_id):
        model = get_model(model_id)
        rng = np.random.default_rng(7)
        s = np.linspace(0.0, 1.0, 65)[:, None, None]
        for chart in model.charts.values():
            a = _interior_draws(chart, rng, 200)
            b = _interior_draws(chart, rng, 200)
            probes = (a + s * (b - a)).reshape(-1, chart.dim)
            assert chart.interior(probes).all(), chart.name
