"""Grid posteriors: normalization, stability, invariances, consistency."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from weylprior import (
    Axis,
    Dataset,
    GridSpec,
    grid_posterior,
    jeffreys_field,
    weyl_prior_field,
)
from weylprior import bayes
from weylprior.bayes import _log_sum_exp, load_observations
from weylprior.errors import DataError, GridError
from weylprior.priors import PriorField


def g1_grid(counts=(21, 21)):
    return GridSpec((Axis("mu", -2.0, 2.0, counts[0]),
                     Axis("sigma2", 0.25, 4.0, counts[1])))


def _canonical_order(obs):
    if obs.ndim == 1:
        return np.sort(obs)
    return obs[np.lexsort(obs.T[::-1])]


def reference_log_values(model, prior, data):
    """The per-observation likelihood loop that grid_posterior replaced: every
    observation is evaluated at every grid point and the terms are summed."""
    ch = model.chart(prior.chart)
    obs = _canonical_order(data.observations)
    loglik = np.array([float(np.sum(model.log_density(obs, ch.to_reference(t))))
                       for t in prior.points])
    logpost = loglik + np.log(prior.values)
    logvol = np.log(prior.grid.cell_volumes())
    return logpost - logsumexp(logpost + logvol)


def poisson_draws(n, seed=3):
    return np.random.default_rng(seed).poisson(3.0, size=n).astype(float)


def normal_draws(n=1000, seed=5):
    return np.random.default_rng(seed).normal(1.0, np.sqrt(2.0), size=n)


def mv2_grid():
    return GridSpec((Axis("mu1", -0.2, 0.6, 3), Axis("mu2", -0.5, 0.3, 3),
                     Axis("s11", 0.7, 1.3, 3), Axis("s12", 0.1, 0.5, 3),
                     Axis("s22", 1.1, 1.9, 3)))


def mv2_rows_with_duplicates():
    rng = np.random.default_rng(21)
    rows = rng.multivariate_normal([0.2, -0.1], [[1.0, 0.3], [0.3, 1.5]], size=300)
    x = np.concatenate([rows, rows[:120], rows[:40], rows[:40]])
    rng.shuffle(x)
    return x


@pytest.fixture(scope="module")
def obs_1000():
    return normal_draws()


class TestDataset:
    def test_rejects_empty(self):
        with pytest.raises(DataError):
            Dataset(np.array([]))

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            Dataset(np.array([1.0, np.nan]))

    @pytest.mark.parametrize("obs, message", [
        ([1.0, 2.0, np.nan, np.inf], "src: row 3: observation nan is not finite"),
        ([[0.0, 1.0], [-np.inf, 0.5]],
         "src: row 2: observation [-inf, 0.5] is not finite"),
    ], ids=["1d", "2d"])
    def test_names_first_non_finite_row(self, obs, message):
        with pytest.raises(DataError) as exc:
            Dataset(np.array(obs), source="src")
        assert str(exc.value) == message

    def test_load_csv(self, g1, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text("1.5\n-0.25\n\n3.0\n")
        ds = load_observations(p, g1)
        np.testing.assert_array_equal(ds.observations, [1.5, -0.25, 3.0])

    def test_load_csv_bad_line(self, g1, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text("1.0\noops\n")
        with pytest.raises(DataError, match="obs.csv:2"):
            load_observations(p, g1)

    def test_load_csv_wrong_columns(self, mv2, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text("1.0\n")
        with pytest.raises(DataError, match="expected 2"):
            load_observations(p, mv2)


    @pytest.mark.parametrize("model, grid, obs", [
        ("bern", GridSpec((Axis("p", 0.1, 0.9, 5),)), [0.0, 1.0, 0.5]),
        ("pois", GridSpec((Axis("lam", 0.5, 5.0, 5),)), [2.0, -1.0]),
    ])
    def test_rejects_values_outside_sample_space(self, request, model, grid,
                                                 obs):
        model = request.getfixturevalue(model)
        prior = jeffreys_field(model, grid)
        with pytest.raises(DataError, match=f"row {len(obs)}"):
            grid_posterior(model, prior, Dataset(np.array(obs)))


class TestPosterior:
    def test_masses_sum_to_one(self, g1, obs_1000):
        prior = jeffreys_field(g1, g1_grid())
        post = grid_posterior(g1, prior, Dataset(obs_1000))
        assert post.masses.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(post.masses >= 0.0)

    def test_no_underflow_large_n(self, g1):
        rng = np.random.default_rng(11)
        data = Dataset(rng.normal(0.5, 1.0, size=5000))
        post = grid_posterior(g1, jeffreys_field(g1, g1_grid()), data)
        assert np.all(np.isfinite(post.log_values))
        assert post.masses.sum() == pytest.approx(1.0, abs=1e-10)

    def test_permutation_invariance_bitwise(self, g1, obs_1000):
        prior = jeffreys_field(g1, g1_grid((11, 11)))
        a = grid_posterior(g1, prior, Dataset(obs_1000))
        rng = np.random.default_rng(0)
        b = grid_posterior(g1, prior, Dataset(rng.permutation(obs_1000)))
        np.testing.assert_array_equal(a.log_values, b.log_values)

    def test_prior_rescale_invariance(self, g1, obs_1000):
        prior = jeffreys_field(g1, g1_grid((11, 11)))
        scaled = PriorField(prior.points, prior.values * 37.5, prior.kind,
                            prior.chart, grid=prior.grid)
        a = grid_posterior(g1, prior, Dataset(obs_1000))
        b = grid_posterior(g1, scaled, Dataset(obs_1000))
        np.testing.assert_allclose(a.masses, b.masses, rtol=1e-12)

    def test_mode_tracks_sample_stats(self, g1, obs_1000):
        post = grid_posterior(g1, jeffreys_field(g1, g1_grid((41, 41))),
                              Dataset(obs_1000))
        mode = post.points[np.argmax(post.log_values)]
        xbar = obs_1000.mean()
        s2 = obs_1000.var()
        grid = g1_grid((41, 41))
        dmu = grid.axes[0].values()
        ds2 = grid.axes[1].values()
        assert abs(mode[0] - xbar) <= (dmu[1] - dmu[0])
        assert abs(mode[1] - s2) <= (ds2[1] - ds2[0])

    def test_vanishing_likelihood_is_reported(self, g1):
        # (1e200 - mu)^2 overflows, so every log-likelihood is -inf; the error
        # names the first such observation in input order
        prior = jeffreys_field(g1, g1_grid((5, 5)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="vanishing likelihood at every grid point"
                                                r": inline: row 2: observation 1e\+200 "):
                grid_posterior(g1, prior, Dataset(np.array([0.5, 1e200])))
            with pytest.raises(DataError, match=r"row 1: observation 1e\+200 has "
                                                "log-density -inf at every grid point"):
                grid_posterior(g1, prior, Dataset(np.array([1e200, 0.5])))
            # input order, not the sorted order of the distinct observations
            with pytest.raises(DataError, match=r"row 2: observation 1e\+200 "):
                grid_posterior(g1, prior, Dataset(np.array([0.5, 1e200, -1e200, 1e200])))

    def test_overflowing_sum_names_no_observation(self, g1):
        # each draw's log-density is finite, but 1000 of them sum to -inf at
        # every grid point, so no observation is to blame
        grid = GridSpec((Axis("mu", -1.0, 1.0, 3), Axis("sigma2", 0.5, 2.0, 3)))
        prior = jeffreys_field(g1, grid)
        assert all(np.isfinite(g1.log_density(np.array([1e153]), t)).all()
                   for t in prior.points)
        with pytest.raises(DataError) as exc:
            grid_posterior(g1, prior, Dataset(np.full(1000, 1e153)))
        assert str(exc.value) == "data has vanishing likelihood at every grid point"

    def test_one_point_axis(self, g1, obs_1000):
        # the one-point axis gets cell width 1, so the masses are the
        # posterior density times the other axis' trapezoidal widths
        grid = GridSpec((Axis("mu", -2.0, 2.0, 9), Axis("sigma2", 2.0, 2.0, 1)))
        post = grid_posterior(g1, jeffreys_field(g1, grid), Dataset(obs_1000))
        widths = np.array([0.25] + [0.5] * 7 + [0.25])
        np.testing.assert_array_equal(post.masses,
                                      np.exp(post.log_values + np.log(widths)))
        assert post.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_requires_grid_backed_prior(self, g1, obs_1000):
        prior = jeffreys_field(g1, g1_grid((5, 5)))
        loose = PriorField(prior.points, prior.values, prior.kind, prior.chart)
        with pytest.raises(GridError):
            grid_posterior(g1, loose, Dataset(obs_1000))

    def test_poisson_conjugate_check(self, pois):
        # posterior under the Jeffreys prior Gamma(1/2, 0) is
        # Gamma(sum x + 1/2, n); compare grid masses to the exact density
        from scipy import stats
        rng = np.random.default_rng(3)
        x = rng.poisson(3.0, size=200).astype(float)
        grid = GridSpec((Axis("lam", 2.0, 4.5, 201),))
        post = grid_posterior(pois, jeffreys_field(pois, grid), Dataset(x))
        a, b = x.sum() + 0.5, len(x)
        exact = stats.gamma.pdf(post.points[:, 0], a, scale=1.0 / b)
        exact_masses = exact * grid.cell_volumes()
        exact_masses /= exact_masses.sum()
        np.testing.assert_allclose(post.masses, exact_masses, atol=5e-6)


class TestDistinctObservations:
    """The likelihood is summed once per distinct observation, weighted by its
    multiplicity, and must agree with the per-observation loop."""

    @pytest.mark.parametrize("model, grid, draw", [
        ("pois", GridSpec((Axis("lam", 2.5, 3.5, 101),)),
         lambda: poisson_draws(20_000)),
        ("bern", GridSpec((Axis("p", 0.05, 0.95, 91),)),
         lambda: np.random.default_rng(8).binomial(1, 0.3, size=5000).astype(float)),
        ("mv2", mv2_grid(), mv2_rows_with_duplicates),
        ("g1", g1_grid(), normal_draws),
    ], ids=["poisson", "bernoulli", "gaussian_mv2-duplicated-rows",
            "gaussian1d-distinct"])
    def test_matches_per_observation_reference(self, request, model, grid, draw):
        model = request.getfixturevalue(model)
        prior = jeffreys_field(model, grid)
        data = Dataset(draw())
        post = grid_posterior(model, prior, data)
        np.testing.assert_allclose(post.log_values,
                                   reference_log_values(model, prior, data),
                                   rtol=0, atol=1e-9)

    def test_permutation_invariance_bitwise_repeated_values(self, pois):
        prior = jeffreys_field(pois, GridSpec((Axis("lam", 2.0, 4.0, 41),)))
        x = poisson_draws(5000)
        a = grid_posterior(pois, prior, Dataset(x))
        b = grid_posterior(pois, prior,
                           Dataset(np.random.default_rng(1).permutation(x)))
        np.testing.assert_array_equal(a.log_values, b.log_values)

    def test_permutation_invariance_bitwise_duplicated_rows(self, mv2):
        prior = jeffreys_field(mv2, mv2_grid())
        x = mv2_rows_with_duplicates()
        a = grid_posterior(mv2, prior, Dataset(x))
        b = grid_posterior(mv2, prior,
                           Dataset(np.random.default_rng(2).permutation(x)))
        np.testing.assert_array_equal(a.log_values, b.log_values)

    @pytest.mark.parametrize("model, grid, draw", [
        ("pois", GridSpec((Axis("lam", 2.5, 3.5, 101),)),
         lambda: poisson_draws(20_000)),
        ("mv2", mv2_grid(), mv2_rows_with_duplicates),
        ("g1", g1_grid(), normal_draws),
    ], ids=["poisson", "gaussian_mv2-duplicated-rows", "gaussian1d-distinct"])
    def test_sum_within_rounding_of_fsum(self, request, monkeypatch, model,
                                         grid, draw):
        """Each point's log-likelihood sum_k c_k l_k is within
        16 eps sum_k |c_k l_k| of its correctly rounded value.  16 eps is
        sqrt(n) u, the typical error of a recursive sum of n = 1000 terms
        (Higham and Mary, SIAM J. Sci. Comput. 41, 2019); the dot product
        measured at most 2.1 eps on these data."""
        model = request.getfixturevalue(model)
        prior = jeffreys_field(model, grid)
        flat = PriorField(prior.points, np.ones(len(prior.points)), prior.kind,
                          prior.chart, grid=prior.grid)
        # unit prior values and a zero normalizer leave log_values = loglik
        monkeypatch.setattr(bayes, "_log_sum_exp", lambda a: 0.0)
        data = Dataset(draw())
        loglik = grid_posterior(model, flat, data).log_values
        obs, counts = np.unique(data.observations, axis=0, return_counts=True)
        refs = model.chart(prior.chart).to_reference(prior.points)
        for got, t in zip(loglik, refs):
            terms = (counts * model.log_density(obs, t)).tolist()
            scale = np.finfo(float).eps * math.fsum(map(abs, terms))
            assert abs(got - math.fsum(terms)) <= 16 * scale

    def test_one_row_per_distinct_value(self, pois):
        x = poisson_draws(100_000)
        distinct = len(np.unique(x))
        rows = []

        def counting(obs, theta_ref):
            rows.append(len(obs))
            return pois.log_density(obs, theta_ref)

        counted = dataclasses.replace(pois, log_density=counting)
        prior = jeffreys_field(pois, GridSpec((Axis("lam", 2.5, 3.5, 21),)))
        post = grid_posterior(counted, prior, Dataset(x))
        assert len(rows) == 21
        assert max(rows) <= distinct
        assert np.all(np.isfinite(post.log_values))

    def test_counts_past_the_log_factorial_table(self, pois):
        # two counts beyond the 4096-entry table of log k! take math.lgamma
        prior = jeffreys_field(pois, GridSpec((Axis("lam", 2.5, 3.5, 101),)))
        data = Dataset(np.concatenate([poisson_draws(2000), [4096.0, 5000.0]]))
        post = grid_posterior(pois, prior, data)
        np.testing.assert_allclose(post.log_values,
                                   reference_log_values(pois, prior, data),
                                   rtol=0, atol=1e-9)


class TestLogSumExp:
    """The posterior's normalizer is bitwise scipy.special.logsumexp."""

    def test_bitwise_equal_to_scipy(self):
        rng = np.random.default_rng(19)
        ties = 0
        for k in range(3000):
            a = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), rng.integers(1, 500))
            if k % 3 == 0:
                a = np.round(a)                 # ties at the maximum
            if k % 4 == 0:
                a[rng.random(len(a)) < 0.3] = -np.inf
                a[0] = 0.0                      # keep the maximum finite
            if k % 5 == 0:
                a[rng.integers(0, len(a), 3)] = a.max()
            ties += np.count_nonzero(a == a.max()) > 1
            got = _log_sum_exp(a)
            assert np.float64(got).tobytes() == np.float64(logsumexp(a)).tobytes(), k
        assert ties > 500


class TestCompare:
    def test_prior_influence_shrinks_with_n(self, g1):
        rng = np.random.default_rng(42)
        all_obs = rng.normal(0.8, 1.2, size=500)
        grid = g1_grid((15, 15))
        pj = jeffreys_field(g1, grid)
        pw = weyl_prior_field(g1, grid, anchor=[0.0, 1.0])
        tvs = []
        for n in (5, 50, 500):
            data = Dataset(all_obs[:n])
            a = grid_posterior(g1, pj, data).masses
            b = grid_posterior(g1, pw, data).masses
            tvs.append(0.5 * np.sum(np.abs(a - b)))     # total variation
        assert tvs[0] > tvs[1] > tvs[2]
