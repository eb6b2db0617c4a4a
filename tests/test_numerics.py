"""Quadrature, finite differences, and path integration."""

from itertools import product

import numpy as np
import pytest
from scipy import stats

from weylprior import DiffSpec, Path, QuadratureSpec, expect, line_integral
from weylprior.errors import DomainError
from weylprior.numerics import gauss_hermite_nodes, gradient, partial, sample_nodes

from conftest import vech_theta


class TestQuadrature:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes=1)

    @pytest.mark.parametrize("k", [8, 32, 64])
    def test_gh_moments(self, k):
        # standardized nodes reproduce standard normal moments exactly
        z, w = gauss_hermite_nodes(k)
        for p, want in [(0, 1.0), (1, 0.0), (2, 1.0), (4, 3.0), (6, 15.0)]:
            assert w @ z[:, 0] ** p == pytest.approx(want, abs=1e-12)

    def test_gh_2d_cross_moments(self):
        z, w = gauss_hermite_nodes(16, dim=2)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert w @ (z[:, 0] * z[:, 1]) == pytest.approx(0.0, abs=1e-12)
        assert w @ (z[:, 0] ** 2 * z[:, 1] ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k,dim", [(64, 1), (7, 1), (32, 2), (5, 2), (8, 3)])
    def test_gh_grid_matches_product_reference(self, k, dim):
        # the grid as itertools.product builds it, row by row
        t, w1 = np.polynomial.hermite.hermgauss(k)
        z1 = np.sqrt(2.0) * t
        w1 = w1 / np.sqrt(np.pi)
        want_z = np.array(list(product(z1, repeat=dim)))
        want_w = np.prod(np.array(list(product(w1, repeat=dim))), axis=1)
        z, w = gauss_hermite_nodes(k, dim)
        assert np.array_equal(z, want_z)
        assert np.array_equal(w, want_w)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_gh_grid_is_read_only(self, dim):
        z, w = gauss_hermite_nodes(6, dim)
        with pytest.raises(ValueError):
            z[0, 0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0
        z2, w2 = gauss_hermite_nodes(6, dim)
        assert z2 is z and w2 is w

    def test_gaussian_moments(self, g1):
        mu, s2 = 1.3, 2.5
        assert expect(g1, [mu, s2], lambda x: x) == pytest.approx(mu, abs=1e-10)
        assert expect(g1, [mu, s2], lambda x: (x - mu) ** 2) == pytest.approx(
            s2, abs=1e-10)
        assert expect(g1, [mu, s2], lambda x: (x - mu) ** 4) == pytest.approx(
            3 * s2 ** 2, rel=1e-10)

    def test_mv_covariance(self, mv2):
        sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        th = vech_theta([0.5, -0.5], sigma)
        for i in range(2):
            for j in range(2):
                val = expect(mv2, th,
                             lambda x, i=i, j=j: (x[:, i] - th[i]) * (x[:, j] - th[j]))
                assert val == pytest.approx(sigma[i, j], abs=1e-10)

    def test_discrete_weights_are_pmf(self, pois):
        pts, w = sample_nodes(pois, np.array([3.0]))
        np.testing.assert_allclose(w, stats.poisson.pmf(pts, 3.0), rtol=1e-12)

    def test_bernoulli_mean(self, bern):
        assert expect(bern, [0.37], lambda x: x) == pytest.approx(0.37, abs=1e-14)


class TestFiniteDifferences:
    def test_polynomial_derivative(self):
        # Richardson-extrapolated central differences are 4th order
        f = lambda t: t[0] ** 3 + 2.0 * t[0] * t[1]
        d = gradient(f, np.array([1.5, -0.5]))
        np.testing.assert_allclose(d, [3 * 1.5 ** 2 - 1.0, 3.0], rtol=1e-9)

    def test_array_valued(self):
        f = lambda t: np.array([[t[0] ** 2, t[0] * t[1]], [t[0] * t[1], t[1] ** 2]])
        d = partial(f, np.array([2.0, 3.0]), 0)
        np.testing.assert_allclose(d, [[4.0, 3.0], [3.0, 0.0]], atol=1e-8)

    def test_domain_shrinks_step(self):
        dom = lambda t: t[0] > 0.99999
        d = partial(lambda t: t[0] ** 2, np.array([1.0]), 0,
                    DiffSpec(rel_step=1e-4, abs_floor=1e-9), dom)
        assert d == pytest.approx(2.0, rel=1e-6)

    def test_domain_unreachable_raises(self):
        with pytest.raises(DomainError):
            partial(lambda t: t[0], np.array([1.0]), 0,
                    DiffSpec(abs_floor=1e-7), lambda t: abs(t[0] - 1.0) < 1e-9)


class TestPathIntegrals:
    def test_path_validation(self):
        with pytest.raises(ValueError):
            Path([[0.0, 0.0]])
        with pytest.raises(ValueError):
            Path([[0.0], [1.0]], steps=0)

    def test_exact_form(self):
        # omega = d(x y): integral depends only on endpoints
        omega = lambda t: np.array([t[1], t[0]])
        p = Path([[0.0, 0.0], [2.0, 0.5], [1.0, 3.0]])
        assert line_integral(omega, p) == pytest.approx(3.0, abs=1e-6)
        assert line_integral(omega, p, rule="gauss") == pytest.approx(3.0, abs=1e-12)

    def test_midpoint_second_order(self):
        omega = lambda t: np.array([np.sin(t[0])])
        exact = 1.0 - np.cos(2.0)
        errs = [abs(line_integral(omega, Path([[0.0], [2.0]], steps=n)) - exact)
                for n in (8, 16, 32)]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    def test_gauss_near_machine(self):
        omega = lambda t: np.array([np.exp(t[0])])
        val = line_integral(omega, Path([[0.0], [1.0]], steps=4), rule="gauss")
        assert val == pytest.approx(np.e - 1.0, abs=1e-13)

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            line_integral(lambda t: t, Path([[0.0], [1.0]]), rule="simpson")
