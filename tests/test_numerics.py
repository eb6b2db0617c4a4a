"""Quadrature, finite differences, and path integration."""

import re
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, stats

from weylprior import (Axis, DiffSpec, GridSpec, QuadratureSpec, get_model,
                       jeffreys_field, numerics, segment_integrals,
                       weyl_prior_field)
from weylprior.errors import DomainError, InvalidConfigError
from weylprior.numerics import (GAUSS_WEIGHTS, KRONROD_NODES, KRONROD_WEIGHTS,
                                MAX_GRID_NODES, MAX_LEVELS, QUAD_TOL,
                                gauss_hermite_nodes, gradient, nodes_per_point,
                                sample_nodes)
from weylprior.tensors import cubic_trace, fisher_metric, metric_and_cubic

from conftest import expect, vech_theta


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


# every continuous family ``get_model`` builds, with a strategy for interior
# reference-chart points: mu, then vech of Sigma = L L^T for a lower
# triangular L with a diagonal bounded away from 0
COORD = st.floats(-3.0, 3.0, allow_nan=False)
SCALE = st.floats(0.3, 3.0, allow_nan=False)


@st.composite
def mv_points(draw, n):
    mu = draw(st.lists(COORD, min_size=n, max_size=n))
    chol = np.diag(draw(st.lists(SCALE, min_size=n, max_size=n)))
    for i in range(n):
        for j in range(i):
            chol[i, j] = draw(COORD)
    sigma = chol @ chol.T
    return np.concatenate([mu, [sigma[i, j] for i in range(n) for j in range(i, n)]])


CONTINUOUS_POINTS = st.one_of(
    st.tuples(st.just("gaussian1d"), st.tuples(COORD, SCALE).map(np.array)),
    *[st.tuples(st.just(f"gaussian_mv:{n}"), mv_points(n)) for n in (1, 2, 3)],
)


class TestOwnLaw:
    """Continuous families are integrated on their own law: the quadrature
    weights are plain Gauss-Hermite weights, so ``standardize`` must return
    the mean and Cholesky factor of the family's density."""

    @settings(max_examples=40, deadline=None)
    @given(case=CONTINUOUS_POINTS)
    def test_density_is_the_standardized_gaussian(self, case):
        model_id, theta = case
        model = get_model(model_id)
        assert model.sample_space.kind == "continuous"
        x, w = sample_nodes(model, theta, QuadratureSpec(8))
        mean, chol = model.standardize(theta[None])
        mean, chol = mean[0], chol[0]
        x2 = x.reshape(len(x), -1)
        z = linalg.solve_triangular(chol, (x2 - mean).T, lower=True)
        d = len(mean)
        want = -0.5 * (d * np.log(2.0 * np.pi) + np.sum(z * z, axis=0)) \
            - np.log(np.diag(chol)).sum()
        got = model.log_density(x[None], theta[None])[0]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert np.array_equal(w, gauss_hermite_nodes(8, d)[1])


class TestSupportBound:
    """A discrete support wider than MAX_GRID_NODES points is refused, with
    its point and width named, before any int cast or allocation."""

    @pytest.mark.parametrize("lam", [2.58e5, 1e18, 1e20, 1e300])
    def test_too_wide_is_a_domain_error(self, pois, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: fisher_metric(pois, [lam]),
                         lambda: sample_nodes(pois, np.array([lam])),
                         lambda: nodes_per_point(pois, np.array([[1.0], [lam]]))):
                with pytest.raises(DomainError, match=re.escape(f"theta=[{lam!r}]")
                                   + f".*at most {MAX_GRID_NODES}"):
                    call()

    def test_widest_accepted_rate(self, pois):
        widths = nodes_per_point(pois, np.array([[1.0], [2.57e5]]))
        assert widths.dtype.kind == "i"
        assert widths.tolist() == [int(v + 10.0 * np.sqrt(v) + 20.0) + 1
                                   for v in (1.0, 2.57e5)]
        assert widths[1] <= MAX_GRID_NODES
        met, c = metric_and_cubic(pois, [2.57e5])
        assert met.g[0, 0] == pytest.approx(1.0 / 2.57e5, rel=1e-9)


GRID_3X3 = GridSpec((Axis("mu", -1.0, 1.0, 3), Axis("s2", 0.5, 2.0, 3)))


class TestContinuousRule:
    """Every tensor call on a continuous family refuses a rule that would
    give wrong tensors or too large a node table, before any table is built."""

    # 3 nodes give a Weyl field of 0.4204 to 1.1892 on this grid, against
    # 1/sqrt(2) everywhere, and C[1, 1, 1] = 0.25 at (0, 1), against 1
    @pytest.mark.parametrize("nodes", [2, 3])
    @pytest.mark.parametrize("call", [
        lambda m, q: weyl_prior_field(m, GRID_3X3, [0.0, 1.0], q),
        lambda m, q: jeffreys_field(m, GRID_3X3, q),
        lambda m, q: fisher_metric(m, [0.0, 1.0], quad=q),
        lambda m, q: cubic_trace(m, [0.0, 1.0], quad=q),
    ], ids=["weyl_prior_field", "jeffreys_field", "fisher_metric", "cubic_trace"])
    def test_too_few_nodes(self, g1, call, nodes):
        with pytest.raises(InvalidConfigError,
                           match=f"^{nodes} Gauss-Hermite nodes .* at least 4 "):
            call(g1, QuadratureSpec(nodes))

    def test_fewest_nodes_give_the_closed_form(self, g1):
        np.testing.assert_allclose(
            weyl_prior_field(g1, GRID_3X3, [0.0, 1.0], QuadratureSpec(4)).values,
            1.0 / np.sqrt(2.0), rtol=1e-12)

    def test_too_many_grid_nodes(self, monkeypatch):
        # 65^3 nodes per point on gaussian_mv:3, one past MAX_GRID_NODES
        grids = []
        inner = numerics._node_grid

        def recorded(k, dim):
            grids.append((k, dim))
            return inner(k, dim)

        monkeypatch.setattr(numerics, "_node_grid", recorded)
        with pytest.raises(DomainError, match=re.escape(
                f"a 65-node rule of model 'gaussian_mv:3' needs 274625 nodes "
                f"per point; at most {MAX_GRID_NODES}")):
            fisher_metric(get_model("gaussian_mv", n=3),
                          vech_theta(np.zeros(3), np.eye(3)), quad=QuadratureSpec(65))
        assert grids == []


class TestFiniteDifferences:
    def test_polynomial_derivative(self):
        # Richardson-extrapolated central differences are 4th order
        f = lambda t: t[:, 0] ** 3 + 2.0 * t[:, 0] * t[:, 1]
        d = gradient(f, np.array([1.5, -0.5]))
        np.testing.assert_allclose(d, [3 * 1.5 ** 2 - 1.0, 3.0], rtol=1e-9)

    def test_array_valued(self):
        f = lambda t: np.array([[t[:, 0] ** 2, t[:, 0] * t[:, 1]],
                                [t[:, 0] * t[:, 1], t[:, 1] ** 2]]).transpose(2, 0, 1)
        d = gradient(f, np.array([2.0, 3.0]))
        np.testing.assert_allclose(d[0], [[4.0, 3.0], [3.0, 0.0]], atol=1e-8)
        np.testing.assert_allclose(d[1], [[0.0, 2.0], [2.0, 6.0]], atol=1e-8)

    def test_domain_shrinks_step(self):
        dom = lambda t: t[:, 0] > 0.99999
        d = gradient(lambda t: t[:, 0] ** 2, np.array([1.0]),
                     DiffSpec(rel_step=1e-4, abs_floor=1e-9), dom)
        assert d[0] == pytest.approx(2.0, rel=1e-6)

    def test_domain_unreachable_raises(self):
        with pytest.raises(DomainError, match="coordinate 0"):
            gradient(lambda t: t[:, 0], np.array([1.0]),
                     DiffSpec(abs_floor=1e-7), lambda t: np.abs(t[:, 0] - 1.0) < 1e-9)

    def test_f_called_once_on_all_stencil_points(self):
        shapes = []

        def f(t):
            shapes.append(t.shape)
            return t[:, 0] * t[:, 1]

        stack = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        d = gradient(f, stack)
        assert shapes == [(4 * 2 * 3, 2)]
        np.testing.assert_allclose(d, stack[:, ::-1], rtol=1e-10)

    def test_stack_matches_one_point_calls_bitwise(self):
        f = lambda t: np.stack([np.sin(t[:, 0]) * t[:, 1], np.exp(t[:, 1])], axis=-1)
        stack = np.array([[0.3, 1.2], [-2.0, 0.1], [7.5, -3.0]])
        d = gradient(f, stack)
        assert d.shape == (3, 2, 2)
        for p, theta in enumerate(stack):
            assert np.array_equal(d[p], gradient(f, theta))

    def test_only_the_escaping_coordinate_is_halved(self):
        # coordinate 0 sits 1e-5 from the edge t0 > 1; coordinate 1 is free,
        # so its step stays at rel_step * (|t1| + 1) and its quadratic's
        # Richardson error shows that step
        diff = DiffSpec(rel_step=1e-1, abs_floor=1e-9)
        f = lambda t: t[:, 0] ** 2 + t[:, 1] ** 5
        d = gradient(f, np.array([1.00001, 1.0]), diff, lambda t: t[:, 0] > 1.0)
        h = 0.2
        want_1 = (4.0 * self._central5(0.5 * h) - self._central5(h)) / 3.0
        assert d[1] == pytest.approx(want_1, rel=1e-12)
        assert d[1] != pytest.approx(5.0, rel=1e-6)
        assert d[0] == pytest.approx(2.00002, rel=1e-9)

    @staticmethod
    def _central5(h):
        return ((1.0 + h) ** 5 - (1.0 - h) ** 5) / (2.0 * h)

    def test_stencil_order_and_richardson(self):
        # f = t^3 at t = 1 with h = 0.5: D(h) = 3 + h^2, so the Richardson
        # combination (4 D(h/2) - D(h)) / 3 is exactly 3 while either central
        # difference alone, or one with its signs swapped, is not
        d = gradient(lambda t: t[:, 0] ** 3, np.array([1.0]),
                     DiffSpec(rel_step=0.25, abs_floor=1e-9))
        assert d[0] == 3.0

    @pytest.mark.parametrize("field", ["rel_step", "abs_floor"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1e-4])
    def test_diffspec_rejects_bad_steps(self, field, value):
        # a NaN step used to make the stencil-halving loop in partial() spin forever
        with pytest.raises(ValueError, match=field):
            DiffSpec(**{field: value})


class TestKronrodRule:
    """QUADPACK's qk15 constants, mapped to [0, 1]."""

    def test_gauss_rule_is_embedded(self):
        x, w = np.polynomial.legendre.leggauss(7)
        np.testing.assert_allclose(KRONROD_NODES[1::2], 0.5 * (x + 1.0),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(GAUSS_WEIGHTS[1::2], 0.5 * w, rtol=0, atol=1e-15)
        assert not GAUSS_WEIGHTS[0::2].any()

    def test_kronrod_degree(self):
        # exact for every monomial in the centred variable u = 2 x - 1 up to
        # degree 3 * 7 + 1 = 22 (and 23, by symmetry); degree 24 is the first
        # it misses
        u = 2.0 * KRONROD_NODES - 1.0
        exact = lambda d: 1.0 / (d + 1) if d % 2 == 0 else 0.0
        for d in range(24):
            assert KRONROD_WEIGHTS @ u ** d == pytest.approx(exact(d), rel=0,
                                                             abs=1e-15), d
        assert abs(KRONROD_WEIGHTS @ u ** 24 - exact(24)) > 1e-12

    def test_nodes_in_path_order(self):
        assert np.all(np.diff(KRONROD_NODES) > 0)
        assert 0 < KRONROD_NODES[0] and KRONROD_NODES[-1] < 1


class TestPathIntegrals:
    def test_path_validation(self):
        # phi = 1/x is not integrable up to 0: the interval at 0 never
        # converges, and the error names that segment's end point alone
        with pytest.raises(DomainError, match=r"theta=\[0\.0\] does not converge "
                                              rf"within {MAX_LEVELS} bisections"):
            segment_integrals(lambda t: 1.0 / t, [[1.0], [1.0]], [[2.0], [0.0]])

    def test_exact_form(self):
        # omega = d(x y): integral depends only on endpoints, here summed over
        # the two segments of a polyline
        omega = lambda t: t[:, ::-1]
        pts = np.array([[0.0, 0.0], [2.0, 0.5], [1.0, 3.0]])
        val = segment_integrals(omega, pts[:-1], pts[1:])[0].sum()
        assert val == pytest.approx(3.0, abs=1e-12)

    def test_gauss_near_machine(self):
        val, worst = segment_integrals(np.exp, [[0.0]], [[1.0]])
        assert val[0] == pytest.approx(np.e - 1.0, abs=1e-13)
        # one interval, whose Gauss value is already within the tolerance
        assert 0 < worst <= QUAD_TOL

    @pytest.mark.parametrize("lo", [1e-3, 1e-6, 1e-10])
    def test_refines_toward_a_steep_end(self, lo):
        # phi = 1/x on [lo, 1] and back: log(1/lo), held relative to the
        # segment's scale, from either end
        val, worst = segment_integrals(lambda t: 1.0 / t, [[1.0], [lo]], [[lo], [1.0]])
        np.testing.assert_allclose(val, [np.log(lo), -np.log(lo)], rtol=1e-14, atol=0)
        assert worst <= QUAD_TOL * -np.log(lo)

    def test_one_call_per_level(self):
        # each level evaluates the 1-form once, on the 15 Kronrod nodes of
        # every open interval: first one interval per segment, then the two
        # halves of each interval that missed the tolerance
        rows = []

        def counted(form):
            def omega(t):
                rows.append(t.shape)
                return form(t)
            return omega

        segment_integrals(counted(lambda t: 1.0 / t), [[1.0], [1.0], [1.0]],
                          [[2.0], [1e-3], [3.0]])
        assert rows[0] == (3 * 15, 1)
        assert len(rows) > 2 and all(r[0] % 30 == 0 for r in rows[1:])
        rows.clear()
        # a polynomial form of degree 13 or less, which G7 integrates exactly
        # too, converges on the first level
        segment_integrals(counted(lambda t: t ** 13), [[1.0], [1.0]], [[2.0], [3.0]])
        assert rows == [(2 * 15, 1)]

    def test_segment_values_do_not_depend_on_the_stack(self):
        one = segment_integrals(lambda t: 1.0 / t, [[1.0]], [[1e-3]])[0]
        both = segment_integrals(lambda t: 1.0 / t, [[2.0], [1.0]], [[3.0], [1e-3]])[0]
        assert one[0] == both[1]

    def test_empty_stack(self):
        val, worst = segment_integrals(lambda t: t, np.empty((0, 2)), np.empty((0, 2)))
        assert val.shape == (0,) and worst == 0.0
