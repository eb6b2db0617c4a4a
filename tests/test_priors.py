"""Prior fields: Jeffreys, alpha-parallel, Weyl, reparametrization, CSV."""

import re
import tracemalloc

import numpy as np
import pytest

from weylprior import (
    Axis,
    GridSpec,
    alpha_prior_field,
    jeffreys_field,
    normalize_field,
    prior_values,
    theorem_ratio_check,
    weyl_prior_field,
)
from weylprior import geometry, priors, tensors
from weylprior.errors import GridError
from weylprior.numerics import QuadratureSpec
from weylprior.priors import PriorField, read_csv, reparam_transform, write_csv

from conftest import vech_theta


def small_grid():
    return GridSpec((Axis("mu", -1.0, 1.0, 5), Axis("sigma2", 0.5, 2.0, 5)))


class TestGrid:
    def test_axis_validation(self):
        with pytest.raises(GridError):
            Axis("a", 1.0, 0.0, 5)
        with pytest.raises(GridError):
            Axis("a", -1.0, 2.0, 4, spacing="log")
        with pytest.raises(GridError):
            Axis("a", 0.0, 1.0, 1)
        assert Axis("a", 2.0, 2.0, 1).values() == pytest.approx([2.0])

    def test_points_c_order(self):
        g = GridSpec((Axis("a", 0.0, 1.0, 2), Axis("b", 0.0, 2.0, 3)))
        pts = g.points()
        assert pts.shape == (6, 2)
        np.testing.assert_array_equal(pts[:3, 0], 0.0)
        np.testing.assert_array_equal(pts[:3, 1], [0.0, 1.0, 2.0])

    def test_cell_volumes_sum_to_box(self):
        g = small_grid()
        assert g.cell_volumes().sum() == pytest.approx(2.0 * 1.5, abs=1e-12)

    # 15 Kronrod nodes per point in the Weyl sweep's first level, each
    # holding 2 m^2 + 3 m doubles, within numerics.MAX_STEP_DOUBLES (2^25)
    @pytest.mark.parametrize("fits,refused,limit", [
        ((447392,), (447393,), 447392), ((399, 400), (400, 400), 159783)])
    def test_point_count_bound(self, fits, refused, limit):
        def grid(counts):
            return GridSpec(tuple(Axis(f"a{i}", 1.0, 2.0, c)
                                  for i, c in enumerate(counts)))

        assert grid(fits).shape == fits
        with pytest.raises(GridError, match=re.escape(
                f"grid axis counts {list(refused)} give {np.prod(refused)} "
                f"points; at most {limit} for {len(refused)} axis(es)")):
            grid(refused)

    def test_log_spacing(self):
        vals = Axis("s", 0.5, 8.0, 5, spacing="log").values()
        np.testing.assert_allclose(vals[1:] / vals[:-1], 2.0, rtol=1e-12)


class TestFields:
    def test_jeffreys_closed_form(self, g1):
        # sqrt(det g) = 1 / (sqrt(2) sigma^3) in the (mu, sigma^2) chart
        field = jeffreys_field(g1, small_grid())
        want = 1.0 / (np.sqrt(2.0) * field.points[:, 1] ** 1.5)
        np.testing.assert_allclose(field.values, want, rtol=1e-10)

    def test_alpha_zero_is_jeffreys(self, g1):
        grid = small_grid()
        a0 = alpha_prior_field(g1, grid, 0.0, anchor=[0.0, 1.0])
        jf = jeffreys_field(g1, grid)
        np.testing.assert_allclose(a0.values, jf.values, rtol=1e-9)

    def test_alpha_prior_closed_form(self, g1):
        # exp(-(a/2) * (3/2) ln s2) * 1/(sqrt2 s2^{3/2}) for anchor (., 1)
        pts = np.array([[0.0, 0.5], [0.0, 1.0], [0.0, 4.0]])
        vals = prior_values(g1, pts, "alpha", alpha=2.0, anchor=[0.0, 1.0])
        want = pts[:, 1] ** -1.5 * pts[:, 1] ** -1.5 / np.sqrt(2.0)
        np.testing.assert_allclose(vals, want, rtol=1e-9)
        assert vals[2] == pytest.approx(0.011048543456039806, rel=1e-8)

    def test_weyl_prior_constant_gaussian1d(self, g1):
        # exp((m/2) Omega) sqrt(det g) = s2^{3/2} / (sqrt2 s2^{3/2}) = 1/sqrt2
        field = weyl_prior_field(g1, small_grid(), anchor=[0.0, 1.0])
        np.testing.assert_allclose(field.values, 1.0 / np.sqrt(2.0), rtol=1e-8)

    def test_missing_anchor(self, g1):
        with pytest.raises(GridError):
            prior_values(g1, [[0.0, 1.0]], "weyl")
        with pytest.raises(GridError):
            prior_values(g1, [[0.0, 1.0]], "alpha", anchor=[0.0, 1.0])

    def test_unknown_kind(self, g1):
        with pytest.raises(GridError):
            prior_values(g1, [[0.0, 1.0]], "haldane")

    def test_wrong_dimension(self, g1):
        with pytest.raises(GridError, match="1 coordinate.*dimension 2"):
            jeffreys_field(g1, GridSpec((Axis("mu", -1.0, 1.0, 3),)))
        with pytest.raises(GridError, match="anchor"):
            prior_values(g1, [[0.0, 2.0]], "weyl", anchor=[1.0])

    def test_normalize(self, g1):
        field = normalize_field(jeffreys_field(g1, small_grid()))
        mass = field.values @ field.grid.cell_volumes()
        assert mass == pytest.approx(1.0, abs=1e-12)


def count_one_forms(monkeypatch):
    """Record the number of points of every stacked 1-form evaluation; one-point
    calls (closedness probe) are one-row stacks and are recorded too."""
    calls = []
    inner = geometry.weyl_one_form

    def counted(model, thetas, *args, **kwargs):
        calls.append(len(np.atleast_2d(thetas)))
        return inner(model, thetas, *args, **kwargs)

    monkeypatch.setattr(geometry, "weyl_one_form", counted)
    return calls


def g1_grid(n):
    return GridSpec((Axis("mu", -2.0, 2.0, n),
                     Axis("sigma2", 0.25, 16.0, n, spacing="log")))


class TestGridSweep:
    """Grid fields sweep Omega edge by edge; per-point paths are the reference."""

    CASES = {
        "gaussian1d-anchor-off-grid": (
            "g1", GridSpec((Axis("mu", -1.0, 1.0, 5),
                            Axis("sigma2", 0.5, 2.0, 5, spacing="log"))),
            [0.3, 1.3], None),
        "gaussian_mv2-s01-varying": (
            "mv2", GridSpec((Axis("mu1", 0.0, 0.0, 1), Axis("mu2", 0.1, 0.1, 1),
                             Axis("s11", 0.8, 1.6, 3), Axis("s12", -0.2, 0.3, 3),
                             Axis("s22", 0.9, 1.4, 2))),
            vech_theta([0, 0.1], [[1.0, 0.1], [0.1, 1.1]]), QuadratureSpec(8)),
        "bernoulli": ("bern", GridSpec((Axis("p", 0.1, 0.9, 9),)), [0.45], None),
        "poisson": ("pois", GridSpec((Axis("lam", 0.5, 8.0, 9, spacing="log"),)),
                    [2.0], None),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_point_paths(self, request, case):
        name, grid, anchor, quad = self.CASES[case]
        model = request.getfixturevalue(name)
        field = weyl_prior_field(model, grid, anchor=anchor, quad=quad)
        per_point = prior_values(model, grid.points(), "weyl", anchor=anchor,
                                 quad=quad)
        np.testing.assert_allclose(field.values, per_point, rtol=1e-12, atol=0)

    def test_one_form_calls_per_point(self, g1, monkeypatch):
        calls = count_one_forms(monkeypatch)
        weyl_prior_field(g1, g1_grid(21), anchor=[0.0, 1.0])
        # the closedness probe's stencil (4 m rows), then one stacked call per
        # bisection level of the anchor path and of the edges: 15 Kronrod
        # nodes per open interval, all 440 edges at once on the first level
        assert calls[0] == 4 * 2
        assert all(c % 15 == 0 for c in calls[1:])
        assert 440 * 15 in calls
        assert sum(calls) <= 16 * 441

    def test_theorem_ratio_sweeps_once(self, g1, monkeypatch):
        calls = count_one_forms(monkeypatch)
        tensor_calls = []
        inner = tensors._tensors

        def counted(model, theta, *args, **kwargs):
            tensor_calls.append(np.shape(theta))
            return inner(model, theta, *args, **kwargs)

        monkeypatch.setattr(tensors, "_tensors", counted)
        weyl_prior_field(g1, small_grid(), anchor=[0.0, 1.0])
        one_field = list(calls), list(tensor_calls)
        calls.clear()
        tensor_calls.clear()
        theorem_ratio_check(g1, small_grid(), anchor=[0.0, 1.0])
        # one sweep for Omega and one Jeffreys pass: the tensor calls of one
        # field, 25 of them one-row metrics for sqrt(det g)
        assert (calls, tensor_calls) == one_field
        assert tensor_calls.count((2,)) == 25

    @pytest.mark.parametrize("case", ["gaussian1d-21x21", "gaussian_mv2-5x5"])
    def test_bounded_memory(self, request, case):
        # the geometry is evaluated in chunks; one unchunked stack of the
        # 8800 edge nodes of the 21x21 grid alone allocates about 30 MB
        if case == "gaussian1d-21x21":
            model, grid, anchor = request.getfixturevalue("g1"), g1_grid(21), [0.0, 1.0]
        else:
            model = request.getfixturevalue("mv2")
            grid = GridSpec((Axis("mu0", 0.0, 0.0, 1), Axis("mu1", 0.0, 0.0, 1),
                             Axis("s00", 0.5, 2.0, 5, "log"), Axis("s01", 0.2, 0.2, 1),
                             Axis("s11", 0.5, 2.0, 5, "log")))
            anchor = [0.0, 0.0, 1.0, 0.2, 1.0]
        tracemalloc.start()
        try:
            weyl_prior_field(model, grid, anchor=anchor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestWideGrids:
    """In (mu, s2) with anchor (0, 1), gaussian1d has Omega = 1.5 log s2 and
    a uniform Weyl prior, 1/sqrt(2); the sweep holds both to 1e-12 on grids
    far from the anchor, where a fixed-step rule was off by up to 9e3."""

    ANCHOR = [0.0, 1.0]
    GRIDS = {
        "5x5-linear": GridSpec((Axis("mu", -2.0, 2.0, 5), Axis("s2", 0.25, 16.0, 5))),
        "1x3-1e-3..1e3": GridSpec((Axis("mu", 0.0, 0.0, 1),
                                   Axis("s2", 1e-3, 1e3, 3, spacing="log"))),
        "1x3-1e-6..1e6": GridSpec((Axis("mu", 0.0, 0.0, 1),
                                   Axis("s2", 1e-6, 1e6, 3, spacing="log"))),
    }

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_weyl_prior_is_uniform(self, g1, name):
        field = weyl_prior_field(g1, self.GRIDS[name], anchor=self.ANCHOR)
        np.testing.assert_allclose(field.values, 2.0 ** -0.5, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("s2", [1e-3, 1e3])
    def test_prior_values_far_from_the_anchor(self, g1, s2):
        values = prior_values(g1, [[0.5, s2], [-1.0, s2]], "weyl", anchor=self.ANCHOR)
        np.testing.assert_allclose(values, 2.0 ** -0.5, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("alpha", [-1.0, 1.0, 3.0])
    def test_alpha_prior_closed_form(self, g1, alpha):
        # exp(-alpha/2 Omega) sqrt(det g), sqrt(det g) = 1 / (sqrt(2) s2^1.5)
        grid = self.GRIDS["1x3-1e-3..1e3"]
        field = alpha_prior_field(g1, grid, alpha, anchor=self.ANCHOR)
        s2 = grid.points()[:, 1]
        want = s2 ** (-0.75 * alpha) / (np.sqrt(2.0) * s2 ** 1.5)
        np.testing.assert_allclose(field.values, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("chart,axes,anchor", [
        ("mu_sigma2", (Axis("mu", -2.0, 2.0, 3), Axis("s2", 1e-3, 1e3, 7, "log")),
         [0.0, 1.0]),
        ("mu_sigma", (Axis("mu", -2.0, 2.0, 3),
                      Axis("sigma", 10 ** -1.5, 10 ** 1.5, 7, "log")), [0.0, 1.0]),
        ("natural", (Axis("eta1", -2.0, 2.0, 3), Axis("eta2", -500.0, -5e-4, 7)),
         [0.0, -0.5]),
    ])
    def test_omega_in_every_chart(self, g1, chart, axes, anchor):
        grid = GridSpec(axes, chart=chart)
        omega = priors._grid_omega(g1, grid, grid.points(), anchor, None)
        s2 = g1.chart(chart).to_reference(grid.points())[:, 1]
        np.testing.assert_allclose(omega, 1.5 * np.log(s2), rtol=0, atol=1e-12)


class TestTheoremRatio:
    def test_gaussian1d(self, g1):
        out = theorem_ratio_check(g1, small_grid(), anchor=[0.0, 1.0])
        assert out["alpha"] == -2.0
        assert out["max_rel_deviation"] < 1e-10

    def test_mv2(self, mv2):
        grid = GridSpec((
            Axis("mu1", 0.0, 0.0, 1), Axis("mu2", 0.0, 0.0, 1),
            Axis("s11", 0.8, 1.6, 3), Axis("s12", 0.0, 0.2, 2),
            Axis("s22", 0.9, 1.4, 3)))
        out = theorem_ratio_check(mv2, grid, anchor=vech_theta([0, 0], np.eye(2)))
        assert out["alpha"] == -5.0
        assert out["max_rel_deviation"] < 1e-10

    def test_discrete_families(self, bern, pois):
        gb = GridSpec((Axis("p", 0.2, 0.8, 7),))
        assert theorem_ratio_check(bern, gb, anchor=[0.5])["max_rel_deviation"] < 1e-10
        gp = GridSpec((Axis("lam", 0.5, 5.0, 7),))
        assert theorem_ratio_check(pois, gp, anchor=[1.0])["max_rel_deviation"] < 1e-10


class TestDiscreteWeylClosedForms:
    """The discrete Weyl priors against their closed forms.  With m = 1 the
    prior is exp(Omega / 2) sqrt(g): Bernoulli's g = 1/(p (1 - p)) and
    phi = (1 - 2p) / (2 p (1 - p)) give (p (1 - p))^(-1/4), Beta(3/4, 3/4),
    and Poisson's g = 1/lam and phi = 1/(2 lam) give lam^(-1/4).  The
    departure is the largest relative distance of the ratio field / closed
    form from its mean; each bound is 100 times the departure measured when
    the test was written."""

    @staticmethod
    def departure(values, closed_form):
        ratio = values / closed_form
        return np.max(np.abs(ratio - ratio.mean())) / ratio.mean()

    def test_bernoulli(self, bern):
        field = weyl_prior_field(bern, GridSpec((Axis("p", 0.01, 0.99, 9),)),
                                 anchor=[0.5])
        p = field.points[:, 0]
        # measured 3.1e-16
        assert self.departure(field.values, (p * (1.0 - p)) ** -0.25) < 3.1e-14

    def test_poisson(self, pois):
        field = weyl_prior_field(pois, GridSpec((Axis("lam", 0.1, 50.0, 9, "log"),)),
                                 anchor=[1.0])
        lam = field.points[:, 0]
        # measured 1.6e-15
        assert self.departure(field.values, lam ** -0.25) < 1.6e-13

    def test_bernoulli_natural_chart(self, bern):
        # a density in eta = logit p carries the Jacobian dp/deta = p (1 - p)
        grid = GridSpec((Axis("eta", -4.0, 4.0, 9),), chart="natural")
        field = weyl_prior_field(bern, grid, anchor=[0.0])
        p = 1.0 / (1.0 + np.exp(-field.points[:, 0]))
        # measured 3.3e-15
        assert self.departure(field.values, (p * (1.0 - p)) ** 0.75) < 3.3e-13


class TestReparam:
    def test_jeffreys_covariance(self, g1):
        # Jeffreys in (mu, sigma) is sqrt(2)/sigma^2; transforming the
        # (mu, sigma^2) field must match the natively computed one
        grid = small_grid()
        field = jeffreys_field(g1, grid)
        moved = reparam_transform(field, g1, "mu_sigma")
        native = prior_values(g1, moved.points, "jeffreys", chart="mu_sigma")
        np.testing.assert_allclose(moved.values, native, rtol=1e-9)
        assert moved.chart == "mu_sigma"

    def test_density_jacobian_factor(self, g1):
        # dtheta_src/dtheta_tgt for sigma2 -> sigma is 2 sigma
        field = jeffreys_field(g1, GridSpec((Axis("mu", 0.0, 0.0, 1),
                                             Axis("sigma2", 4.0, 4.0, 1))))
        moved = reparam_transform(field, g1, "mu_sigma")
        assert moved.points[0, 1] == pytest.approx(2.0)
        assert moved.values[0] == pytest.approx(field.values[0] * 4.0, rel=1e-12)

    @staticmethod
    def reference_reparam(field, model, target_chart):
        """``reparam_transform`` one point at a time: the reference."""
        src, tgt = model.chart(field.chart), model.chart(target_chart)
        pts, vals = np.empty_like(field.points), np.empty_like(field.values)
        for k, t_src in enumerate(field.points):
            pts[k] = tgt.from_reference(src.to_reference(t_src))
            j = np.linalg.solve(src.jacobian(t_src), tgt.jacobian(pts[k]))
            vals[k] = field.values[k] * abs(np.linalg.det(j))
        return pts, vals

    @pytest.mark.parametrize("src,tgt", [("mu_sigma2", "natural"),
                                         ("natural", "mu_sigma"),
                                         ("mu_sigma", "mu_sigma2")])
    def test_matches_per_point_loop_bitwise(self, g1, src, tgt):
        pts = g1.chart(src).from_reference(
            GridSpec((Axis("mu", -2.0, 2.0, 11),
                      Axis("s2", 0.25, 16.0, 11, "log"))).points())
        field = PriorField(pts, 1.0 + pts[:, 1] ** 2, "weyl", src)
        moved = reparam_transform(field, g1, tgt)
        want_pts, want_vals = self.reference_reparam(field, g1, tgt)
        assert np.array_equal(moved.points, want_pts)
        assert np.array_equal(moved.values, want_vals)

    @pytest.mark.parametrize("src,tgt,pts,bad", [
        # d(mu, s2)/d(eta) underflows to a singular matrix at eta2 = -1e200
        ("natural", "mu_sigma2", [[0.0, -1.0], [0.0, -1e200], [0.0, -1e300]],
         [0.0, 5e-201]),
        # d(mu, s2)/d(eta) overflows at s2 = 1e200, eta2 = -5e-201
        ("mu_sigma2", "natural", [[0.0, 1.0], [0.0, 1e200], [0.0, 1e300]],
         [0.0, -5e-201]),
    ], ids=["singular-source", "infinite-target"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_singular_jacobian_names_first_point(self, g1, src, tgt, pts, bad):
        field = PriorField(np.array(pts), np.ones(len(pts)), "jeffreys", src)
        with pytest.raises(GridError, match=re.escape(f"at {bad}")):
            reparam_transform(field, g1, tgt)


class TestCSV:
    def test_round_trip(self, g1, tmp_path):
        field = weyl_prior_field(g1, small_grid(), anchor=[0.0, 1.0])
        path = tmp_path / "field.csv"
        write_csv(field, path)
        names, pts, vals = read_csv(path)
        assert names == ["mu", "sigma2"]
        np.testing.assert_array_equal(pts, field.points)
        np.testing.assert_array_equal(vals, field.values)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(GridError):
            read_csv(p)
