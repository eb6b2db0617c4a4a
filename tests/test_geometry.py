"""Connections, the Weyl 1-form, potentials, and identity residuals."""

import numpy as np
import pytest

from weylprior import (
    Axis,
    GridSpec,
    alpha_connection,
    alpha_prior_field,
    jeffreys_field,
    levi_civita,
    potential_omega,
    segment_integrals,
    weyl_connection,
    weyl_one_form,
    weyl_prior_field,
)
from weylprior.errors import ClosednessError
from weylprior.geometry import (
    closedness_residual,
    duality_residual,
    gauge_residual,
    nabla_g_identity_residual,
    ricci_tensor,
    trace_identity_residual,
    weyl_compatibility_residual,
)

from conftest import diagonal_gaussian, vech_theta


class TestConnections:
    def test_levi_civita_gaussian1d(self, g1):
        # closed form in (mu, sigma^2): Gamma^mu_{mu s} = -1/(2 s),
        # Gamma^s_{mu mu} = 1, Gamma^s_{ss} = -1/s
        for s2 in (1.0, 3.0):
            gam = levi_civita(g1, [0.5, s2])
            assert gam[0, 0, 1] == pytest.approx(-0.5 / s2, abs=1e-7)
            assert gam[0, 1, 0] == pytest.approx(-0.5 / s2, abs=1e-7)
            assert gam[1, 0, 0] == pytest.approx(1.0, abs=1e-7)
            assert gam[1, 1, 1] == pytest.approx(-1.0 / s2, abs=1e-7)
            assert gam[0, 0, 0] == pytest.approx(0.0, abs=1e-7)
            assert gam[1, 0, 1] == pytest.approx(0.0, abs=1e-7)

    def test_alpha_zero_is_levi_civita(self, g1):
        theta = [1.0, 2.0]
        np.testing.assert_allclose(alpha_connection(g1, theta, 0.0),
                                   levi_civita(g1, theta), atol=1e-12)

    def test_alpha_correction_sign(self, g1):
        # Gamma^alpha = LC - (alpha/2) g^{-1} C; check one entry analytically:
        # at (0,1), (g^{-1}C)^s_{ss} = 2 * 1 = 2, so alpha=1 shifts by -1
        lc = levi_civita(g1, [0.0, 1.0])
        a1 = alpha_connection(g1, [0.0, 1.0], 1.0)
        assert a1[1, 1, 1] - lc[1, 1, 1] == pytest.approx(-1.0, abs=1e-9)

    def test_weyl_connection_gaussian1d(self, g1):
        gam = weyl_connection(g1, [0.0, 1.0])
        assert gam[0, 0, 1] == pytest.approx(0.25, abs=1e-7)
        assert gam[1, 0, 0] == pytest.approx(-0.5, abs=1e-7)

    def test_connections_symmetric_lower_indices(self, g1, mv2):
        for model, theta in [(g1, [0.7, 1.7]),
                             (mv2, vech_theta([0.2, -0.1],
                                              [[1.5, 0.3], [0.3, 1.0]]))]:
            for gam in (levi_civita(model, theta),
                        alpha_connection(model, theta, 1.0),
                        weyl_connection(model, theta)):
                np.testing.assert_allclose(gam, np.transpose(gam, (0, 2, 1)),
                                           atol=1e-12)


class TestWeylOneForm:
    @pytest.mark.parametrize("s2", [0.5, 1.0, 4.0])
    def test_gaussian1d_closed_form(self, g1, s2):
        # phi = (0, 3/(2 sigma^2)) in the (mu, sigma^2) chart
        phi = weyl_one_form(g1, [0.0, s2])
        np.testing.assert_allclose(phi, [0.0, 1.5 / s2], atol=1e-10)

    def test_mv_identity_covariance(self, mv2):
        # hand moment computation gives d(2 ln det Sigma) in the vech chart
        phi = weyl_one_form(mv2, vech_theta([0, 0], np.eye(2)))
        np.testing.assert_allclose(phi, [0.0, 0.0, 2.0, 0.0, 2.0], atol=1e-9)

    def test_mv_matches_log_det_gradient(self, mv2):
        sigma = np.array([[2.0, 0.5], [0.5, 1.2]])
        phi = weyl_one_form(mv2, vech_theta([0.3, 0.1], sigma))
        p = np.linalg.inv(sigma)
        # d/d s_ij of 2 ln det Sigma, off-diagonal vech entries doubled
        want = [0.0, 0.0, 2 * p[0, 0], 4 * p[0, 1], 2 * p[1, 1]]
        np.testing.assert_allclose(phi, want, atol=1e-9)

    @pytest.mark.parametrize("model_fixture,theta", [
        ("g1", [0.5, 2.0]),
        ("mv2", None),
        ("bern", [0.3]),
        ("pois", [2.5]),
    ])
    def test_closedness(self, request, model_fixture, theta):
        model = request.getfixturevalue(model_fixture)
        if theta is None:
            theta = vech_theta([0.1, -0.2], [[1.4, 0.2], [0.2, 0.9]])
        res = closedness_residual(model, theta)
        assert np.max(np.abs(res)) < 1e-7


def interior_points(model, chart, count=8, seed=0):
    """Seeded points interior to ``chart``, drawn in the reference chart."""
    rng = np.random.default_rng(seed)
    if model.id == "gaussian1d":
        ref = np.column_stack([rng.uniform(-2, 2, count),
                               np.exp(rng.uniform(-1.5, 1.5, count))])
    elif model.id == "gaussian_mv:2":
        a = rng.standard_normal((count, 2, 2))
        sig = a @ np.swapaxes(a, 1, 2) + 0.3 * np.eye(2)
        mu = rng.uniform(-1, 1, (count, 2))
        ref = np.array([vech_theta(m, s) for m, s in zip(mu, sig)])
    elif model.id == "bernoulli":
        ref = rng.uniform(0.05, 0.95, (count, 1))
    else:
        ref = np.exp(rng.uniform(-1, 3, (count, 1)))
    return model.chart(chart).from_reference(ref)


# worst relative gap between the two routes to phi: 1.8e-14 over
# interior_points of every model and chart (gaussian1d, natural chart), and
# 1.0e-13 over 20 such points per chart (gaussian_mv:2); a 1e-9 change of
# either route fails
ONE_FORM_ROUTE_RTOL = 1e-11

ONE_FORM_CHARTS = [("gaussian1d", "mu_sigma2"), ("gaussian1d", "mu_sigma"),
                   ("gaussian1d", "natural"), ("gaussian_mv:2", "mu_vech"),
                   ("bernoulli", "p"), ("bernoulli", "natural"),
                   ("poisson", "lam"), ("poisson", "natural")]


class TestOneFormTwoRoutes:
    @pytest.mark.parametrize("model_id,chart", ONE_FORM_CHARTS)
    def test_trace_kernel_equals_bundle_phi(self, model_id, chart):
        # weyl_one_form takes 1/2 E[d_i l (dl)^T g^-1 dl] from the trace
        # kernel; the bundle takes 1/2 C_ijk g^jk from C (geometry._phi)
        model = get_model(model_id)
        pts = interior_points(model, chart)
        got = weyl_one_form(model, pts, chart)
        want = geometry._bundle(model, pts, chart, None, None).phi
        gap = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
        assert np.all(gap <= ONE_FORM_ROUTE_RTOL), gap.max()

    def test_every_chart_is_covered(self):
        assert sorted(ONE_FORM_CHARTS) == sorted(
            (mid, c) for mid in ("gaussian1d", "gaussian_mv:2", "bernoulli", "poisson")
            for c in get_model(mid).charts)


class TestPotential:
    def test_gaussian1d_value(self, g1):
        # Omega = (3/2) ln(sigma^2 / sigma_0^2)
        val = potential_omega(g1, [0.0, np.e ** 2], [0.0, 1.0])
        assert val == pytest.approx(3.0, abs=1e-10)

    def test_path_independence(self, g1):
        a = potential_omega(g1, [2.0, 3.0], [0.0, 1.0])
        b = potential_omega(g1, [2.0, 3.0], [-1.0, 0.25])
        c = potential_omega(g1, [0.0, 1.0], [-1.0, 0.25])
        assert a + c == pytest.approx(b, abs=1e-8)

    def test_anchor_is_zero(self, g1):
        assert potential_omega(g1, [1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_mv_log_det(self, mv2):
        sigma = np.array([[2.0, 0.4], [0.4, 1.5]])
        anchor = vech_theta([0.0, 0.0], np.eye(2))
        val = potential_omega(mv2, vech_theta([0.5, -0.5], sigma), anchor)
        assert val == pytest.approx(2.0 * np.log(np.linalg.det(sigma)),
                                    abs=1e-8)

    def test_additive_constant_shift(self, g1):
        # moving the anchor shifts Omega by a constant
        pts = [[0.0, 0.5], [1.0, 2.0], [-1.0, 4.0]]
        om_a = [potential_omega(g1, p, [0.0, 1.0]) for p in pts]
        om_b = [potential_omega(g1, p, [2.0, 3.0]) for p in pts]
        shifts = np.array(om_a) - np.array(om_b)
        assert np.max(np.abs(shifts - shifts[0])) < 1e-8


class TestCurvatureAndResiduals:
    def test_lc_ricci_constant_curvature(self, g1):
        # the Fisher metric of the Gaussian family is hyperbolic:
        # Ric = -(1/2) g
        for theta in ([0.0, 1.0], [1.0, 2.5]):
            ric = ricci_tensor(g1, theta)
            from weylprior import fisher_metric
            np.testing.assert_allclose(ric, -0.5 * fisher_metric(g1, theta).g,
                                       atol=1e-5)

    @pytest.mark.parametrize("alpha", [-2.0, 0.0, 1.0, 2.0])
    def test_alpha_ricci_symmetric(self, g1, alpha):
        ric = ricci_tensor(g1, [0.5, 1.5], kind="alpha", alpha=alpha)
        assert np.max(np.abs(ric - ric.T)) < 1e-6

    @pytest.mark.parametrize("alpha", [-1.0, 0.5, 2.0])
    def test_duality(self, g1, alpha):
        res = duality_residual(g1, [0.3, 1.2], alpha)
        assert np.max(np.abs(res)) < 1e-7

    @pytest.mark.parametrize("alpha", [-2.0, 1.0])
    def test_nabla_g_identity(self, g1, alpha):
        res = nabla_g_identity_residual(g1, [0.0, 2.0], alpha)
        assert np.max(np.abs(res)) < 1e-7

    def test_weyl_compatibility(self, g1, mv2):
        assert np.max(np.abs(weyl_compatibility_residual(g1, [0.5, 1.5]))) < 1e-7
        theta = vech_theta([0.0, 0.0], [[1.3, 0.2], [0.2, 1.0]])
        assert np.max(np.abs(weyl_compatibility_residual(mv2, theta))) < 1e-6

    def test_trace_identity(self, g1):
        assert np.max(np.abs(trace_identity_residual(g1, [0.2, 0.8]))) < 1e-8

    def test_closedness_names_an_outside_point(self, g1):
        # not the finite-difference stencil's failure to fit the domain
        with pytest.raises(DomainError, match=r"theta=\[0\.0, -1\.0\] is not interior"):
            closedness_residual(g1, [0.0, -1.0])


class TestNonClosedFamily:
    """N((a, b), diag(e^b, e^a)), a curved family whose Weyl 1-form is not
    closed.  Its score gives g = diag(e^-b + 1/2, e^-a + 1/2), C_aaa = C_bbb
    = 1, C_abb = e^-a and C_baa = e^-b, so phi_a = (1/g_aa + e^-a/g_bb)/2,
    phi_b = (e^-b/g_aa + 1/g_bb)/2 and R_ab = (f(a) - f(b))/2 with
    f(t) = e^-t / (e^-t + 1/2)^2.  R_ab vanishes on the lines a = b and
    a + b = ln 4 alone."""

    GRID = GridSpec((Axis("a", -1.0, 1.0, 3), Axis("b", 0.0, 2.0, 3)))

    @pytest.mark.parametrize("a,b", [(0.3, -0.2), (1.0, 0.5), (-0.7, 0.9)])
    def test_closedness_residual(self, a, b):
        f = lambda t: np.exp(-t) / (np.exp(-t) + 0.5) ** 2
        res = closedness_residual(diagonal_gaussian(True), [a, b])
        want = 0.5 * (f(a) - f(b))
        assert abs(want) > 3e-3
        np.testing.assert_allclose(res, [[0.0, want], [-want, 0.0]], atol=1e-10)
        # the product family N((a, b), diag(e^a, e^b)) is closed
        assert np.max(np.abs(closedness_residual(diagonal_gaussian(False), [a, b]))) < 1e-10

    @pytest.mark.parametrize("build", [
        lambda m, grid: weyl_prior_field(m, grid, [0.0, 0.0]),
        lambda m, grid: alpha_prior_field(m, grid, 1.0, [0.0, 0.0]),
    ], ids=["weyl", "alpha"])
    def test_potential_priors_are_refused(self, build):
        with pytest.raises(ClosednessError, match="not closed"):
            build(diagonal_gaussian(True), self.GRID)
        assert np.all(np.isfinite(build(diagonal_gaussian(False), self.GRID).values))

    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception, reason=(
        "the sweep probes closedness once, at (-0.5, -0.5) on the zero-curl "
        "line a = b; refusing this grid needs the cell-loop integrals of "
        "ROADMAP items 4 and 10"))
    def test_symmetric_grid_is_refused(self):
        grid = GridSpec((Axis("a", -1.0, 1.0, 3), Axis("b", -1.0, 1.0, 3)))
        with pytest.raises(ClosednessError, match="not closed"):
            weyl_prior_field(diagonal_gaussian(True), grid, [0.0, 0.0])

    def test_jeffreys_field_needs_no_potential(self):
        field = jeffreys_field(diagonal_gaussian(True), self.GRID)
        a, b = field.points.T
        np.testing.assert_allclose(
            field.values, np.sqrt((np.exp(-b) + 0.5) * (np.exp(-a) + 0.5)), rtol=1e-13)


def weyl_scale(model, waypoints):
    """Scale factor exp(int phi) carrying a scalar product along the
    polyline through ``waypoints``."""
    pts = np.asarray(waypoints, dtype=float)
    ints, _ = segment_integrals(lambda t: weyl_one_form(model, t), pts[:-1], pts[1:])
    return float(np.exp(ints.sum()))


class TestWeylTranslate:
    def test_known_scale(self, g1):
        # int phi along sigma^2: 1 -> e is exactly 3/2
        val = weyl_scale(g1, [[0.0, 1.0], [0.0, np.e]])
        assert val == pytest.approx(np.exp(1.5), rel=1e-5)

    def test_closed_loop_is_identity(self, g1):
        loop = [[0.0, 1.0], [2.0, 1.0], [2.0, 3.0], [0.0, 3.0], [0.0, 1.0]]
        assert weyl_scale(g1, loop) == pytest.approx(1.0, abs=1e-12)

    def test_gauge_rescale_invariance(self, g1):
        pts = np.array([[0.0, 1.0], [0.0, 4.0], [2.0, 1.0]])
        for lam in (lambda t: np.log(t[..., 1]), lambda t: t[..., 0]):
            res = gauge_residual(g1, pts, lam)
            assert res.shape == (3, 2, 2, 2)
            assert np.max(np.abs(res)) < 1e-9
            for p, theta in enumerate(pts):
                assert np.array_equal(gauge_residual(g1, theta, lam), res[p])


# ---------------------------------------------------------------------------
# Reference route: the one-point, one-coordinate finite differences and the
# per-function tensor evaluations that the stacked bundle replaced.  The
# bundle must reproduce them bitwise.  The closedness residual and the
# potential difference and integrate ``weyl_one_form``, which takes phi from
# the trace kernel, so their references take it from there too, one point at
# a time; TestOneFormTwoRoutes compares that phi with the one from C.

from weylprior import geometry
from weylprior.errors import DomainError
from weylprior.geometry import GAMMA_DIFF
from weylprior.models import get_model
from weylprior.numerics import DEFAULT_DIFF
from weylprior.tensors import amari_chentsov, fisher_metric, inverse_metric, metric_and_cubic


def reference_partial(f, theta, i, diff=None, domain=None):
    if diff is None:
        diff = DEFAULT_DIFF
    theta = np.asarray(theta, dtype=float)
    h = max(diff.rel_step * (abs(theta[i]) + 1.0), diff.abs_floor)

    def stencil_ok(hh):
        if domain is None:
            return True
        for s in (-1.0, -0.5, 0.5, 1.0):
            t = theta.copy()
            t[i] += s * hh
            if not domain(t):
                return False
        return True

    while not stencil_ok(h):
        h *= 0.5
        if h < diff.abs_floor:
            raise DomainError(
                f"FD stencil for coordinate {i} escapes the domain at "
                f"theta={theta.tolist()} even at the minimum step")

    def central(hh):
        tp = theta.copy()
        tm = theta.copy()
        tp[i] += hh
        tm[i] -= hh
        return (np.asarray(f(tp), dtype=float) - np.asarray(f(tm), dtype=float)) / (2.0 * hh)

    d1 = central(h)
    d2 = central(0.5 * h)
    return (4.0 * d2 - d1) / 3.0


def reference_gradient(f, theta, diff=None, domain=None):
    theta = np.asarray(theta, dtype=float)
    return np.array([reference_partial(f, theta, i, diff, domain)
                     for i in range(len(theta))])


def _contains(model, chart):
    ch = model.chart(chart)
    return lambda t: bool(ch.interior(np.asarray(t)[None])[0])


def reference_metric_derivatives(model, theta, chart=None, diff=None):
    return reference_gradient(lambda t: fisher_metric(model, t, chart).g, theta,
                              diff, _contains(model, chart))


def reference_levi_civita(model, theta, chart=None, diff=None):
    met = fisher_metric(model, theta, chart)
    ginv = inverse_metric(met)
    dg = reference_metric_derivatives(model, theta, chart, diff)
    a = (np.transpose(dg, (1, 0, 2)) + np.transpose(dg, (2, 1, 0)) - dg)
    gamma = 0.5 * np.einsum("il,ljk->ijk", ginv, a)
    return 0.5 * (gamma + np.transpose(gamma, (0, 2, 1)))


def reference_alpha_connection(model, theta, alpha, chart=None, diff=None):
    lc = reference_levi_civita(model, theta, chart, diff)
    met, cub = metric_and_cubic(model, theta, chart)
    return lc - 0.5 * alpha * np.einsum("il,ljk->ijk", inverse_metric(met), cub)


def reference_weyl_one_form(model, theta, chart=None):
    met, cub = metric_and_cubic(model, theta, chart)
    return 0.5 * np.einsum("...ijk,...jk->...i", cub, inverse_metric(met))


def reference_weyl_connection(model, theta, chart=None, diff=None):
    lc = reference_levi_civita(model, theta, chart, diff)
    met, cub = metric_and_cubic(model, theta, chart)
    ginv = inverse_metric(met)
    phi = reference_weyl_one_form(model, theta, chart)
    eye = np.eye(model.dim)
    corr = 0.5 * (np.einsum("ij,k->ijk", eye, phi)
                  + np.einsum("ik,j->ijk", eye, phi)
                  - np.einsum("im,m,jk->ijk", ginv, phi, met.g))
    return lc + corr


def reference_trace_one_form(model, theta, chart=None):
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 1:
        return weyl_one_form(model, theta, chart)
    return np.array([weyl_one_form(model, t, chart) for t in theta])


def reference_closedness_residual(model, theta, chart=None):
    dphi = reference_gradient(lambda t: reference_trace_one_form(model, t, chart),
                              theta, None, _contains(model, chart))
    return dphi - dphi.T


def reference_connection(model, theta, kind, alpha, chart=None):
    if kind == "levi_civita":
        return reference_levi_civita(model, theta, chart)
    if kind == "alpha":
        return reference_alpha_connection(model, theta, alpha, chart)
    return reference_weyl_connection(model, theta, chart)


def reference_ricci_tensor(model, theta, kind="levi_civita", alpha=None, chart=None):
    gfn = lambda t: reference_connection(model, t, kind, alpha, chart)
    g0 = gfn(np.asarray(theta, dtype=float))
    dg = reference_gradient(gfn, theta, GAMMA_DIFF, _contains(model, chart))
    return (np.einsum("iijk->jk", dg)
            - np.einsum("jiik->jk", dg)
            + np.einsum("iip,pjk->jk", g0, g0)
            - np.einsum("ijp,pik->jk", g0, g0))


def reference_duality_residual(model, theta, alpha, chart=None):
    g = fisher_metric(model, theta, chart).g
    dg = reference_metric_derivatives(model, theta, chart)
    gp = reference_alpha_connection(model, theta, alpha, chart)
    gm = reference_alpha_connection(model, theta, -alpha, chart)
    return (dg - np.einsum("lki,lj->kij", gp, g)
            - np.einsum("lkj,il->kij", gm, g))


def reference_nabla_g_identity_residual(model, theta, alpha, chart=None):
    g = fisher_metric(model, theta, chart).g
    dg = reference_metric_derivatives(model, theta, chart)
    ga = reference_alpha_connection(model, theta, alpha, chart)
    c = amari_chentsov(model, theta, chart)
    nabla_g = (dg - np.einsum("lki,lj->kij", ga, g)
               - np.einsum("lkj,il->kij", ga, g))
    return nabla_g - alpha * c


def reference_weyl_compatibility_residual(model, theta, chart=None):
    g = fisher_metric(model, theta, chart).g
    dg = reference_metric_derivatives(model, theta, chart)
    gw = reference_weyl_connection(model, theta, chart)
    phi = reference_weyl_one_form(model, theta, chart)
    return (dg - np.einsum("lki,lj->kij", gw, g)
            - np.einsum("lkj,il->kij", gw, g)
            + np.einsum("k,ij->kij", phi, g))


def reference_trace_identity_residual(model, theta, chart=None):
    lc = reference_levi_civita(model, theta, chart)
    wc = reference_weyl_connection(model, theta, chart)
    phi = reference_weyl_one_form(model, theta, chart)
    return (np.einsum("iji->j", wc) - np.einsum("iji->j", lc)
            - 0.5 * model.dim * phi)


def _pairs(model, theta, chart, alphas, ricci_alphas):
    """(name, new route, reference route) for every connection, residual and
    Ricci kind at one point."""
    th = np.asarray(theta, dtype=float)
    out = [
        ("d g", lambda: geometry._bundle(model, th, chart, None, None).dg,
         lambda: reference_metric_derivatives(model, th, chart)),
        ("levi_civita", lambda: levi_civita(model, th, chart),
         lambda: reference_levi_civita(model, th, chart)),
        ("weyl", lambda: weyl_connection(model, th, chart),
         lambda: reference_weyl_connection(model, th, chart)),
        ("closedness", lambda: closedness_residual(model, th, chart),
         lambda: reference_closedness_residual(model, th, chart)),
        ("weyl-compat", lambda: weyl_compatibility_residual(model, th, chart),
         lambda: reference_weyl_compatibility_residual(model, th, chart)),
        ("trace-identity", lambda: trace_identity_residual(model, th, chart),
         lambda: reference_trace_identity_residual(model, th, chart)),
    ]
    for a in alphas:
        out += [
            (f"alpha({a})", lambda a=a: alpha_connection(model, th, a, chart),
             lambda a=a: reference_alpha_connection(model, th, a, chart)),
            (f"duality({a})", lambda a=a: duality_residual(model, th, a, chart),
             lambda a=a: reference_duality_residual(model, th, a, chart)),
            (f"nabla-g({a})", lambda a=a: nabla_g_identity_residual(model, th, a, chart),
             lambda a=a: reference_nabla_g_identity_residual(model, th, a, chart)),
        ]
    kinds = ([("levi_civita", None), ("weyl", None)]
             + [("alpha", a) for a in ricci_alphas])
    for kind, a in kinds:
        out.append((f"ricci {kind}({a})",
                    lambda kind=kind, a=a: ricci_tensor(model, th, kind, a, chart),
                    lambda kind=kind, a=a: reference_ricci_tensor(model, th, kind, a,
                                                                  chart)))
    return out


REFERENCE_CASES = [
    ("gaussian1d", None, [0.5, 1.5]),
    ("gaussian1d", "mu_sigma", [0.5, 1.2]),
    ("gaussian1d", "natural", [0.3, -0.4]),
    ("bernoulli", None, [0.3]),
    ("bernoulli", None, [1.5e-4]),       # the metric stencil halves its step
    ("bernoulli", "natural", [0.4]),
    ("poisson", None, [2.5]),
    ("gaussian_mv:2", None, list(vech_theta([0.1, -0.2], [[1.4, 0.2], [0.2, 0.9]]))),
]


class TestSameNumbersAsReference:
    @pytest.mark.parametrize("model_id,chart,theta", REFERENCE_CASES)
    def test_bitwise_equal(self, model_id, chart, theta):
        model = get_model(model_id)
        ricci_alphas = (1.0,) if model.dim > 2 else (-2.0, 0.0, 1.0, 2.0)
        for name, new, ref in _pairs(model, theta, chart, (-2.0, 0.0, 1.0),
                                     ricci_alphas):
            got, want = new(), ref()
            assert got.shape == want.shape, name
            assert np.array_equal(got, want), (name, np.max(np.abs(got - want)))

    def test_identity_suite_points(self, g1):
        rng = np.random.default_rng(1)
        mu = rng.uniform(-2.0, 2.0, 40)
        s2 = np.exp(rng.uniform(np.log(0.25), np.log(4.0), 40))
        for theta in np.column_stack([mu, s2]):
            for a in (-2.0, 0.0, 1.0):
                assert np.array_equal(duality_residual(g1, theta, a),
                                      reference_duality_residual(g1, theta, a))
                assert np.array_equal(nabla_g_identity_residual(g1, theta, a),
                                      reference_nabla_g_identity_residual(g1, theta, a))
            assert np.array_equal(closedness_residual(g1, theta),
                                  reference_closedness_residual(g1, theta))
            assert np.array_equal(weyl_compatibility_residual(g1, theta),
                                  reference_weyl_compatibility_residual(g1, theta))
            assert np.array_equal(trace_identity_residual(g1, theta),
                                  reference_trace_identity_residual(g1, theta))
            for a in (-2.0, 0.0, 1.0, 2.0):
                assert np.array_equal(ricci_tensor(g1, theta, "alpha", a),
                                      reference_ricci_tensor(g1, theta, "alpha", a))
            assert np.array_equal(ricci_tensor(g1, theta),
                                  reference_ricci_tensor(g1, theta))

    @pytest.mark.parametrize("fn", [
        lambda m, t: levi_civita(m, t),
        lambda m, t: duality_residual(m, t, 1.0),
        lambda m, t: closedness_residual(m, t),
        lambda m, t: ricci_tensor(m, t, "alpha", 1.0),
        lambda m, t: reference_levi_civita(m, t),
        lambda m, t: reference_duality_residual(m, t, 1.0),
        lambda m, t: reference_closedness_residual(m, t),
        lambda m, t: reference_ricci_tensor(m, t, "alpha", 1.0),
    ])
    def test_near_boundary_raises_on_both_routes(self, bern, fn):
        # p = 5e-7 is interior, but no stencil above the 1e-6 step floor fits
        with pytest.raises(DomainError, match="FD stencil for coordinate 0"):
            fn(bern, [5e-7])


class TestStackedConnections:
    @pytest.mark.parametrize("model_fixture,stack", [
        ("g1", [[0.5, 1.5], [-1.0, 0.3], [2.0, 4.0]]),
        ("mv2", [vech_theta([0.1, -0.2], [[1.4, 0.2], [0.2, 0.9]]),
                 vech_theta([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])]),
        ("bern", [[0.3], [1.5e-4], [0.9]]),
    ])
    def test_stack_matches_one_point_calls_bitwise(self, request, model_fixture, stack):
        model = request.getfixturevalue(model_fixture)
        stack = np.asarray(stack, dtype=float)
        for conn in (lambda t: levi_civita(model, t),
                     lambda t: alpha_connection(model, t, -2.0),
                     lambda t: weyl_connection(model, t)):
            got = conn(stack)
            assert got.shape == (len(stack),) + (model.dim,) * 3
            for p, theta in enumerate(stack):
                assert np.array_equal(got[p], conn(theta))


def count_tensor_calls(monkeypatch):
    from weylprior import tensors
    calls = []
    inner = tensors._tensors

    def counted(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(tensors, "_tensors", counted)
    return calls


class TestWorkCount:
    CHECKS = [("closedness", 1.0), ("duality", 1.0), ("nabla-g", -2.0),
              ("weyl-compat", 1.0), ("trace-identity", 1.0),
              ("ricci-symmetry", 2.0), ("gauge", 1.0)]

    @pytest.mark.parametrize("what,alpha", CHECKS)
    @pytest.mark.parametrize("model_id,theta", [
        ("gaussian1d", [0.5, 1.5]),
        ("gaussian_mv:2", list(vech_theta([0.0, 0.0], [[1.3, 0.2], [0.2, 1.0]]))),
    ])
    def test_at_most_four_stacked_tensor_calls(self, monkeypatch, model_id, theta,
                                               what, alpha):
        from weylprior import cli
        model = get_model(model_id)
        calls = count_tensor_calls(monkeypatch)
        res, tol = cli.run_check(model, what, np.asarray(theta), alpha)
        assert res < tol
        assert 1 <= len(calls) <= 4, calls


# the per-point checks of an identity-suite round (perfbench/workloads.py)
IDENTITY_SUITE = ([("closedness", 1.0), ("weyl-compat", 1.0), ("trace-identity", 1.0)]
                  + [(what, a) for a in (-2.0, 0.0, 1.0) for what in ("duality", "nabla-g")]
                  + [("ricci-symmetry", a) for a in (-2.0, 0.0, 1.0, 2.0)])


def suite_at(model, theta):
    """The identity-suite's 14 check residuals and the Levi-Civita Ricci
    tensor at one point."""
    from weylprior import cli
    out = [cli.run_check(model, what, theta, alpha)[0] for what, alpha in IDENTITY_SUITE]
    return out + [ricci_tensor(model, theta, "levi_civita")]


class TestBundleMemo:
    def test_identity_suite_point_makes_five_tensor_calls(self, g1, monkeypatch):
        # closedness (one metric-and-cubic call on its stencil), the bundle at
        # the point and the bundle on its Ricci stencil (two calls each); with
        # no bundle kept, the 18 bundle requests would make 36 calls
        calls = count_tensor_calls(monkeypatch)
        suite_at(g1, np.array([0.5, 1.5]))
        assert len(calls) == 5, calls
        suite_at(g1, np.array([-1.0, 0.7]))
        assert len(calls) == 10, calls

    @pytest.mark.parametrize("model_id,theta", [
        ("gaussian1d", [0.5, 1.5]),
        ("gaussian_mv:2", list(vech_theta([0.1, 0.0], [[1.3, 0.2], [0.2, 1.0]]))),
        ("poisson", [3.0]),
    ])
    def test_results_bitwise_equal_to_fresh_bundles(self, model_id, theta):
        from weylprior import cli
        model = get_model(model_id)
        theta = np.asarray(theta)

        def everything(fresh):
            out = []
            for what, alpha in IDENTITY_SUITE + [("gauge", 1.0)]:
                if fresh:
                    geometry._kept_bundle.cache_clear()
                out.append(cli.run_check(model, what, theta, alpha)[0])
            for kind, alpha in (("levi_civita", None), ("alpha", -2.0), ("weyl", None)):
                if fresh:
                    geometry._kept_bundle.cache_clear()
                out.append(ricci_tensor(model, theta, kind, alpha))
            for conn in (lambda: levi_civita(model, theta),
                         lambda: alpha_connection(model, theta, 1.0),
                         lambda: weyl_connection(model, theta)):
                if fresh:
                    geometry._kept_bundle.cache_clear()
                out.append(conn())
            return out

        shared = everything(fresh=False)
        fresh = everything(fresh=True)
        assert len(shared) == len(fresh)
        for a, b in zip(shared, fresh):
            assert np.array_equal(a, b)

    def test_writing_a_returned_connection_changes_no_later_result(self, g1):
        theta = np.array([0.5, 1.5])
        for conn in (lambda: levi_civita(g1, theta),
                     lambda: alpha_connection(g1, theta, 1.0),
                     lambda: weyl_connection(g1, theta)):
            first = conn()
            want = first.copy()
            first[...] = 7.0
            assert np.array_equal(conn(), want)

    def test_kept_arrays_are_read_only(self, g1):
        b = geometry._bundle(g1, np.array([0.5, 1.5]), None, None, None)
        for arr in (b.g, b.ginv, b.C, b.phi, b.dg, b.lc):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0

    def test_reused_only_for_the_same_inputs(self, g1, monkeypatch):
        from weylprior.numerics import DiffSpec, QuadratureSpec
        theta = np.array([0.5, 1.5])
        calls = count_tensor_calls(monkeypatch)
        base = levi_civita(g1, theta)
        assert len(calls) == 2
        assert np.array_equal(levi_civita(g1, theta.tolist()), base)
        assert len(calls) == 2
        variants = [lambda: levi_civita(g1, theta, chart="mu_sigma"),
                    lambda: levi_civita(g1, theta, quad=QuadratureSpec(8)),
                    lambda: levi_civita(g1, theta, diff=DiffSpec(rel_step=1e-3)),
                    lambda: levi_civita(get_model("gaussian1d"), theta),
                    lambda: levi_civita(g1, theta + [0.0, 1e-12]),
                    lambda: levi_civita(g1, theta[None])]
        for k, variant in enumerate(variants, start=1):
            variant()
            assert len(calls) == 2 + 2 * k


    def test_threads_get_their_own_points_results(self, g1):
        import sys
        import threading
        pts = [np.array([0.5, 1.5]), np.array([-1.0, 0.7]), np.array([2.0, 3.0])]
        want = [levi_civita(g1, t) for t in pts]
        errors = []

        def work(offset):
            try:
                for k in range(24):
                    p = (k + offset) % len(pts)
                    if not np.array_equal(levi_civita(g1, pts[p]), want[p]):
                        errors.append(p)
            except Exception as exc:    # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert geometry._kept_bundle.cache_info().currsize == geometry._MEMO_SIZE


def scaled_weyl_phi_terms(monkeypatch, factor):
    """Patch ``geometry._gamma`` so the Weyl connection's phi terms are
    scaled by ``factor``."""
    inner = geometry._gamma

    def gamma(b, kind, alpha=None):
        out = inner(b, kind, alpha)
        return b.lc + factor * (out - b.lc) if kind == "weyl" else out

    monkeypatch.setattr(geometry, "_gamma", gamma)


class TestGaugeCheckCanFail:
    def test_run_check_fails(self, g1, monkeypatch):
        from weylprior import cli
        theta = np.array([0.5, 1.5])
        res, tol = cli.run_check(g1, "gauge", theta)
        assert res < tol
        scaled_weyl_phi_terms(monkeypatch, 1.1)
        res, tol = cli.run_check(g1, "gauge", theta)
        assert res > tol

    def test_cli_check_fails(self, monkeypatch, capsys):
        import json
        from weylprior.cli import main
        scaled_weyl_phi_terms(monkeypatch, 1.1)
        code = main(["check", "--model", "gaussian1d", "--what", "gauge",
                     "--theta", "0.5,1.5"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["pass"] is False
        assert payload["max_residual"] > payload["tolerance"]


# ---------------------------------------------------------------------------
# Reference route for potentials: one straight-or-staircase polyline per
# point, tested for interiority by probes, integrated by composite 5-point
# Gauss-Legendre on 96 equal steps per segment, far past roundoff on these
# cases.  The adaptive stacked potential must agree with it to 1e-13, and
# give every point of a stack bitwise what it gives that point alone.

from weylprior.errors import ClosednessError
from weylprior.priors import Axis, GridSpec, prior_values, weyl_prior_field

_REF_GL = np.polynomial.legendre.leggauss(5)
_REF_NODES, _REF_WEIGHTS = 0.5 * (_REF_GL[0] + 1.0), 0.5 * _REF_GL[1]


def reference_line_integral(omega, waypoints, steps):
    a = np.asarray(waypoints[:-1], dtype=float)
    span = np.asarray(waypoints[1:], dtype=float) - a
    frac = ((np.arange(steps)[:, None] + _REF_NODES) / steps).reshape(-1)
    nodes = a[:, None, :] + frac[:, None] * span[:, None, :]
    phi = np.asarray(omega(nodes.reshape(-1, a.shape[1]))).reshape(nodes.shape)
    terms = np.tile(_REF_WEIGHTS, steps) * np.einsum("sni,si->sn", phi, span / steps)
    return float(np.cumsum(terms)[-1])


def _staircase(anchor, theta):
    pts = [np.asarray(anchor, dtype=float)]
    cur = np.asarray(anchor, dtype=float).copy()
    for i in range(len(cur)):
        if cur[i] != theta[i]:
            cur = cur.copy()
            cur[i] = theta[i]
            pts.append(cur)
    if len(pts) == 1:
        pts.append(np.asarray(theta, dtype=float))
    return pts


def _path_in_domain(waypoints, interior, probes=65):
    a = np.asarray(waypoints[:-1], dtype=float)
    span = np.asarray(waypoints[1:], dtype=float) - a
    t = np.linspace(0.0, 1.0, probes)[:, None, None]
    return bool(interior((a + t * span).reshape(-1, a.shape[1])).all())


def reference_potential_omega(model, theta, anchor, chart=None, steps=96):
    ch = model.chart(chart)
    theta = np.asarray(theta, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    if np.array_equal(theta, anchor):
        return 0.0
    waypoints = [anchor, theta]
    if not _path_in_domain(waypoints, ch.interior):
        waypoints = _staircase(anchor, theta)
        if not _path_in_domain(waypoints, ch.interior):
            raise DomainError("no in-domain path")
    mid = 0.5 * (anchor + theta)
    if not _contains(model, chart)(mid):
        mid = waypoints[min(1, len(waypoints) - 1)]
    if np.max(np.abs(reference_closedness_residual(model, mid, chart))) > 1e-6:
        raise ClosednessError("not closed")
    return reference_line_integral(lambda t: weyl_one_form(model, t, chart),
                                   waypoints, steps)


def _grid(*axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.reshape(-1) for m in mesh])


POTENTIAL_CASES = [
    ("gaussian1d", None, [0.0, 1.0],
     _grid(np.linspace(-2.0, 2.0, 5), np.geomspace(0.25, 16.0, 5))),
    ("gaussian1d", "mu_sigma", [0.0, 1.0],
     _grid(np.linspace(-2.0, 2.0, 4), np.geomspace(0.5, 4.0, 4))),
    ("gaussian1d", "natural", [0.0, -0.5],
     _grid(np.linspace(-2.0, 2.0, 4), -np.geomspace(0.05, 2.0, 4))),
    ("gaussian_mv:2", None, vech_theta([0.0, 0.0], np.eye(2)),
     np.array([vech_theta([0.5, -0.5], [[2.0, 0.4], [0.4, 1.5]]),
               vech_theta([0.0, 1.0], [[0.5, -0.2], [-0.2, 0.8]]),
               vech_theta([-1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])])),
    ("bernoulli", None, [0.5], np.array([[0.05], [0.3], [0.5], [0.9]])),
    ("poisson", "natural", [0.0], np.array([[-2.0], [0.5], [3.0]])),
]


class TestStackedPotential:
    @pytest.mark.parametrize("model_id,chart,anchor,points", POTENTIAL_CASES)
    def test_stack_matches_reference_bitwise(self, model_id, chart, anchor, points):
        model = get_model(model_id)
        got = potential_omega(model, points, anchor, chart)
        assert got.shape == (len(points),)
        want = np.array([reference_potential_omega(model, t, anchor, chart)
                         for t in points])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        one = [potential_omega(model, t, anchor, chart) for t in points]
        assert all(isinstance(v, float) for v in one)
        assert np.array_equal(got, one)

    def test_outside_anchor_is_named(self, g1):
        with pytest.raises(DomainError, match=r"anchor: theta=\[0\.0, -1\.0\] is not interior"):
            potential_omega(g1, [[0.0, 1.0], [1.0, 2.0]], [0.0, -1.0])

    def test_first_outside_theta_is_named(self, g1):
        stack = [[0.0, 1.0], [1.0, -2.0], [0.0, -3.0]]
        with pytest.raises(DomainError, match=r"theta=\[1\.0, -2\.0\] is not interior"):
            potential_omega(g1, stack, [0.0, 1.0])


class TestNotClosed:
    @pytest.fixture
    def open_form(self, monkeypatch):
        # phi = (0, mu) on gaussian1d: d_mu phi_s - d_s phi_mu = 1
        def weyl_one_form(model, theta, chart=None, quad=None):
            t = np.asarray(theta, dtype=float)
            phi = np.stack([np.zeros_like(t[..., 0]), t[..., 0]], axis=-1)
            return phi

        monkeypatch.setattr(geometry, "weyl_one_form", weyl_one_form)

    GRID = GridSpec((Axis("mu", -1.0, 1.0, 3), Axis("s2", 0.5, 2.0, 3)))

    def test_potential_omega(self, g1, open_form):
        with pytest.raises(ClosednessError, match="not closed"):
            potential_omega(g1, [1.0, 2.0], [0.0, 1.0])

    def test_prior_values(self, g1, open_form):
        with pytest.raises(ClosednessError, match="not closed"):
            prior_values(g1, self.GRID.points(), "weyl", anchor=[0.0, 1.0])

    def test_weyl_prior_field(self, g1, open_form):
        with pytest.raises(ClosednessError, match="not closed"):
            weyl_prior_field(g1, self.GRID, [0.0, 1.0])
