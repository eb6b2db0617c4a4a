"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line with the measured quantity and its
tolerance, then asserts.  The default gaussian1d grid is mu in [-2, 2] by
sigma^2 in [0.25, 16] (log-spaced), 21 x 21.
"""

import time

import numpy as np
import pytest

from weylprior import (
    Axis,
    Dataset,
    GridSpec,
    amari_chentsov,
    fisher_metric,
    grid_posterior,
    jeffreys_field,
    theorem_ratio_check,
    weyl_one_form,
    weyl_prior_field,
)
from weylprior.geometry import (
    closedness_residual,
    duality_residual,
    gauge_rescale_check,
    nabla_g_identity_residual,
    ricci_tensor,
    trace_identity_residual,
    weyl_compatibility_residual,
)
from weylprior.priors import prior_values, reparam_transform
from weylprior.tensors import metric_and_cubic

from conftest import vech_theta

ANCHOR = np.array([0.0, 1.0])


def default_grid(count=21):
    return GridSpec((Axis("mu", -2.0, 2.0, count),
                     Axis("sigma2", 0.25, 16.0, count, spacing="log")))


def report(num, label, measured, tol, ok):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status}: {label} "
          f"(measured {measured:.3e}, tolerance {tol:.1e})", flush=True)
    assert ok, f"criterion {num}: {label}: {measured:.3e} vs {tol:.1e}"


def closed_metric(s2):
    return np.diag([1.0 / s2, 0.5 / s2 ** 2])


def closed_cubic(s2):
    c = np.zeros((2, 2, 2))
    c[1, 1, 1] = 1.0 / s2 ** 3
    c[1, 0, 0] = c[0, 1, 0] = c[0, 0, 1] = 1.0 / s2 ** 2
    return c


def test_01_univariate_tensor_oracle(g1):
    t0 = time.perf_counter()
    worst = 0.0
    for theta in default_grid().points():
        met, cub = metric_and_cubic(g1, theta)
        s2 = theta[1]
        gw, cw = closed_metric(s2), closed_cubic(s2)
        scale_g = np.max(np.abs(gw))
        scale_c = np.max(np.abs(cw))
        worst = max(worst,
                    float(np.max(np.abs(met.g - gw))) / scale_g,
                    float(np.max(np.abs(cub - cw))) / scale_c)
    elapsed = time.perf_counter() - t0
    report(1, "gaussian1d metric/cubic vs closed forms on 21x21 grid",
           worst, 1e-8, worst < 1e-8 and elapsed < 10.0)


def test_02_weyl_one_form_and_closedness(g1):
    pts = default_grid().points()
    worst_phi = 0.0
    worst_closed = 0.0
    for theta in pts:
        phi = weyl_one_form(g1, theta)
        want = np.array([0.0, 1.5 / theta[1]])
        worst_phi = max(worst_phi,
                        float(np.max(np.abs(phi - want))) / (1.5 / theta[1]))
    # closedness is a smooth scalar field; probe a coarse sub-grid
    for theta in default_grid(7).points():
        res = closedness_residual(g1, theta)
        worst_closed = max(worst_closed, float(np.max(np.abs(res))))
    ok = worst_phi < 1e-8 and worst_closed < 1e-7
    report(2, "Weyl 1-form closed form (and closedness residual)",
           max(worst_phi, worst_closed), 1e-7, ok)


def test_03_uniform_prior_reproduction(g1):
    field = weyl_prior_field(g1, default_grid(), anchor=ANCHOR)
    spread = float((field.values.max() - field.values.min())
                   / field.values.mean())
    value_err = float(np.max(np.abs(field.values - 1.0 / np.sqrt(2.0))))
    ok = spread < 1e-6 and value_err < 1e-6
    report(3, "Weyl prior is uniform at 1/sqrt(2) on the grid",
           max(spread, value_err), 1e-6, ok)


def test_04_theorem_ratio(g1, mv2):
    dev1 = theorem_ratio_check(g1, default_grid(), ANCHOR)["max_rel_deviation"]
    mv_grid = GridSpec((
        Axis("mu1", 0.0, 0.0, 1), Axis("mu2", 0.0, 0.0, 1),
        Axis("s11", 0.7, 1.8, 3), Axis("s12", 0.0, 0.25, 2),
        Axis("s22", 0.8, 1.5, 3)))
    dev2 = theorem_ratio_check(mv2, mv_grid,
                               vech_theta([0, 0], np.eye(2)))["max_rel_deviation"]
    worst = max(dev1, dev2)
    report(4, "Weyl prior / alpha-parallel prior at alpha=-m is constant",
           worst, 1e-8, worst < 1e-8)


def test_05_identity_suite(g1, mv2):
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    points = [(g1, np.array([rng.uniform(-2, 2),
                             np.exp(rng.uniform(np.log(0.3), np.log(5.0)))]))
              for _ in range(25)]
    for _ in range(5):
        a = rng.standard_normal((2, 2)) * 0.5
        sigma = a @ a.T + np.diag([1.0, 1.2])
        points.append((mv2, vech_theta(rng.uniform(-1, 1, 2), sigma)))
    worst = 0.0
    for model, theta in points:
        alpha = rng.choice([-2.0, -1.0, 0.5, 1.0, 2.0])
        worst = max(
            worst,
            float(np.max(np.abs(duality_residual(model, theta, alpha)))),
            float(np.max(np.abs(nabla_g_identity_residual(model, theta, alpha)))),
            float(np.max(np.abs(weyl_compatibility_residual(model, theta)))),
            float(np.max(np.abs(trace_identity_residual(model, theta)))))
    elapsed = time.perf_counter() - t0
    report(5, "duality / nabla-g / Weyl-compatibility / trace identities "
              "at 25 gaussian1d + 5 gaussian_mv:2 points",
           worst, 1e-6, worst < 1e-6 and elapsed < 60.0)


def test_06_ricci_symmetry(g1):
    worst = 0.0
    for theta in ([0.0, 1.0], [1.0, 0.5], [-1.5, 4.0]):
        for alpha in (-2.0, 0.0, 1.0, 2.0):
            ric = ricci_tensor(g1, theta, kind="alpha", alpha=alpha)
            worst = max(worst, float(np.max(np.abs(ric - ric.T))))
    report(6, "Ricci tensor symmetry for alpha in {-2, 0, 1, 2}",
           worst, 1e-6, worst < 1e-6)


def test_07_multivariate_exponent(mv2):
    grid = GridSpec((
        Axis("mu1", 0.0, 0.0, 1), Axis("mu2", 0.0, 0.0, 1),
        Axis("s11", 0.5, 4.0, 15, spacing="log"),
        Axis("s12", 0.0, 0.0, 1),
        Axis("s22", 0.5, 4.0, 15, spacing="log")))
    anchor = vech_theta([0, 0], np.eye(2))
    field = weyl_prior_field(mv2, grid, anchor=anchor)
    logdet = np.log(field.points[:, 2] * field.points[:, 4])
    logw = np.log(field.values)
    design = np.column_stack([logdet, np.ones_like(logdet)])
    coef, *_ = np.linalg.lstsq(design, logw, rcond=None)
    resid = float(np.max(np.abs(logw - design @ coef)))
    # closed form: the Weyl prior of gaussian_mv:n is det(Sigma)^((n+2)(m-2)/4)
    # with m = n + n(n+1)/2, so 3 at n = 2
    exp_err = abs(float(coef[0]) - 3.0)
    print(f"[acceptance 07] fitted exponent p = {float(coef[0]):.6f} "
          f"(closed form (n+2)(m-2)/4 = 3)", flush=True)
    report(7, "log Weyl prior is affine in log det Sigma on diag 15x15 grid",
           resid, 1e-4, resid < 1e-4)
    report(7, "fitted det Sigma exponent equals 3", exp_err, 1e-6,
           exp_err < 1e-6)


def test_08_reparam_covariance(g1):
    grid = default_grid(7)
    worst = 0.0
    jf = jeffreys_field(g1, grid)
    moved = reparam_transform(jf, g1, "mu_sigma")
    native = prior_values(g1, moved.points, "jeffreys", chart="mu_sigma")
    worst = max(worst, float(np.max(np.abs(moved.values - native) / native)))
    wf = weyl_prior_field(g1, grid, anchor=ANCHOR)
    moved = reparam_transform(wf, g1, "mu_sigma")
    native = prior_values(g1, moved.points, "weyl", anchor=ANCHOR,
                          chart="mu_sigma")
    worst = max(worst, float(np.max(np.abs(moved.values - native) / native)))
    report(8, "Jeffreys and Weyl fields transform covariantly to (mu, sigma)",
           worst, 1e-6, worst < 1e-6)


def test_09_posterior_sanity(g1):
    rng = np.random.default_rng(5)
    obs = rng.normal(1.0, np.sqrt(2.0), size=1000)
    grid = default_grid()
    prior = weyl_prior_field(g1, grid, anchor=ANCHOR)
    post = grid_posterior(g1, prior, Dataset(obs))

    mode = post.points[np.argmax(post.log_values)]
    mu_vals = grid.axes[0].values()
    s2_vals = grid.axes[1].values()
    i = int(np.searchsorted(mu_vals, mode[0]))
    j = int(np.searchsorted(s2_vals, mode[1]))
    xbar, s2hat = obs.mean(), obs.var()

    def in_cell(vals, k, x):
        lo = vals[k - 1 : k + 1].mean() if k > 0 else vals[0]
        hi = vals[k : k + 2].mean() if k < len(vals) - 1 else vals[-1]
        return lo <= x <= hi

    mode_ok = in_cell(mu_vals, i, xbar) and in_cell(s2_vals, j, s2hat)
    mass_err = abs(float(post.masses.sum()) - 1.0)

    from weylprior.priors import PriorField
    scaled = PriorField(prior.points, prior.values * 123.0, prior.kind,
                        prior.chart, grid=grid, anchor=prior.anchor)
    post2 = grid_posterior(g1, scaled, Dataset(obs))
    rescale_err = float(np.max(np.abs(post.masses - post2.masses)))

    ok = mode_ok and mass_err < 1e-10 and rescale_err < 1e-12
    report(9, "posterior mode cell, mass normalization, rescale invariance",
           max(mass_err, rescale_err), 1e-10, ok)


def test_10_gauge_invariance(g1):
    lam_scale = lambda t: np.log(t[..., 1])
    lam_shift = lambda t: t[..., 0]
    r1 = gauge_rescale_check(g1, lam_scale, [0.0, 1.0], [0.0, 4.0], 256)
    r2 = gauge_rescale_check(g1, lam_shift, [0.0, 1.0], [2.0, 1.0], 256)
    worst = max(r1, r2)
    report(10, "Weyl translation agrees across two gauge choices",
           worst, 1e-6, worst < 1e-6)
