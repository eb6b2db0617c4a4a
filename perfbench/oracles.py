"""Closed-form references for the benchmark workloads.

Nothing here imports weylprior: every reference is computed from the
workload's inputs alone, so a wrong program output cannot move the value it
is checked against.  Each function returns the largest relative error of the
program's output against its closed form (for log densities: the largest
absolute error of the log, which is the relative error of the density).
"""

import numpy as np
from scipy.special import logsumexp

EPS = np.finfo(float).eps

# pass thresholds, well above today's errors and far below the O(1) errors a
# wrong construction gives (see test_oracles.py)
TOL_G1 = 1e-6          # today 7e-10: the potential is a 24-step line integral
TOL_MV2 = 1e-9         # today 5e-15
TOL_RICCI = 1e-5       # today 2e-8: two nested finite differences
TOL_POISSON = 1e-8     # today 7e-11 in log


def digits(err):
    """-log10 of a relative error, floored at float64 epsilon."""
    return float(-np.log10(max(float(err), EPS)))


def trapezoid_widths(vals):
    """Cell widths of a trapezoid rule on the nodes ``vals`` (half cells at the ends)."""
    vals = np.asarray(vals, dtype=float)
    if len(vals) == 1:
        return np.ones(1)
    mids = 0.5 * (vals[1:] + vals[:-1])
    return np.diff(np.concatenate([[vals[0]], mids, [vals[-1]]]))


def log_cell_volumes(*axes):
    """log cell volumes of the tensor grid over ``axes``, C order."""
    logs = [np.log(trapezoid_widths(a)) for a in axes]
    out = logs[0]
    for lw in logs[1:]:
        out = np.add.outer(out, lw)
    return out.reshape(-1)


def _normalized(logp, logvol):
    return logp - logsumexp(logp + logvol)


# ---------------------------------------------------------------------------
# gaussian1d in (mu, s2): g = diag(1/s2, 1/(2 s2^2)), Omega = 3/2 log(s2/s2_anchor)

def gaussian1d_metric(s2):
    return np.diag([1.0 / s2, 1.0 / (2.0 * s2 * s2)])


def gaussian1d_weyl_error(values, anchor_s2):
    """The Weyl prior exp(Omega) sqrt(det g) of N(mu, s2) is uniform.

    sqrt(det g) = (2 s2^3)^(-1/2) and exp(Omega) = (s2 / s2_anchor)^(3/2), so
    every value equals sqrt(det g(anchor)).
    """
    ref = 1.0 / np.sqrt(2.0 * anchor_s2 ** 3)
    return float(np.max(np.abs(np.asarray(values) / ref - 1.0)))


def normal_flat_posterior(x, mu_vals, s2_vals):
    """Normalized log posterior of N(mu, s2) under a flat prior on the grid."""
    mu, s2 = (m.reshape(-1) for m in np.meshgrid(mu_vals, s2_vals, indexing="ij"))
    x = np.asarray(x, dtype=float)
    sq = ((x[None, :] - mu[:, None]) ** 2).sum(axis=1)
    loglik = -0.5 * len(x) * np.log(2.0 * np.pi * s2) - sq / (2.0 * s2)
    return _normalized(loglik, log_cell_volumes(mu_vals, s2_vals))


def log_density_error(log_values, ref_log_values):
    return float(np.max(np.abs(np.asarray(log_values) - ref_log_values)))


# ---------------------------------------------------------------------------
# gaussian_mv:n in (mu, vech Sigma): priors are powers of det Sigma

def weyl_det_exponent(n):
    """Weyl prior of gaussian_mv:n is (det Sigma)^e with e = (n+2)(m-2)/4."""
    m = n + n * (n + 1) // 2
    return (n + 2) * (m - 2) / 4.0


def jeffreys_det_exponent(n):
    """Jeffreys prior of gaussian_mv:n is (det Sigma)^(-(n+2)/2)."""
    return -(n + 2) / 2.0


def det_sigma_2x2(points):
    """det Sigma for points (mu0, mu1, s00, s01, s11)."""
    p = np.asarray(points, dtype=float)
    return p[:, 2] * p[:, 4] - p[:, 3] ** 2


def det_power_error(points, values, exponent, anchor):
    """field(theta)/field(anchor) against (det Sigma / det Sigma_anchor)^e.

    The anchor is the grid point nearest ``anchor``; its own coordinates
    enter the reference, so the oracle needs no value off the grid.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    k = int(np.argmin(np.sum((points - np.asarray(anchor)) ** 2, axis=1)))
    det = det_sigma_2x2(points)
    ref = (det / det[k]) ** exponent
    return float(np.max(np.abs((values / values[k]) / ref - 1.0)))


# ---------------------------------------------------------------------------
# curvature: the normal family has constant Gaussian curvature -1/2

def normal_ricci_error(theta, ric):
    """Levi-Civita Ricci tensor of gaussian1d against K g with K = -1/2."""
    ref = -0.5 * gaussian1d_metric(theta[1])
    return float(np.max(np.abs(np.asarray(ric) - ref)) / np.max(np.abs(ref)))


# ---------------------------------------------------------------------------
# poisson: Jeffreys prior lambda^(-1/2), posterior Gamma(sum x + 1/2, n)

def poisson_jeffreys_error(lam, values):
    """The field must be proportional to lambda^(-1/2)."""
    r = np.asarray(values, dtype=float) * np.sqrt(np.asarray(lam, dtype=float))
    return float(np.max(np.abs(r / r[0] - 1.0)))


def gamma_posterior(lam, x):
    """Normalized log density of Gamma(sum x + 1/2, rate n) over trapezoid cells."""
    lam = np.asarray(lam, dtype=float)
    x = np.asarray(x, dtype=float)
    logp = (x.sum() - 0.5) * np.log(lam) - len(x) * lam
    return _normalized(logp, log_cell_volumes(lam))
