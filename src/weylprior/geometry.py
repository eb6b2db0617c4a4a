"""Connections, the Weyl 1-form and its potential, and identity residuals.

Levi-Civita coefficients are assembled from finite differences of the
quadrature metric; alpha and Weyl connections add their algebraic
corrections.  Residual functions return the full arrays so callers can
report max-norms against their tolerances.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ClosednessError, DomainError
from .numerics import DiffSpec, Path, gradient, line_integral
from .tensors import amari_chentsov, fisher_metric, inverse_metric, metric_and_cubic

# FD of connection coefficients sits on top of FD of the metric; a larger
# step keeps the amplified roundoff of the inner differences in check.
GAMMA_DIFF = DiffSpec(rel_step=1e-3)

CLOSEDNESS_TOL = 1e-6


@dataclass(frozen=True)
class ConnectionCoefficients:
    at: np.ndarray
    gamma: np.ndarray          # gamma[i, j, k] = Gamma^i_{jk}
    kind: str                  # "levi_civita" | "alpha(a)" | "weyl"
    chart: str


@dataclass(frozen=True)
class OneFormSample:
    at: np.ndarray
    phi: np.ndarray
    chart: str


@dataclass(frozen=True)
class PotentialValue:
    at: np.ndarray
    anchor: np.ndarray
    omega: float


def _domain(model, chart=None):
    ch = model.chart(chart)
    return ch, (lambda t: ch.contains(t))


def metric_array(model, theta, chart=None, quad=None):
    return fisher_metric(model, theta, chart, quad).g


def metric_derivatives(model, theta, chart=None, quad=None, diff=None):
    """dg[k, i, j] = d_k g_ij by central differences of the quadrature metric."""
    ch, dom = _domain(model, chart)
    return gradient(lambda t: metric_array(model, t, chart, quad), theta,
                    diff, dom)


def levi_civita(model, theta, chart=None, quad=None, diff=None):
    """Metric connection: Gamma^i_jk = 1/2 g^il (d_j g_lk + d_k g_jl - d_l g_jk)."""
    met = fisher_metric(model, theta, chart, quad)
    ginv = inverse_metric(met)
    dg = metric_derivatives(model, theta, chart, quad, diff)
    a = (np.transpose(dg, (1, 0, 2)) + np.transpose(dg, (2, 1, 0)) - dg)
    gamma = 0.5 * np.einsum("il,ljk->ijk", ginv, a)
    gamma = 0.5 * (gamma + np.transpose(gamma, (0, 2, 1)))
    return ConnectionCoefficients(met.at, gamma, "levi_civita", met.chart)


def alpha_connection(model, theta, alpha, chart=None, quad=None, diff=None):
    """Gamma^i_jk = LC - (alpha/2) g^il C_ljk."""
    lc = levi_civita(model, theta, chart, quad, diff)
    met, cub = metric_and_cubic(model, theta, chart, quad)
    gamma = lc.gamma - 0.5 * alpha * np.einsum("il,ljk->ijk", inverse_metric(met), cub.C)
    return ConnectionCoefficients(lc.at, gamma, f"alpha({alpha})", lc.chart)


def _phi(cub, ginv):
    return 0.5 * np.einsum("...ijk,...jk->...i", cub.C, ginv)


def weyl_one_form(model, theta, chart=None, quad=None):
    """phi_i = 1/2 C_ijk g^jk, the trace 1-form of the cubic tensor, at one
    point (m,) or at every row of a stack (P, m) in one stacked evaluation of
    the tensors; ``.phi`` has the shape of ``theta``."""
    met, cub = metric_and_cubic(model, theta, chart, quad)
    return OneFormSample(met.at, _phi(cub, inverse_metric(met)), met.chart)


def weyl_connection(model, theta, chart=None, quad=None, diff=None):
    """LC plus 1/2 (delta^i_j phi_k + delta^i_k phi_j - g^im g_jk phi_m)."""
    lc = levi_civita(model, theta, chart, quad, diff)
    met, cub = metric_and_cubic(model, theta, chart, quad)
    ginv = inverse_metric(met)
    phi = _phi(cub, ginv)
    m = model.dim
    eye = np.eye(m)
    corr = 0.5 * (np.einsum("ij,k->ijk", eye, phi)
                  + np.einsum("ik,j->ijk", eye, phi)
                  - np.einsum("im,m,jk->ijk", ginv, phi, met.g))
    return ConnectionCoefficients(lc.at, lc.gamma + corr, "weyl", lc.chart)


def one_form_field(model, chart=None, quad=None):
    """The Weyl 1-form as a plain callable theta -> phi, for one point (m,) or
    a stack (P, m), for finite differences and path integrals."""
    return lambda t: weyl_one_form(model, t, chart, quad).phi


def closedness_residual(model, theta, chart=None, quad=None, diff=None):
    """R_ij = d_i phi_j - d_j phi_i; zero iff phi is closed at theta."""
    ch, dom = _domain(model, chart)
    dphi = gradient(one_form_field(model, chart, quad), theta, diff, dom)
    return dphi - dphi.T


def _staircase(anchor, theta):
    """Axis-aligned waypoints from anchor to theta, one coordinate at a time."""
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


def _path_in_domain(waypoints, dom, probes=65):
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        for t in np.linspace(0.0, 1.0, probes):
            if not dom(a + t * (b - a)):
                return False
    return True


def potential_omega(model, theta, anchor, chart=None, quad=None, steps=24,
                    check_closedness=True):
    """Potential Omega with Omega(anchor) = 0, by integrating the Weyl 1-form.

    Straight anchor->theta path when it stays in the domain, otherwise an
    axis-aligned staircase.  Integration uses composite Gauss-Legendre so the
    potential is accurate to near machine precision for smooth 1-forms; the
    1-form is evaluated at all nodes of the path in one stacked call.
    """
    ch, dom = _domain(model, chart)
    theta = np.asarray(theta, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    if np.array_equal(theta, anchor):
        return PotentialValue(theta, anchor, 0.0)
    waypoints = [anchor, theta]
    if not _path_in_domain(waypoints, dom):
        waypoints = _staircase(anchor, theta)
        if not _path_in_domain(waypoints, dom):
            raise DomainError(
                f"no in-domain path from anchor {anchor.tolist()} to "
                f"theta {theta.tolist()} in chart {ch.name!r}")
    if check_closedness:
        mid = 0.5 * (anchor + theta)
        if not dom(mid):
            mid = waypoints[min(1, len(waypoints) - 1)]
        res = np.max(np.abs(closedness_residual(model, mid, chart, quad)))
        if res > CLOSEDNESS_TOL:
            raise ClosednessError(
                f"Weyl 1-form is not closed (residual {res:.3e} at "
                f"{np.asarray(mid).tolist()}); the potential is undefined")
    omega = line_integral(one_form_field(model, chart, quad),
                          Path(waypoints, steps=steps), rule="gauss")
    return PotentialValue(theta, anchor, omega)


def _connection_fn(model, kind, alpha, chart, quad, diff):
    if kind == "levi_civita":
        return lambda t: levi_civita(model, t, chart, quad, diff).gamma
    if kind == "alpha":
        return lambda t: alpha_connection(model, t, alpha, chart, quad, diff).gamma
    if kind == "weyl":
        return lambda t: weyl_connection(model, t, chart, quad, diff).gamma
    raise ValueError(f"unknown connection kind {kind!r}")


def ricci_tensor(model, theta, kind="levi_civita", alpha=None, chart=None,
                 quad=None, diff=None, gamma_diff=GAMMA_DIFF):
    """Ric_jk = d_i G^i_jk - d_j G^i_ik + G^i_ip G^p_jk - G^i_jp G^p_ik."""
    ch, dom = _domain(model, chart)
    gfn = _connection_fn(model, kind, alpha, chart, quad, diff)
    g0 = gfn(np.asarray(theta, dtype=float))
    dg = gradient(gfn, theta, gamma_diff, dom)   # dg[a, i, j, k]
    return (np.einsum("iijk->jk", dg)
            - np.einsum("jiik->jk", dg)
            + np.einsum("iip,pjk->jk", g0, g0)
            - np.einsum("ijp,pik->jk", g0, g0))


def duality_residual(model, theta, alpha, chart=None, quad=None, diff=None):
    """D_kij = d_k g_ij - (aG^l_ki g_lj + (-a)G^l_kj g_il); zero iff dual pair."""
    g = metric_array(model, theta, chart, quad)
    dg = metric_derivatives(model, theta, chart, quad, diff)
    gp = alpha_connection(model, theta, alpha, chart, quad, diff).gamma
    gm = alpha_connection(model, theta, -alpha, chart, quad, diff).gamma
    return (dg - np.einsum("lki,lj->kij", gp, g)
            - np.einsum("lkj,il->kij", gm, g))


def nabla_g_identity_residual(model, theta, alpha, chart=None, quad=None,
                              diff=None):
    """(nabla^a g)_kij - a C_kij; zero under the alpha-connection convention."""
    g = metric_array(model, theta, chart, quad)
    dg = metric_derivatives(model, theta, chart, quad, diff)
    ga = alpha_connection(model, theta, alpha, chart, quad, diff).gamma
    c = amari_chentsov(model, theta, chart, quad).C
    nabla_g = (dg - np.einsum("lki,lj->kij", ga, g)
               - np.einsum("lkj,il->kij", ga, g))
    return nabla_g - alpha * c


def weyl_compatibility_residual(model, theta, chart=None, quad=None, diff=None):
    """(nabla^W g)_kij + phi_k g_ij; zero for the Weyl connection."""
    g = metric_array(model, theta, chart, quad)
    dg = metric_derivatives(model, theta, chart, quad, diff)
    gw = weyl_connection(model, theta, chart, quad, diff).gamma
    phi = weyl_one_form(model, theta, chart, quad).phi
    return (dg - np.einsum("lki,lj->kij", gw, g)
            - np.einsum("lkj,il->kij", gw, g)
            + np.einsum("k,ij->kij", phi, g))


def trace_identity_residual(model, theta, chart=None, quad=None, diff=None):
    """| tr W-connection - tr Levi-Civita - (m/2) phi | per lower index."""
    lc = levi_civita(model, theta, chart, quad, diff).gamma
    wc = weyl_connection(model, theta, chart, quad, diff).gamma
    phi = weyl_one_form(model, theta, chart, quad).phi
    m = model.dim
    return (np.einsum("iji->j", wc) - np.einsum("iji->j", lc)
            - 0.5 * m * phi)


def weyl_translate(model, path: Path, chart=None, quad=None, rule="midpoint"):
    """Scale factor exp(int phi) carrying a scalar product along the path."""
    return float(np.exp(line_integral(one_form_field(model, chart, quad),
                                      path, rule=rule)))


def gauge_rescale_check(model, lam, path: Path, chart=None, quad=None,
                        diff=None, v=None):
    """Relative mismatch of the Weyl translation computed in two gauges.

    Branch A uses (g, phi); branch B uses (e^lam g, phi - d lam), mapped back
    to the same initial scalar product.  The Weyl structure axiom makes the
    two translated products equal.
    """
    ch, dom = _domain(model, chart)
    p = path.waypoints[0]
    q = path.waypoints[-1]
    m = model.dim
    if v is None:
        v = np.ones(m)
    gq = metric_array(model, q, chart, quad)
    base = float(v @ gq @ v)
    phi = one_form_field(model, chart, quad)
    val_a = np.exp(line_integral(phi, path, rule="gauss")) * base

    def phi_gauged(ts):
        return phi(ts) - np.array([gradient(lam, t, diff, dom) for t in ts])

    scale = np.exp(line_integral(phi_gauged, path, rule="gauss"))
    val_b = scale * np.exp(lam(q)) * base * np.exp(-lam(p))
    return abs(val_a - val_b) / max(abs(val_a), np.finfo(float).tiny)
